import numpy as np
import pytest

from elastinet.errors import NumericError
from elastinet.gradcheck import check_demand_model, gradcheck
from elastinet.monodense import ActivationSplit, MonoDenseLayer
from elastinet.tensor import Parameter, Tensor, mse_loss, relu
from reference_ops import add_bias, matmul


def test_dense_layer_plus_mse_passes():
    rng = np.random.default_rng(0)
    w = Parameter(rng.normal(size=(4, 3)), name="w")
    b = Parameter(np.zeros((1, 3)), name="b")
    x = Tensor(rng.normal(size=(6, 4)))
    target = Tensor(rng.normal(size=(6, 3)))

    report = gradcheck(lambda: mse_loss(relu(add_bias(matmul(x, w), b)), target), [w, b], probes_per_param=8)
    assert report.max_rel_error < 1e-5
    assert set(report.per_param) == {"w", "b"}


def test_monodense_all_three_subsets_passes():
    rng = np.random.default_rng(1)
    # width 8 with split (0.5, 0.25, 0.25) -> 4 convex, 2 concave, 2 bounded
    layer = MonoDenseLayer(
        5, 8, [-1, 1, 0, -1, 0], split=ActivationSplit(0.5, 0.25, 0.25), rng=rng, name="m"
    )
    assert layer.sizes == (4, 2, 2)
    x = Tensor(rng.normal(size=(7, 5)))
    target = Tensor(rng.normal(size=(7, 8)))

    report = gradcheck(
        lambda: mse_loss(layer(x), target),
        layer.parameters(),
        probes_per_param=10,
        probe_filter=lambda p, r, c: not p.name.endswith(".w") or abs(p.data[r, c]) > 1e-3,
    )
    assert report.max_rel_error < 1e-5


def test_demand_model_check_probes_the_encoder_op():
    model, report = check_demand_model(seed=0, probes_per_param=3)
    assert model.encoders.weights.shape == (2, 3)
    assert {"enc.w", "enc.b"} <= set(report.per_param)
    assert set(report.per_param) == {p.name for p in model.parameters()}
    assert report.passed()


def test_zero_parameter_model_gives_empty_report():
    x = Tensor(np.ones((2, 2)))
    report = gradcheck(lambda: mse_loss(x, Tensor(np.zeros((2, 2)))), [])
    assert report.per_param == {}
    assert report.max_rel_error == 0.0


def test_non_finite_loss_identifies_failure():
    w = Parameter([[1.0]], name="w")

    def bad_loss():
        with np.errstate(invalid="ignore"):
            value = float(np.log(w.data[0, 0]))
        return Tensor([[value]], parents=(w,), vjp=lambda g: (g / w.data,))

    w.data[0, 0] = -1.0  # log of a negative number -> nan
    with pytest.raises(NumericError):
        gradcheck(bad_loss, [w])
