import numpy as np
import pytest

from elastinet.errors import ConfigError, DimensionError
from elastinet.monodense import (
    ActivationSplit,
    DEFAULT_SPLIT,
    DenseLayer,
    MonoDenseLayer,
    bounded_activation,
    concave_activation,
    effective_weight,
    sign_reparam,
    validate_indicator,
)
from elastinet.tensor import Parameter, Tensor


class TestEffectiveWeight:
    @pytest.mark.parametrize(
        "raw, t, expected",
        [
            (-0.5, 1, 0.5),  # absolute-value reparameterization
            (0.7, -1, -0.7),  # negative of a non-negative weight
            (0.3, 0, 0.3),  # unconstrained passthrough
            (0.0, 1, 0.0),
            (-2.0, -1, -2.0),
        ],
    )
    def test_scalar_cases(self, raw, t, expected):
        assert effective_weight(raw, t) == pytest.approx(expected)

    def test_matrix_form_matches_scalar(self):
        rng = np.random.default_rng(0)
        w = Parameter(rng.normal(size=(3, 4)), name="w")
        t = [-1, 0, 1]
        eff = sign_reparam(validate_indicator(t, 3))[0](w.data)
        for i, t_i in enumerate(t):
            for j in range(4):
                assert eff[i, j] == effective_weight(w.data[i, j], t_i)

    def test_gradients_flow_through_reparameterization(self):
        from elastinet.tensor import backward
        from test_tensor import tsum

        layer = MonoDenseLayer(3, 1, [1, -1, 0], activation=None, rng=np.random.default_rng(0), name="m")
        layer.weights.data[:, 0] = [-2.0, 3.0, 1.5]
        # an identity input makes the weight gradient d(eff)/dw itself
        backward(tsum(layer(Tensor(np.eye(3)))))
        # d|w|/dw = sign(w); negated branch flips it; t=0 passes through
        assert layer.weights.grad[:, 0].tolist() == [-1.0, -1.0, 1.0]

    def test_bad_indicator_rejected(self):
        rng = np.random.default_rng(0)
        for indicator in ([2, 0], [1, 0, -1]):
            with pytest.raises(ConfigError):
                validate_indicator(indicator, 2)
            with pytest.raises(ConfigError):
                MonoDenseLayer(2, 2, indicator, rng=rng, name="m")


class TestConcaveActivation:
    def test_relu_cases(self):
        assert concave_activation(2.0) == 0.0
        assert concave_activation(-2.0) == -2.0

    @pytest.mark.parametrize("rho", ["relu", "elu", "selu"])
    def test_zero_centered(self, rho):
        assert concave_activation(0.0, rho) == 0.0

    @pytest.mark.parametrize("rho", ["relu", "elu", "selu"])
    def test_mirror_identity_on_grid(self, rho):
        from elastinet.tensor import ACTIVATIONS

        f, _ = ACTIVATIONS[rho]
        x = np.linspace(-10, 10, 1000)
        assert np.array_equal(concave_activation(x, rho), -f(-x))


class TestBoundedActivation:
    def test_continuous_at_zero(self):
        for rho in ("relu", "elu", "selu"):
            left = bounded_activation(-1e-300, rho)
            right = bounded_activation(0.0, rho)
            assert abs(left - right) < 1e-12

    def test_hand_values_for_relu(self):
        assert bounded_activation(0.0) == 0.0
        assert bounded_activation(-0.5) == -0.5
        assert bounded_activation(-3.0) == -1.0  # saturated low
        assert bounded_activation(2.0) == 1.0  # saturated high

    def test_relu_range_is_unit_interval(self):
        x = np.linspace(-50, 50, 5001)
        y = bounded_activation(x)
        assert y.min() >= -1.0 and y.max() <= 1.0

    @pytest.mark.parametrize("rho", ["relu", "elu", "selu"])
    def test_monotone_on_dense_grid(self, rho):
        x = np.linspace(-10, 10, 4001)
        y = bounded_activation(x, rho)
        assert np.all(np.diff(y) >= 0.0)


class TestActivationSplit:
    def test_default_sizes_width_64(self):
        assert DEFAULT_SPLIT.sizes(64) == (28, 28, 8)

    def test_convex_absorbs_remainder(self):
        # floor(10*7/16)=4 concave, floor(10*2/16)=1 bounded, convex takes the rest
        assert DEFAULT_SPLIT.sizes(10) == (5, 4, 1)
        for width in range(1, 40):
            sizes = DEFAULT_SPLIT.sizes(width)
            assert sum(sizes) == width and all(s >= 0 for s in sizes)

    def test_invalid_fractions(self):
        with pytest.raises(ConfigError):
            ActivationSplit(0.5, 0.5, 0.5)
        with pytest.raises(ConfigError):
            ActivationSplit(-0.1, 0.6, 0.5)


class TestMonoDenseForward:
    def test_hand_computed_decreasing_neuron(self):
        rng = np.random.default_rng(0)
        layer = MonoDenseLayer(1, 1, [-1], split=ActivationSplit(1, 0, 0), rng=rng, name="m")
        layer.weights.data[...] = 2.0
        layer.bias.data[...] = 0.0
        assert layer(Tensor([[1.0]])).data[0, 0] == 0.0  # relu(-2)
        assert layer(Tensor([[-1.0]])).data[0, 0] == 2.0  # relu(+2)

    def test_zero_indicator_reduces_to_dense(self):
        from elastinet.tensor import relu
        from reference_ops import add_bias, matmul

        rng = np.random.default_rng(1)
        layer = MonoDenseLayer(3, 5, [0, 0, 0], split=ActivationSplit(1, 0, 0), rng=rng, name="m")
        x = Tensor(rng.normal(size=(4, 3)))
        plain = relu(add_bias(matmul(x, layer.weights), layer.bias)).data
        assert np.array_equal(layer(x).data, plain)

    def test_no_activation_is_a_monotone_linear_layer(self):
        from reference_ops import add_bias, matmul

        rng = np.random.default_rng(4)
        layer = MonoDenseLayer(3, 1, [1, 1, 1], activation=None, rng=rng, name="head")
        x = Tensor(rng.normal(size=(5, 3)))
        linear = add_bias(matmul(x, Tensor(np.abs(layer.weights.data))), layer.bias).data
        assert np.array_equal(layer(x).data, linear)

    def test_unknown_activation_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="unknown activation"):
            DenseLayer(2, 2, "tanh", rng=np.random.default_rng(0), name="d")
        with pytest.raises(ConfigError, match="unknown activation"):
            MonoDenseLayer(2, 2, [1, 1], activation="tanh", rng=np.random.default_rng(0), name="m")

    def test_width_mismatch(self):
        layer = MonoDenseLayer(3, 2, [0, 1, -1], rng=np.random.default_rng(2), name="m")
        with pytest.raises(DimensionError):
            layer(Tensor(np.ones((2, 4))))

    @pytest.mark.parametrize("direction", [1, -1])
    def test_monotone_in_constrained_feature_100_layers(self, direction):
        rng = np.random.default_rng(42 + direction)
        for _ in range(100):
            in_w = int(rng.integers(2, 6))
            out_w = int(rng.integers(1, 8))
            t = rng.choice([-1, 0, 1], size=in_w)
            j = int(rng.integers(in_w))
            t[j] = direction
            layer = MonoDenseLayer(in_w, out_w, t, rng=rng, name="m")
            x = rng.normal(size=(1, in_w))
            delta = float(rng.uniform(0.01, 3.0))
            x_hi = x.copy()
            x_hi[0, j] += delta
            lo, hi = layer(Tensor(x)).data, layer(Tensor(x_hi)).data
            if direction == 1:
                assert np.all(hi >= lo)
            else:
                assert np.all(hi <= lo)

    def test_monotonicity_property_1000_random_draws(self):
        # any layer, any input, any constrained feature, any positive delta
        rng = np.random.default_rng(7)
        for _ in range(1000):
            in_w = int(rng.integers(1, 7))
            out_w = int(rng.integers(1, 10))
            t = rng.choice([-1, 0, 1], size=in_w)
            constrained = np.flatnonzero(t != 0)
            if constrained.size == 0:
                t[0] = -1
                constrained = np.array([0])
            j = int(rng.choice(constrained))
            activation = str(rng.choice(["relu", "elu", "selu"]))
            layer = MonoDenseLayer(in_w, out_w, t, activation=activation, rng=rng, name="m")
            x = rng.normal(size=(1, in_w)) * 3
            delta = float(rng.uniform(1e-3, 5.0))
            x_hi = x.copy()
            x_hi[0, j] += delta
            lo, hi = layer(Tensor(x)).data, layer(Tensor(x_hi)).data
            if t[j] == 1:
                assert np.all(hi >= lo)
            else:
                assert np.all(hi <= lo)

    def test_sign_contract_check(self):
        rng = np.random.default_rng(3)
        layer = MonoDenseLayer(4, 6, [-1, 1, 0, -1], rng=rng, name="m")
        assert layer.sign_contract_holds()
        # contract holds for any raw weights, by construction
        layer.weights.data[...] = rng.normal(size=(4, 6)) * 100
        assert layer.sign_contract_holds()
