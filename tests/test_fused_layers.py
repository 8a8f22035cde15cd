"""Each layer is one tape node with a hand-written VJP; the reference ops in
``reference_ops`` record the same layer as separate matmul, bias-add,
activation and reparameterization nodes. Outputs, input gradients and every
parameter gradient must agree bit for bit, and so must a whole training
step of a DemandModel.
"""

import numpy as np
import pytest

from elastinet.model import ColumnDenseLayer
from elastinet.monodense import ActivationSplit, DenseLayer, MonoDenseLayer
from elastinet.tensor import Parameter, Tensor, backward, embedding_lookup, mse_loss, sum_sq
from elastinet.training import Adam, TrainConfig, prepare_model, train

import reference_ops as ref
from conftest import SMALL_ARCH

ROWS = [1, 128, 4096]
ACTIVATIONS = ["relu", "elu", "selu"]
# splits of width 10, several with empty subsets
SPLITS = {
    "default": (7 / 16, 7 / 16, 2 / 16),
    "convex-only": (1.0, 0.0, 0.0),
    "concave-only": (0.0, 1.0, 0.0),
    "bounded-only": (0.0, 0.0, 1.0),
    "no-bounded": (0.5, 0.5, 0.0),
    "no-convex": (0.0, 0.6, 0.4),
}
# indicators over 6 inputs
INDICATORS = {
    "mixed": [1, -1, 0, 1, 0, -1],
    "zeros": [0] * 6,
    "plus": [1] * 6,
    "minus": [-1] * 6,
}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def gradients(layer, forward, x, target):
    """Output, input gradient and parameter gradients of mse(forward(x))."""
    for p in [x, *layer.parameters()]:
        p.zero_grad()
    out = forward(x)
    backward(mse_loss(out, target))
    return [out.data.copy(), x.grad.copy(), *(p.grad.copy() for p in layer.parameters())]


def check_against_reference(layer, reference, n, in_width, seed):
    data = np.random.default_rng(seed)
    # spread 2 so every branch of every activation is taken
    x = Parameter(data.normal(scale=2.0, size=(n, in_width)), name="x")
    target = Tensor(data.normal(size=(n, layer.weights.cols)))
    layer.bias.data[...] = data.normal(size=layer.bias.shape)
    fused = gradients(layer, layer, x, target)
    unfused = gradients(layer, lambda t: reference(layer, t), x, target)
    assert all(same_bits(a, b) for a, b in zip(fused, unfused))


@pytest.mark.parametrize("n", ROWS)
@pytest.mark.parametrize("indicator", sorted(INDICATORS))
@pytest.mark.parametrize("split", sorted(SPLITS))
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_monodense_layer_matches_reference(activation, split, indicator, n):
    rng = np.random.default_rng(n)
    layer = MonoDenseLayer(
        6, 10, INDICATORS[indicator], ActivationSplit(*SPLITS[split]), activation, rng=rng, name="m"
    )
    check_against_reference(layer, ref.mono_dense_layer, n, 6, seed=n + 1)


@pytest.mark.parametrize("n", ROWS)
@pytest.mark.parametrize("indicator", sorted(INDICATORS))
def test_linear_monodense_head_matches_reference(indicator, n):
    layer = MonoDenseLayer(6, 1, INDICATORS[indicator], activation=None, rng=np.random.default_rng(n), name="head")
    check_against_reference(layer, ref.mono_dense_layer, n, 6, seed=n + 2)


@pytest.mark.parametrize("n", ROWS)
@pytest.mark.parametrize("activation", [*ACTIVATIONS, None])
def test_dense_layer_matches_reference(activation, n):
    layer = DenseLayer(7, 12, activation, rng=np.random.default_rng(n), name="trunk.0")
    check_against_reference(layer, ref.dense_layer, n, 7, seed=n + 3)


@pytest.mark.parametrize("n", ROWS)
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_encoder_bank_matches_reference(activation, n):
    bank = ColumnDenseLayer(21, 8, activation, rng=np.random.default_rng(n), name="enc")
    data = np.random.default_rng(n + 4)
    bank.bias.data[...] = data.normal(size=bank.bias.shape)
    x = data.normal(scale=2.0, size=(n, 21))
    target = Tensor(data.normal(size=(n, 21 * 8)))
    results = []
    for forward in (bank, lambda t: ref.column_dense_layer(bank, t)):
        for p in bank.parameters():
            p.zero_grad()
        out = forward(x)
        backward(mse_loss(out, target))
        results.append([out.data.copy(), bank.weights.grad.copy(), bank.bias.grad.copy()])
    assert all(same_bits(a, b) for a, b in zip(*results))


@pytest.mark.parametrize("n", ROWS)
def test_embedding_scatter_matches_add_at(n):
    data = np.random.default_rng(n)
    table = Parameter(data.normal(size=(37, 5)), name="emb")
    idx = data.integers(0, 37, size=n)  # repeats when n > 37
    # the gradient arrives as a column slice of a wider adjoint, as in the model
    wide = data.normal(size=(n, 9))
    grads = []
    for lookup in (embedding_lookup, ref.embedding_lookup):
        table.zero_grad()
        out = lookup(table, idx)
        backward(Tensor(np.zeros((1, 1)), (out,), lambda g: (wide[:, 2:7],)))
        grads.append(table.grad.copy())
    assert same_bits(*grads)


def test_adam_step_matches_reference():
    data = np.random.default_rng(5)
    params = [Parameter(data.normal(size=shape), name=f"p{i}") for i, shape in enumerate([(4, 3), (1, 3), (7, 2)])]
    twins = [Parameter(p.data.copy(), name=p.name) for p in params]
    config = TrainConfig(learning_rate=0.03)
    fused, reference = Adam(params, config), Adam(twins, config)
    for _ in range(5):
        grad = data.normal(size=fused.grad.shape)
        fused.grad[...] = grad
        reference.grad[...] = grad
        fused.step()
        ref.reference_adam_step(reference)
        assert same_bits(fused.data, reference.data)
        assert same_bits(fused.m, reference.m) and same_bits(fused.v, reference.v)


@pytest.mark.parametrize("batch", [1, 128, 4096])
def test_demand_model_training_step_matches_reference(small_split, batch):
    """Three Adam steps of mse + L2, through the fused forward and through the
    reference composition, leave every parameter with the same bits."""
    models = [prepare_model(small_split, SMALL_ARCH, seed=7) for _ in range(2)]
    forwards = [models[0].forward, lambda *a: ref.reference_forward(models[1], *a)]
    steps = [Adam.step, ref.reference_adam_step]
    cat, cont, mono = models[0].encode(small_split.train)
    y = models[0].stats.scale_target(small_split.train.target[:, None])
    rows = np.random.default_rng(batch).integers(0, y.shape[0], size=(3, batch))
    results = []
    for model, forward, step in zip(models, forwards, steps):
        opt = Adam(model.parameters(), TrainConfig())
        grads = []
        for idx in rows:
            opt.zero_grad()
            pred = forward(cat[idx], cont[idx], mono[idx])
            loss = mse_loss(pred, Tensor(y[idx])) + 1e-4 * sum_sq(*model.decayed_parameters())
            backward(loss)
            grads.append(opt.grad.copy())
            step(opt)
        results.append([pred.data, *grads, opt.data])
    assert all(same_bits(a, b) for a, b in zip(*results))


def test_one_training_step_records_21_tensors(small_split, monkeypatch):
    """Embeddings (7), their concatenation with the encoder bank (2), the
    trunk (2), the wrapped price inputs and their concatenation (2), the
    injection, post and head layers (3), the loss (2) and the L2 term (3)."""
    counts, in_step = [], [False]
    init = Tensor.__init__
    zero_grad, step = Adam.zero_grad, Adam.step

    def counting_init(self, *args, **kwargs):
        if in_step[0]:
            counts[-1] += 1
        init(self, *args, **kwargs)

    def open_step(self):
        counts.append(0)
        in_step[0] = True
        zero_grad(self)

    def close_step(self):
        step(self)
        in_step[0] = False

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    monkeypatch.setattr(Adam, "zero_grad", open_step)
    monkeypatch.setattr(Adam, "step", close_step)
    model = prepare_model(small_split, SMALL_ARCH, seed=3)
    assert len(model.names.categorical) == 7 and len(model.trunk) == 2 and len(model.post) == 1
    train(model, small_split, TrainConfig(epochs=1, batch_size=512, seed=3))
    assert len(counts) >= 2 and set(counts) == {21}
