"""Reference tape ops: one node per matmul, bias add, activation and weight
reparameterization, and an ``np.add.at`` embedding scatter.

These are the ops the layers recorded before each layer became one node
with a hand-written VJP (``tensor.dense`` and ``tensor.column_dense``).
The fused layers must match compositions of them bit for bit, on outputs
and on every parameter gradient; ``reference_forward`` is the whole
``DemandModel.forward`` composed from them.

``reference_build_vocabs`` and ``reference_cat_matrix`` are the categorical
encoding as it was before it was factorized per transaction row: one
``np.unique`` over the string levels of every pair.

``effective_weight``, ``concave_activation``, ``category_column``,
``parameter_count`` and ``baseline_pool`` are scalar or readable forms of
library code that only the tests call; ``true_arc_elasticity`` is the
closed-form arc of a pure power law.
"""

from __future__ import annotations

import numpy as np

from elastinet import data as dt
from elastinet import model as md
from elastinet.errors import DimensionError, DomainError, EmbeddingIndexError
from elastinet.tensor import Parameter, Tensor, activation_pair, concat_cols
from elastinet.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise DimensionError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    a_data, b_data = a.data, b.data

    def vjp(g):
        return g @ b_data.T, a_data.T @ g

    return Tensor(a_data @ b_data, (a, b), vjp)


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Row-wise bias add; the only broadcast this library performs."""
    if bias.rows != 1 or bias.cols != x.cols:
        raise DimensionError(f"add_bias: bias {bias.shape} does not broadcast over {x.shape}")

    def vjp(g):
        return g, g.sum(axis=0, keepdims=True)

    return Tensor(x.data + bias.data, (x, bias), vjp)


def activate(x: Tensor, kind: str) -> Tensor:
    f, df = activation_pair(kind)
    x_data = x.data

    def vjp(g):
        return (g * df(x_data),)

    return Tensor(f(x_data), (x,), vjp)


def column_dense(x: np.ndarray, w: Tensor, b: Tensor) -> Tensor:
    """Column j of constant input x through its own 1 -> width dense map,
    before the activation."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != w.rows or b.shape != w.shape:
        raise DimensionError(f"column_dense: input {x.shape}, weights {w.shape}, bias {b.shape}")
    n, (k, width) = x.shape[0], w.shape

    def vjp(g):
        g3 = g.reshape(n, k, width)
        dw = np.matmul(np.ascontiguousarray(x.T)[:, None, :], g3.transpose(1, 0, 2))[:, 0, :]
        return dw, g3.sum(axis=0)

    out = x[:, :, None] * w.data[None] + b.data[None]
    return Tensor(out.reshape(n, k * width), (w, b), vjp)


def constrained_weights(w: Tensor, indicator: np.ndarray) -> Tensor:
    """Apply a checked indicator row-wise to a weight matrix."""
    t = indicator.reshape(-1, 1)
    unconstrained = t == 0.0
    eff = np.where(unconstrained, w.data, t * np.abs(w.data))
    dmul = np.where(unconstrained, 1.0, t * np.sign(w.data))

    def vjp(g):
        return (g * dmul,)

    return Tensor(eff, (w,), vjp)


def mono_activation(z: Tensor, sizes: tuple[int, int, int], rho: str) -> Tensor:
    """Columnwise convex / concave / bounded activation over neuron subsets."""
    n_convex, n_concave, n_bounded = sizes
    if n_convex + n_concave + n_bounded != z.cols:
        raise DimensionError(f"activation subsets {sizes} do not tile width {z.cols}")
    f, df = activation_pair(rho)
    zd = z.data
    rho1 = float(f(np.float64(1.0)))

    out = np.empty_like(zd)
    deriv = np.empty_like(zd)
    a, b = n_convex, n_convex + n_concave

    out[:, :a] = f(zd[:, :a])
    deriv[:, :a] = df(zd[:, :a])

    out[:, a:b] = -f(-zd[:, a:b])
    deriv[:, a:b] = df(-zd[:, a:b])

    zb = zd[:, b:]
    neg = zb < 0.0
    out[:, b:] = np.where(neg, f(zb + 1.0) - rho1, rho1 - f(1.0 - zb))
    deriv[:, b:] = np.where(neg, df(zb + 1.0), df(1.0 - zb))

    def vjp(g):
        return (g * deriv,)

    return Tensor(out, (z,), vjp)


def embedding_lookup(table: Parameter, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.rows):
        raise EmbeddingIndexError(f"index out of range for table with {table.rows} rows")

    def vjp(g):
        acc = np.zeros_like(table.data)
        np.add.at(acc, idx, g)
        return (acc,)

    return Tensor(table.data[idx], (table,), vjp)


def dense_layer(layer, x: Tensor) -> Tensor:
    """``layer(x)`` for a DenseLayer, as matmul, bias add and activation."""
    z = add_bias(matmul(x, layer.weights), layer.bias)
    return activate(z, layer.activation) if layer.activation else z


def mono_dense_layer(layer, x: Tensor) -> Tensor:
    """``layer(x)`` for a MonoDenseLayer, as reparameterization, matmul,
    bias add and split activation."""
    z = add_bias(matmul(x, constrained_weights(layer.weights, layer.indicator)), layer.bias)
    return mono_activation(z, layer.sizes, layer.activation) if layer.activation else z


def column_dense_layer(layer, x: np.ndarray) -> Tensor:
    """``layer(x)`` for the ColumnDenseLayer encoder bank, before fusing."""
    z = column_dense(x, layer.weights, layer.bias)
    return activate(z, layer.activation) if layer.activation else z


def reference_forward(model, cat_idx, cont_std, mono_std) -> Tensor:
    """``model.forward`` composed from the reference ops."""
    parts = [embedding_lookup(table, cat_idx[:, j]) for j, table in enumerate(model.embeddings.values())]
    parts.append(column_dense_layer(model.encoders, cont_std))
    h = concat_cols(parts)
    for layer in model.trunk:
        h = dense_layer(layer, h)
    h = mono_dense_layer(model.injection, concat_cols([h, Tensor(mono_std)]))
    for layer in model.post:
        h = mono_dense_layer(layer, h)
    return mono_dense_layer(model.head, h)


def reference_adam_step(opt) -> None:
    """``Adam.step`` with a fresh temporary for every intermediate."""
    opt.t += 1
    bc1 = 1.0 - ADAM_BETA1**opt.t
    bc2 = 1.0 - ADAM_BETA2**opt.t
    m, v, g = opt.m, opt.v, opt.grad
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (g * g)
    opt.data -= opt.cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def reference_category_column(table, name) -> np.ndarray:
    """The string levels of a categorical feature, one per pair."""
    if name in ("lag_month_of_year", "lead_month_of_year"):
        return dt.month_of_year(table.lag_month if name == "lag_month_of_year" else table.lead_month).astype(str)
    return getattr(table.tx, name)[table.lag]


def reference_build_vocabs(table, cat_names, seed: int) -> dict:
    """``build_vocabs`` over the levels of every pair."""
    rng = np.random.default_rng(seed)
    vocabs = {}
    for name in cat_names:
        levels = np.unique(reference_category_column(table, name)).tolist()
        kept = [lv for lv in levels if not (len(levels) > 2 and rng.random() < md.VOCAB_HOLDOUT_FRACTION)]
        vocabs[name] = {lv: i + 1 for i, lv in enumerate(kept)}
    return vocabs


def reference_cat_matrix(encoder, table, cat_names) -> np.ndarray:
    """``FeatureEncoder.cat_matrix`` over the levels of every pair."""
    out = np.empty((len(table), len(cat_names)), dtype=np.int64)
    for j, name in enumerate(cat_names):
        levels, inverse = np.unique(reference_category_column(table, name), return_inverse=True)
        out[:, j] = np.array([encoder.cat_index(name, lv) for lv in levels.tolist()], dtype=np.int64)[inverse]
    return out


def effective_weight(raw_w: float, t_i: int) -> float:
    """Scalar form of the sign reparameterization (see ``monodense.sign_reparam``)."""
    if t_i == 0:
        return float(raw_w)
    return float(t_i) * abs(float(raw_w))


def concave_activation(x, rho: str = "relu"):
    """Concave mirror -rho(-x) of the base convex activation."""
    f, _ = activation_pair(rho)
    return -f(-np.asarray(x, dtype=np.float64))


def category_column(table, name) -> np.ndarray:
    """String levels of a categorical feature, one per pair, read back from
    ``data.category_codes``; item attributes come from the lag month."""
    [(levels, codes)] = dt.category_codes(table, [name])
    return levels[codes]


def parameter_count(model) -> int:
    """The number of values in ``model``'s parameters."""
    return sum(p.data.size for p in model.parameters())


def baseline_pool(ds) -> dt.PairTable:
    """The log-log baseline's pool: the train pairs of a DatasetSplit, then its validation pairs."""
    return ds.pairs.take(np.concatenate([np.flatnonzero(ds.labels == code) for code in (dt._TRAIN, dt._VALIDATION)]))


def true_arc_elasticity(epsilon: float, p: float, dp: float) -> float:
    """Arc elasticity of a pure power law: ((p+dp)^e - p^e)/p^e * p/dp."""
    if p <= 0:
        raise DomainError(f"base price must be positive, got {p}")
    if dp == 0:
        raise DomainError("price delta must be non-zero")
    if p + dp <= 0:
        raise DomainError(f"perturbed price must be positive, got {p + dp}")
    return ((p + dp) ** epsilon - p**epsilon) / p**epsilon * p / dp
