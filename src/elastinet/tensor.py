"""Dense 2-D float64 tensors with define-by-run reverse-mode gradients.

The tape is implicit: every op returns a new Tensor holding references to its
parents and a vector-Jacobian closure. `backward` replays reachable nodes in
reverse creation order (ops are created after their inputs, so that order is
a valid reverse topological order) and accumulates adjoints into Parameter
gradients. Intermediate adjoints live only for the duration of one backward
pass; Parameter.grad accumulates across passes until zeroed.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ConfigError, DimensionError, EmbeddingIndexError, NumericError

_seq = itertools.count()


class Tensor:
    """A rows x cols float64 matrix, optionally produced by a recorded op."""

    __slots__ = ("data", "_parents", "_vjp", "_seq")

    def __init__(self, data, parents=(), vjp=None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise DimensionError(f"tensors are 2-D; got ndim={arr.ndim}")
        self.data = np.ascontiguousarray(arr)
        self._parents = tuple(parents)
        self._vjp = vjp
        self._seq = next(_seq)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __mul__(self, c: float) -> "Tensor":
        return scale(self, c)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class Parameter(Tensor):
    """A trainable leaf tensor with an accumulating gradient buffer."""

    __slots__ = ("grad", "name")

    def __init__(self, data, name: str):
        super().__init__(data)
        self.grad = np.zeros_like(self.data)
        self.name = name

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(param) into .grad of every reachable Parameter."""
    if loss.shape != (1, 1):
        raise DimensionError(f"backward starts from a scalar (1x1) tensor, got {loss.shape}")
    nodes = []
    seen = set()
    stack = [loss]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        nodes.append(n)
        stack.extend(n._parents)
    nodes.sort(key=lambda n: n._seq, reverse=True)

    adjoints = {id(loss): np.ones((1, 1))}
    for n in nodes:
        g = adjoints.pop(id(n), None)
        if g is None:
            continue  # not on a path that influences the loss
        if isinstance(n, Parameter):
            n.grad += g
            continue
        if n._vjp is None:
            continue  # constant leaf
        for parent, pg in zip(n._parents, n._vjp(g)):
            if pg is None:
                continue
            key = id(parent)
            if key in adjoints:
                adjoints[key] = adjoints[key] + pg
            else:
                adjoints[key] = pg


# ---------------------------------------------------------------------------
# elementwise activations (shared with the monotone layer construction)

_SELU_LAMBDA = 1.0507009873554804934193349852946
_SELU_ALPHA = 1.6732632423543772848170429916717


def _relu(x):
    return np.maximum(x, 0.0)


def _relu_deriv(x):
    # subgradient at exactly 0 is 0
    return (x > 0.0).astype(np.float64)


def _elu(x):
    x = np.asarray(x, dtype=np.float64)
    # np.minimum keeps the unused branch of np.where from overflowing
    return np.where(x < 0.0, np.expm1(np.minimum(x, 0.0)), x)


def _elu_deriv(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x < 0.0, np.exp(np.minimum(x, 0.0)), 1.0)


def _selu(x):
    x = np.asarray(x, dtype=np.float64)
    return _SELU_LAMBDA * np.where(x < 0.0, _SELU_ALPHA * np.expm1(np.minimum(x, 0.0)), x)


def _selu_deriv(x):
    x = np.asarray(x, dtype=np.float64)
    return _SELU_LAMBDA * np.where(x < 0.0, _SELU_ALPHA * np.exp(np.minimum(x, 0.0)), 1.0)


# name -> (f, df); all are zero-centered and monotone increasing
ACTIVATIONS = {
    "relu": (_relu, _relu_deriv),
    "elu": (_elu, _elu_deriv),
    "selu": (_selu, _selu_deriv),
}


def activation_pair(kind: str):
    try:
        return ACTIVATIONS[kind]
    except KeyError:
        raise ConfigError(f"unknown activation {kind!r}; choose from {sorted(ACTIVATIONS)}") from None


# ---------------------------------------------------------------------------
# ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise DimensionError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    a_data, b_data = a.data, b.data

    def vjp(g):
        return g @ b_data.T, a_data.T @ g

    return Tensor(a_data @ b_data, (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes differ, {a.shape} vs {b.shape}")

    def vjp(g):
        return g, g

    return Tensor(a.data + b.data, (a, b), vjp)


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Row-wise bias add; the only broadcast this library performs."""
    if bias.rows != 1 or bias.cols != x.cols:
        raise DimensionError(f"add_bias: bias {bias.shape} does not broadcast over {x.shape}")

    def vjp(g):
        return g, g.sum(axis=0, keepdims=True)

    return Tensor(x.data + bias.data, (x, bias), vjp)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def vjp(g):
        return (g * c,)

    return Tensor(x.data * c, (x,), vjp)


def column_dense(x: np.ndarray, w: Tensor, b: Tensor) -> Tensor:
    """Column j of constant input x through its own 1 -> width dense map.

    ``w`` and ``b`` are (k, width); the output is (n, k*width), column j's
    block at ``[:, j*width:(j+1)*width]``, bit for bit what k separate
    ``matmul`` + ``add_bias`` nodes give. No gradient flows to ``x``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != w.rows or b.shape != w.shape:
        raise DimensionError(f"column_dense: input {x.shape}, weights {w.shape}, bias {b.shape}")
    n, (k, width) = x.shape[0], w.shape

    def vjp(g):
        g3 = g.reshape(n, k, width)
        # one (1, n) @ (n, width) product per column, as the per-column matmuls
        dw = np.matmul(np.ascontiguousarray(x.T)[:, None, :], g3.transpose(1, 0, 2))[:, 0, :]
        return dw, g3.sum(axis=0)

    out = x[:, :, None] * w.data[None] + b.data[None]
    return Tensor(out.reshape(n, k * width), (w, b), vjp)


def concat_cols(parts) -> Tensor:
    parts = list(parts)
    if not parts:
        raise DimensionError("concat_cols: empty input")
    rows = parts[0].rows
    for p in parts:
        if p.rows != rows:
            raise DimensionError(f"concat_cols: row counts differ, {p.rows} vs {rows}")
    widths = [p.cols for p in parts]
    bounds = np.cumsum(widths)[:-1]

    def vjp(g):
        return tuple(np.hsplit(g, bounds)) if len(widths) > 1 else (g,)

    return Tensor(np.hstack([p.data for p in parts]), tuple(parts), vjp)


def activate(x: Tensor, kind: str) -> Tensor:
    f, df = activation_pair(kind)
    x_data = x.data

    def vjp(g):
        return (g * df(x_data),)

    return Tensor(f(x_data), (x,), vjp)


def relu(x: Tensor) -> Tensor:
    return activate(x, "relu")


def embedding_lookup(table: Parameter, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError(f"embedding_lookup: indices must be 1-D, got ndim={idx.ndim}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.rows):
        bad = idx[(idx < 0) | (idx >= table.rows)][0]
        raise EmbeddingIndexError(f"index {int(bad)} out of range for table with {table.rows} rows")

    def vjp(g):
        acc = np.zeros_like(table.data)
        np.add.at(acc, idx, g)
        return (acc,)

    return Tensor(table.data[idx], (table,), vjp)


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    if pred.shape != target.shape:
        raise DimensionError(f"mse_loss: shapes differ, {pred.shape} vs {target.shape}")
    if pred.data.size < 1:
        raise DimensionError("mse_loss: empty input")
    resid = pred.data - target.data
    n = resid.size

    def vjp(g):
        s = g[0, 0]
        d = (2.0 / n) * resid * s
        return d, -d

    return Tensor(np.array([[np.mean(resid * resid)]]), (pred, target), vjp)


def sum_sq(*xs: Tensor) -> Tensor:
    """Sum of squares over every entry of every input, as one node."""
    if not xs:
        raise DimensionError("sum_sq: empty input")
    datas = [x.data for x in xs]

    def vjp(g):
        return tuple(2.0 * d * g[0, 0] for d in datas)

    return Tensor(np.array([[sum(np.sum(d * d) for d in datas)]]), xs, vjp)
