"""Dense 2-D float64 tensors with define-by-run reverse-mode gradients.

The tape is implicit: every op returns a new Tensor holding references to its
parents and a vector-Jacobian closure. `backward` replays reachable nodes in
reverse creation order (ops are created after their inputs, so that order is
a valid reverse topological order) and accumulates adjoints into Parameter
gradients. Intermediate adjoints live only for the duration of one backward
pass; Parameter.grad accumulates across passes until zeroed.

A whole layer is one node: `dense` and `column_dense` fold the weight
reparameterization, the product, the bias add and the activation into one
Tensor with a hand-written VJP. Forward keeps only what the VJP needs (a
relu layer keeps one array: it activates in place and differentiates at its
output); the derivative arrays are built lazily in the VJP, so forward-only
scoring passes never compute them. `embedding_lookup` scatters its gradient with
`np.bincount`, which sums in the same order as `np.add.at`.

A large `dense` VJP runs its two products on two cores: a helper thread
computes the input adjoint g @ W_eff.T while the calling thread computes the
weight gradient x.T @ g, and the VJP joins the helper before it returns. The
two products are independent, and numpy releases the interpreter lock inside
a BLAS call. Only whole products move: each stays one BLAS call on the same
operands, so the bits do not depend on which thread ran it, whereas splitting
one product into row or column blocks changes the rounding of some entries.
Each such VJP starts its own helper and joins it, so no thread outlives a
backward step: importing the module or scoring starts none, and a forked
child inherits none.
"""

from __future__ import annotations

import itertools
import os
import threading

import numpy as np

from .errors import ConfigError, DimensionError, EmbeddingIndexError

_seq = itertools.count()

# A dense VJP hands its input adjoint to a helper thread when the product has
# more than this many multiply-adds (rows x in x out); below it, starting the
# thread costs more than the overlap saves. Measured on a 2-core host with one
# BLAS thread, 200-item fits with the default widths: handing off the first
# trunk layer at batch 128 (3.7M) made training 15% slower, at batch 512
# (14.6M) 1.5% slower, at batch 1024 (29M) 2-3% faster. At batch 4096 every
# threshold from 4M to 16M trained equally fast.
_OFFLOAD_MIN_MACS = 16_000_000


class _Product(threading.Thread):
    """``np.matmul(a, b, out=out)`` on a thread of its own; ``join`` re-raises
    what the product raised."""

    def __init__(self, a, b, out):
        super().__init__(name="elastinet-dense-vjp")
        self.operands = (a, b, out)
        self.error = None

    def run(self):
        a, b, out = self.operands
        try:
            np.matmul(a, b, out=out)
        except Exception as exc:  # raised again by join, in the calling thread
            self.error = exc

    def join(self):
        super().join()
        if self.error is not None:
            raise self.error


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
    return np.greater(x, 0.0, out=np.empty_like(x, dtype=np.float64))


def _exp_linear(scale: float, alpha: float):
    """(f, df) of scale * (x if x >= 0 else alpha * (exp(x) - 1)); elu is (1, 1)."""

    def f(x):
        x = np.asarray(x, dtype=np.float64)
        # np.minimum keeps the unused branch of np.where from overflowing
        return scale * np.where(x < 0.0, alpha * np.expm1(np.minimum(x, 0.0)), x)

    def df(x):
        x = np.asarray(x, dtype=np.float64)
        return scale * np.where(x < 0.0, alpha * np.exp(np.minimum(x, 0.0)), 1.0)

    return f, df


# name -> (f, df); all are zero-centered and monotone increasing
ACTIVATIONS = {
    "relu": (_relu, _relu_deriv),
    "elu": _exp_linear(1.0, 1.0),
    "selu": _exp_linear(_SELU_LAMBDA, _SELU_ALPHA),
}


def activation_pair(kind: str):
    try:
        return ACTIVATIONS[kind]
    except KeyError:
        raise ConfigError(f"unknown activation {kind!r}; choose from {sorted(ACTIVATIONS)}") from None


# ---------------------------------------------------------------------------
# ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes differ, {a.shape} vs {b.shape}")

    def vjp(g):
        return g, g

    return Tensor(a.data + b.data, (a, b), vjp)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def vjp(g):
        return (g * c,)

    return Tensor(x.data * c, (x,), vjp)


def _activate(act, z):
    """The output f(z) of a layer with pre-activation ``z`` and the array
    its VJP evaluates df at; ``act`` is an (f, df) pair or None. relu(z) > 0
    exactly where z > 0, so relu's derivative reads the same off its output:
    relu overwrites z, and the node keeps one array instead of two."""
    if act is None:
        return z, None
    if act[0] is _relu:
        return np.maximum(z, 0.0, out=z), z
    return act[0](z), z


def _activation_vjp(act, at, g):
    """The adjoint of the pre-activation given the output's ``g``; ``at`` is
    what ``_activate`` returned for df. df(at) is a fresh array, so it takes
    the product and ``g``, which another node may also hold, is not written."""
    if act is None:
        return g
    d = act[1](at)
    d *= g
    return d


def _two_cpus() -> bool:
    """Whether this process may run on at least two CPUs."""
    try:
        return len(os.sched_getaffinity(0)) >= 2
    except AttributeError:  # no affinity mask on this platform: stay on one thread
        return False


def dense(x: Tensor, w: Parameter, b: Parameter, act=None, reparam=None) -> Tensor:
    """One dense layer as one node: f(x @ W + b), or linear without ``act``.

    ``act`` is an (f, df) pair applied to the pre-activation z. ``reparam``,
    an elementwise (r, dr) pair, makes the product use the effective weights
    r(W), and the weight gradient is chained through dr(W). The VJP builds
    the derivative arrays itself, so a forward-only pass never computes
    them. The numbers are bit for bit those of separate
    reparameterization, matmul, bias-add and activation nodes.

    When the product is large (more than ``_OFFLOAD_MIN_MACS`` multiply-adds)
    and the process may use two CPUs, the VJP computes dx = g @ W_eff.T on a
    helper thread while this thread computes dW = x.T @ g, then joins it.
    Both are whole BLAS calls, so the bits are those of the one-thread path.
    This thread allocates dx and the helper writes into it: an array the
    helper allocated would come from the helper's own glibc arena, which
    raised the peak RSS of a batch-4096 fit by 8%. The helper ends with the
    VJP: one long-lived helper, started in the middle of training, raised
    the peak RSS of `train`, `evaluate` and `elasticity` run in one process
    by up to 20 MB, and did not when started at import.
    """
    if x.cols != w.rows or b.shape != (1, w.cols):
        raise DimensionError(f"dense: input {x.shape}, weights {w.shape}, bias {b.shape}")
    x_data, w_data = x.data, w.data
    w_eff = w_data if reparam is None else reparam[0](w_data)
    z = x_data @ w_eff
    z += b.data
    out, at = _activate(act, z)

    def vjp(g):
        g = _activation_vjp(act, at, g)
        n, (k, c) = g.shape[0], w_eff.shape
        if n * k * c > _OFFLOAD_MIN_MACS and _two_cpus():
            dx = np.empty((n, k))
            dx_done = _Product(g, w_eff.T, dx)
            dx_done.start()
        else:
            dx, dx_done = g @ w_eff.T, None
        try:
            dw = x_data.T @ g
            if reparam is not None:
                dw *= reparam[1](w_data)
        finally:
            if dx_done is not None:
                dx_done.join()  # raises what the helper raised
        return dx, dw, g.sum(axis=0, keepdims=True)

    return Tensor(out, (x, w, b), vjp)


def column_dense(x: np.ndarray, w: Parameter, b: Parameter, act=None) -> Tensor:
    """Column j of constant input x through its own 1 -> width dense layer,
    all columns as one node.

    ``w`` and ``b`` are (k, width); the output is (n, k*width), column j's
    block at ``[:, j*width:(j+1)*width]``, bit for bit what k separate
    matmul, bias-add and activation nodes give. ``act`` is as in ``dense``.
    No gradient flows to ``x``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != w.rows or b.shape != w.shape:
        raise DimensionError(f"column_dense: input {x.shape}, weights {w.shape}, bias {b.shape}")
    n, (k, width) = x.shape[0], w.shape
    # x[i, j] * w[j, c] + b[j, c] at column j*width + c
    z = np.repeat(x, width, axis=1)
    z *= w.data.reshape(-1)
    z += b.data.reshape(-1)
    out, at = _activate(act, z)

    def vjp(g):
        g3 = _activation_vjp(act, at, g).reshape(n, k, width)
        # one (1, n) @ (n, width) product per column, as the per-column matmuls
        dw = np.matmul(np.ascontiguousarray(x.T)[:, None, :], g3.transpose(1, 0, 2))[:, 0, :]
        return dw, g3.sum(axis=0)

    return Tensor(out, (w, b), vjp)


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


def relu(x: Tensor) -> Tensor:
    """A standalone relu node; the layers apply theirs inside ``dense``."""
    x_data = x.data

    def vjp(g):
        return (g * _relu_deriv(x_data),)

    return Tensor(_relu(x_data), (x,), vjp)


def embedding_lookup(table: Parameter, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError(f"embedding_lookup: indices must be 1-D, got ndim={idx.ndim}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.rows):
        bad = idx[(idx < 0) | (idx >= table.rows)][0]
        raise EmbeddingIndexError(f"index {int(bad)} out of range for table with {table.rows} rows")

    def vjp(g):
        # bin idx[i] * cols + c holds table entry (idx[i], c); bincount adds
        # into zeroed bins in index order, as np.add.at does, so the sums
        # are the same bits in less time
        flat = (idx[:, None] * table.cols + np.arange(table.cols)).ravel()
        acc = np.bincount(flat, weights=g.ravel(), minlength=table.data.size)
        return (acc.reshape(table.shape),)

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
