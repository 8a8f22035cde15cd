"""The dense layers: ``DenseLayer`` and its monotone subclass ``MonoDenseLayer``.

``DenseLayer`` is x @ W + b with an optional activation; ``model`` imports
it from here for the encoders and the trunk. In a ``MonoDenseLayer`` each
input feature carries an indicator t_i in {-1, 0, +1}. The stored raw
weights are unconstrained; the effective weight row for feature i is
|w| for t_i=+1, -|w| for t_i=-1, and w unchanged for t_i=0, so the sign
contract holds by construction at every optimizer state. The layer output is
split into three neuron subsets activated by the base convex function rho,
its concave mirror -rho(-x), and a bounded piecewise combination of the two;
all three are monotone increasing, which preserves the per-feature sign of
the response. Without an activation it is a monotone linear layer, such as
the model's head.

Every layer call records one tape node (``tensor.dense``): the sign
reparameterization (``sign_reparam``) and the split activation
(``split_activation``) are (function, derivative) pairs that the node
applies in its forward pass and its VJP, and the derivatives are evaluated
only when a backward pass reaches the node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .tensor import Parameter, Tensor, activation_pair, dense

__all__ = [
    "ActivationSplit",
    "DEFAULT_SPLIT",
    "DenseLayer",
    "MonoDenseLayer",
    "bounded_activation",
    "concave_activation",
    "effective_weight",
    "glorot_uniform",
    "sign_reparam",
    "split_activation",
    "validate_indicator",
]


@dataclass(frozen=True)
class ActivationSplit:
    """Fractions of neurons given the convex / concave / bounded activation."""

    convex: float
    concave: float
    bounded: float

    def __post_init__(self):
        fr = (self.convex, self.concave, self.bounded)
        if not all(0 <= f < np.inf for f in fr):
            raise ConfigError(f"activation split fractions must be finite and non-negative, got {fr}")
        if abs(sum(fr) - 1.0) > 1e-9:
            raise ConfigError(f"activation split fractions must sum to 1, got {fr}")

    def sizes(self, width: int) -> tuple[int, int, int]:
        """Neuron counts (convex, concave, bounded); convex absorbs the remainder."""
        n_concave = int(self.concave * width)
        n_bounded = int(self.bounded * width)
        return width - n_concave - n_bounded, n_concave, n_bounded


DEFAULT_SPLIT = ActivationSplit(7 / 16, 7 / 16, 2 / 16)


def validate_indicator(indicator, width: int) -> np.ndarray:
    t = np.asarray(indicator, dtype=np.float64).reshape(-1)
    if t.shape[0] != width:
        raise ConfigError(f"indicator length {t.shape[0]} != input width {width}")
    if not np.all(np.isin(t, (-1.0, 0.0, 1.0))):
        raise ConfigError("indicator entries must be -1, 0, or +1")
    return t


def effective_weight(raw_w: float, t_i: int) -> float:
    """Scalar form of the sign reparameterization (see sign_reparam)."""
    if t_i == 0:
        return float(raw_w)
    return float(t_i) * abs(float(raw_w))


def sign_reparam(indicator: np.ndarray):
    """(r, dr) for a checked indicator (see validate_indicator), row-wise
    over a weight matrix: r gives the effective weights, dr their derivative
    in the raw ones, with d|w|/dw = sign(w), which is 0 at w == 0
    (initialization avoids exact zeros)."""
    t = indicator.reshape(-1, 1)
    unconstrained = t == 0.0

    def r(w):
        return np.where(unconstrained, w, t * np.abs(w))

    def dr(w):
        return np.where(unconstrained, 1.0, t * np.sign(w))

    return r, dr


def concave_activation(x, rho: str = "relu"):
    """Concave mirror -rho(-x) of the base convex activation."""
    f, _ = activation_pair(rho)
    return -f(-np.asarray(x, dtype=np.float64))


def bounded_activation(x, rho: str = "relu"):
    """Saturating activation: rho(x+1)-rho(1) below 0, -rho(1-x)+rho(1) above."""
    f, _ = activation_pair(rho)
    x = np.asarray(x, dtype=np.float64)
    rho1 = float(f(np.float64(1.0)))
    return np.where(x < 0.0, f(x + 1.0) - rho1, rho1 - f(1.0 - x))


def split_activation(sizes: tuple[int, int, int], rho: str):
    """(f, df) of the columnwise convex / concave / bounded activation over
    neuron subsets of the given sizes, in that column order.

    The convex and concave subsets are one pass over the whole block,
    s * rho(s * z) with s = +1 and -1, which is rho(z) and -rho(-z) exactly;
    the bounded columns are then overwritten with their own piecewise form.
    """
    rho_f, rho_df = activation_pair(rho)
    n_convex, n_concave, _ = sizes
    b = n_convex + n_concave
    s = np.ones(sum(sizes))
    s[n_convex:b] = -1.0

    def f(z):
        out = rho_f(z * s)
        out *= s
        out[:, b:] = bounded_activation(z[:, b:], rho)
        return out

    def df(z):
        d = rho_df(z * s)
        zb = z[:, b:]
        d[:, b:] = np.where(zb < 0.0, rho_df(zb + 1.0), rho_df(1.0 - zb))
        return d

    return f, df


def glorot_uniform(rng: np.random.Generator, in_width: int, out_width: int) -> np.ndarray:
    a = np.sqrt(6.0 / (in_width + out_width))
    w = rng.uniform(-a, a, size=(in_width, out_width))
    # exact zeros would pin d|w|/dw at 0; re-draw them (vanishingly rare)
    while np.any(w == 0.0):
        zeros = w == 0.0
        w[zeros] = rng.uniform(-a, a, size=int(zeros.sum()))
    return w


class DenseLayer:
    """Plain dense layer: x @ W + b, optional activation, as one tape node."""

    reparam = None  # (r, dr): the effective weights r(W) the product uses

    def __init__(self, in_width, out_width, activation, *, rng, name):
        if in_width <= 0 or out_width <= 0:
            raise ConfigError(f"layer widths must be positive, got {in_width}x{out_width}")
        self.activation = activation
        self.act = activation_pair(activation) if activation else None
        self.weights = Parameter(glorot_uniform(rng, in_width, out_width), name=f"{name}.w")
        self.bias = Parameter(np.zeros((1, out_width)), name=f"{name}.b")

    def forward(self, x: Tensor) -> Tensor:
        return dense(x, self.weights, self.bias, self.act, self.reparam)

    def __call__(self, x):
        return self.forward(x)

    def parameters(self) -> list[Parameter]:
        return [self.weights, self.bias]


class MonoDenseLayer(DenseLayer):
    """Dense layer with indicator-constrained weights and split activations."""

    def __init__(
        self,
        in_width: int,
        out_width: int,
        indicator,
        split: ActivationSplit = DEFAULT_SPLIT,
        activation: str | None = "relu",
        *,
        rng: np.random.Generator,
        name: str,
    ):
        super().__init__(in_width, out_width, activation, rng=rng, name=name)
        self.indicator = validate_indicator(indicator, in_width)
        self.reparam = sign_reparam(self.indicator)
        self.sizes = split.sizes(out_width)
        if activation:
            self.act = split_activation(self.sizes, activation)

    def effective_weight_matrix(self) -> np.ndarray:
        return self.reparam[0](self.weights.data)

    def sign_contract_holds(self) -> bool:
        """True iff every effective weight obeys its feature's indicator."""
        eff = self.effective_weight_matrix()
        t = self.indicator.reshape(-1, 1)
        return bool(np.all(np.where(t > 0, eff >= 0, np.where(t < 0, eff <= 0, True))))
