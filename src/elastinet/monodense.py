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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .tensor import Parameter, Tensor, activate, activation_pair, add_bias, matmul

__all__ = [
    "ActivationSplit",
    "DEFAULT_SPLIT",
    "DenseLayer",
    "MonoDenseLayer",
    "bounded_activation",
    "concave_activation",
    "constrained_weights",
    "effective_weight",
    "glorot_uniform",
    "mono_activation",
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
    """Scalar form of the sign reparameterization (see constrained_weights)."""
    if t_i == 0:
        return float(raw_w)
    return float(t_i) * abs(float(raw_w))


def constrained_weights(w: Tensor, indicator: np.ndarray) -> Tensor:
    """Apply a checked indicator (see validate_indicator) row-wise to a weight matrix.

    Gradients flow through the reparameterization with d|w|/dw = sign(w),
    which is 0 at w == 0 (initialization avoids exact zeros).
    """
    t = indicator.reshape(-1, 1)
    unconstrained = t == 0.0
    eff = np.where(unconstrained, w.data, t * np.abs(w.data))
    dmul = np.where(unconstrained, 1.0, t * np.sign(w.data))

    def vjp(g):
        return (g * dmul,)

    return Tensor(eff, (w,), vjp)


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


def glorot_uniform(rng: np.random.Generator, in_width: int, out_width: int) -> np.ndarray:
    a = np.sqrt(6.0 / (in_width + out_width))
    w = rng.uniform(-a, a, size=(in_width, out_width))
    # exact zeros would pin d|w|/dw at 0; re-draw them (vanishingly rare)
    while np.any(w == 0.0):
        zeros = w == 0.0
        w[zeros] = rng.uniform(-a, a, size=int(zeros.sum()))
    return w


class DenseLayer:
    """Plain dense layer: x @ W + b, optional activation."""

    def __init__(self, in_width, out_width, activation, *, rng, name):
        if in_width <= 0 or out_width <= 0:
            raise ConfigError(f"layer widths must be positive, got {in_width}x{out_width}")
        if activation is not None:
            activation_pair(activation)  # validate the name early
        self.activation = activation
        self.weights = Parameter(glorot_uniform(rng, in_width, out_width), name=f"{name}.w")
        self.bias = Parameter(np.zeros((1, out_width)), name=f"{name}.b")

    def forward(self, x: Tensor) -> Tensor:
        z = add_bias(matmul(x, self.weights), self.bias)
        return activate(z, self.activation) if self.activation else z

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
        self.sizes = split.sizes(out_width)

    def forward(self, x: Tensor) -> Tensor:
        z = add_bias(matmul(x, constrained_weights(self.weights, self.indicator)), self.bias)
        return mono_activation(z, self.sizes, self.activation) if self.activation else z

    def effective_weight_matrix(self) -> np.ndarray:
        return constrained_weights(self.weights, self.indicator).data

    def sign_contract_holds(self) -> bool:
        """True iff every effective weight obeys its feature's indicator."""
        eff = self.effective_weight_matrix()
        t = self.indicator.reshape(-1, 1)
        return bool(np.all(np.where(t > 0, eff >= 0, np.where(t < 0, eff <= 0, True))))
