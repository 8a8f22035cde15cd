"""Model fitting: standardization stats, Adam, and the epoch/batch loop."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import data as dt
from .errors import ConfigError, NumericError
from .model import ArchConfig, DemandModel, StandardizationStats, build_vocabs
from .tensor import Parameter, backward, mse_loss, sum_sq, Tensor

STD_FLOOR = 1e-8

# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    epochs: int = 25
    batch_size: int = 128
    learning_rate: float = 0.01
    l2_decay: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0 or not 0 <= self.learning_rate < np.inf:
            raise ConfigError("epochs and batch_size must be positive, learning_rate finite and non-negative")
        if not 0 <= self.l2_decay < np.inf:
            raise ConfigError(f"l2_decay must be finite and non-negative, got {self.l2_decay}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class TrainReport:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    final_param_norms: dict = field(default_factory=dict)
    wall_time_seconds: float = 0.0

    def to_json_dict(self) -> dict:
        """Losses and norms; the wall time is left out, so reruns write the same bytes."""
        return {
            "epochs": [
                {"epoch": i + 1, "train_loss": t, "val_loss": v}
                for i, (t, v) in enumerate(zip(self.train_losses, self.val_losses))
            ],
            "final_param_norms": dict(sorted(self.final_param_norms.items())),
        }


class Adam:
    """Bias-corrected Adam over flat buffers of all parameters.

    The constructor copies every parameter's values and gradient into the
    flat ``data`` and ``grad`` buffers and rebinds ``Parameter.data`` and
    ``.grad`` to reshaped views of them, so a step is a few vector ops over
    all parameters at once; the update is elementwise, hence the same
    numbers as a per-parameter loop. A step writes its intermediates into
    two preallocated scratch buffers instead of fresh temporaries.
    """

    def __init__(self, params: list[Parameter], config: TrainConfig):
        self.cfg = config
        self.t = 0
        size = sum(p.data.size for p in params)
        self.data = np.empty(size)
        self.grad = np.empty(size)
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._a = np.empty(size)
        self._b = np.empty(size)
        lo = 0
        for p in params:
            hi = lo + p.data.size
            shape = p.shape
            self.data[lo:hi] = p.data.reshape(-1)
            self.grad[lo:hi] = p.grad.reshape(-1)
            p.data = self.data[lo:hi].reshape(shape)
            p.grad = self.grad[lo:hi].reshape(shape)
            lo = hi

    def step(self) -> None:
        """m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2;
        data -= lr (m / bc1) / (sqrt(v / bc2) + eps)."""
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        m, v, g, a, b = self.m, self.v, self.grad, self._a, self._b
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        v *= ADAM_BETA2
        np.multiply(g, g, out=a)
        v += np.multiply(a, 1.0 - ADAM_BETA2, out=a)
        np.divide(m, bc1, out=a)
        a *= self.cfg.learning_rate
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        self.data -= a

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


def fit_stats(table: dt.PairTable, cont_names, mono_names) -> StandardizationStats:
    """Population means/stds over training pairs only. A std at or below
    STD_FLOOR becomes 1, so a column constant over the training pairs is
    centred only: a value that differs at scoring time is not scaled up by
    1/STD_FLOOR."""
    if not len(table):
        raise ConfigError("cannot fit standardization stats on an empty split")
    means, stds = {}, {}
    for name in list(cont_names) + list(mono_names):
        col = dt.feature_column(table, name)
        means[name] = float(col.mean())
        stds[name] = _std_scale(col.std())
    return StandardizationStats(
        means=means,
        stds=stds,
        target_mean=float(table.target.mean()),
        target_std=_std_scale(table.target.std()),
    )


def _std_scale(std) -> float:
    """The scale a column with population std ``std`` is divided by."""
    return float(std) if std > STD_FLOOR else 1.0


def prepare_model(
    split: dt.DatasetSplit,
    arch: ArchConfig | None = None,
    seed: int = 0,
) -> DemandModel:
    """An untrained model of a dataset: its feature names, and the vocabs and
    standardization stats of its train split."""
    names = split.names
    vocabs = build_vocabs(split.train, names.categorical, seed=seed)
    stats = fit_stats(split.train, names.continuous, names.monotone)
    return DemandModel(names, vocabs, stats, arch or ArchConfig(), seed=seed)


def _validation_loss(model: DemandModel, inputs, target) -> float:
    """MSE in scaled space over the encoded validation rows, forward only."""
    total = 0.0
    for rows, pred in model._passes(*inputs):
        total += float(np.sum((pred - target[rows]) ** 2))
    return total / target.shape[0]


def train(
    model: DemandModel,
    split: dt.DatasetSplit,
    config: TrainConfig | None = None,
    epoch_callback=None,
) -> TrainReport:
    """Minimize MSE (scaled target) + L2 on dense/monodense raw weights.

    Each epoch shuffles the training rows with the seeded generator and
    iterates batches (last partial batch kept). ``epoch_callback(epoch,
    model)`` runs after each epoch, e.g. for monotonicity probes.
    """
    config = config or TrainConfig()
    if not len(split.validation):
        raise ConfigError("the dataset has no validation pairs to report a validation loss on")
    t0 = time.perf_counter()

    cat_tr, cont_tr, mono_tr = model.encode(split.train)
    y_tr = model.stats.scale_target(split.train.target[:, None])
    val_inputs = model.encode(split.validation)
    y_val = model.stats.scale_target(split.validation.target[:, None])

    params = model.parameters()
    decayed = model.decayed_parameters()
    opt = Adam(params, config)
    rng = np.random.default_rng(config.seed)
    n = y_tr.shape[0]
    report = TrainReport()

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        sq_err_sum = 0.0
        for lo in range(0, n, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            opt.zero_grad()
            pred = model.forward(cat_tr[idx], cont_tr[idx], mono_tr[idx])
            batch_mse = mse_loss(pred, Tensor(y_tr[idx]))
            loss = batch_mse
            if config.l2_decay > 0:
                loss = loss + config.l2_decay * sum_sq(*decayed)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                norms = {p.name: float(np.linalg.norm(p.data)) for p in params}
                raise NumericError(
                    f"non-finite loss at epoch {epoch + 1}, batch {lo // config.batch_size + 1}; "
                    f"parameter norms: {norms}"
                )
            backward(loss)
            opt.step()
            sq_err_sum += batch_mse.item() * idx.shape[0]
        report.train_losses.append(sq_err_sum / n)
        report.val_losses.append(_validation_loss(model, val_inputs, y_val))
        if epoch_callback is not None:
            epoch_callback(epoch + 1, model)

    report.final_param_norms = {p.name: float(np.linalg.norm(p.data)) for p in params}
    report.wall_time_seconds = time.perf_counter() - t0
    return report
