"""Finite-difference validation of the analytic backward rules."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import data as dt
from .errors import ConfigError, NumericError
from .model import ArchConfig, DemandModel, StandardizationStats
from .tensor import Parameter, Tensor, backward, mse_loss, sum_sq

# Relative error uses max(|analytic|, |numeric|, REL_FLOOR) as denominator; the
# floor turns the check into an absolute one for near-zero gradients, where
# central-difference cancellation noise would otherwise dominate the quotient.
REL_FLOOR = 1e-4
TOLERANCE = 1e-5  # passed() when every relative error is below it


@dataclass
class GradCheckReport:
    """Worst relative error per parameter, plus the global maximum."""

    per_param: dict[str, float] = field(default_factory=dict)
    probes: int = 0

    @property
    def max_rel_error(self) -> float:
        return max(self.per_param.values(), default=0.0)

    def passed(self) -> bool:
        return self.max_rel_error < TOLERANCE


def gradcheck(
    loss_fn,
    params: list[Parameter],
    probes_per_param: int = 5,
    step: float = 1e-5,
    seed: int = 0,
    probe_filter=None,
) -> GradCheckReport:
    """Compare analytic gradients of ``loss_fn()`` against central differences.

    ``loss_fn`` must rebuild the forward graph from the current parameter
    values and return a scalar Tensor, deterministically. ``probe_filter``
    (param, row, col) -> bool restricts which entries may be probed, e.g. to
    stay away from the |w| reparameterization kink.
    """
    if probes_per_param < 1:
        raise ConfigError(f"probes per parameter must be at least 1, got {probes_per_param}")
    rng = np.random.default_rng(seed)
    report = GradCheckReport()

    for p in params:
        p.zero_grad()
    loss = loss_fn()
    if not np.isfinite(loss.item()):
        raise NumericError("gradcheck: loss is non-finite")
    backward(loss)
    analytic = {p.name: p.grad.copy() for p in params}

    for p in params:
        candidates = [
            (r, c)
            for r in range(p.rows)
            for c in range(p.cols)
            if probe_filter is None or probe_filter(p, r, c)
        ]
        if not candidates:
            continue
        worst = 0.0
        n = min(probes_per_param, len(candidates))
        chosen = rng.choice(len(candidates), size=n, replace=False)
        for k in chosen:
            r, c = candidates[int(k)]
            saved = p.data[r, c]
            p.data[r, c] = saved + step
            f_plus = loss_fn().item()
            p.data[r, c] = saved - step
            f_minus = loss_fn().item()
            p.data[r, c] = saved
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(f"gradcheck: non-finite loss while probing parameter {p.name!r}")
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = analytic[p.name][r, c]
            err = abs(a - numeric) / max(abs(a), abs(numeric), REL_FLOOR)
            worst = max(worst, err)
            report.probes += 1
        report.per_param[p.name] = worst

    return report


def check_demand_model(seed: int, probes_per_param: int) -> tuple[DemandModel, GradCheckReport]:
    """Gradcheck a small fixed DemandModel on seeded random inputs.

    The architecture covers embeddings, the column-dense encoders, the
    trunk, monodense layers with all three activation subsets and the head;
    the loss is MSE plus the L2 term. Raw weights within 1e-3 of the |w|
    kink are not probed.
    """
    names = dt.FeatureNames(("item_id", "brand"), ("lag_price", "lag_units"), tuple(dt.MONOTONE_FEATURES), ())
    vocabs = {"item_id": {f"item_{k}": k for k in range(1, 6)}, "brand": {f"brand_{k}": k for k in range(1, 4)}}
    arch = ArchConfig(trunk_widths=(8,), injection_width=8, post_widths=(4,), encoder_width=3)
    # the inputs below are fed to forward as already standardized, so the stats are the identity
    scaled = (*names.continuous, *names.monotone)
    identity = StandardizationStats(dict.fromkeys(scaled, 0.0), dict.fromkeys(scaled, 1.0), 0.0, 1.0)
    model = DemandModel(names, vocabs, identity, arch, seed=seed)
    rng = np.random.default_rng(seed)
    n = 12
    cat = np.column_stack([rng.integers(0, 6, n), rng.integers(0, 4, n)])
    cont = rng.normal(size=(n, 2))
    mono = rng.normal(size=(n, 2))
    target = Tensor(rng.normal(size=(n, 1)))

    def loss_fn():
        return mse_loss(model.forward(cat, cont, mono), target) + 1e-4 * sum_sq(*model.decayed_parameters())

    report = gradcheck(
        loss_fn,
        model.parameters(),
        probes_per_param=probes_per_param,
        seed=seed,
        probe_filter=lambda p, r, c: not p.name.endswith(".w") or abs(p.data[r, c]) > 1e-3,
    )
    return model, report
