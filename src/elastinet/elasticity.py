"""Counterfactual arc elasticities and forecast-accuracy metrics.

An item's elasticity is read off two counterfactual demand predictions at
prices p and p + dp:  E = (y(p+dp) - y(p)) / y(p) * p / dp.  Because the
demand model is monotone non-increasing in price by construction, every
valid entry satisfies E <= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .data import _write_csv
from .errors import DegenerateDemandError, DomainError, MetricError

DEMAND_FLOOR = 1e-6  # baseline demand below this is flagged, not divided by
DEFAULT_DP_FRACTION = -0.05


def arc_elasticity(y_base: float, y_pert: float, p: float, dp: float) -> float:
    """Arc elasticity from demand at p (y_base) and at p+dp (y_pert)."""
    if p <= 0:
        raise DomainError(f"base price must be positive, got {p}")
    if p + dp == p:
        raise DomainError(f"price delta {dp} is zero or rounds away at price {p}")
    if p + dp <= 0:
        raise DomainError(f"perturbed price must be positive, got {p + dp}")
    if not (np.isfinite(y_base) and np.isfinite(y_pert)):
        raise DegenerateDemandError(f"predicted demand is not finite (baseline {y_base}, perturbed {y_pert})")
    if y_base <= DEMAND_FLOOR:
        raise DegenerateDemandError(f"baseline demand {y_base} is at or below the floor {DEMAND_FLOOR}")
    e = (y_pert - y_base) / y_base * p / dp
    if not np.isfinite(e):
        raise DegenerateDemandError(f"arc elasticity is not finite (baseline {y_base}, perturbed {y_pert})")
    return e


@dataclass
class ElasticityEntry:
    item_id: str
    p: float | None
    dp: float | None
    y_base: float | None
    y_pert: float | None
    elasticity: float | None
    status: str  # "ok" or a skip/failure reason


# elasticity.csv's columns, one per ElasticityEntry field, for data's column codec
_REPORT_COLUMNS = [(f.name, "str" if f.type == "str" else "float?") for f in fields(ElasticityEntry)]


@dataclass
class ElasticityReport:
    entries: list[ElasticityEntry] = field(default_factory=list)

    def valid_entries(self) -> list[ElasticityEntry]:
        return [e for e in self.entries if e.status == "ok"]

    def elasticities(self) -> dict[str, float]:
        return {e.item_id: e.elasticity for e in self.valid_entries()}

    def write_csv(self, path) -> None:
        """Write the entries as elasticity.csv; a None or NaN value is a blank cell."""
        table = {
            name: np.array([getattr(e, name) for e in self.entries], dtype=object if kind == "str" else np.float64)
            for name, kind in _REPORT_COLUMNS
        }
        _write_csv(path, _REPORT_COLUMNS, table)

    def truth_arcs(self, truths) -> dict[str, float]:
        """The true arc at each valid entry's own (p, dp), for the items of
        ``truths`` (each with ``item_id`` and ``arc_elasticity(p, dp)``)."""
        law = {t.item_id: t for t in truths}
        return {e.item_id: law[e.item_id].arc_elasticity(e.p, e.dp) for e in self.valid_entries() if e.item_id in law}


def evaluate_elasticities(model, inference, dp_fraction=DEFAULT_DP_FRACTION) -> ElasticityReport:
    """Two counterfactual predictions per row of an inference PairTable, at
    the row's lead price p and at p + dp with dp = dp_fraction * p, then the
    arc quotient.

    ``dp_fraction`` is one float or one value per row. A row whose p or dp
    cannot be used, or whose demand is degenerate, becomes a flagged entry;
    the batch never aborts. The entries follow the rows, stably sorted by
    item_id.
    """
    frac = np.asarray(dp_fraction, dtype=np.float64)
    if frac.ndim and frac.shape != (len(inference),):
        raise DomainError(f"dp_fraction must be one value or one per row ({len(inference)}), got shape {frac.shape}")
    p = inference.lead_price
    dp = frac * p
    with np.errstate(invalid="ignore"):  # inf + -inf is NaN, and NaN is masked
        ok = np.isfinite(p) & np.isfinite(dp) & (p > 0) & (p + dp != p) & (p + dp > 0)
    y_base = np.full(len(inference), np.nan)
    y_pert = np.full(len(inference), np.nan)
    if ok.any():
        rows = inference.take(np.flatnonzero(ok))
        y_base[ok] = model.predict_batch(rows, p[ok])
        y_pert[ok] = model.predict_batch(rows, p[ok] + dp[ok])

    report = ElasticityReport()
    for item_id, usable, pi, dpi, yb, yp in zip(
        inference.item_id.tolist(), ok.tolist(), p.tolist(), dp.tolist(), y_base.tolist(), y_pert.tolist()
    ):
        if not usable:
            entry = ElasticityEntry(item_id, pi, dpi, None, None, None, f"invalid query (p={pi}, dp={dpi})")
        else:
            try:
                entry = ElasticityEntry(item_id, pi, dpi, yb, yp, arc_elasticity(yb, yp, pi, dpi), "ok")
            except DegenerateDemandError as exc:
                entry = ElasticityEntry(item_id, pi, dpi, yb, yp, None, str(exc))
        report.entries.append(entry)
    report.entries.sort(key=lambda e: e.item_id)
    return report


def summarize_report(report, skipped, as_of_month, truths=()) -> tuple[dict, dict[str, float]]:
    """Add an entry per skipped (item_id, reason) to ``report`` and sort its
    entries by item; return elasticity_summary.json's payload and the truth
    arcs of ``truths`` (see truth_arcs), whose MAE and coverage the payload
    holds when there are any."""
    for item_id, reason in skipped:
        report.entries.append(ElasticityEntry(item_id, None, None, None, None, None, reason))
    report.entries.sort(key=lambda e: e.item_id)
    valid = [e.elasticity for e in report.valid_entries()]
    summary = {"items": len(report.entries), "valid": len(valid), "skipped": len(report.entries) - len(valid)}
    summary["as_of_month"] = as_of_month
    if valid:
        summary.update(
            mean_elasticity=float(np.mean(valid)), min_elasticity=float(np.min(valid)), max_elasticity=float(np.max(valid))
        )
    truth_arcs = report.truth_arcs(truths)
    if truth_arcs:
        summary["mae_vs_truth"], summary["truth_coverage"] = mae_elasticity(truth_arcs, report.elasticities())
    return summary, truth_arcs


def holdout_metrics(model, ds) -> dict:
    """metrics.json's payload: the WMAPE and row count of each non-empty held-out split of ``ds``."""
    metrics = {}
    for name, pairs in (("validation", ds.validation), ("out_of_time", ds.out_of_time)):
        if len(pairs):
            metrics[name] = {"wmape_pct": wmape(pairs.target, model.predict_batch(pairs)), "rows": len(pairs)}
    return metrics


def wmape(actuals, predictions) -> float:
    """Demand-weighted MAPE, in percent: sum|y - yhat| / sum y * 100."""
    y = np.asarray(actuals, dtype=np.float64)
    yhat = np.asarray(predictions, dtype=np.float64)
    if y.shape != yhat.shape or y.size == 0:
        raise MetricError(f"wmape needs equal-length non-empty inputs, got {y.shape} vs {yhat.shape}")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(yhat))):
        raise MetricError("wmape needs finite actuals and predictions")
    denom = y.sum()
    if denom <= 0:
        raise MetricError(f"wmape undefined: total actual demand is {denom}")
    return float(np.abs(y - yhat).sum() / denom * 100.0)


def mae_elasticity(truth, predicted) -> tuple[float, int]:
    """Mean |e - e_hat| over the key intersection; returns (mae, coverage)."""
    common = sorted(set(truth) & set(predicted))
    if not common:
        raise MetricError("no items in common between truth and predictions")
    errs = [abs(truth[k] - predicted[k]) for k in common]
    return float(np.mean(errs)), len(common)


def loglog_baseline(pairs) -> tuple[dict, list[tuple[str, str]]]:
    """Per-item OLS slope of log(units+1) on log(price) over a PairTable.

    Items with fewer than 3 pairs or no price variation are skipped with a
    reason. The slope is the baseline elasticity estimate.
    """
    items, item_code = np.unique(pairs.item_id, return_inverse=True)
    order = np.argsort(item_code, kind="stable")  # table order within an item
    bounds = np.cumsum(np.bincount(item_code, minlength=len(items)))

    slopes: dict[str, float] = {}
    skipped: list[tuple[str, str]] = []
    for item_id, rows in zip(items.tolist(), np.split(order, bounds[:-1])):
        if len(rows) < 3:
            skipped.append((item_id, f"only {len(rows)} pairs; need at least 3"))
            continue
        x = np.log(pairs.lead_price[rows])
        y = np.log(pairs.target[rows] + 1.0)
        if np.ptp(x) < 1e-12:
            skipped.append((item_id, "no price variation"))
            continue
        xc = x - x.mean()
        slopes[item_id] = float((xc @ (y - y.mean())) / (xc @ xc))
    return slopes, skipped
