"""A synthetic world run through the whole pipeline in one process.

run_scenario is ``synth → build → train → evaluate → elasticity --truth``
without the files in between: the split is seeded by the world's seed, as
``build --seed`` seeds it, and the model and its training by the training
config's seed, as ``train --seed`` seeds them. Its metrics and summary come
from the functions the ``evaluate`` and ``elasticity`` commands call, so with
the commands' seeds they equal the ``metrics.json`` and
``elasticity_summary.json`` those commands write.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import data as dt
from .elasticity import evaluate_elasticities, holdout_metrics, summarize_report
from .model import ArchConfig, DemandModel
from .synth import SyntheticWorld, generate
from .training import TrainConfig, TrainReport, prepare_model, train


@dataclass
class ScenarioRun:
    split: dt.DatasetSplit
    model: DemandModel
    train_report: TrainReport
    metrics: dict  # metrics.json's payload
    summary: dict  # elasticity_summary.json's payload
    elasticities: dict[str, float]  # each valid item's estimated arc
    truth_arcs: dict[str, float]  # the true arc at each valid item's own (p, dp)
    wall_time_seconds: float


def run_scenario(
    world: SyntheticWorld,
    arch: ArchConfig | None = None,
    config: TrainConfig | None = None,
) -> ScenarioRun:
    """Generate ``world``, split its pairs, train a model of ``arch`` with
    ``config`` (the defaults when None), score the held-out splits, and read
    each item's elasticity at the latest month at the default price change."""
    t0 = time.perf_counter()
    config = config or TrainConfig()
    tx, truths = generate(world)
    split = dt.split(dt.build_pairs(tx), seed=world.seed)
    model = prepare_model(split, arch, seed=config.seed)
    train_report = train(model, split, config)
    metrics = holdout_metrics(model, split)
    as_of = int(tx.year_month.max())
    inference, skipped = dt.build_inference_set(tx, as_of)
    report = evaluate_elasticities(model, inference)
    summary, truth_arcs = summarize_report(report, skipped, as_of, truths)
    return ScenarioRun(
        split=split,
        model=model,
        train_report=train_report,
        metrics=metrics,
        summary=summary,
        elasticities=report.elasticities(),
        truth_arcs=truth_arcs,
        wall_time_seconds=time.perf_counter() - t0,
    )
