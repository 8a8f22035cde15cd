"""Command-line entry point wiring the pipeline end to end.

A command returns nothing and fails only by raising. ``main`` exits 0, or
the raised error's ``exit_code`` (errors.py; an OSError takes ConfigError's).
After a command succeeds, ``main`` writes its resolved configuration as JSON
next to its outputs; re-running with the same inputs and seed reproduces
outputs byte-identically (timing goes to stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import data as dt
from . import synth
from .elasticity import DEFAULT_DP_FRACTION, evaluate_elasticities, holdout_metrics, loglog_baseline, summarize_report
from .errors import ConfigError, ElastinetError, NumericError, ParseError, SchemaMismatchError
from .gradcheck import TOLERANCE, check_demand_model
from .model import load_model, save_model
from .training import TrainConfig, prepare_model, train

# losses.csv and baseline.csv, for data's column codec
_LOSS_COLUMNS = [("epoch", "count"), ("train_loss", "float"), ("val_loss", "float")]
_BASELINE_COLUMNS = [("item_id", "str"), ("elasticity", "float")]


def _resolved_config(args: argparse.Namespace) -> None:
    """Write ``<command>_config.json`` into ``--out``: the resolved arguments
    but ``out``, ``config`` and the parser's ``func``."""
    values = {k: v for k, v in vars(args).items() if k not in ("out", "func", "config")}
    dt.write_json(Path(args.out) / f"{args.command}_config.json", values)


def _train_config(args: argparse.Namespace) -> TrainConfig:
    """Explicit flags over the ``--config`` file over TrainConfig's defaults,
    written back onto ``args``. The file holds one JSON object of TrainConfig
    fields, each of its default's type (an integer may stand for a float)."""
    defaults = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
    file_cfg = {}
    if args.config:
        with open(args.config, "rb") as fh:
            file_cfg = dt.read_json_object(fh.read(), f"config file {args.config}", ConfigError)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, default in defaults.items():
        value = file_cfg.get(key, default)
        allowed = (int, float) if isinstance(default, float) else type(default)
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ConfigError(f"config key {key!r} must be {type(default).__name__}, got {value!r}")
        if getattr(args, key) is None:
            setattr(args, key, value)
    return TrainConfig(**{key: getattr(args, key) for key in defaults})


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> None:
    world = synth.SyntheticWorld(
        n_items=args.items,
        n_months=args.months,
        start_month=args.start_month,
        seed=args.seed,
        noise_sigma=args.sigma,
        epsilon_range=(args.epsilon_min, args.epsilon_max),
        kinked=args.world == "kinked",
        stockout_rate=args.stockout_rate,
    )
    tx, truths = synth.generate(world)
    out = Path(args.out)
    dt.write_transactions(tx, out / "transactions.csv")
    synth.write_truth(truths, out / "truth.csv")
    print(f"wrote {len(tx)} records for {args.items} items to {out}")


def cmd_build(args) -> None:
    pairs = dt.build_pairs(dt.ingest(args.transactions))
    ds = dt.split(pairs, seed=args.seed, by_item=args.by_item)
    out = Path(args.out)
    dt.save_dataset(ds, args.transactions, out)
    counts = np.bincount(ds.labels, minlength=len(dt.SPLITS))
    print("pairs: " + " ".join(f"{name}={n}" for name, n in zip(dt.SPLITS, counts)))


def cmd_train(args) -> None:
    config = _train_config(args)
    ds = dt.load_dataset(args.dataset)
    model = prepare_model(ds, seed=config.seed)
    report = train(model, ds, config)
    out = Path(args.out)
    save_model(model, out / "model.mdnm")
    dt.write_json(out / "train_report.json", report.to_json_dict())
    losses = {"train_loss": np.array(report.train_losses), "val_loss": np.array(report.val_losses)}
    dt._write_csv(out / "losses.csv", _LOSS_COLUMNS, {"epoch": np.arange(1, config.epochs + 1), **losses})
    print(
        f"trained {config.epochs} epochs; final train loss {report.train_losses[-1]:.6f}, "
        f"val loss {report.val_losses[-1]:.6f} ({report.wall_time_seconds:.1f}s)",
        file=sys.stderr,
    )
    print(f"model written to {out / 'model.mdnm'}")


def _check_features(model, ds) -> None:
    """The model must read exactly the dataset's feature names, group by
    group and in the same order; the first group that differs is named."""
    for group in ("categorical", "continuous", "monotone", "event_names"):
        in_model, in_data = getattr(model.names, group), getattr(ds.names, group)
        if in_model != in_data:
            only_model, only_data = sorted(set(in_model) - set(in_data)), sorted(set(in_data) - set(in_model))
            differ = f"only the model has {only_model}, only the dataset has {only_data}"
            if set(in_model) == set(in_data):
                differ = f"the model orders them {list(in_model)}, the dataset {list(in_data)}"
            raise SchemaMismatchError(f"model and dataset {group} features differ: {differ}")


def cmd_evaluate(args) -> None:
    ds = dt.load_dataset(args.dataset)
    model = load_model(args.model)
    _check_features(model, ds)
    metrics = holdout_metrics(model, ds)
    dt.write_json(Path(args.out) / "metrics.json", metrics)
    for name, m in metrics.items():
        print(f"{name}: WMAPE {m['wmape_pct']:.2f}% over {m['rows']} rows")


def cmd_elasticity(args) -> None:
    if not (math.isfinite(args.dp_pct) and args.dp_pct != 0 and args.dp_pct > -100):
        raise ConfigError(f"--dp-pct must be finite, non-zero and above -100, got {args.dp_pct}")
    tx = dt.ingest(args.transactions)
    if not len(tx):
        raise ParseError(f"{args.transactions}: no transactions to read elasticities from")
    model = load_model(args.model)
    if args.as_of is None:
        args.as_of = int(tx.year_month.max())
    inference, skipped = dt.build_inference_set(tx, args.as_of)
    report = evaluate_elasticities(model, inference, dp_fraction=args.dp_pct / 100.0)
    truths = synth.read_truth(args.truth) if args.truth else ()
    summary, _ = summarize_report(report, skipped, args.as_of, truths)

    out = Path(args.out)
    report.write_csv(out / "elasticity.csv")
    dt.write_json(out / "elasticity_summary.json", summary)
    print(f"elasticities: {summary['valid']} valid, {summary['skipped']} skipped; report in {out}")


def cmd_baseline(args) -> None:
    ds = dt.load_dataset(args.dataset)
    # train pairs, then validation pairs: out_of_time has the largest label code
    pool = np.argsort(ds.labels, kind="stable")[: np.count_nonzero(ds.labels != dt._OUT_OF_TIME)]
    slopes, skipped = loglog_baseline(ds.pairs.take(pool))
    items = sorted(slopes)
    table = {"item_id": np.array(items, dtype=object), "elasticity": np.array([slopes[i] for i in items])}
    dt._write_csv(Path(args.out) / "baseline.csv", _BASELINE_COLUMNS, table)
    print(f"baseline: {len(slopes)} items fitted, {len(skipped)} skipped")


def cmd_gradcheck(args) -> None:
    _, report = check_demand_model(seed=args.seed, probes_per_param=args.probes)
    payload = {
        "max_rel_error": report.max_rel_error,
        "tolerance": TOLERANCE,
        "probes": report.probes,
        "per_param": dict(sorted(report.per_param.items())),
    }
    if args.out:
        dt.write_json(Path(args.out) / "gradcheck.json", payload)
    print(json.dumps({"max_rel_error": report.max_rel_error, "probes": report.probes}))
    if not report.passed():
        raise NumericError(f"gradcheck failed: max relative error {report.max_rel_error:.3e}")


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="elastinet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic transaction world")
    p.add_argument("--items", type=int, default=200)
    p.add_argument("--months", type=int, default=27)
    p.add_argument("--start-month", type=int, default=202301)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--epsilon-min", type=float, default=-3.0)
    p.add_argument("--epsilon-max", type=float, default=-0.5)
    p.add_argument("--world", choices=["constant", "kinked"], default="constant")
    p.add_argument("--stockout-rate", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build", help="build the lead/lag pair dataset and splits")
    p.add_argument("--transactions", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--by-item", action="store_true", help="split 80/20 by item instead of by pair")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("train", help="train the demand model")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", help="JSON config file merged under explicit flags")
    for f in dataclasses.fields(TrainConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="WMAPE of a trained model on the held-out splits")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("elasticity", help="counterfactual elasticity report")
    p.add_argument("--transactions", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--as-of", type=int, default=None, help="lag month YYYYMM; default latest")
    p.add_argument(
        "--dp-pct", type=float, default=100 * DEFAULT_DP_FRACTION, help="price change in percent; default -5"
    )
    p.add_argument("--truth", default=None, help="truth table CSV for MAE reporting")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_elasticity)

    p = sub.add_parser("baseline", help="log-log OLS elasticity baseline per item")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("gradcheck", help="finite-difference check of every layer type")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--probes", type=int, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        if args.out:
            _resolved_config(args)
    except (ElastinetError, OSError) as exc:
        code = getattr(exc, "exit_code", ConfigError.exit_code)
        print(f"{'numeric failure' if code == NumericError.exit_code else 'error'}: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
