"""Acceptance suite: one test per release criterion, each printing a verdict.

The quantitative recovery checks run the full pinned-scale scenario
(200 items x 27 months, 25 epochs, batch 128, lr 0.01) through
run_scenario, so they read the MAE and WMAPE that `elasticity` and
`evaluate` would write; they take about a minute, everything else is
fast. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest

from elastinet import data as dt
from elastinet.cli import main
from elastinet.elasticity import evaluate_elasticities, loglog_baseline, mae_elasticity
from elastinet.gradcheck import check_demand_model
from elastinet.model import ArchConfig, load_model, save_model
from elastinet.monodense import bounded_activation
from elastinet.scenario import run_scenario
from elastinet.synth import SyntheticWorld, generate
from elastinet.tensor import ACTIVATIONS
from elastinet.training import TrainConfig, prepare_model, train
from reference_ops import concave_activation

RECOVERY_SEED = 24  # pinned scenario seed; see the acceptance notes in README
TRAIN_DEFAULTS = dict(epochs=25, batch_size=128, learning_rate=0.01)


def verdict(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {status} - {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared runs


@pytest.fixture(scope="module")
def probe_world():
    """Small world for the structural checks; trained the full 25 epochs."""
    world = SyntheticWorld(n_items=40, n_months=16, seed=7)
    tx, truths = generate(world)
    split_ = dt.split(dt.build_pairs(tx), seed=7)
    arch = ArchConfig(trunk_widths=(48, 24), injection_width=32, post_widths=(16,))
    return world, tx, split_, arch


@pytest.fixture(scope="module")
def monotonicity_run(probe_world):
    """Untrained + per-epoch 50-point grid probes over 1000 random rows.

    Vocabularies and standardization stats stay fixed while training, so
    each grid point is encoded once, before training; one equality check
    against predict_batch pins the probe to the public prediction path.
    """
    _, tx, split_, arch = probe_world
    rng = np.random.default_rng(7)
    pool = split_.fit_pool
    rows = pool.take(rng.integers(0, len(pool), size=1000))
    grid = np.linspace(0.5, 1.5, 50)
    violations = {"count": 0, "checkpoints": 0}

    model = prepare_model(split_, arch, seed=7)
    grid_inputs = [model.encode(rows, rows.lead_price * frac) for frac in grid]

    def predict_at(m, k):
        return m.stats.unscale_target(m.forward(*grid_inputs[k]).data[:, 0])

    def probe(m):
        prev = None
        for k in range(len(grid)):
            y = predict_at(m, k)
            if prev is not None:
                violations["count"] += int(np.sum(y > prev))
            prev = y
        violations["checkpoints"] += 1

    assert np.array_equal(predict_at(model, 0), model.predict_batch(rows, rows.lead_price * grid[0]))
    t0 = time.perf_counter()
    probe(model)  # untrained
    train(model, split_, TrainConfig(seed=7, **TRAIN_DEFAULTS), epoch_callback=lambda e, m: probe(m))
    elapsed = time.perf_counter() - t0
    return model, tx, violations, elapsed


def pinned_run(**knobs):
    """The pinned quantitative scenario, through the CLI's chain in one process."""
    world = SyntheticWorld(
        n_items=200, n_months=27, seed=RECOVERY_SEED, noise_sigma=0.1, epsilon_range=(-3.0, -0.5), **knobs
    )
    return run_scenario(world, config=TrainConfig(seed=RECOVERY_SEED, **TRAIN_DEFAULTS))


@pytest.fixture(scope="module")
def recovery_run():
    """Constant-elasticity world."""
    return pinned_run()


@pytest.fixture(scope="module")
def kinked_run():
    """Non-constant-elasticity world: model MAE and log-log baseline MAE."""
    run = pinned_run(kinked=True)
    slopes, _ = loglog_baseline(run.split.fit_pool)
    base_truth = {k: v for k, v in run.truth_arcs.items() if k in slopes}
    baseline_mae, _ = mae_elasticity(base_truth, {k: slopes[k] for k in base_truth})
    return run.summary["mae_vs_truth"], baseline_mae


# ---------------------------------------------------------------------------
# criteria


def test_structural_monotonicity(monotonicity_run):
    model, tx, violations, elapsed = monotonicity_run
    ok = violations["count"] == 0 and violations["checkpoints"] == 26  # untrained + 25 epochs
    verdict(
        "structural monotonicity (50-point grid, 1000 rows, every checkpoint)",
        ok,
        f"{violations['count']} violations over {violations['checkpoints']} checkpoints, {elapsed:.0f}s",
    )
    assert elapsed < 60


def test_structural_monotonicity_implies_nonpositive_elasticity(monotonicity_run):
    model, tx, _, _ = monotonicity_run
    inference, _ = dt.build_inference_set(tx, int(tx.year_month.max()))
    rng = np.random.default_rng(11)
    rows, fracs = [], []
    for _ in range(1000):
        rows.append(int(rng.integers(len(inference))))
        frac = 0.0
        while abs(frac) < 1e-3:
            frac = float(rng.uniform(-0.3, 0.3))
        fracs.append(frac)
    order = np.argsort(inference.item_id[rows], kind="stable")
    report = evaluate_elasticities(model, inference.take(np.array(rows)[order]), np.array(fracs)[order])
    bad = [e for e in report.valid_entries() if e.elasticity > 0]
    verdict(
        "every valid reported elasticity is non-positive",
        not bad,
        f"{len(report.valid_entries())} valid entries, {len(bad)} positive",
    )


def test_activation_identities():
    x = np.linspace(-10.0, 10.0, 1000)
    seam = max(
        abs(bounded_activation(np.nextafter(0.0, -1.0), rho) - bounded_activation(0.0, rho))
        for rho in ("relu", "elu", "selu")
    )
    tilde = bounded_activation(np.linspace(-50, 50, 5001), "relu")
    mirror_exact = all(
        np.array_equal(concave_activation(x, rho), -ACTIVATIONS[rho][0](-x)) for rho in ACTIVATIONS
    )
    ok = seam < 1e-12 and tilde.min() >= -1.0 and tilde.max() <= 1.0 and mirror_exact
    verdict(
        "activation identities (seam continuity, relu range, concave mirror)",
        ok,
        f"seam={seam:.1e}, range=[{tilde.min()}, {tilde.max()}], mirror exact={mirror_exact}",
    )


def test_gradient_correctness():
    # a fixed small architecture covering dense, embedding, monodense with
    # all three activation subsets, and the L2 term
    t0 = time.perf_counter()
    model, report = check_demand_model(seed=0, probes_per_param=6)
    assert all(s > 0 for s in model.injection.sizes)  # all three subsets present
    verdict(
        "gradient correctness across every layer type",
        report.max_rel_error < 1e-5,
        f"max relative error {report.max_rel_error:.2e} over {report.probes} probes, "
        f"{time.perf_counter() - t0:.0f}s",
    )


def test_weight_sign_contract_after_full_training(monotonicity_run):
    model, _, _, _ = monotonicity_run  # trained 25 epochs
    ok = model.sign_contracts_hold()
    for layer in model.monodense_layers():
        eff = layer.effective_weight_matrix()
        t = layer.indicator.reshape(-1, 1)
        ok = ok and bool(np.all(eff[np.broadcast_to(t > 0, eff.shape)] >= 0))
        ok = ok and bool(np.all(eff[np.broadcast_to(t < 0, eff.shape)] <= 0))
    verdict("weight-sign contract after a full 25-epoch run", ok)


def test_pair_construction_oracle():
    from test_data import brute_force_pairs, make_tx, pair_keys, tx_row

    rng = np.random.default_rng(123)
    months = [dt.ym_add(202001, k) for k in range(30)]
    mismatches = 0
    for _ in range(50):
        rows = []
        for i in range(int(rng.integers(1, 6))):
            chosen = rng.choice(len(months), size=int(rng.integers(2, 31)), replace=False)
            for m in sorted(chosen):
                rows.append(tx_row(item=f"i{i}", ym=months[int(m)], inventory=int(rng.integers(0, 3)) * 5))
        tx = make_tx(rows)
        if set(pair_keys(dt.build_pairs(tx))) != brute_force_pairs(tx):
            mismatches += 1
    verdict("pair construction equals brute-force enumeration (50 instances)", mismatches == 0)


def test_synthetic_elasticity_recovery(recovery_run):
    mae, elapsed = recovery_run.summary["mae_vs_truth"], recovery_run.wall_time_seconds
    verdict(
        "synthetic elasticity recovery MAE <= 0.35",
        mae <= 0.35,
        f"MAE {mae:.3f} over {recovery_run.summary['truth_coverage']} items, {elapsed:.0f}s (target < 600s)",
    )
    assert elapsed < 600


def test_model_beats_baseline_on_kinked_world(kinked_run):
    model_mae, baseline_mae = kinked_run
    verdict(
        "model MAE <= log-log baseline MAE on the kinked world",
        model_mae <= baseline_mae,
        f"model {model_mae:.3f} vs baseline {baseline_mae:.3f}",
    )


def test_synthetic_demand_accuracy(recovery_run):
    oot_wmape = recovery_run.metrics["out_of_time"]["wmape_pct"]
    verdict("out-of-time WMAPE <= 35%", oot_wmape <= 35.0, f"WMAPE {oot_wmape:.2f}%")


def test_pipeline_determinism(tmp_path):
    outs = []
    for tag in ("run1", "run2"):
        root = tmp_path / tag
        assert main(["synth", "--items", "30", "--months", "16", "--seed", "17", "--out", str(root / "d")]) == 0
        assert (
            main(["build", "--transactions", str(root / "d" / "transactions.csv"), "--seed", "17", "--out", str(root / "ds")])
            == 0
        )
        assert main(["train", "--dataset", str(root / "ds"), "--epochs", "4", "--seed", "17", "--out", str(root / "m")]) == 0
        assert (
            main(
                [
                    "elasticity",
                    "--transactions",
                    str(root / "d" / "transactions.csv"),
                    "--model",
                    str(root / "m" / "model.mdnm"),
                    "--truth",
                    str(root / "d" / "truth.csv"),
                    "--out",
                    str(root / "e"),
                ]
            )
            == 0
        )
        outs.append(root)
    differing = [
        rel
        for rel in ("m/train_report.json", "m/losses.csv", "e/elasticity.csv", "e/elasticity_summary.json")
        if (outs[0] / rel).read_bytes() != (outs[1] / rel).read_bytes()
    ]
    verdict(
        "identical seeds reproduce TrainReport and ElasticityReport exactly",
        not differing,
        f"differing artifacts: {differing}" if differing else "byte-identical",
    )


def test_save_load_round_trip(monotonicity_run, tmp_path):
    model, tx, _, _ = monotonicity_run
    path = tmp_path / "model.mdnm"
    save_model(model, path)
    loaded = load_model(path)
    pairs = dt.build_pairs(tx)
    rng = np.random.default_rng(5)
    chosen = pairs.take(rng.integers(0, len(pairs), size=100))
    exact = np.array_equal(model.predict_batch(chosen), loaded.predict_batch(chosen))
    verdict("save -> load preserves predictions exactly on 100 rows", exact)
