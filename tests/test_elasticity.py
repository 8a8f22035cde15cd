import csv
import dataclasses

import numpy as np
import pytest

from elastinet import data as dt
from elastinet.elasticity import (
    DEFAULT_DP_FRACTION,
    ElasticityEntry,
    ElasticityReport,
    arc_elasticity,
    evaluate_elasticities,
    loglog_baseline,
    mae_elasticity,
    summarize_report,
    wmape,
)
from elastinet.errors import DegenerateDemandError, DomainError, MetricError
from elastinet.scenario import run_scenario
from elastinet.synth import SyntheticWorld, generate, true_arc_elasticity
from elastinet.training import TrainConfig

from conftest import SMALL_ARCH


class TestArcElasticity:
    def test_direct_arithmetic(self):
        assert arc_elasticity(100.0, 90.0, 10.0, 1.0) == pytest.approx(-1.0)

    def test_no_demand_change_is_zero(self):
        assert arc_elasticity(50.0, 50.0, 20.0, 2.0) == 0.0

    def test_power_law_oracle_value(self):
        y0 = 1000.0 * 10.0**-2.0
        y1 = 1000.0 * 10.1**-2.0
        got = arc_elasticity(y0, y1, 10.0, 0.1)
        assert got == pytest.approx(true_arc_elasticity(-2.0, 10.0, 0.1))
        assert got == pytest.approx(-1.9704, abs=1e-3)

    def test_degenerate_demand_flagged(self):
        with pytest.raises(DegenerateDemandError):
            arc_elasticity(1e-9, 1.0, 10.0, 1.0)

    @pytest.mark.parametrize("y_base, y_pert", [(np.nan, 1.0), (10.0, np.nan), (np.inf, 1.0), (10.0, -np.inf)])
    def test_non_finite_demand_flagged(self, y_base, y_pert):
        with pytest.raises(DegenerateDemandError, match="not finite"):
            arc_elasticity(y_base, y_pert, 10.0, 1.0)

    def test_overflowing_quotient_flagged(self):
        # both demands are finite, but (y_pert - y_base) / y_base * p / dp overflows
        with pytest.raises(DegenerateDemandError, match="arc elasticity is not finite"):
            arc_elasticity(2.0, 1.7e308, 10.0, -0.5)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            arc_elasticity(10.0, 9.0, -1.0, 1.0)
        with pytest.raises(DomainError):
            arc_elasticity(10.0, 9.0, 10.0, 0.0)
        with pytest.raises(DomainError):
            arc_elasticity(10.0, 9.0, 10.0, -10.0)


class TestWmape:
    def test_arithmetic(self):
        assert wmape([10, 20], [8, 22]) == pytest.approx(100 * 4 / 30)

    def test_perfect_predictions(self):
        assert wmape([5, 7], [5, 7]) == 0.0

    def test_zero_predictions_give_100(self):
        assert wmape([5, 7], [0, 0]) == pytest.approx(100.0)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(1, 10, 20)
        yhat = rng.uniform(1, 10, 20)
        perm = rng.permutation(20)
        assert wmape(y, yhat) == pytest.approx(wmape(y[perm], yhat[perm]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(MetricError, match="finite"):
            wmape([5.0, 7.0], [5.0, bad])
        with pytest.raises(MetricError, match="finite"):
            wmape([5.0, bad], [5.0, 7.0])

    def test_undefined_for_zero_total(self):
        with pytest.raises(MetricError):
            wmape([0, 0], [1, 2])
        with pytest.raises(MetricError):
            wmape([], [])


class TestMae:
    def test_arithmetic(self):
        mae, n = mae_elasticity({"a": -1.5, "b": -2.0}, {"a": -1.2, "b": -2.5})
        assert mae == pytest.approx(0.4)
        assert n == 2

    def test_identical_maps(self):
        mae, _ = mae_elasticity({"a": -1.0}, {"a": -1.0})
        assert mae == 0.0

    def test_intersection_only(self):
        mae, n = mae_elasticity({"a": -1.0, "b": -2.0}, {"b": -2.5, "c": -9.0})
        assert (mae, n) == (0.5, 1)

    def test_empty_intersection_rejected(self):
        with pytest.raises(MetricError):
            mae_elasticity({"a": -1.0}, {"b": -1.0})

    def test_permutation_invariant(self):
        truth = {f"i{k}": -1.0 - k / 10 for k in range(10)}
        pred = {f"i{k}": -1.2 - k / 10 for k in range(10)}
        mae1, _ = mae_elasticity(truth, pred)
        mae2, _ = mae_elasticity(dict(reversed(list(truth.items()))), pred)
        assert mae1 == mae2


class TestEvaluateElasticities:
    def test_sign_guarantee_over_random_queries(self, trained_model, small_world):
        model, _ = trained_model
        _, tx, _ = small_world
        as_of = int(tx.year_month.max())
        inference, _ = dt.build_inference_set(tx, as_of)
        rng = np.random.default_rng(1)
        for _ in range(10):
            rows = inference.take(rng.integers(0, len(inference), size=100))
            fracs = [float(rng.uniform(-0.3, 0.3)) for _ in range(len(rows))]
            report = evaluate_elasticities(model, rows, dp_fraction=[f if abs(f) >= 1e-3 else 0.1 for f in fracs])
            assert len(report.entries) == len(rows)
            for e in report.valid_entries():
                assert e.elasticity <= 0.0

    def test_flat_model_gives_zero_elasticities(self, untrained_model, small_world):
        import copy

        _, tx, _ = small_world
        model = copy.deepcopy(untrained_model)
        # zero the head weights: predictions collapse to a positive constant
        model.head.weights.data[...] = 0.0
        model.head.bias.data[...] = 1.0
        as_of = int(tx.year_month.max())
        inference, _ = dt.build_inference_set(tx, as_of)
        report = evaluate_elasticities(model, inference)
        assert report.valid_entries()
        for e in report.valid_entries():
            assert e.elasticity == 0.0

    def test_per_row_dp_fraction(self, trained_model, small_world):
        model, _ = trained_model
        _, tx, _ = small_world
        inference, _ = dt.build_inference_set(tx, int(tx.year_month.max()))
        fracs = np.linspace(-0.2, 0.2, len(inference) + 1)[1:]
        report = evaluate_elasticities(model, inference, dp_fraction=fracs)
        assert [e.dp for e in report.entries] == (fracs * inference.lead_price).tolist()

    @pytest.mark.parametrize("shape", [(2,), (1,), (24, 1)])
    def test_dp_fraction_of_another_shape_rejected(self, trained_model, small_world, shape):
        model, _ = trained_model
        _, tx, _ = small_world
        inference, _ = dt.build_inference_set(tx, int(tx.year_month.max()))
        assert len(inference) == 24
        with pytest.raises(DomainError, match="one value or one per row"):
            evaluate_elasticities(model, inference, dp_fraction=np.full(shape, -0.05))

    def test_invalid_query_flagged_not_fatal(self, trained_model, small_world):
        model, _ = trained_model
        _, tx, _ = small_world
        inference, _ = dt.build_inference_set(tx, int(tx.year_month.max()))
        report = evaluate_elasticities(model, inference.take([0, 1]), dp_fraction=[-2.0, DEFAULT_DP_FRACTION])
        statuses = [e.status for e in report.entries]
        assert sum(s == "ok" for s in statuses) == 1
        assert any(s.startswith("invalid query") for s in statuses)

    # p replaces the row's lead price; dp stands for the row's dp_fraction
    @pytest.mark.parametrize("p, dp", [(None, np.nan), (np.nan, None), (np.inf, None), (None, np.inf), (None, -np.inf)])
    def test_non_finite_query_flagged(self, trained_model, small_world, p, dp):
        model, _ = trained_model
        _, tx, _ = small_world
        inference, _ = dt.build_inference_set(tx, int(tx.year_month.max()))
        rows = inference.take([0])
        if p is not None:
            rows = dataclasses.replace(rows, lead_price=np.array([p]))
        report = evaluate_elasticities(model, rows, dp_fraction=DEFAULT_DP_FRACTION if dp is None else dp)
        (entry,) = report.entries
        assert entry.status.startswith("invalid query") and entry.elasticity is None

    def test_overflowing_arc_flagged_not_ok(self, small_world):
        _, tx, _ = small_world
        inference, _ = dt.build_inference_set(tx, int(tx.year_month.max()))
        demands = iter([2.0, 1.7e308])  # baseline pass, then perturbed pass

        class HugeResponseModel:
            def predict_batch(self, table, lead_price):
                return np.full(len(table), next(demands))

        report = evaluate_elasticities(HugeResponseModel(), inference)
        assert report.entries and not report.valid_entries()
        assert all("arc elasticity is not finite" in e.status for e in report.entries)

    def test_report_sorted_and_default_dp(self, trained_model, small_world):
        model, _ = trained_model
        _, tx, _ = small_world
        inference, _ = dt.build_inference_set(tx, int(tx.year_month.max()))
        report = evaluate_elasticities(model, inference)
        ids = [e.item_id for e in report.entries]
        assert ids == sorted(ids)
        for e in report.valid_entries():
            assert e.dp == pytest.approx(-0.05 * e.p)

    def test_recovery_on_noiseless_unit_elasticity_world(self):
        world = SyntheticWorld(
            n_items=40,
            n_months=18,
            seed=33,
            noise_sigma=0.0,
            season_amplitude=0.05,
            epsilon_range=(-1.0 - 1e-9, -1.0),
        )
        run = run_scenario(world, SMALL_ARCH, TrainConfig(epochs=30, seed=33))
        assert len(run.truth_arcs) == run.summary["valid"]
        close = sum(abs(run.elasticities[k] - arc) <= 0.2 for k, arc in run.truth_arcs.items())
        assert close >= 0.8 * run.summary["valid"]

    def test_truth_arcs_at_each_valid_entry_own_price(self):
        _, truths = generate(SyntheticWorld(n_items=3, n_months=4, seed=5))
        report = ElasticityReport(
            [
                ElasticityEntry("ghost", 10.0, -0.5, 5.0, 5.2, -0.8, "ok"),
                ElasticityEntry("item_0000", 10.0, -0.5, 5.0, 5.2, -0.8, "ok"),
                ElasticityEntry("item_0001", 20.0, 2.0, 5.0, 4.0, -1.0, "ok"),
                ElasticityEntry("item_0002", 12.0, -0.6, None, None, None, "invalid query (p=12.0, dp=-0.6)"),
            ]
        )
        assert report.truth_arcs(truths) == {
            "item_0000": truths[0].arc_elasticity(10.0, -0.5),
            "item_0001": truths[1].arc_elasticity(20.0, 2.0),
        }

    def test_csv_and_summary_round_trip(self, trained_model, small_world, tmp_path):
        model, _ = trained_model
        _, tx, _ = small_world
        inference, _ = dt.build_inference_set(tx, int(tx.year_month.max()))
        report = evaluate_elasticities(model, inference)
        report.write_csv(tmp_path / "e.csv")
        with open(tmp_path / "e.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(report.entries)
        assert set(rows[0]) == {"item_id", "p", "dp", "y_base", "y_pert", "elasticity", "status"}
        assert [float(r["elasticity"]) for r in rows if r["status"] == "ok"] == list(report.elasticities().values())
        summary, _ = summarize_report(report, [], int(tx.year_month.max()))
        assert summary["valid"] == len(report.valid_entries())
        assert summary["items"] == len(rows)

    def test_csv_bytes(self, tmp_path):
        nan = float("nan")
        not_finite = "predicted demand is not finite (baseline nan, perturbed nan)"
        report = ElasticityReport(
            [
                ElasticityEntry("item,1", 0.1, -0.005, 0.30000000000000004, 0.5, -12.5, "ok"),
                ElasticityEntry("item_2", 0.0, -0.0, None, None, None, "invalid query (p=0.0, dp=-0.0)"),
                ElasticityEntry("item_3", 2.0, -0.1, nan, nan, None, not_finite),
            ]
        )
        path = tmp_path / "elasticity.csv"
        report.write_csv(path)
        assert path.read_bytes() == (
            b"item_id,p,dp,y_base,y_pert,elasticity,status\r\n"
            b'"item,1",0.1,-0.005,0.30000000000000004,0.5,-12.5,ok\r\n'
            b'item_2,0.0,-0.0,,,,"invalid query (p=0.0, dp=-0.0)"\r\n'
            b'item_3,2.0,-0.1,,,,"predicted demand is not finite (baseline nan, perturbed nan)"\r\n'
        )
        # the column codec reads the file back: a blank cell is NaN
        from elastinet.elasticity import _REPORT_COLUMNS

        columns = dt._read_csv(path, _REPORT_COLUMNS)
        assert columns["item_id"].tolist() == ["item,1", "item_2", "item_3"]
        assert np.isnan(columns["y_base"]).tolist() == [False, True, True]


class TestLogLogBaseline:
    def test_noiseless_power_law_recovers_slope(self):
        # huge counts keep rounding and the +1 smoothing below the tolerance
        world = SyntheticWorld(
            n_items=3,
            n_months=10,
            seed=1,
            noise_sigma=0.0,
            season_amplitude=0.0,
            events_enabled=False,
            base_demand_range=(1e10, 1e10),
            base_price_range=(10.0, 10.0),
            epsilon_range=(-2.0, -1.0),
        )
        tx, truths = generate(world)
        pairs = dt.build_pairs(tx)
        slopes, skipped = loglog_baseline(pairs)
        assert not skipped
        for t in truths:
            assert slopes[t.item_id] == pytest.approx(t.epsilon, abs=1e-6)

    def test_two_pairs_skipped(self):
        world = SyntheticWorld(n_items=1, n_months=4, seed=2)
        tx, _ = generate(world)
        pairs = dt.build_pairs(tx).take([0, 1])
        slopes, skipped = loglog_baseline(pairs)
        assert slopes == {}
        assert "need at least 3" in skipped[0][1]

    def test_constant_price_skipped(self):
        world = SyntheticWorld(n_items=1, n_months=8, seed=3, fixed_prices=(10.0,) * 8)
        tx, _ = generate(world)
        slopes, skipped = loglog_baseline(dt.build_pairs(tx))
        assert slopes == {}
        assert skipped[0][1] == "no price variation"


class TestArcAntisymmetrySanity:
    def test_plus_minus_dp_agree_within_oracle_gap(self, trained_model, small_world):
        # the +dp and -dp arcs of the true power law differ by a bounded gap;
        # the trained model's two readings should stay within that envelope
        model, _ = trained_model
        _, tx, truths = small_world
        inference, _ = dt.build_inference_set(tx, int(tx.year_month.max()))
        tm = {t.item_id: t for t in truths}
        gaps = [
            abs(tm[item_id].arc_elasticity(p, 0.05 * p) - tm[item_id].arc_elasticity(p, -0.05 * p))
            for item_id, p in zip(inference.item_id.tolist(), inference.lead_price.tolist())
        ]
        envelope = max(gaps) + 0.75  # oracle gap plus the model's own probe noise
        plus = evaluate_elasticities(model, inference, dp_fraction=0.05).elasticities()
        minus = evaluate_elasticities(model, inference, dp_fraction=-0.05).elasticities()
        diffs = [abs(plus[k] - minus[k]) for k in plus if k in minus]
        assert np.median(diffs) <= envelope
