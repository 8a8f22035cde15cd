import dataclasses
import json
import weakref

import numpy as np
import pytest

from elastinet import data as dt
from elastinet.errors import ConfigError, NumericError
from elastinet.gradcheck import gradcheck
from elastinet.model import ArchConfig
from elastinet.scenario import run_scenario
from elastinet.synth import SyntheticWorld
from elastinet.tensor import Parameter, Tensor, mse_loss, sum_sq
from elastinet.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, Adam, TrainConfig, fit_stats, prepare_model, train

from conftest import SMALL_ARCH
from test_data import make_tx, tx_row


class TestFitStats:
    def test_population_std(self, small_split):
        stats = fit_stats(small_split.train, ("lag_units",), ())
        col = dt.feature_column(small_split.train, "lag_units")
        assert stats.means["lag_units"] == pytest.approx(col.mean())
        assert stats.stds["lag_units"] == pytest.approx(col.std())  # ddof=0

    def test_simple_values(self):
        tx = make_tx([tx_row(ym=dt.ym_add(202301, k), price=1.0, units=k + 1) for k in range(4)])
        pairs = dt.build_pairs(tx)
        pairs = pairs.take(dt.feature_column(pairs, "month_gap") == 1)
        assert dt.feature_column(pairs, "lag_units").tolist() == [1, 2, 3]
        stats = fit_stats(pairs, ("lag_units",), ())
        assert stats.means["lag_units"] == pytest.approx(2.0)
        assert stats.stds["lag_units"] == pytest.approx(np.sqrt(2.0 / 3.0))  # ~0.8165

    def test_constant_feature_floored(self, small_split):
        pairs = small_split.train
        pairs = pairs.take(np.flatnonzero(dt.feature_column(pairs, "month_gap") == 3)[:5])
        stats = fit_stats(pairs, ("month_gap",), ())
        assert stats.stds["month_gap"] == 1.0
        standardized = stats.standardize(np.full((5, 1), 3.0), ["month_gap"])
        assert np.all(standardized == 0.0)

    def test_constant_column_is_centred_only(self):
        # one pair, so every feature and the target are constant over the training rows
        pairs = dt.build_pairs(make_tx([tx_row(ym=202301, units=4), tx_row(ym=202302, units=6)]))
        stats = fit_stats(pairs, ("lag_units",), ("lead_price",))
        assert stats.stds == {"lag_units": 1.0, "lead_price": 1.0} and stats.target_std == 1.0
        # a scoring row whose value differs from the train constant standardizes to x - mean
        assert stats.standardize(np.array([[5.0, 12.5]]), ["lag_units", "lead_price"]).tolist() == [[1.0, 2.5]]
        assert stats.scale_target(np.array([9.0])).tolist() == [3.0]

    def test_empty_split_rejected(self, small_split):
        with pytest.raises(ConfigError):
            fit_stats(small_split.train.take([]), ("a",), ())

    def test_stats_not_touched_by_validation_or_ots(self, small_split):
        stats = fit_stats(small_split.train, ("lag_units",), ("lead_price",))
        before = dataclasses.asdict(stats)
        # standardizing other splits must not mutate the fitted stats
        for pairs in (small_split.validation, small_split.out_of_time):
            col = dt.feature_column(pairs, "lag_units")[:, None]
            stats.standardize(col, ["lag_units"])
        assert dataclasses.asdict(stats) == before


class TestAdam:
    def test_first_step_hand_computation(self):
        p = Parameter([[1.0]], name="p")
        cfg = TrainConfig(learning_rate=0.01)
        opt = Adam([p], cfg)
        p.grad[...] = 1.0
        opt.step()
        # bias-corrected first step: delta = -lr * g / (|g| + eps) ~ -lr
        assert p.data[0, 0] == pytest.approx(1.0 - 0.01, abs=1e-9)

    def test_zero_gradient_leaves_parameter_unchanged(self):
        p = Parameter([[2.5, -1.0]], name="p")
        before = p.data.copy()
        opt = Adam([p], TrainConfig())
        for _ in range(10):
            p.zero_grad()
            opt.step()
        assert np.array_equal(p.data, before)

    def test_equal_gradients_evolve_identically(self):
        rng = np.random.default_rng(0)
        a = Parameter([[1.0]], name="a")
        b = Parameter([[1.0]], name="b")
        opt = Adam([a, b], TrainConfig())
        for _ in range(20):
            g = rng.normal()
            a.grad[...] = g
            b.grad[...] = g
            opt.step()
        assert np.array_equal(a.data, b.data)

    def test_moment_state_persists_per_parameter(self):
        p = Parameter([[0.0]], name="p")
        opt = Adam([p], TrainConfig(learning_rate=0.1))
        p.grad[...] = 1.0
        opt.step()
        first = p.data[0, 0]
        p.zero_grad()  # no gradient this step; momentum keeps moving the value
        opt.step()
        assert p.data[0, 0] != first

    def test_flat_buffers_match_per_parameter_loop_bit_for_bit(self):
        rng = np.random.default_rng(11)
        shapes = [(3, 4), (1, 4), (5, 1), (1, 1), (0, 2)]
        params = [Parameter(rng.normal(size=shape), name=f"p{i}") for i, shape in enumerate(shapes)]
        ref = [p.data.copy() for p in params]
        cfg = TrainConfig(learning_rate=0.03)
        opt = Adam(params, cfg)
        assert all(np.shares_memory(p.data, opt.data) for p in params if p.data.size)
        m = [np.zeros_like(r) for r in ref]
        v = [np.zeros_like(r) for r in ref]
        for t in range(1, 21):
            opt.zero_grad()
            grads = [rng.normal(size=shape) * rng.choice([1e-6, 1.0, 1e3]) for shape in shapes]
            for p, g in zip(params, grads):
                p.grad += g
            opt.step()
            bc1, bc2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
            for r, mi, vi, g in zip(ref, m, v, grads):  # the per-parameter form of the update
                mi *= ADAM_BETA1
                mi += (1.0 - ADAM_BETA1) * g
                vi *= ADAM_BETA2
                vi += (1.0 - ADAM_BETA2) * (g * g)
                r -= cfg.learning_rate * (mi / bc1) / (np.sqrt(vi / bc2) + ADAM_EPS)
            for p, r in zip(params, ref):
                assert np.array_equal(p.data, r)


class TestTrainLoop:
    def test_zero_learning_rate_is_identity(self, small_split):
        model = prepare_model(small_split, SMALL_ARCH, seed=3)
        before = [p.data.copy() for p in model.parameters()]
        report = train(model, small_split, TrainConfig(epochs=2, learning_rate=0.0, seed=3))
        for p, b in zip(model.parameters(), before):
            assert np.array_equal(p.data, b)
        assert report.val_losses[0] == report.val_losses[1]

    def test_loss_decreases_on_noiseless_world(self):
        world = SyntheticWorld(n_items=12, n_months=16, seed=21, noise_sigma=0.0, season_amplitude=0.0)
        report = run_scenario(world, SMALL_ARCH, TrainConfig(epochs=5, seed=21)).train_report
        for a, b in zip(report.train_losses, report.train_losses[1:]):
            assert b < a  # strictly decreasing over the first 5 epochs

    def test_run_scenario_seeds_the_split_by_world_and_the_model_by_config(self):
        world = SyntheticWorld(n_items=12, n_months=16, seed=21)
        runs = [run_scenario(world, SMALL_ARCH, TrainConfig(epochs=1, seed=seed)) for seed in (1, 2)]
        for name in ("train", "validation", "out_of_time"):
            a, b = (getattr(run.split, name) for run in runs)
            assert np.array_equal(a.lag, b.lag) and np.array_equal(a.lead, b.lead)
        weights = [np.concatenate([p.data.ravel() for p in run.model.parameters()]) for run in runs]
        assert not np.array_equal(*weights)

    def test_prepare_and_train_take_each_part_once_and_hold_none(self, small_split, monkeypatch):
        """prepare_model takes the train part, train the validation and train
        parts; no taken part outlives its encoding into the epoch loop."""
        taken = []
        take = dt.PairTable.take

        def counting_take(table, idx):
            part = take(table, idx)
            taken.append(weakref.ref(part))
            return part

        monkeypatch.setattr(dt.PairTable, "take", counting_take)
        model = prepare_model(small_split, SMALL_ARCH, seed=3)
        alive = []

        def count_alive(epoch, m):
            alive.append(sum(ref() is not None for ref in taken))

        train(model, small_split, TrainConfig(epochs=2, seed=3), count_alive)
        assert len(taken) == 3 and alive == [0, 0]

    def test_same_seed_identical_report(self, small_split):
        reports = []
        for _ in range(2):
            model = prepare_model(small_split, SMALL_ARCH, seed=9)
            reports.append(train(model, small_split, TrainConfig(epochs=3, seed=9)))
        assert reports[0].train_losses == reports[1].train_losses
        assert reports[0].val_losses == reports[1].val_losses
        assert reports[0].final_param_norms == reports[1].final_param_norms

    def test_losses_recorded_every_epoch_and_finite(self, trained_model):
        _, report = trained_model
        assert len(report.train_losses) == 6 and len(report.val_losses) == 6
        assert all(np.isfinite(v) for v in report.train_losses + report.val_losses)
        assert report.wall_time_seconds > 0

    def test_report_json_excludes_timing_by_default(self, trained_model):
        _, report = trained_model
        payload = report.to_json_dict()
        assert "wall_time_seconds" not in json.dumps(payload)
        assert len(payload["epochs"]) == 6

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nan_loss_aborts_with_diagnostic(self, small_split):
        model = prepare_model(small_split, SMALL_ARCH, seed=4)
        model.head.weights.data[...] = np.inf
        with pytest.raises(NumericError, match="epoch 1"):
            train(model, small_split, TrainConfig(epochs=1, seed=4))

    def test_monotonicity_preserved_at_every_checkpoint(self, small_split):
        model = prepare_model(small_split, SMALL_ARCH, seed=5)
        rng = np.random.default_rng(5)
        rows = small_split.validation.take(rng.integers(0, len(small_split.validation), 10))
        base = rows.lead_price

        def probe(epoch, m):
            prev = None
            for frac in np.linspace(0.6, 1.4, 20):
                y = m.predict_batch(rows, base * frac)
                if prev is not None:
                    assert np.all(y <= prev), f"monotonicity violated at epoch {epoch}"
                prev = y

        train(model, small_split, TrainConfig(epochs=3, seed=5), epoch_callback=probe)

    def test_l2_term_gradient_matches_finite_differences(self, small_split):
        model = prepare_model(small_split, SMALL_ARCH, seed=6)
        rows = small_split.train.take(np.arange(16))
        cat, cont, mono = model.encode(rows)
        tgt = Tensor(model.stats.scale_target(rows.target[:, None]))
        decay = 1e-3

        def loss_fn():
            return mse_loss(model.forward(cat, cont, mono), tgt) + decay * sum_sq(*model.decayed_parameters())

        report = gradcheck(
            loss_fn,
            model.parameters(),
            probes_per_param=3,
            seed=6,
            probe_filter=lambda p, r, c: not p.name.endswith(".w") or abs(p.data[r, c]) > 1e-3,
        )
        assert report.max_rel_error < 1e-5

    def test_decay_excludes_embeddings_and_biases(self, untrained_model):
        decayed = {p.name for p in untrained_model.decayed_parameters()}
        assert all(name.endswith(".w") for name in decayed)
        assert not any(name.startswith("emb.") for name in decayed)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(l2_decay=-1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="finite"):
                TrainConfig(l2_decay=bad)
            with pytest.raises(ConfigError, match="finite"):
                TrainConfig(learning_rate=bad)
