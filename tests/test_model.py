import dataclasses
import re

import numpy as np
import pytest

from elastinet import data as dt
from elastinet import model as model_module
from elastinet.errors import ConfigError, DomainError, ModelIOError, NumericError
from elastinet.model import (
    ArchConfig,
    ColumnDenseLayer,
    DemandModel,
    DenseLayer,
    StandardizationStats,
    default_embedding_dim,
    load_model,
    save_model,
)
from elastinet.tensor import Tensor, backward, concat_cols, mse_loss
from elastinet.training import Adam, TrainConfig
from reference_ops import category_column, parameter_count


def identity_stats(names: dt.FeatureNames) -> StandardizationStats:
    """Stats that leave every continuous and price feature, and the target, as they are."""
    scaled = (*names.continuous, *names.monotone)
    return StandardizationStats(dict.fromkeys(scaled, 0.0), dict.fromkeys(scaled, 1.0), 0.0, 1.0)


def model_for(categorical=(), continuous=(), config=ArchConfig(), monotone=tuple(dt.MONOTONE_FEATURES)):
    """A DemandModel whose categorical features map {name: level count} and
    whose continuous features are ``continuous``, with identity stats."""
    names = dt.FeatureNames(tuple(dict(categorical)), tuple(continuous), monotone, ())
    vocabs = {name: {f"{name}_{i}": i for i in range(1, n + 1)} for name, n in dict(categorical).items()}
    return DemandModel(names, vocabs, identity_stats(names), config, seed=0)


class TestSchema:
    def test_monotone_feature_without_direction_rejected(self):
        with pytest.raises(ConfigError, match="no direction"):
            model_for(continuous=("a",), monotone=("lead_price", "lag_price"))

    @pytest.mark.parametrize(
        "vocabs",
        [{}, {"c": {"x": 1}, "d": {"y": 1}}, {"c": {"x": 0}}, {"c": {"x": 1, "y": 3}}, {"c": {"x": 2, "y": 2}}],
    )
    def test_vocabs_must_map_each_categorical_to_1_to_n(self, vocabs):
        names = dt.FeatureNames(("c",), (), tuple(dt.MONOTONE_FEATURES), ())
        with pytest.raises(ConfigError, match="vocabular"):
            DemandModel(names, vocabs, identity_stats(names), ArchConfig())

    @pytest.mark.parametrize(
        "scaled, differ",
        [(("lead_price",), "['f', 'price_change_pct']"), (("f", "extra", *dt.MONOTONE_FEATURES), "['extra']")],
        ids=["missing", "extra"],
    )
    def test_stats_must_name_the_continuous_and_price_features(self, scaled, differ):
        names = dt.FeatureNames((), ("f",), tuple(dt.MONOTONE_FEATURES), ())
        stats = StandardizationStats(dict.fromkeys(scaled, 0.0), dict.fromkeys(scaled, 1.0), 0.0, 1.0)
        with pytest.raises(ConfigError, match=re.escape(f"standardization stats and features differ in {differ}")):
            DemandModel(names, {}, stats, ArchConfig())

    def test_embedding_sizes_follow_the_vocabularies(self):
        model = model_for(categorical={"c1": 9, "c2": 200})
        assert model.embeddings["c1"].shape == (10, 4)
        assert model.embeddings["c2"].shape == (201, 15)

    def test_default_embedding_dim(self):
        assert default_embedding_dim(4) == 2
        assert default_embedding_dim(201) == 15
        assert default_embedding_dim(5000) == 32  # capped


class TestBuildModel:
    def test_parameter_count_matches_hand_count(self):
        config = ArchConfig(trunk_widths=(16, 8), injection_width=8, post_widths=(4,), encoder_width=2)
        model = model_for({"c1": 9, "c2": 4}, ("f1", "f2", "f3"), config)
        embeddings = 10 * 4 + 5 * 3
        encoders = 3 * (1 * 2 + 2)
        trunk_in = 4 + 3 + 3 * 2  # embedding dims + encoder widths
        trunk = trunk_in * 16 + 16 + 16 * 8 + 8
        injection = (8 + 2) * 8 + 8
        post = 8 * 4 + 4
        head = 4 * 1 + 1
        assert parameter_count(model) == embeddings + encoders + trunk + injection + post + head

    def test_empty_categoricals_builds_dense_only_encoder(self):
        model = model_for(continuous=("f1", "f2"))
        x_cont = np.random.default_rng(0).normal(size=(4, 2))
        out = model.forward(np.zeros((4, 0), dtype=np.int64), x_cont, np.zeros((4, 2)))
        assert out.shape == (4, 1)

    def test_no_features_at_all_rejected(self):
        with pytest.raises(ConfigError):
            model_for()

    def test_zero_width_rejected(self):
        with pytest.raises(ConfigError):
            ArchConfig(trunk_widths=(0,))

    def test_unknown_activation_rejected(self):
        with pytest.raises(ConfigError):
            model_for(continuous=("f",), config=ArchConfig(activation="tanh"))

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(trunk_widths=(2.5,)), "positive integers"),
            (dict(post_widths=(8, "4")), "positive integers"),
            (dict(injection_width=True), "positive integers"),
            (dict(encoder_width=np.int64(8)), "positive integers"),  # not JSON-serializable in a .mdnm
            (dict(activation="tanh"), "unknown activation"),
            (dict(split=(0.5, 0.5)), "three fractions"),
            (dict(split=0.5), "three fractions"),
            (dict(split=(0.5, 0.25, "0.25")), "three fractions"),
            (dict(split=(0.5, 0.5, 0.5)), "sum to 1"),
        ],
    )
    def test_bad_config_rejected_at_construction(self, kw, message):
        with pytest.raises(ConfigError, match=message):
            ArchConfig(**kw)

    def test_no_continuous_features(self):
        model = model_for({"c": 4}, config=ArchConfig(trunk_widths=(8,), injection_width=8, post_widths=(4,)))
        assert model.encoders.weights.shape == (0, 8)
        rng = np.random.default_rng(0)
        cat, mono = rng.integers(0, 5, size=(6, 1)), rng.normal(size=(6, 2))
        opt = Adam(model.parameters(), TrainConfig())
        before = model.forward(cat, np.zeros((6, 0)), mono).data
        backward(mse_loss(model.forward(cat, np.zeros((6, 0)), mono), Tensor(np.ones((6, 1)))))
        opt.step()
        after = model.forward(cat, np.zeros((6, 0)), mono).data
        assert np.all(np.isfinite(after)) and not np.array_equal(before, after)

    def test_one_layer_list_in_parameter_order(self):
        config = ArchConfig(trunk_widths=(6, 5), injection_width=4, post_widths=(3, 2))
        model = model_for({"c": 4}, ("f",), config)
        layers = ["enc", "trunk.0", "trunk.1", "inj", "post.0", "post.1", "head"]
        assert [layer.weights.name for layer in model.layers] == [f"{name}.w" for name in layers]
        assert [p.name for p in model.parameters()] == ["emb.c", *(f"{n}.{wb}" for n in layers for wb in "wb")]
        assert model.decayed_parameters() == [layer.weights for layer in model.layers]
        assert model.monodense_layers() == [model.injection, *model.post, model.head]
        assert model.head.activation is None and np.all(model.head.indicator == 1)

    def test_injection_indicator_layout(self):
        model = model_for(continuous=("f",), config=ArchConfig(trunk_widths=(6,)))
        t = model.injection.indicator
        assert t.shape == (8,)
        assert np.all(t[:6] == 0) and np.all(t[6:] == -1)
        assert all(np.all(layer.indicator == 1) for layer in model.post)


class TestColumnDenseLayer:
    """The one encoder op against one DenseLayer(1, width) per column."""

    @pytest.mark.parametrize("activation", ["relu", "selu"])
    @pytest.mark.parametrize("n", [1, 37, 128, 4096])
    def test_matches_separate_dense_layers_bit_for_bit(self, n, activation):
        k, width = 21, 8
        bank = ColumnDenseLayer(k, width, activation, rng=np.random.default_rng(n), name="enc")
        rng = np.random.default_rng(n)
        layers = [DenseLayer(1, width, activation, rng=rng, name=f"enc.{j}") for j in range(k)]
        data = np.random.default_rng(n + 1)
        x = data.normal(size=(n, k))
        target = Tensor(data.normal(size=(n, k * width)))
        for j, layer in enumerate(layers):  # non-zero biases exercise the bias path
            layer.bias.data[...] = data.normal(size=(1, width))
            bank.bias.data[j] = layer.bias.data[0]
        assert np.array_equal(bank.weights.data, np.vstack([layer.weights.data for layer in layers]))

        out = bank(x)
        ref = concat_cols([layer(Tensor(x[:, j : j + 1])) for j, layer in enumerate(layers)])
        assert np.array_equal(out.data, ref.data)

        backward(mse_loss(out, target))
        backward(mse_loss(ref, target))
        assert np.array_equal(bank.weights.grad, np.vstack([layer.weights.grad for layer in layers]))
        assert np.array_equal(bank.bias.grad, np.vstack([layer.bias.grad for layer in layers]))

    def test_parameter_names(self, untrained_model):
        names = [p.name for p in untrained_model.parameters()]
        assert [name for name in names if name.startswith("enc.")] == ["enc.w", "enc.b"]
        k = len(untrained_model.names.continuous)
        assert untrained_model.encoders.weights.shape == (k, untrained_model.config.encoder_width)
        assert untrained_model.encoders.weights in untrained_model.decayed_parameters()


class TestPredict:
    def test_override_equal_to_stored_price_is_identity(self, trained_model, small_split):
        model, _ = trained_model
        pair = small_split.validation.take([0])
        assert model.predict_batch(pair, pair.lead_price) == model.predict_batch(pair)

    def test_nonpositive_override_rejected(self, trained_model, small_split):
        model, _ = trained_model
        with pytest.raises(DomainError):
            model.predict_batch(small_split.validation.take([0]), [-1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_lead_price_must_be_positive_and_finite(self, trained_model, small_split, bad):
        model, _ = trained_model
        pairs = small_split.validation.take(np.arange(3))
        prices = pairs.lead_price.copy()
        prices[1] = bad
        for score in (model.encode, model.predict_batch):
            with pytest.raises(DomainError, match="positive and finite"):
                score(pairs, prices)

    def test_lead_price_needs_one_value_per_row(self, trained_model, small_split):
        model, _ = trained_model
        pairs = small_split.validation.take(np.arange(3))
        for prices in (pairs.lead_price[0], pairs.lead_price[:1], pairs.lead_price[:2]):
            with pytest.raises(DomainError, match="one lead price for each of 3 rows"):
                model.predict_batch(pairs, prices)

    def test_scores_in_fixed_row_passes(self, trained_model, small_split, monkeypatch):
        model, _ = trained_model
        pairs = small_split.validation.take(np.arange(300))
        prices = pairs.lead_price * 0.9
        inputs = model.encode(pairs, prices)
        one_pass = model.stats.unscale_target(model.forward(*inputs).data[:, 0])
        calls = []

        def forward(cat, cont, mono):
            calls.append((cat, cont, mono))
            return DemandModel.forward(model, cat, cont, mono)

        monkeypatch.setattr(model_module, "PREDICT_ROWS", 64)
        monkeypatch.setattr(model, "forward", forward)
        out = model.predict_batch(pairs, prices)
        assert [len(cat) for cat, _, _ in calls] == [64, 64, 64, 64, 44]
        for j, part in enumerate(inputs):  # every row once, in table order
            assert np.array_equal(np.concatenate([call[j] for call in calls]), part)
        np.testing.assert_allclose(out, one_pass, rtol=1e-12, atol=0)

    def test_price_monotonicity_over_random_draws(self, trained_model, small_split):
        model, _ = trained_model
        rng = np.random.default_rng(5)
        pool = dt.PairTable.concat([small_split.validation, small_split.train])
        pairs = pool.take(rng.integers(0, len(pool), size=1000))
        p1 = rng.uniform(2.0, 60.0, size=1000)
        p2 = p1 + rng.uniform(0.01, 20.0, size=1000)
        y1 = model.predict_batch(pairs, p1)
        y2 = model.predict_batch(pairs, p2)
        assert np.all(y1 >= y2)  # lower price never yields lower demand

    def test_untrained_model_outputs_finite(self, untrained_model, small_split):
        rng = np.random.default_rng(6)
        pool = small_split.train
        pairs = pool.take(rng.integers(0, len(pool), size=1000))
        out = untrained_model.predict_batch(pairs)
        assert np.all(np.isfinite(out))

    def test_unseen_categorical_maps_to_unknown_index(self, trained_model, small_split):
        import dataclasses

        model, _ = trained_model
        pair = small_split.validation.take([0])
        tx = dataclasses.replace(pair.tx, item_id=np.full(len(pair.tx), "never_seen_item"))
        pair = dataclasses.replace(pair, tx=tx)
        assert model.encoder.cat_index("item_id", "never_seen_item") == 0
        assert model.encode(pair)[0][0, 0] == 0
        assert np.isfinite(model.predict_batch(pair)).all()

    def test_counterfactual_price_change_recomputed(self, trained_model, small_split):
        model, _ = trained_model
        pairs = small_split.validation.take(np.arange(100))
        override = np.random.default_rng(7).uniform(0.5, 2.0, size=100) * pairs.lead_price
        _, _, mono = model.encode(pairs, override)
        expected = np.column_stack([override, (override - pairs.lag_price) / pairs.lag_price])
        assert np.array_equal(mono, model.stats.standardize(expected, ["lead_price", "price_change_pct"]))

    def test_encode_without_override_uses_table_columns(self, trained_model, small_split):
        model, _ = trained_model
        pairs = small_split.train.take(np.arange(50))
        cat, cont, mono = model.encode(pairs)
        assert cat.shape == (50, len(model.names.categorical))
        assert cont.shape == (50, len(model.names.continuous))
        j = model.names.continuous.index("lag_units")
        lag_units = dt.feature_column(pairs, "lag_units")
        expected = (lag_units - model.stats.means["lag_units"]) / model.stats.stds["lag_units"]
        assert np.array_equal(cont[:, j], expected)
        price_change = dt.feature_column(pairs, "price_change_pct")
        expected = (price_change - model.stats.means["price_change_pct"]) / model.stats.stds["price_change_pct"]
        assert np.array_equal(mono[:, 1], expected)

    def test_target_scaling_positive(self, trained_model):
        model, _ = trained_model
        assert model.stats.target_std > 0


class TestSignContracts:
    def test_hold_after_training(self, trained_model):
        model, _ = trained_model
        assert model.sign_contracts_hold()
        for layer in model.monodense_layers():
            eff = layer.effective_weight_matrix()
            t = layer.indicator.reshape(-1, 1)
            assert np.all(eff[np.broadcast_to(t > 0, eff.shape)] >= 0)
            assert np.all(eff[np.broadcast_to(t < 0, eff.shape)] <= 0)


class TestSaveLoad:
    def test_round_trip_is_exact(self, trained_model, small_split, tmp_path):
        model, _ = trained_model
        path = tmp_path / "model.mdnm"
        save_model(model, path)
        loaded = load_model(path)
        rng = np.random.default_rng(8)
        pool = dt.PairTable.concat([small_split.train, small_split.validation])
        pairs = pool.take(rng.integers(0, len(pool), size=100))
        a = model.predict_batch(pairs)
        b = loaded.predict_batch(pairs)
        assert np.array_equal(a, b)  # bit-exact

    def test_round_trip_preserves_parameters_and_metadata(self, trained_model, tmp_path):
        model, _ = trained_model
        path = tmp_path / "model.mdnm"
        save_model(model, path)
        loaded = load_model(path)
        for p, q in zip(model.parameters(), loaded.parameters()):
            assert p.name == q.name
            assert np.array_equal(p.data, q.data)
        assert loaded.names == model.names
        assert loaded.encoder.vocabs == model.encoder.vocabs
        assert loaded.stats == model.stats and loaded.config == model.config and loaded.seed == model.seed

    def test_corrupted_magic_rejected(self, trained_model, tmp_path):
        model, _ = trained_model
        path = tmp_path / "model.mdnm"
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelIOError):
            load_model(path)

    def test_flipped_payload_byte_fails_checksum(self, trained_model, tmp_path):
        model, _ = trained_model
        path = tmp_path / "model.mdnm"
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelIOError, match="checksum"):
            load_model(path)

    def test_truncated_file_rejected(self, trained_model, tmp_path):
        model, _ = trained_model
        path = tmp_path / "model.mdnm"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(ModelIOError):
            load_model(path)

    def test_rewritten_container_is_byte_identical(self, trained_model, tmp_path, edit_model_file):
        save_model(trained_model[0], tmp_path / "model.mdnm")
        edit_model_file(tmp_path / "model.mdnm", tmp_path / "copy.mdnm", lambda c: None)
        assert (tmp_path / "copy.mdnm").read_bytes() == (tmp_path / "model.mdnm").read_bytes()

    def test_repeated_blob_name_rejected(self, trained_model, tmp_path, edit_model_file):
        def edit(container):  # the last blob (head.b) becomes a second copy of the first
            container["blobs"][-1] = container["blobs"][0]

        save_model(trained_model[0], tmp_path / "model.mdnm")
        edit_model_file(tmp_path / "model.mdnm", tmp_path / "dup.mdnm", edit)
        with pytest.raises(ModelIOError, match="repeated parameter blob"):
            load_model(tmp_path / "dup.mdnm")

    @pytest.mark.parametrize(
        "path",
        [("seed",), ("stats", "target_std"), ("config", "activation"), ("features", "continuous"), ("extra",)],
    )
    def test_missing_or_unknown_meta_key_rejected(self, trained_model, tmp_path, edit_model_file, path):
        def edit(container):
            section = container["meta"]
            for key in path[:-1]:
                section = section[key]
            if path[-1] in section:
                del section[path[-1]]
            else:
                section[path[-1]] = 1

        save_model(trained_model[0], tmp_path / "model.mdnm")
        edit_model_file(tmp_path / "model.mdnm", tmp_path / "meta.mdnm", edit)
        with pytest.raises(ModelIOError, match="model metadata"):
            load_model(tmp_path / "meta.mdnm")

    def test_non_finite_weight_not_saved(self, trained_model, tmp_path):
        save_model(trained_model[0], tmp_path / "model.mdnm")
        model = load_model(tmp_path / "model.mdnm")
        model.head.weights.data[0, 0] = np.nan
        with pytest.raises(NumericError, match="head.w"):
            save_model(model, tmp_path / "nan.mdnm")
        assert not (tmp_path / "nan.mdnm").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_blob_rejected(self, trained_model, tmp_path, edit_model_file, value):
        def edit(container):
            dict(container["blobs"])["head.w"][0, 0] = value

        save_model(trained_model[0], tmp_path / "model.mdnm")
        edit_model_file(tmp_path / "model.mdnm", tmp_path / "nan.mdnm", edit)
        with pytest.raises(ModelIOError, match="'head.w' has non-finite values"):
            load_model(tmp_path / "nan.mdnm")

    def test_model_on_a_subset_of_the_features_round_trips(self, tmp_path):
        scaled = ("lag_units", *dt.MONOTONE_FEATURES)
        stats = StandardizationStats(dict.fromkeys(scaled, 1.0), dict.fromkeys(scaled, 2.0), 5.0, 3.0)
        names = dt.FeatureNames(("brand",), ("lag_units",), tuple(dt.MONOTONE_FEATURES), ())
        model = DemandModel(names, {"brand": {"b1": 1, "b2": 2, "b3": 3}}, stats, ArchConfig())
        save_model(model, tmp_path / "m.mdnm")
        loaded = load_model(tmp_path / "m.mdnm")
        assert loaded.names == model.names and loaded.stats == model.stats
        assert all(np.array_equal(p.data, q.data) for p, q in zip(model.parameters(), loaded.parameters()))

    @pytest.mark.parametrize(
        "key, value", [("trunk_widths", [10**12]), ("injection_width", 10**12), ("post_widths", [8, 10**12])]
    )
    def test_width_beyond_the_file_rejected_before_building(
        self, trained_model, tmp_path, edit_model_file, monkeypatch, key, value
    ):
        def edit(container):
            container["meta"]["config"][key] = value

        def build(*args, **kwargs):
            raise AssertionError("DemandModel built from forged widths")

        save_model(trained_model[0], tmp_path / "model.mdnm")
        edit_model_file(tmp_path / "model.mdnm", tmp_path / "wide.mdnm", edit)
        monkeypatch.setattr(model_module, "DemandModel", build)
        with pytest.raises(ModelIOError, match="model metadata implies .* parameter values, more than the"):
            load_model(tmp_path / "wide.mdnm")


class TestEndToEndMonotonicity:
    @pytest.mark.parametrize("which", ["untrained", "trained"])
    def test_price_grid_non_increasing(self, which, untrained_model, trained_model, small_split):
        model = untrained_model if which == "untrained" else trained_model[0]
        rng = np.random.default_rng(9)
        pool = small_split.train
        pairs = pool.take(rng.integers(0, len(pool), size=200))
        base = pairs.lead_price
        grid = np.linspace(0.5, 1.5, 50)
        prev = None
        for frac in grid:
            y = model.predict_batch(pairs, base * frac)
            if prev is not None:
                assert np.all(y <= prev)  # zero tolerance: structural guarantee
            prev = y


# ---------------------------------------------------------------------------
# categorical encoding: factorized per transaction row, it must give the
# vocabularies and index matrices of the per-pair reference

ENCODING_WORLDS = {
    "constant-24": dict(seed=24),
    "constant-57": dict(seed=57),
    "kinked-24": dict(seed=24, kinked=True),
    "kinked-57": dict(seed=57, kinked=True),
}


@pytest.mark.parametrize("holdout", [model_module.VOCAB_HOLDOUT_FRACTION, 0.3], ids=["holdout-default", "holdout-0.3"])
@pytest.mark.parametrize("by_item", [False, True], ids=["pair", "item"])
@pytest.mark.parametrize("world", ENCODING_WORLDS.values(), ids=ENCODING_WORLDS.keys())
def test_categorical_encoding_matches_the_per_pair_reference(world, by_item, holdout, monkeypatch):
    from reference_ops import reference_build_vocabs, reference_cat_matrix

    from elastinet.synth import SyntheticWorld, generate

    monkeypatch.setattr(model_module, "VOCAB_HOLDOUT_FRACTION", holdout)
    seed = world["seed"]
    tx, _ = generate(SyntheticWorld(n_items=60, stockout_rate=0.2, **world))
    ds = dt.split(dt.build_pairs(tx), seed=seed, by_item=by_item)
    names = ds.names.categorical

    inference, _ = dt.build_inference_set(tx, int(tx.year_month.max()))
    counterfactual = dataclasses.replace(inference, lead_price=inference.lead_price * 0.9)
    # a brand level only on transaction rows that no training pair's lag references
    unreferenced = np.ones(len(ds.train.tx), dtype=bool)
    unreferenced[ds.train.lag] = False
    assert unreferenced.any()
    brand = np.where(unreferenced, "brand_unreferenced", ds.train.tx.brand)
    relabelled = dataclasses.replace(ds.train, tx=dataclasses.replace(ds.train.tx, brand=brand))
    tables = {
        "train": ds.train,
        "validation": ds.validation,
        "out_of_time": ds.out_of_time,
        "inference": inference,
        "counterfactual": counterfactual,
        "unreferenced": relabelled,
    }

    def ordered(vocabs):
        return {name: list(vocab.items()) for name, vocab in vocabs.items()}

    for label, table in tables.items():
        got = model_module.build_vocabs(table, names, seed)
        assert ordered(got) == ordered(reference_build_vocabs(table, names, seed)), label
    assert "brand_unreferenced" not in model_module.build_vocabs(relabelled, names, seed)["brand"]

    vocabs = model_module.build_vocabs(ds.train, names, seed)
    if holdout > 0.1:
        assert any(len(vocabs[n]) < len(np.unique(category_column(ds.train, n))) for n in names)
    encoder = model_module.FeatureEncoder(vocabs)
    for label, table in tables.items():
        got, want = encoder.cat_matrix(table, names), reference_cat_matrix(encoder, table, names)
        assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want), label
    if by_item:  # validation items are unseen at training time
        assert (encoder.cat_matrix(ds.validation, names)[:, names.index("item_id")] == model_module.UNKNOWN_INDEX).all()
