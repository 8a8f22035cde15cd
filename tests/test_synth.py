import numpy as np
import pytest

from elastinet import data as dt
from elastinet.errors import ConfigError, DomainError, ParseError
from elastinet.synth import (
    BRAND_POOL,
    CATEGORY_POOL,
    SIZE_POOL,
    SUBCATS_PER_CATEGORY,
    TRUTH_COLUMNS,
    ItemTruth,
    SyntheticWorld,
    generate,
    read_truth,
    write_truth,
)

from reference_ops import true_arc_elasticity
from test_data import tables_equal


def reference_generate(world: SyntheticWorld) -> tuple[dt.Transactions, list[ItemTruth]]:
    """Independent oracle: the world item-month by item-month, one row tuple
    at a time, drawing in the order that defines it."""
    rng = np.random.default_rng(world.seed)
    months = [dt.ym_add(world.start_month, k) for k in range(world.n_months)]

    rows = []  # one tuple per item-month, in TRANSACTIONS_COLUMNS order
    truths: list[ItemTruth] = []
    for i in range(world.n_items):
        item_id = f"item_{i:04d}"
        base_units = rng.uniform(*world.base_demand_range)
        base_price = rng.uniform(*world.base_price_range)
        epsilon = rng.uniform(*world.epsilon_range)
        epsilon_hi = None
        if world.kinked:
            epsilon_hi = epsilon - rng.uniform(*world.kink_drop_range)
        coeff = base_units * base_price ** (-epsilon)
        truth = ItemTruth(item_id, epsilon, epsilon_hi, coeff, base_price)
        truths.append(truth)

        if world.fixed_prices is not None:
            prices = np.asarray(world.fixed_prices, dtype=np.float64)
        else:
            # random walk in log price, optionally mean-reverting toward the
            # base price so items keep revisiting the same price band
            steps = rng.normal(0.0, world.price_volatility, size=world.n_months)
            phi = 1.0 - world.price_reversion
            x = np.empty(world.n_months)
            level = 0.0
            for k in range(world.n_months):
                level = phi * level + steps[k]
                x[k] = level
            prices = base_price * np.exp(x)
            prices = np.clip(prices, 0.3 * base_price, 3.0 * base_price)

        noise = (
            np.exp(rng.normal(0.0, world.noise_sigma, size=world.n_months))
            if world.noise_sigma > 0
            else np.ones(world.n_months)
        )
        stockouts = rng.random(world.n_months) < world.stockout_rate

        brand = BRAND_POOL[int(rng.integers(len(BRAND_POOL)))]
        category = CATEGORY_POOL[int(rng.integers(len(CATEGORY_POOL)))]
        subcategory = f"{category}_sub{int(rng.integers(SUBCATS_PER_CATEGORY))}"
        size = SIZE_POOL[int(rng.integers(len(SIZE_POOL)))]
        substitute = bool(rng.random() < 0.5)
        rating = int(rng.integers(0, 500))
        launched = int(rng.integers(30, 1000))
        attributes = (brand, size, category, subcategory)

        for k, ym in enumerate(months):
            mult, flags = world.season_multiplier(dt.month_of_year(ym))
            price = float(prices[k])
            units = int(np.round(truth.expected_units(price, mult) * noise[k]))
            units = max(units, 0)
            # stock level scales with the item's typical demand, not with the
            # month's realized units (which would leak the target), and never
            # hits zero unless a stockout is injected
            inventory = 0 if stockouts[k] else max(int(np.round(base_units * rng.uniform(1.5, 3.0))), 10)
            oos = int(rng.integers(1, 6)) if rng.random() < world.oos_rate else 0
            # competitors track the item's stable market price level, not the
            # month-to-month own-price walk
            comp = base_price * rng.uniform(0.85, 1.15) if rng.random() < world.competitor_presence else np.nan
            rows.append(
                (item_id, ym, price, units, inventory, oos, rating, launched + 30 * k, comp, substitute, flags)
                + attributes
            )
            rating += int(round(units * 0.02))
    columns = {name: np.array(col) for name, col in zip(dt.TRANSACTIONS_COLUMNS, zip(*rows))}
    events = tuple(sorted(set().union(*columns["event_flags"])))
    columns["event_flags"] = np.array([[e in flags for e in events] for flags in columns["event_flags"]], dtype=bool)
    return dt.Transactions(**columns, event_names=events), truths


class TestTrueArcElasticity:
    def test_power_law_value(self):
        # ((10.1^-2 - 10^-2) / 10^-2) * (10 / 0.1)
        expected = ((10.1**-2 - 10**-2) / 10**-2) * 100
        got = true_arc_elasticity(-2.0, 10.0, 0.1)
        assert got == pytest.approx(expected)
        assert got == pytest.approx(-1.9704, abs=1e-3)

    def test_limit_is_point_elasticity(self):
        for dp in (1.0, 0.1, 0.01, 0.001):
            arc = true_arc_elasticity(-1.0, 10.0, dp)
            assert abs(arc - (-1.0)) < abs(true_arc_elasticity(-1.0, 10.0, dp * 10) - (-1.0)) + 1e-12
        assert true_arc_elasticity(-1.0, 10.0, 1e-6) == pytest.approx(-1.0, abs=1e-6)

    def test_half_price_unit_elasticity(self):
        # dp = -p/2, eps = -1: ((0.5^-1 - 1)/1) * (-2) = -2
        assert true_arc_elasticity(-1.0, 10.0, -5.0) == pytest.approx(-2.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            true_arc_elasticity(-1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            true_arc_elasticity(-1.0, 10.0, 0.0)
        with pytest.raises(DomainError):
            true_arc_elasticity(-1.0, 10.0, -10.0)

    def test_independent_of_coefficient(self):
        t1 = ItemTruth("a", -1.7, None, 100.0, 10.0)
        t2 = ItemTruth("b", -1.7, None, 9999.0, 10.0)
        assert t1.arc_elasticity(12.0, -0.6) == pytest.approx(t2.arc_elasticity(12.0, -0.6))
        assert t1.arc_elasticity(12.0, -0.6) == pytest.approx(true_arc_elasticity(-1.7, 12.0, -0.6))

    @pytest.mark.parametrize("epsilon, message", [(-1000.0, "at or below the floor"), (1000.0, "overflows at price")])
    def test_law_without_usable_demand_names_the_item(self, epsilon, message):
        truth = ItemTruth("item_0007", epsilon, None, 1000.0, 20.0)
        with pytest.raises(DomainError, match=f"demand law of item_0007.*{message}"):
            truth.arc_elasticity(20.0, -1.0)


class TestWorldValidation:
    def test_non_negative_epsilon_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticWorld(epsilon_range=(-1.0, 0.5))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticWorld(noise_sigma=-0.1)

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(noise_sigma=float("nan")), "noise sigma must be finite"),
            (dict(noise_sigma=float("inf")), "noise sigma must be finite"),
            (dict(epsilon_range=(float("nan"), -0.5)), "epsilon range must be finite"),
            (dict(epsilon_range=(float("-inf"), -0.5)), "epsilon range must be finite"),
            (dict(epsilon_range=(-3.0, float("nan"))), "epsilon range must be finite"),
            (dict(start_month=202313), "invalid year-month 202313"),
            (dict(base_price_range=(-8.0, 40.0)), "base demand and price ranges must be positive and finite"),
            (dict(base_demand_range=(800.0, float("inf"))), "base demand and price ranges must be positive and finite"),
            (dict(start_month=999901, n_months=13), "start_month 999901 and n_months 13 run past 999912"),
        ],
    )
    def test_non_finite_or_invalid_values_rejected(self, kw, message):
        with pytest.raises((ConfigError, DomainError), match=message):
            SyntheticWorld(**kw)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(kink_drop_range=(float("nan"), 1.5)),
            dict(kink_drop_range=(-0.5, -0.2)),  # would flatten the upper segment
            dict(kink_drop_range=(1.5, 0.8)),
            dict(kink_drop_range=(0.8, float("inf")), kinked=False),
            dict(price_volatility=-0.2),
            dict(price_volatility=float("inf")),
            dict(price_reversion=float("nan")),
            dict(price_reversion=1.5),
            dict(season_amplitude=2.0),  # would turn some months' demand negative
            dict(season_amplitude=-0.1),
            dict(oos_rate=float("nan")),
            dict(oos_rate=1.2),
            dict(competitor_presence=-1.0),
            dict(competitor_presence=float("nan")),
        ],
        ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_library_only_rates_and_shapes_checked(self, kw):
        name = next(iter(kw))
        with pytest.raises(ConfigError, match=rf"^{name} must be"):
            SyntheticWorld(**kw)

    def test_edge_rates_accepted(self):
        SyntheticWorld(kink_drop_range=(0.0, 0.0), kinked=True, price_volatility=0.0, price_reversion=1.0)
        SyntheticWorld(season_amplitude=0.0, oos_rate=1.0, competitor_presence=0.0)

    def test_fixed_prices_length_checked(self):
        with pytest.raises(ConfigError):
            SyntheticWorld(n_months=5, fixed_prices=(10.0, 10.0))

    @pytest.mark.parametrize("price", [0.0, -1.0, float("nan"), float("inf")])
    def test_fixed_prices_must_be_positive_and_finite(self, price):
        with pytest.raises(ConfigError, match="one positive finite price per month"):
            SyntheticWorld(n_months=2, fixed_prices=(10.0, price))

    @pytest.mark.parametrize(
        "kw",
        [
            dict(epsilon_range=(-400.0, -399.0)),
            dict(epsilon_range=(-300.0, -299.0), kinked=True),
            # fixed prices set the band: 0.5 ** -1100 overflows, while at prices
            # of 1 and 2 the same world is finite
            dict(epsilon_range=(-1100.0, -1100.0), base_price_range=(1.0, 1.0), n_months=2, fixed_prices=(0.5, 1.0)),
            # the kink's upper segment overflows though the range itself is mild
            dict(epsilon_range=(-2.0, -1.0), kinked=True, kink_drop_range=(1100.0, 1100.0)),
        ],
    )
    def test_epsilon_range_whose_law_overflows_rejected(self, kw):
        with pytest.raises(ConfigError, match=rf"epsilon range \({kw['epsilon_range'][0]}, .*overflows"):
            SyntheticWorld(**kw)

    def test_steep_finite_range_accepted(self):
        flat = dict(epsilon_range=(-1100.0, -1100.0), base_price_range=(1.0, 1.0), n_months=2)
        SyntheticWorld(**flat, fixed_prices=(1.0, 2.0))
        for kinked in (False, True):
            SyntheticWorld(epsilon_range=(-187.0, -186.0), kinked=kinked)


def noiseless_world(**kw):
    base = dict(
        n_items=1,
        n_months=6,
        seed=3,
        noise_sigma=0.0,
        season_amplitude=0.0,
        events_enabled=False,
        base_demand_range=(10.0, 10.0),
        base_price_range=(10.0, 10.0),
        epsilon_range=(-2.0, -2.0),
    )
    base.update(kw)
    return SyntheticWorld(**base)


class TestGenerate:
    def test_noiseless_law_is_exact(self):
        world = noiseless_world(fixed_prices=(10.0, 8.0, 12.0, 10.0, 9.0, 11.0))
        tx, (truth,) = generate(world)
        # base demand 10 at base price 10 with eps -2 -> coeff 1000, units = round(1000 * p^-2)
        assert truth.coeff == pytest.approx(1000.0)
        for units, price in zip(tx.units_sold.tolist(), tx.price.tolist()):
            assert units == round(truth.coeff * price**-2.0)

    def test_same_seed_identical_output(self):
        w = SyntheticWorld(n_items=5, n_months=8, seed=11)
        (tx_a, truths_a), (tx_b, truths_b) = generate(w), generate(w)
        assert tables_equal(tx_a, tx_b)
        assert truths_a == truths_b

    def test_unit_elasticity_halves_units_when_price_doubles(self):
        world = noiseless_world(
            epsilon_range=(-1.0, -1.0),
            base_demand_range=(800.0, 800.0),
            fixed_prices=(10.0, 20.0, 40.0, 80.0, 160.0, 320.0),
        )
        tx, _ = generate(world)
        units = tx.units_sold.tolist()
        for a, b in zip(units, units[1:]):
            assert b * 2 == a

    def test_realized_arc_matches_oracle_within_rounding(self):
        world = noiseless_world(
            base_demand_range=(100000.0, 100000.0),
            fixed_prices=(10.0, 10.5, 9.0, 11.0, 10.0, 9.5),
        )
        tx, (truth,) = generate(world)
        price, units = tx.price.tolist(), tx.units_sold.tolist()
        for k in range(len(tx) - 1):
            dp = price[k + 1] - price[k]
            realized = (units[k + 1] - units[k]) / units[k] * price[k] / dp
            expected = truth.arc_elasticity(price[k], dp)
            assert realized == pytest.approx(expected, abs=1e-3)  # count rounding only

    def test_generated_files_pass_ingest_and_build_pairs(self, tmp_path):
        world = SyntheticWorld(n_items=8, n_months=10, seed=5)
        tx, _ = generate(world)
        f = tmp_path / "t.csv"
        dt.write_transactions(tx, f)
        loaded = dt.ingest(f)
        assert tables_equal(loaded, tx)
        pairs = dt.build_pairs(loaded)
        assert len(pairs)  # every record has positive inventory by default

    def test_stockout_injection_zeroes_inventory_and_excludes_pairs(self):
        world = SyntheticWorld(n_items=10, n_months=12, seed=7, stockout_rate=0.3)
        tx, _ = generate(world)
        zeroed = tx.take(tx.inventory == 0)
        assert len(zeroed)
        pairs = dt.build_pairs(tx)
        bad = set(zip(zeroed.item_id.tolist(), zeroed.year_month.tolist()))
        for item_id, lag_month, lead_month in zip(
            pairs.item_id.tolist(), pairs.lag_month.tolist(), pairs.lead_month.tolist()
        ):
            assert (item_id, lag_month) not in bad
            assert (item_id, lead_month) not in bad

    def test_kinked_law_continuous_at_base_price(self):
        truth = ItemTruth("a", -1.0, -2.5, 50.0, 20.0)
        below = truth.expected_units(20.0 - 1e-9)
        above = truth.expected_units(20.0 + 1e-9)
        assert below == pytest.approx(above, rel=1e-6)
        # steeper above the kink
        arc_below = truth.arc_elasticity(15.0, -0.75)
        arc_above = truth.arc_elasticity(30.0, -1.5)
        assert arc_above < arc_below

    def test_truth_round_trip(self, tmp_path):
        world = SyntheticWorld(n_items=6, n_months=5, seed=2, kinked=True)
        _, truths = generate(world)
        f = tmp_path / "truth.csv"
        write_truth(truths, f)
        assert read_truth(f) == truths
        assert all(type(t.epsilon) is float and type(t.epsilon_hi) is float for t in read_truth(f))

    def test_constant_world_truth_round_trips_byte_identically(self, tmp_path):
        _, truths = generate(SyntheticWorld(n_items=4, n_months=5, seed=3))
        write_truth(truths, tmp_path / "a.csv")
        assert read_truth(tmp_path / "a.csv") == truths
        assert all(t.epsilon_hi is None for t in truths)
        write_truth(read_truth(tmp_path / "a.csv"), tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize(
        "header, row, message",
        [
            (None, "item_0000,abc,,1.0,2.0", "line 2: bad epsilon 'abc'"),
            (None, "item_0000,nan,,1.0,2.0", "line 2: epsilon must be finite, got nan"),
            (None, "item_0000,-1.5,inf,1.0,2.0", "line 2: epsilon_hi must be finite when present, got inf"),
            (None, "item_0000,-1.5,,0,2.0", "line 2: coeff must be positive and finite, got 0.0"),
            (None, "item_0000,-1.5,,1.0,-2.0", "line 2: base_price must be positive and finite, got -2.0"),
            (None, "item_0000,-1.5,,1.0", "line 2: expected 5 fields, got 4"),
            ("item_id,epsilon", "item_0000,-1.5", "unexpected header"),
            (
                None,
                "item_0000,-1.5,,1.0,2.0\nitem_0001,-1.5,,1.0,2.0\nitem_0000,-0.1,,1.0,2.0",
                "line 4: repeated item_id 'item_0000'",
            ),
        ],
    )
    def test_malformed_truth_names_the_line(self, tmp_path, header, row, message):
        f = tmp_path / "truth.csv"
        f.write_text((header or ",".join(TRUTH_COLUMNS)) + "\n" + row + "\n")
        with pytest.raises(ParseError, match=message):
            read_truth(f)

    def test_demand_beyond_a_count_rejected(self):
        # finite law, but 10 * 0.3 ** -40 ~ 1e22 units do not fit an int64 cell
        world = noiseless_world(epsilon_range=(-40.0, -40.0), fixed_prices=(3.0,) * 6)
        with pytest.raises(DomainError, match="demand of item_0000 does not fit a count"):
            generate(world)


ORACLE_WORLDS = {
    "seed24": dict(seed=24),
    "seed57": dict(seed=57),
    "seed24-kinked": dict(seed=24, kinked=True),
    "seed57-kinked": dict(seed=57, kinked=True),
    "stockouts": dict(seed=24, stockout_rate=0.3),
    "noiseless": dict(seed=57, noise_sigma=0.0),
    "no-events": dict(seed=24, events_enabled=False),
    "fixed-prices": dict(seed=57, n_months=6, fixed_prices=(10.0, 12.5, 9.0, 30.0, 11.0, 10.0), kinked=True),
    "one-month": dict(seed=24, n_months=1),
    "one-item": dict(seed=57, n_items=1),
    "1000-items": dict(seed=24, n_items=1000),
}


@pytest.mark.parametrize("kw", ORACLE_WORLDS.values(), ids=ORACLE_WORLDS.keys())
def test_generate_matches_reference_generate(tmp_path, kw):
    world = SyntheticWorld(**{"n_items": 200, **kw})
    (got, got_truths), (want, want_truths) = generate(world), reference_generate(world)
    assert got.event_names == want.event_names
    for name in dt.TRANSACTIONS_COLUMNS:
        x, y = getattr(got, name), getattr(want, name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert np.array_equal(x, y, equal_nan=x.dtype.kind == "f"), name
    assert got_truths == want_truths
    for side, (tx, truths) in (("got", (got, got_truths)), ("want", (want, want_truths))):
        dt.write_transactions(tx, tmp_path / f"{side}_transactions.csv")
        write_truth(truths, tmp_path / f"{side}_truth.csv")
    for name in ("transactions.csv", "truth.csv"):
        assert (tmp_path / f"got_{name}").read_bytes() == (tmp_path / f"want_{name}").read_bytes(), name
