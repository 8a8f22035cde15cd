import contextlib
import csv
import dataclasses
import gc
import hashlib
import io
import json
import random

import numpy as np
import pytest

from elastinet import data as dt
from elastinet.errors import ConfigError, DomainError, IntegrityError, ParseError, SchemaMismatchError
from reference_ops import category_column

HEADER = ",".join(dt.TRANSACTIONS_COLUMNS)


ROW = dict(
    item_id="a",
    year_month=202301,
    price=10.0,
    units_sold=5,
    inventory=20,
    oos_days=0,
    rating_count=3,
    days_launched=100,
    competitor_price=None,
    substitute_available=False,
    event_flags=frozenset(),
    brand="b1",
    size="M",
    category="c1",
    subcategory="s1",
)


def tx_row(item="a", ym=202301, price=10.0, units=5, inventory=20, **kw):
    """One transactions row as a dict keyed by TRANSACTIONS_COLUMNS."""
    return {**ROW, "item_id": item, "year_month": ym, "price": price, "units_sold": units, "inventory": inventory, **kw}


def make_tx(rows):
    """A Transactions table from row dicts: None is an absent competitor
    price, and the event names are every event some row flags."""
    rows = list(rows)
    events = tuple(sorted(set().union(*(r["event_flags"] for r in rows))))
    columns = {}
    for name in dt.TRANSACTIONS_COLUMNS:
        values = [r[name] for r in rows]
        if name == "event_flags":
            flags = np.array([[e in v for e in events] for v in values], dtype=bool)
            columns[name] = flags.reshape(len(rows), len(events))
        elif name == "competitor_price":
            columns[name] = np.array([np.nan if v is None else v for v in values], dtype=np.float64)
        else:
            columns[name] = np.array(values, dtype=type(ROW[name]))
    return dt.Transactions(**columns, event_names=events)


def write_csv(path, rows):
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")


def pair_keys(table):
    """(item_id, lag_month, lead_month) of every row, in table order."""
    return list(zip(table.item_id.tolist(), table.lag_month.tolist(), table.lead_month.tolist()))


def tables_equal(a, b):
    """Same type, event names and columns (NaN equal to NaN); pair tables
    over equal transactions."""
    if type(a) is not type(b) or a.event_names != b.event_names or len(a) != len(b):
        return False
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "event_names":
            continue
        if f.name == "tx":
            if not tables_equal(x, y):
                return False
        elif x.dtype != y.dtype or not np.array_equal(x, y, equal_nan=x.dtype.kind == "f"):
            return False
    return True


class TestMonths:
    def test_gap_arithmetic(self):
        assert dt.month_gap(202301, 202302) == 1
        assert dt.month_gap(202212, 202301) == 1
        assert dt.month_gap(202301, 202401) == 12
        assert dt.ym_add(202312, 1) == 202401
        assert dt.ym_add(202301, -1) == 202212

    def test_invalid_month_rejected(self):
        with pytest.raises(DomainError):
            dt.validate_ym(202313)

    @pytest.mark.parametrize("ym", [100, 1000001, 99999999999999999912])
    def test_year_is_1_to_9999_in_arguments_and_files(self, tmp_path, ym):
        assert dt.validate_ym(101) == 101 and dt.validate_ym(999912) == 999912
        with pytest.raises(DomainError, match="year 1..9999"):
            dt.validate_ym(ym)
        f = tmp_path / "t.csv"
        write_csv(f, ["a,999912,3.5,5,20,0,3,100,,false,,b1,M,c1,s1", f"b,{ym},3.5,5,20,0,3,100,,false,,b1,M,c1,s1"])
        with pytest.raises(ParseError, match=f"line 3: bad year_month '{ym}'"):
            dt.ingest(f)


class TestIngest:
    def test_three_valid_rows(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(
            f,
            [
                "a,202301,10.0,5,20,0,3,100,,false,,b1,M,c1,s1",
                "a,202302,11.0,6,20,1,3,130,12.5,true,holiday,b1,M,c1,s1",
                "b,202301,9.0,2,15,0,1,50,,false,promo|holiday,b2,S,c2,s2",
                "b,202302,9.0,2,15,0,1,50,,false,holiday||promo,b2,S,c2,s2",
                "b,202303,9.0,2,15,0,1,50,,false,promo|promo,b2,S,c2,s2",
                "b,202304,9.0,2,15,0,1,50,,false,|holiday|,b2,S,c2,s2",
            ],
        )
        tx = dt.ingest(f)
        assert len(tx) == 6
        assert np.isnan(tx.competitor_price[0]) and tx.competitor_price[1] == 12.5
        assert tx.event_names == ("holiday", "promo")
        assert tx.event_flags.tolist() == [
            [False, False],
            [True, False],
            [True, True],
            [True, True],
            [False, True],
            [True, False],
        ]
        assert tx.substitute_available.tolist() == [False, True, False, False, False, False]

    def test_header_only_file_has_no_events(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text(HEADER + "\n")
        tx = dt.ingest(f)
        assert len(tx) == 0
        assert tx.event_names == () and tx.event_flags.shape == (0, 0)

    def test_duplicate_item_month(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(
            f,
            [
                "a,202305,10.0,5,20,0,3,100,,false,,b1,M,c1,s1",
                "a,202305,11.0,6,20,0,3,130,,false,,b1,M,c1,s1",
            ],
        )
        with pytest.raises(IntegrityError, match="202305"):
            dt.ingest(f)

    def test_negative_price(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, ["a,202301,-3.50,5,20,0,3,100,,false,,b1,M,c1,s1"])
        with pytest.raises(ParseError, match="line 2"):
            dt.ingest(f)

    @pytest.mark.parametrize(
        "price, competitor, message",
        [
            ("inf", "", "price must be positive and finite, got inf"),
            ("nan", "", "price must be positive and finite, got nan"),
            ("3.5", "inf", "competitor_price must be positive and finite when present, got inf"),
            ("3.5", "-inf", "competitor_price must be positive and finite when present, got -inf"),
        ],
    )
    def test_non_finite_price(self, tmp_path, price, competitor, message):
        f = tmp_path / "t.csv"
        write_csv(
            f,
            [
                "a,202301,3.5,5,20,0,3,100,,false,,b1,M,c1,s1",
                f"a,202302,{price},5,20,0,3,100,{competitor},false,,b1,M,c1,s1",
            ],
        )
        with pytest.raises(ParseError, match=f"line 3: {message}"):
            dt.ingest(f)

    def test_negative_count(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, ["a,202301,3.50,-5,20,0,3,100,,false,,b1,M,c1,s1"])
        with pytest.raises(ParseError, match="units_sold"):
            dt.ingest(f)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("a,202301,3.50,-5,20,0,3,100,,false,,b1,M,c1,s1", "units_sold must be non-negative, got -5"),
            ("a,202301,3.50,5,20,-1,3,100,,false,,b1,M,c1,s1", "oos_days must be non-negative, got -1"),
            ("a,202301,3.50,5,20,40,3,100,,false,,b1,M,c1,s1", "oos_days must be 0..31, got 40"),
            ("a,202301,3.50,5,20,0,3,-100,,false,,b1,M,c1,s1", "days_launched must be non-negative, got -100"),
        ],
    )
    def test_count_rules_name_the_line(self, tmp_path, row, message):
        f = tmp_path / "t.csv"
        write_csv(f, ["a,202212,3.50,5,20,0,3,100,,false,,b1,M,c1,s1", row])
        with pytest.raises(ParseError, match=f"^t.csv line 3: {message}$"):
            dt.ingest(f)

    def test_bad_header(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("item,month\na,202301\n")
        with pytest.raises(ParseError, match="header"):
            dt.ingest(f)

    def test_accepted_spellings(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(
            f,
            [
                "a,202301,3.5,5,20,0,3,100,  ,  TRUE ,,b1,M,c1,s1",
                "",
                "a,202302,3.5,5,20,0,3,100, 4.25 ,False,,b1,M,c1,s1",
            ],
        )
        tx = dt.ingest(f)
        assert tx.substitute_available.tolist() == [True, False]
        assert np.isnan(tx.competitor_price[0]) and tx.competitor_price[1] == 4.25
        write_csv(
            f,
            ["a,202301,3.5,5,20,0,3,100,,false,,b1,M,c1,s1", "", "a,202302,3.5,5,20,0,3,100,,maybe,,b1,M,c1,s1"],
        )
        with pytest.raises(ParseError, match="line 4: substitute_available must be true/false, got 'maybe'"):
            dt.ingest(f)

    def test_round_trip(self, tmp_path):
        tx = make_tx([tx_row(ym=202301), tx_row(ym=202302, competitor_price=3.25, event_flags=frozenset({"x"}))])
        f = tmp_path / "t.csv"
        dt.write_transactions(tx, f)
        assert tables_equal(dt.ingest(f), tx)

    @pytest.mark.parametrize(
        "events",
        [
            [frozenset()] * 2,  # flags of shape (2, 0)
            [],  # zero rows
            [frozenset("xyz"), frozenset(), frozenset("z"), frozenset("xz"), frozenset("z"), frozenset("xyz")],
        ],
        ids=["no-events", "zero-rows", "three-events"],
    )
    def test_round_trip_of_event_cells(self, tmp_path, events):
        tx = make_tx(tx_row(ym=202301 + i, event_flags=e) for i, e in enumerate(events))
        f = tmp_path / "t.csv"
        dt.write_transactions(tx, f)
        assert tables_equal(dt.ingest(f), tx)
        assert dt.ingest(f).event_flags.shape == (len(events), len(tx.event_names))


class TestPriceChange:
    def test_arithmetic(self):
        assert dt.price_change_pct(10, 12) == pytest.approx(0.2)
        assert dt.price_change_pct(10, 10) == 0.0
        assert dt.price_change_pct(8, 6) == pytest.approx(-0.25)

    def test_nonpositive_lag_price(self):
        with pytest.raises(DomainError):
            dt.price_change_pct(0.0, 5.0)


def brute_force_pairs(tx):
    """Independent oracle: all ordered month pairs under the two constraints."""
    rows = list(zip(tx.item_id.tolist(), tx.year_month.tolist(), tx.inventory.tolist()))
    out = set()
    for lag_item, lag_month, lag_inventory in rows:
        for lead_item, lead_month, lead_inventory in rows:
            if lag_item != lead_item:
                continue
            gap = dt.month_gap(lag_month, lead_month)
            if 1 <= gap <= 12 and lag_inventory > 0 and lead_inventory > 0:
                out.add((lag_item, lag_month, lead_month))
    return out


class TestBuildPairs:
    def test_three_months_give_three_pairs(self):
        rows = [tx_row(ym=m) for m in (202301, 202302, 202303)]
        pairs = dt.build_pairs(make_tx(rows))
        assert list(zip(pairs.lag_month.tolist(), pairs.lead_month.tolist())) == [
            (202301, 202302),
            (202301, 202303),
            (202302, 202303),
        ]

    def test_gap_over_twelve_excluded(self):
        rows = [tx_row(ym=202301), tx_row(ym=202403)]  # gap 14
        assert len(dt.build_pairs(make_tx(rows))) == 0

    def test_zero_lead_inventory_excluded(self):
        rows = [tx_row(ym=202301), tx_row(ym=202302, inventory=0)]
        assert len(dt.build_pairs(make_tx(rows))) == 0

    def test_zero_lag_inventory_excluded(self):
        rows = [tx_row(ym=202301, inventory=0), tx_row(ym=202302)]
        assert len(dt.build_pairs(make_tx(rows))) == 0

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(0)
        months = [dt.ym_add(202201, k) for k in range(30)]
        for _ in range(50):
            rows = []
            for i in range(int(rng.integers(1, 6))):
                chosen = rng.choice(len(months), size=int(rng.integers(2, 31)), replace=False)
                for m in rng.permutation(chosen):  # rows need not arrive sorted
                    rows.append(
                        tx_row(
                            item=f"i{i}",
                            ym=months[int(m)],
                            price=float(rng.uniform(1, 9)),
                            units=int(rng.integers(0, 50)),
                            inventory=int(rng.integers(0, 3)) * 10,
                        )
                    )
            tx = make_tx(rows)
            pairs = dt.build_pairs(tx)
            keys = pair_keys(pairs)
            assert keys == sorted(brute_force_pairs(tx))
            by_key = {(r["item_id"], r["year_month"]): r for r in rows}
            names = ("month_gap", "lag_price", "lead_price", "price_change_pct", "lag_units")
            col = {name: dt.feature_column(pairs, name) for name in (*names, "lag_inventory", "lead_inventory")}
            for k, (item_id, lag_month, lead_month) in enumerate(keys):
                lag, lead = by_key[item_id, lag_month], by_key[item_id, lead_month]
                assert col["month_gap"][k] == dt.month_gap(lag_month, lead_month)
                assert (col["lag_price"][k], col["lead_price"][k]) == (lag["price"], lead["price"])
                assert col["price_change_pct"][k] == (lead["price"] - lag["price"]) / lag["price"]
                assert (col["lag_units"][k], pairs.target[k]) == (lag["units_sold"], lead["units_sold"])
                assert (col["lag_inventory"][k], col["lead_inventory"][k]) == (lag["inventory"], lead["inventory"])

    def test_fields_copied_and_target_set(self):
        rows = [
            tx_row(ym=202301, price=10.0, units=7, oos_days=2, competitor_price=8.5, substitute_available=True),
            tx_row(ym=202302, price=12.0, units=9, oos_days=1, brand="b2"),
        ]
        pair = dt.build_pairs(make_tx(rows))
        assert len(pair) == 1

        def col(name):
            return dt.feature_column(pair, name).tolist()

        assert col("lag_units") == [7] and pair.target.tolist() == [9]
        assert col("price_change_pct") == [pytest.approx(0.2)]
        assert col("lag_oos_days") == [2] and col("lead_oos_days") == [1]
        assert col("lag_competitor_price") == [8.5] and col("lead_competitor_price_present") == [0]
        assert col("lag_substitute_available") == [1] and col("lead_substitute_available") == [0]
        assert category_column(pair, "brand").tolist() == ["b1"]  # item attributes come from the lag month

    def test_duplicate_item_month_rejected(self):
        rows = [tx_row(ym=202301), tx_row(ym=202302), tx_row(ym=202302, price=11.0)]
        with pytest.raises(IntegrityError, match="202302"):
            dt.build_pairs(make_tx(rows))


def grid_rows(n_items=3, n_months=27, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_items):
        for k in range(n_months):
            rows.append(
                tx_row(item=f"i{i}", ym=dt.ym_add(202301, k), price=float(rng.uniform(5, 15)))
            )
    return rows


class TestSplit:
    def test_out_of_time_is_last_three_lead_months(self):
        pairs = dt.build_pairs(make_tx(grid_rows()))
        ds = dt.split(pairs, seed=0)
        last = int(pairs.lead_month.max())
        boundary = dt.ym_add(last, -2)
        assert ds.boundary_month == boundary
        assert np.all(ds.out_of_time.lead_month >= boundary)
        assert np.all(ds.pairs.lead_month[ds.labels != dt._OUT_OF_TIME] < boundary)

    def test_same_seed_identical_membership(self):
        pairs = dt.build_pairs(make_tx(grid_rows()))
        a = dt.split(pairs, seed=5)
        b = dt.split(pairs, seed=5)
        assert pair_keys(a.train) == pair_keys(b.train)
        assert pair_keys(a.validation) == pair_keys(b.validation)

    def test_parts_keep_pair_order(self):
        pairs = dt.build_pairs(make_tx(grid_rows()))
        ds = dt.split(pairs.take(np.random.default_rng(0).permutation(len(pairs))), seed=5)
        for part in (ds.train, ds.validation, ds.out_of_time):
            assert pair_keys(part) == sorted(pair_keys(part))

    def test_80_20_sizes(self):
        pairs = dt.build_pairs(make_tx(grid_rows()))
        ds = dt.split(pairs, seed=1)
        n = len(ds.train) + len(ds.validation)
        assert len(ds.train) == (n * 4) // 5

    def test_exactly_100_pairs_split_80_20(self):
        full = dt.split(dt.build_pairs(make_tx(grid_rows())), seed=1)
        keep = full.labels == dt._OUT_OF_TIME
        keep[np.flatnonzero(~keep)[:100]] = True
        ds = dt.split(full.pairs.take(keep), seed=1)
        assert (len(ds.train), len(ds.validation)) == (80, 20)

    def test_no_leakage_between_splits(self):
        pairs = dt.build_pairs(make_tx(grid_rows()))
        ds = dt.split(pairs, seed=2)
        train = set(pair_keys(ds.train))
        val = set(pair_keys(ds.validation))
        ots = set(pair_keys(ds.out_of_time))
        assert not (train & val) and not (train & ots) and not (val & ots)
        assert len(train | val | ots) == len(pairs)

    def test_item_level_split(self):
        pairs = dt.build_pairs(make_tx(grid_rows(n_items=10)))
        ds = dt.split(pairs, seed=3, by_item=True)
        train_items = set(ds.train.item_id.tolist())
        val_items = set(ds.validation.item_id.tolist())
        assert not (train_items & val_items)

    def test_event_names_are_those_present_in_pairs(self):
        rows = grid_rows()
        rows[0] = tx_row(item="i0", ym=202301, event_flags=frozenset({"promo"}))
        rows.append(tx_row(item="lonely", ym=202301, event_flags=frozenset({"clearance"})))
        ds = dt.split(dt.build_pairs(make_tx(rows)), seed=0)
        assert ds.names.event_names == ("promo",)
        assert ds.train.event_names == ds.out_of_time.event_names == ("clearance", "promo")  # the transactions' events

    def test_too_short_span_rejected(self):
        rows = [tx_row(ym=m) for m in (202301, 202302, 202303)]
        with pytest.raises(ConfigError):
            dt.split(dt.build_pairs(make_tx(rows)), seed=0)


class TestInferenceSet:
    def test_valid_item_gets_one_gap_one_row(self):
        rows = [tx_row(ym=202301, price=9.0), tx_row(ym=202302, price=10.0)]
        table, skipped = dt.build_inference_set(make_tx(rows), 202302)
        assert skipped == []
        assert len(table) == 1
        assert dt.feature_column(table, "month_gap").tolist() == [1.0]
        assert table.lead_month[0] == 202303
        assert table.lead_price[0] == table.lag_price[0] == 10.0
        assert dt.feature_column(table, "price_change_pct").tolist() == [0.0]
        assert np.isnan(table.target[0])
        assert table.lead.tolist() == table.lag.tolist()  # lead covariates carried forward from the lag month

    def test_zero_inventory_item_skipped_with_reason(self):
        rows = [tx_row(item="a", ym=202302), tx_row(item="b", ym=202302, inventory=0)]
        table, skipped = dt.build_inference_set(make_tx(rows), 202302)
        assert table.item_id.tolist() == ["a"]
        assert skipped == [("b", "inventory is 0 in month 202302")]

    def test_item_without_as_of_record_skipped(self):
        rows = [tx_row(item="a", ym=202301)]
        table, skipped = dt.build_inference_set(make_tx(rows), 202302)
        assert len(table) == 0
        assert skipped[0][0] == "a"

    def test_empty_records(self):
        table, skipped = dt.build_inference_set(make_tx([]), 202301)
        assert len(table) == 0 and skipped == []


def save(tmp_path, rows, seed=7, by_item=False):
    """Write ``rows`` as a transactions file, build and split its pairs and
    save the dataset into ``tmp_path / "ds"``; returns the split and that path."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    tx_path = tmp_path / "input.csv"
    dt.write_transactions(make_tx(rows), tx_path)
    ds = dt.split(dt.build_pairs(dt.ingest(tx_path)), seed=seed, by_item=by_item)
    dt.save_dataset(ds, tx_path, tmp_path / "ds")
    return ds, tmp_path / "ds"


def splits_equal(a, b):
    """Same parts column for column, feature names, seed, split mode and
    boundary month."""
    parts_equal = all(tables_equal(getattr(a, part), getattr(b, part)) for part in dt.SPLITS)
    facts = ("names", "seed", "split_mode", "boundary_month")
    return parts_equal and all(getattr(a, fact) == getattr(b, fact) for fact in facts)


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        ds, path = save(tmp_path, grid_rows(), seed=9)
        loaded = dt.load_dataset(path)
        assert loaded.names == ds.names
        assert tables_equal(loaded.train, ds.train)
        assert tables_equal(loaded.validation, ds.validation)
        assert tables_equal(loaded.out_of_time, ds.out_of_time)

    @pytest.mark.parametrize("by_item", [False, True], ids=["pair", "item"])
    def test_round_trip_keeps_pairs_and_int8_labels(self, tmp_path, by_item):
        ds, path = save(tmp_path, grid_rows(n_items=6), seed=9, by_item=by_item)
        loaded = dt.load_dataset(path)
        assert loaded.labels.dtype == ds.labels.dtype == np.int8
        assert np.array_equal(loaded.labels, ds.labels) and tables_equal(loaded.pairs, ds.pairs)
        assert pair_keys(ds.pairs) == sorted(pair_keys(ds.pairs))
        for code, name in enumerate(dt.SPLITS):
            part = ds.pairs.take(ds.labels == code)
            assert len(part) and tables_equal(getattr(ds, name), part) and tables_equal(getattr(loaded, name), part)
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["row_counts"] == dict(zip(dt.SPLITS, np.bincount(ds.labels).tolist()))

    def test_round_trip_with_events_and_absent_values(self, tmp_path):
        rows = grid_rows()
        rows[1] = tx_row(item="i0", ym=202302, competitor_price=4.5, event_flags=frozenset({"x", "y"}))
        rows[5] = tx_row(item="i0", ym=202306, substitute_available=True, event_flags=frozenset({"y"}))
        ds, path = save(tmp_path, rows, seed=3)
        loaded = dt.load_dataset(path)
        for part in dt.SPLITS:
            assert tables_equal(getattr(loaded, part), getattr(ds, part))
        assert "x|y" in (path / "transactions.csv").read_text()

    @pytest.mark.parametrize("by_item", [False, True], ids=["pair", "item"])
    @pytest.mark.parametrize("seed", [24, 57])
    def test_load_equals_the_split_of_the_rebuilt_pairs(self, tmp_path, seed, by_item):
        from elastinet import synth

        tx, _ = synth.generate(synth.SyntheticWorld(n_items=15, n_months=27, seed=seed))
        tx_path = tmp_path / "transactions.csv"
        dt.write_transactions(tx, tx_path)
        dt.save_dataset(dt.split(dt.build_pairs(dt.ingest(tx_path)), seed, by_item), tx_path, tmp_path / "ds")
        loaded = dt.load_dataset(tmp_path / "ds")
        assert splits_equal(loaded, dt.split(dt.build_pairs(dt.ingest(tx_path)), seed, by_item))
        assert len(loaded.names.event_names) == 2

    def test_shifted_labels_are_caught_or_keep_the_holdout_and_counts(self, tmp_path):
        """pairs.csv stores no pair keys: a block of labels shifted by one
        line (one label deleted, one inserted anywhere) must fail to load, or
        at most trade train and validation labels with the counts kept."""
        from elastinet import synth

        tx, _ = synth.generate(synth.SyntheticWorld(n_items=15, n_months=27, seed=24))
        tx_path = tmp_path / "transactions.csv"
        dt.write_transactions(tx, tx_path)
        ds = dt.split(dt.build_pairs(dt.ingest(tx_path)), 24)
        dt.save_dataset(ds, tx_path, tmp_path / "ds")
        pairs_csv = tmp_path / "ds" / "pairs.csv"
        header, *labels = pairs_csv.read_text().splitlines(keepends=True)
        rng = np.random.default_rng(0)
        caught = 0
        for _ in range(200):
            edited = list(labels)
            del edited[rng.integers(len(edited))]
            edited.insert(rng.integers(len(edited) + 1), f"{rng.choice(dt.SPLITS)}\n")
            pairs_csv.write_text(header + "".join(edited))
            try:
                loaded = dt.load_dataset(tmp_path / "ds")
            except SchemaMismatchError:
                caught += 1
                continue
            assert tables_equal(loaded.out_of_time, ds.out_of_time)
            assert len(loaded.train) == len(ds.train) and len(loaded.validation) == len(ds.validation)
        assert caught > 150

    def test_pipeline_determinism_byte_identical(self, tmp_path):
        rows = grid_rows(seed=4)
        for d in ("one", "two"):
            save(tmp_path / d, rows, seed=7)
        for name in ("transactions.csv", "pairs.csv", "manifest.json"):
            assert (tmp_path / "one" / "ds" / name).read_bytes() == (tmp_path / "two" / "ds" / name).read_bytes()

    def test_chunked_write_matches_one_chunk(self, tmp_path, monkeypatch):
        rows = grid_rows(seed=4)
        rows[1] = tx_row(item="i0", ym=202302, competitor_price=4.5, event_flags=frozenset({"x", "y"}))
        ds, path = save(tmp_path / "one", rows, seed=7)
        monkeypatch.setattr(dt, "_CSV_CHUNK_ROWS", 2)
        _, chunked = save(tmp_path / "chunked", rows, seed=7)
        assert len(ds.train) > 2
        for name in ("transactions.csv", "pairs.csv"):
            assert (path / name).read_bytes() == (chunked / name).read_bytes()

    def test_manifest_contents(self, tmp_path):
        ds, path = save(tmp_path, grid_rows(), seed=7)
        manifest = json.loads((path / "manifest.json").read_text())
        assert (manifest["seed"], manifest["split_mode"], manifest["boundary_month"]) == (7, "pair", ds.boundary_month)
        keys = ["boundary_month", "event_names", "row_counts", "seed", "split_mode", "transactions_sha256"]
        assert sorted(manifest) == keys
        assert manifest["row_counts"] == {name: len(getattr(ds, name)) for name in dt.SPLITS}
        assert manifest["event_names"] == list(ds.names.event_names)
        raw = (tmp_path / "input.csv").read_bytes()
        assert manifest["transactions_sha256"] == hashlib.sha256(raw).hexdigest()
        assert sorted(p.name for p in path.iterdir()) == ["manifest.json", "pairs.csv", "transactions.csv"]
        assert (path / "transactions.csv").read_bytes() == raw
        lines = (path / "pairs.csv").read_text().splitlines()
        assert lines[0] == "split"
        # one label per pair, in the (item, lag, lead) order build_pairs returns
        label_of = {key: name for name in dt.SPLITS for key in pair_keys(getattr(ds, name))}
        assert lines[1:] == [label_of[key] for key in pair_keys(dt.build_pairs(dt.ingest(path / "transactions.csv")))]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda row: row[:-1] + ["trian"], "bad split 'trian'"),
            (lambda row: [" train"], "bad split ' train'"),
            (lambda row: row + ["train"], "expected 1 fields, got 2"),
        ],
    )
    def test_malformed_pairs_csv_names_the_line(self, tmp_path, edit, message):
        _, path = save(tmp_path, grid_rows(), seed=7)
        lines = (path / "pairs.csv").read_text().splitlines()
        lines[3] = ",".join(edit(lines[3].split(",")))
        (path / "pairs.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"line 4: {message}"):
            dt.load_dataset(path)

    def test_boundary_crossing_names_the_line(self, tmp_path):
        _, path = save(tmp_path, grid_rows(), seed=7)
        lines = (path / "pairs.csv").read_text().splitlines()
        last = max(i for i, label in enumerate(lines) if label == "out_of_time")
        lines[last] = "train"
        lines.insert(1, "")  # a blank line is skipped but counted
        (path / "pairs.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaMismatchError, match=f"pairs.csv line {last + 2}: train crosses the boundary month"):
            dt.load_dataset(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m.pop("event_names"),
            lambda m: m.update(schema_hash="0" * 64),  # a directory built when the manifest had one
            lambda m: m.update(event_names="holiday"),
            lambda m: m.update(event_names=[1]),
            lambda m: m.update(schema_hash=None),
        ],
    )
    def test_manifest_without_its_keys_rejected(self, tmp_path, edit):
        _, path = save(tmp_path, grid_rows(), seed=7)
        manifest = json.loads((path / "manifest.json").read_text())
        edit(manifest)
        (path / "manifest.json").write_text(json.dumps(manifest))
        message = r'^manifest (event_names|schema_hash) is (missing|"holiday"|\[1\]|null|"0{64}");'
        with pytest.raises(SchemaMismatchError, match=message):
            dt.load_dataset(path)

    def test_seed_and_split_mode_are_read_back(self, tmp_path):
        ds, path = save(tmp_path, grid_rows(n_items=10), seed=3, by_item=True)
        loaded = dt.load_dataset(path)
        assert (loaded.seed, loaded.split_mode, loaded.boundary_month) == (3, "item", ds.boundary_month)

    def test_manifest_not_json_rejected(self, tmp_path):
        _, path = save(tmp_path, grid_rows(), seed=7)
        (path / "manifest.json").write_text("{")
        with pytest.raises(SchemaMismatchError, match="manifest.json is not valid JSON"):
            dt.load_dataset(path)

    def test_edited_event_names_fail_the_schema_hash(self, tmp_path):
        _, path = save(tmp_path, grid_rows(), seed=7)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["event_names"] = ["holiday"]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SchemaMismatchError, match=r'manifest event_names is \["holiday"\]; expected \[\]'):
            dt.load_dataset(path)


# a file of pair keys and labels: a str, two month and a split column for the codec to parse
KEY_COLUMNS = [("item_id", "str"), ("lag_month", "month"), ("lead_month", "month"), ("split", "split")]
KEY_HEADER = "item_id,lag_month,lead_month,split\n"


class TestReadCsv:
    def test_line_numbers_count_the_lines_a_quoted_cell_spans(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text(KEY_HEADER + '"a\nb",202301,202302,train\n\nc,202301,202399,train\n')
        with pytest.raises(ParseError, match="line 5: bad lead_month '202399'"):
            dt._read_csv(path, KEY_COLUMNS)
        path.write_text(KEY_HEADER + '"a\nb",202301,202302,train\n\nc,202301,202302,train\n')
        columns = dt._read_csv(path, KEY_COLUMNS)
        assert columns["item_id"].tolist() == ["a\nb", "c"] and dt._row_lines(path) == [2, 5]

    def test_a_file_whose_quoted_cell_spans_lines_is_parsed_once(self, tmp_path, monkeypatch):
        path = tmp_path / "pairs.csv"
        path.write_text(KEY_HEADER + '"a\nb",202301,202302,train\n\nc,202301,202302,train\n')
        calls = []
        reader = dt.csv.reader

        def counting_reader(*args, **kwargs):
            calls.append(args)
            return reader(*args, **kwargs)

        monkeypatch.setattr(dt.csv, "reader", counting_reader)
        assert dt._read_csv(path, KEY_COLUMNS)["item_id"].tolist() == ["a\nb", "c"]
        assert len(calls) == 1

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize(
        "byte, message", [(b"\0", "NUL byte"), (b"\xff", "byte 0xff is not UTF-8")], ids=["nul", "ff"]
    )
    def test_a_bad_byte_names_its_line_whatever_ends_the_lines(self, tmp_path, end, byte, message):
        path = tmp_path / "pairs.csv"
        rows = [KEY_HEADER.strip().encode(), b"a,202301,202302,train", b"b,202301,202302,train"]
        path.write_bytes(end.join([*rows, b"c" + byte + b",202301,202302,train", b""]))
        with pytest.raises(ParseError, match=f"^pairs.csv line 4: {message}$"):
            dt._read_csv(path, KEY_COLUMNS)
        # a bad cell on that line is named by the same number
        path.write_bytes(end.join([*rows, b"c,202301,202399,train", b""]))
        with pytest.raises(ParseError, match="^pairs.csv line 4: bad lead_month '202399'$"):
            dt._read_csv(path, KEY_COLUMNS)

    def test_non_utf8_byte_names_its_line_past_the_first_decoded_chunk(self, tmp_path):
        path = tmp_path / "pairs.csv"
        rows = "".join(f"i{k},202301,202302,train\n" for k in range(2000))
        path.write_bytes((KEY_HEADER + rows).encode() + b"i\xff,202301,202302,train\n")
        assert path.stat().st_size > 8192
        with pytest.raises(ParseError, match="^pairs.csv line 2002: byte 0xff is not UTF-8$"):
            dt._read_csv(path, KEY_COLUMNS)

    def test_quoted_cell_past_the_field_limit_names_a_line(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text(KEY_HEADER + "a,202301,202302,train\n" + '"' + "x\n" * 70_000)
        with pytest.raises(ParseError, match="^pairs.csv line [0-9]+: field larger than field limit"):
            dt._read_csv(path, KEY_COLUMNS)

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("bad", [False, True], ids=["ok", "bad"])
    def test_collector_state_is_restored(self, tmp_path, enabled, bad):
        path = tmp_path / "pairs.csv"
        path.write_text(KEY_HEADER + f"c,202301,{202399 if bad else 202302},train\n")
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(ParseError) if bad else contextlib.nullcontext():
                dt._read_csv(path, KEY_COLUMNS)
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_no_collection_runs_while_a_file_is_read(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text(KEY_HEADER + "".join(f"i{k:05d},202301,202302,train\n" for k in range(20_000)))
        collections = []

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        assert gc.isenabled()
        gc.collect()  # so that nothing allocated before the read starts a collection
        gc.callbacks.append(count)
        try:
            columns = dt._read_csv(path, KEY_COLUMNS)
        finally:
            gc.callbacks.remove(count)
        assert len(columns["item_id"]) == 20_000
        assert collections == []

    def test_split_cells_equal_csv_readers(self):
        """Whenever _split_csv accepts a text, csv.reader reads the same header and cells."""
        rng = random.Random(27)
        alphabet = ["a", "1", "é", ",", '"', " ", "\r", "\n", "\r\n", "\x0b", "\x1c"]
        accepted = 0
        for _ in range(50_000):
            names = ["a", "1", "é"][: rng.randint(1, 3)]
            text = ",".join(names) + "".join(rng.choices(alphabet, k=rng.randint(0, 30)))
            cells = dt._split_csv(text, names)
            if cells is None:
                continue
            accepted += 1
            header, *rows = csv.reader(io.StringIO(text, newline=""))
            rows = [row for row in rows if row]
            assert header == names and all(len(row) == len(names) for row in rows), repr(text)
            assert cells == {name: [row[i] for row in rows] for i, name in enumerate(names)}, repr(text)
        assert accepted > 1500

    @pytest.mark.parametrize(
        "text",
        ["a\r\nb\nc", "a\nb\r\nc\n", "a\rb\r", "a\r\nb\rc\r\n", 'a\n"b"\n', "a\n1,2\n", "b\n1\n"],
        ids=["crlf-then-lf", "lf-then-crlf", "cr", "lone-cr", "quote", "fields", "header"],
    )
    def test_text_csv_might_read_otherwise_is_not_split(self, text):
        assert dt._split_csv(text, ["a"]) is None

    def test_a_line_past_the_field_limit_is_left_to_csv(self, tmp_path):
        limit = csv.field_size_limit()
        csv.field_size_limit(8)
        try:
            assert dt._split_csv("a,b\r\n1234,567\r\n", ["a", "b"]) == {"a": ["1234"], "b": ["567"]}
            assert dt._split_csv("a,b\r\n1234,5678\r\n", ["a", "b"]) is None  # the gate is on lines, not cells
            path = tmp_path / "pairs.csv"
            path.write_text("split\ntrain\nvalidation\n")
            with pytest.raises(ParseError, match="^pairs.csv line 3: field larger than field limit"):
                dt._read_csv(path, dt._LABEL_COLUMNS)
        finally:
            csv.field_size_limit(limit)

    def test_writes_the_bytes_of_csv_writer(self, tmp_path, monkeypatch):
        """Chunks joined with str.join and chunks csv writes, side by side, give csv's bytes."""
        monkeypatch.setattr(dt, "_CSV_CHUNK_ROWS", 2)
        rng = random.Random(27)
        alphabet = ["a", "é", "", ",", '"', " ", "\r", "\n", "\x0b", "1.5"]
        path = tmp_path / "out.csv"
        for _ in range(2000):
            columns = [(name, "str") for name in ["a", "b", "c"][: rng.randint(1, 3)]]
            rows = [[rng.choice(alphabet) for _ in columns] for _ in range(rng.randint(0, 5))]
            table = {name: np.array([row[i] for row in rows], dtype=object) for i, (name, _) in enumerate(columns)}
            dt._write_csv(path, columns, table)
            expected = io.StringIO(newline="")
            csv.writer(expected).writerows([[name for name, _ in columns], *rows])
            assert path.read_bytes() == expected.getvalue().encode(), rows


class TestFeatureView:
    def test_event_features(self):
        pair = dt.build_pairs(make_tx([tx_row(ym=202301, event_flags=frozenset({"holiday"})), tx_row(ym=202302)]))
        assert dt.feature_column(pair, "lag_event_holiday").tolist() == [1.0]
        assert dt.feature_column(pair, "lead_event_holiday").tolist() == [0.0]
        assert dt.feature_column(pair, "lag_event_unknown").tolist() == [0.0]  # no such column: 0

    def test_competitor_presence_flags(self):
        pair = dt.build_pairs(make_tx([tx_row(ym=202301, competitor_price=4.0), tx_row(ym=202302)]))
        assert dt.feature_column(pair, "lag_competitor_price").tolist() == [4.0]
        assert dt.feature_column(pair, "lag_competitor_price_present").tolist() == [1.0]
        assert dt.feature_column(pair, "lead_competitor_price").tolist() == [0.0]
        assert dt.feature_column(pair, "lead_competitor_price_present").tolist() == [0.0]

    def test_month_of_year_categories(self):
        pair = dt.build_pairs(make_tx([tx_row(ym=202312), tx_row(ym=202401)]))
        assert category_column(pair, "lag_month_of_year").tolist() == ["12"]
        assert category_column(pair, "lead_month_of_year").tolist() == ["1"]


# ---------------------------------------------------------------------------
# reference: pairs as they were built when each pair copied its features
# into columns of its own; PairTable must read the same values bit for bit

_REF_PER_MONTH = {
    "month": "year_month",
    **{name: name for name in ("price", "inventory", "oos_days", "rating_count", "days_launched")},
    **{name: name for name in ("competitor_price", "substitute_available")},
    "events": "event_flags",
}


def reference_join(tx, lag, lead):
    cols = {name: getattr(tx, name)[lag] for name in ("item_id", "brand", "size", "category", "subcategory")}
    for suffix, name in _REF_PER_MONTH.items():
        cols[f"lag_{suffix}"] = getattr(tx, name)[lag]
        cols[f"lead_{suffix}"] = getattr(tx, name)[lead]
    return dict(
        cols,
        month_gap=dt.month_gap(cols["lag_month"], cols["lead_month"]),
        price_change_pct=dt.price_change_pct(cols["lag_price"], cols["lead_price"]),
        lag_units=tx.units_sold[lag],
        target=tx.units_sold[lead].astype(np.float64),
    )


def reference_build_pairs(tx):
    tx = tx.take(dt._item_month_order(tx))
    month = dt.ym_index(tx.year_month)
    stocked = tx.inventory > 0
    lags, leads = [], []
    for k in range(1, dt.MAX_MONTH_GAP + 1):
        lag = np.arange(len(month) - k)
        lead = lag + k
        gap = month[lead] - month[lag]
        ok = (tx.item_id[lag] == tx.item_id[lead]) & (gap >= dt.MIN_MONTH_GAP) & (gap <= dt.MAX_MONTH_GAP)
        ok &= stocked[lag] & stocked[lead]
        lags.append(lag[ok])
        leads.append(lead[ok])
    lag, lead = np.concatenate(lags), np.concatenate(leads)
    order = np.lexsort((lead, lag))
    return reference_join(tx, lag[order], lead[order])


def reference_inference_set(tx, as_of_month):
    tx = tx.take(dt._item_month_order(tx))
    at = np.flatnonzero(tx.year_month == as_of_month)
    rows = at[tx.inventory[at] > 0]
    cols = reference_join(tx, rows, rows)
    cols.update(
        lead_month=np.full(len(rows), dt.ym_add(as_of_month, 1), dtype=np.int64),
        month_gap=np.ones(len(rows), dtype=np.int64),
        target=np.full(len(rows), np.nan),
    )
    return cols


def reference_pair_order(item_id, lag_month, lead_month):
    """Indices sorting pairs by (item_id, lag_month, lead_month), item ids
    compared as strings."""
    _, item_code = np.unique(item_id, return_inverse=True)
    return np.lexsort((lead_month, lag_month, item_code))


def reference_split(cols, seed):
    """Row indices of each part of a pair-mode split of reference pairs."""
    order = reference_pair_order(cols["item_id"], cols["lag_month"], cols["lead_month"])
    boundary = dt.ym_add(int(cols["lead_month"].max()), -(dt.OUT_OF_TIME_MONTHS - 1))
    labels = np.where(cols["lead_month"][order] >= boundary, "out_of_time", "validation")
    rest = np.flatnonzero(labels == "validation")
    rng = np.random.default_rng(seed)
    labels[rest[rng.permutation(len(rest))[: (len(rest) * 4) // 5]]] = "train"
    return {name: order[labels == name] for name in dt.SPLITS}


def reference_category_column(cols, name):
    if name in ("lag_month_of_year", "lead_month_of_year"):
        return dt.month_of_year(cols[name.removesuffix("_of_year")]).astype(str)
    return cols[name]


def reference_feature_column(cols, event_names, name):
    for side in ("lag", "lead"):
        event = name.removeprefix(f"{side}_event_")
        if event != name:
            if event not in event_names:
                return np.zeros(len(cols["item_id"]))
            return cols[f"{side}_events"][:, event_names.index(event)].astype(np.float64)
    if name.endswith("_competitor_price_present"):
        return (~np.isnan(cols[name.removesuffix("_present")])).astype(np.float64)
    col = cols[name]
    if name.endswith("_competitor_price"):
        return np.where(np.isnan(col), 0.0, col)
    return col.astype(np.float64)


def reference_encode(model, cols, event_names, lead_price=None):
    if lead_price is not None:
        cols = dict(cols, lead_price=lead_price, price_change_pct=dt.price_change_pct(cols["lag_price"], lead_price))
    names = model.names
    levels = [reference_category_column(cols, n).tolist() for n in names.categorical]
    cat = np.column_stack([[model.encoder.cat_index(n, lv) for lv in col] for n, col in zip(names.categorical, levels)])
    cont, mono = (
        model.stats.standardize(np.column_stack([reference_feature_column(cols, event_names, n) for n in group]), group)
        for group in (names.continuous, names.monotone)
    )
    return cat, cont, mono


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_reads_reference(table, cols, event_names, names):
    """Every feature of ``names`` and the target of ``table`` equal the
    reference ``cols`` bit for bit."""
    for name in names.categorical:
        assert same_bits(category_column(table, name), reference_category_column(cols, name)), name
    for name in names.continuous + names.monotone:
        assert same_bits(dt.feature_column(table, name), reference_feature_column(cols, event_names, name)), name
    assert same_bits(table.target, cols["target"])


ORACLE_WORLDS = {
    "constant-24": dict(seed=24),
    "constant-57": dict(seed=57),
    "kinked-24": dict(seed=24, kinked=True),
    "kinked-57": dict(seed=57, kinked=True),
    "stockout": dict(seed=24, stockout_rate=0.3),
    "no-events": dict(seed=24, events_enabled=False),
    "13-months": dict(seed=3, n_months=13),  # holiday occurs in out-of-time pairs only
}


@pytest.mark.parametrize("world", ORACLE_WORLDS.values(), ids=ORACLE_WORLDS.keys())
def test_pair_table_reads_the_reference_columns(world):
    from elastinet import synth
    from elastinet.training import prepare_model

    tx, _ = synth.generate(synth.SyntheticWorld(**{"n_items": 12, "n_months": 27, **world}))
    events = tx.event_names
    pairs, ref = dt.build_pairs(tx), reference_build_pairs(tx)
    assert_reads_reference(pairs, ref, events, dt.feature_names(events))

    ds = dt.split(pairs, seed=world["seed"])
    present = ref["lag_events"].any(axis=0) | ref["lead_events"].any(axis=0)
    assert ds.names == dt.feature_names(e for e, keep in zip(events, present) if keep)
    for name, rows in reference_split(ref, world["seed"]).items():
        part = getattr(ds, name)
        assert same_bits(part.lead_month, ref["lead_month"][rows])
        assert_reads_reference(part, {k: v[rows] for k, v in ref.items()}, events, ds.names)

    as_of = int(tx.year_month.max()) if world.get("n_months") != 13 else 202311
    table, _ = dt.build_inference_set(tx, as_of)
    ref = reference_inference_set(tx, as_of)
    assert len(table) > 0
    assert_reads_reference(table, ref, events, ds.names)
    model = prepare_model(ds, seed=world["seed"])
    rng = np.random.default_rng(world["seed"])
    for lead_price in (None, table.lead_price * 0.9, table.lead_price * rng.uniform(0.5, 2.0, len(table))):
        encoded = model.encode(table, lead_price)
        expected = reference_encode(model, ref, events, lead_price)
        assert all(same_bits(a, b) for a, b in zip(encoded, expected))


def test_pair_order_is_the_item_lag_lead_string_order():
    """split's pairs, sorted by their (lag, lead) row indices, are in
    (item_id, lag_month, lead_month) order with item ids compared as strings
    ("i10" before "i2"), from a shuffled take and from the parts taken out
    of order; an inference table is built in that order."""
    tx = make_tx(grid_rows(n_items=12))
    pairs = dt.build_pairs(tx)
    ds = dt.split(pairs, seed=0)
    inference, _ = dt.build_inference_set(tx, 202312)
    rng = np.random.default_rng(0)
    tables = [
        pairs.take(rng.permutation(len(pairs))),
        ds.pairs.take(np.argsort(-ds.labels, kind="stable")),  # out_of_time, validation, then train
    ]
    for table in tables:
        expected = table.take(reference_pair_order(table.item_id, table.lag_month, table.lead_month))
        assert tables_equal(dt.split(table, seed=0).pairs, expected)
    assert np.array_equal(
        reference_pair_order(inference.item_id, inference.lag_month, inference.lead_month), np.arange(len(inference))
    )
    items = dict.fromkeys(ds.pairs.item_id.tolist())
    assert list(items) == sorted(f"i{i}" for i in range(12)) != [f"i{i}" for i in range(12)]
