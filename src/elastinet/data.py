"""Monthly transaction ingestion, lead/lag pair construction, and splits.

A pair joins one historical (lag) month with one future (lead) month of the
same item. Valid pairs have a month gap of 1..12 and positive inventory in
both months; the target is the lead month's units sold. The out-of-time
split holds out every pair whose lead month falls in the last three calendar
months of the data span; the remainder is shuffled into an 80/20
train/validation split.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, IntegrityError, ParseError, SchemaMismatchError

MIN_MONTH_GAP = 1
MAX_MONTH_GAP = 12
OUT_OF_TIME_MONTHS = 3

MONOTONE_DIRECTIONS = {"lead_price": -1, "price_change_pct": -1}


# ---------------------------------------------------------------------------
# calendar months encoded as YYYYMM integers


def validate_ym(ym: int) -> int:
    ym = int(ym)
    month = ym % 100
    if ym < 100 or not 1 <= month <= 12:
        raise DomainError(f"invalid year-month {ym}; expected YYYYMM with month 1..12")
    return ym


def ym_index(ym: int) -> int:
    """Months since year 0, for whole-month gap arithmetic."""
    return (ym // 100) * 12 + (ym % 100 - 1)


def ym_from_index(idx: int) -> int:
    return (idx // 12) * 100 + idx % 12 + 1


def ym_add(ym: int, months: int) -> int:
    return ym_from_index(ym_index(ym) + months)


def month_gap(lag: int, lead: int) -> int:
    return ym_index(lead) - ym_index(lag)


def month_of_year(ym: int) -> int:
    return ym % 100


# ---------------------------------------------------------------------------
# records


@dataclass(frozen=True)
class TransactionMonth:
    """One item's aggregated transaction record for one calendar month."""

    item_id: str
    year_month: int
    price: float
    units_sold: int
    inventory: int
    oos_days: int
    rating_count: int
    days_launched: int
    competitor_price: float | None
    substitute_available: bool
    event_flags: frozenset[str]
    brand: str
    size: str
    category: str
    subcategory: str


TRANSACTIONS_COLUMNS = [
    "item_id",
    "year_month",
    "price",
    "units_sold",
    "inventory",
    "oos_days",
    "rating_count",
    "days_launched",
    "competitor_price",
    "substitute_available",
    "event_flags",
    "brand",
    "size",
    "category",
    "subcategory",
]


@dataclass(frozen=True, eq=False)
class PairTable:
    """Lead/lag pairs as equal-length numpy columns; row i of each is one pair.

    ``target`` is the lead month's units sold and NaN when absent (inference
    rows); a NaN competitor price means the month had none. ``lag_events``
    and ``lead_events`` are boolean matrices with one column per name in
    ``event_names``, which is sorted.
    """

    item_id: np.ndarray
    lag_month: np.ndarray
    lead_month: np.ndarray
    month_gap: np.ndarray
    lag_price: np.ndarray
    lead_price: np.ndarray
    price_change_pct: np.ndarray
    lag_units: np.ndarray
    target: np.ndarray
    lag_inventory: np.ndarray
    lead_inventory: np.ndarray
    lag_oos_days: np.ndarray
    lead_oos_days: np.ndarray
    lag_rating_count: np.ndarray
    lead_rating_count: np.ndarray
    lag_days_launched: np.ndarray
    lead_days_launched: np.ndarray
    lag_competitor_price: np.ndarray
    lead_competitor_price: np.ndarray
    lag_substitute_available: np.ndarray
    lead_substitute_available: np.ndarray
    lag_events: np.ndarray
    lead_events: np.ndarray
    brand: np.ndarray
    size: np.ndarray
    category: np.ndarray
    subcategory: np.ndarray
    event_names: tuple[str, ...]

    def _columns(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "event_names"}

    def __len__(self) -> int:
        return len(self.item_id)

    def take(self, idx) -> PairTable:
        """The rows picked by ``idx`` (indices or a boolean mask), in that order."""
        return PairTable(**{k: v[idx] for k, v in self._columns().items()}, event_names=self.event_names)

    @staticmethod
    def concat(tables) -> PairTable:
        """The rows of ``tables`` one after another; they must share ``event_names``."""
        tables = list(tables)
        columns = [t._columns() for t in tables]
        names = {t.event_names for t in tables}
        if len(names) != 1:
            raise ConfigError(f"cannot concatenate pair tables with different event names: {sorted(names)}")
        return PairTable(**{k: np.concatenate([c[k] for c in columns]) for k in columns[0]}, event_names=names.pop())


# ---------------------------------------------------------------------------
# ingestion


def _parse_row(row: dict[str, str], line_no: int) -> TransactionMonth:
    def fail(msg: str):
        raise ParseError(f"line {line_no}: {msg}")

    try:
        ym = validate_ym(int(row["year_month"]))
    except (ValueError, DomainError):
        fail(f"bad year_month {row['year_month']!r}")
    try:
        price = float(row["price"])
    except ValueError:
        fail(f"bad price {row['price']!r}")
    if not 0 < price < np.inf:  # also rejects nan
        fail(f"price must be positive and finite, got {price}")

    counts = {}
    for name in ("units_sold", "inventory", "oos_days", "rating_count", "days_launched"):
        try:
            counts[name] = int(row[name])
        except ValueError:
            fail(f"bad {name} {row[name]!r}")
        if counts[name] < 0:
            fail(f"{name} must be non-negative, got {counts[name]}")
    if counts["oos_days"] > 31:
        fail(f"oos_days must be 0..31, got {counts['oos_days']}")

    comp_raw = row["competitor_price"].strip()
    if comp_raw == "":
        comp = None
    else:
        try:
            comp = float(comp_raw)
        except ValueError:
            fail(f"bad competitor_price {comp_raw!r}")
        if not 0 < comp < np.inf:  # also rejects nan, which marks an absent price in pair tables
            fail(f"competitor_price must be positive and finite when present, got {comp}")

    sub_raw = row["substitute_available"].strip().lower()
    if sub_raw not in ("true", "false"):
        fail(f"substitute_available must be true/false, got {row['substitute_available']!r}")

    events = frozenset(e for e in row["event_flags"].split("|") if e)

    return TransactionMonth(
        item_id=row["item_id"],
        year_month=ym,
        price=price,
        units_sold=counts["units_sold"],
        inventory=counts["inventory"],
        oos_days=counts["oos_days"],
        rating_count=counts["rating_count"],
        days_launched=counts["days_launched"],
        competitor_price=comp,
        substitute_available=sub_raw == "true",
        event_flags=events,
        brand=row["brand"],
        size=row["size"],
        category=row["category"],
        subcategory=row["subcategory"],
    )


def ingest(path) -> list[TransactionMonth]:
    """Parse and validate a transactions CSV (columns as TRANSACTIONS_COLUMNS)."""
    records: list[TransactionMonth] = []
    seen: set[tuple[str, int]] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty transactions file") from None
        if header != TRANSACTIONS_COLUMNS:
            raise ParseError(f"unexpected header {header}; expected {TRANSACTIONS_COLUMNS}")
        for line_no, raw in enumerate(reader, start=2):
            if not raw:
                continue
            if len(raw) != len(TRANSACTIONS_COLUMNS):
                raise ParseError(f"line {line_no}: expected {len(TRANSACTIONS_COLUMNS)} fields, got {len(raw)}")
            rec = _parse_row(dict(zip(TRANSACTIONS_COLUMNS, raw)), line_no)
            key = (rec.item_id, rec.year_month)
            if key in seen:
                raise IntegrityError(f"duplicate record for item {rec.item_id!r} month {rec.year_month}")
            seen.add(key)
            records.append(rec)
    return records


def write_transactions(records, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRANSACTIONS_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.item_id,
                    r.year_month,
                    repr(r.price),
                    r.units_sold,
                    r.inventory,
                    r.oos_days,
                    r.rating_count,
                    r.days_launched,
                    "" if r.competitor_price is None else repr(r.competitor_price),
                    "true" if r.substitute_available else "false",
                    "|".join(sorted(r.event_flags)),
                    r.brand,
                    r.size,
                    r.category,
                    r.subcategory,
                ]
            )


# ---------------------------------------------------------------------------
# pair construction


def price_change_pct(lag_price, lead_price):
    """(lead - lag) / lag, for scalars or arrays; lag prices must be positive."""
    if np.any(np.asarray(lag_price) <= 0):
        raise DomainError(f"lag price must be positive, got {np.min(lag_price)}")
    return (lead_price - lag_price) / lag_price


def _record_columns(records) -> tuple[dict, tuple[str, ...]]:
    """TransactionMonth fields as arrays sorted by (item_id, year_month), and
    the sorted event names; a repeated (item, month) raises IntegrityError.
    ``year_month`` becomes ``month`` and ``event_flags`` a boolean ``events``
    matrix."""
    recs = list(records)
    events = tuple(sorted({e for r in recs for e in r.event_flags}))
    cols = {
        name: np.array([getattr(r, name) for r in recs], dtype=dtype)
        for name, dtype in (
            ("item_id", str),
            ("year_month", np.int64),
            ("price", np.float64),
            ("units_sold", np.int64),
            ("inventory", np.int64),
            ("oos_days", np.int64),
            ("rating_count", np.int64),
            ("days_launched", np.int64),
            ("substitute_available", bool),
            ("brand", str),
            ("size", str),
            ("category", str),
            ("subcategory", str),
        )
    }
    cols["competitor_price"] = np.array(
        [np.nan if r.competitor_price is None else r.competitor_price for r in recs], dtype=np.float64
    )
    flags = [[e in r.event_flags for e in events] for r in recs]
    cols["events"] = np.array(flags, dtype=bool).reshape(len(recs), len(events))
    cols["month"] = cols.pop("year_month")

    _, item_code = np.unique(cols["item_id"], return_inverse=True)
    order = np.lexsort((cols["month"], item_code))
    cols = {k: v[order] for k, v in cols.items()}
    item_code = item_code[order]
    dup = np.flatnonzero((item_code[1:] == item_code[:-1]) & (cols["month"][1:] == cols["month"][:-1]))
    if dup.size:
        i = dup[0]
        raise IntegrityError(f"duplicate record for item {str(cols['item_id'][i])!r} month {cols['month'][i]}")
    return cols, events


# record columns copied into a pair twice, as lag_<name> and lead_<name>
_PER_MONTH = ("month", "price", "inventory", "oos_days", "rating_count", "days_launched", "competitor_price")
_PER_MONTH += ("substitute_available", "events")


def _join(rec: dict, lag: np.ndarray, lead: np.ndarray) -> dict:
    """Pair columns for record rows ``lag`` and ``lead`` (see _record_columns)."""
    cols = {name: rec[name][lag] for name in ("item_id", "brand", "size", "category", "subcategory")}
    for name in _PER_MONTH:
        cols[f"lag_{name}"] = rec[name][lag]
        cols[f"lead_{name}"] = rec[name][lead]
    return dict(
        cols,
        month_gap=month_gap(cols["lag_month"], cols["lead_month"]),
        price_change_pct=price_change_pct(cols["lag_price"], cols["lead_price"]),
        lag_units=rec["units_sold"][lag],
        target=rec["units_sold"][lead].astype(np.float64),
    )


def build_pairs(records) -> PairTable:
    """Self-join every item's months into valid (lag, lead) pairs.

    A pair is valid when the gap is 1..12 whole months and inventory is
    positive in both months. Output is sorted by (item_id, lag, lead).
    """
    rec, events = _record_columns(records)
    month = ym_index(rec["month"])
    stocked = rec["inventory"] > 0
    lags, leads = [], []
    # records are sorted with unique (item, month), so a lead within
    # MAX_MONTH_GAP months of its lag is at most that many rows ahead
    for k in range(1, MAX_MONTH_GAP + 1):
        lag = np.arange(len(month) - k)
        lead = lag + k
        gap = month[lead] - month[lag]
        ok = (rec["item_id"][lag] == rec["item_id"][lead]) & (gap >= MIN_MONTH_GAP) & (gap <= MAX_MONTH_GAP)
        ok &= stocked[lag] & stocked[lead]
        lags.append(lag[ok])
        leads.append(lead[ok])
    lag, lead = np.concatenate(lags), np.concatenate(leads)
    order = np.lexsort((lead, lag))
    return PairTable(**_join(rec, lag[order], lead[order]), event_names=events)


# ---------------------------------------------------------------------------
# feature naming: the view of a PairTable the model consumes

CATEGORICAL_FEATURES = [
    "item_id",
    "brand",
    "size",
    "category",
    "subcategory",
    "lag_month_of_year",
    "lead_month_of_year",
]

_BASE_CONTINUOUS = [
    "lag_price",
    "lag_units",
    "lag_inventory",
    "lead_inventory",
    "lag_oos_days",
    "lead_oos_days",
    "lag_rating_count",
    "lead_rating_count",
    "lag_days_launched",
    "lead_days_launched",
    "lag_competitor_price",
    "lag_competitor_price_present",
    "lead_competitor_price",
    "lead_competitor_price_present",
    "lag_substitute_available",
    "lead_substitute_available",
    "month_gap",
]

MONOTONE_FEATURES = ["lead_price", "price_change_pct"]


@dataclass(frozen=True)
class FeatureNames:
    categorical: tuple[str, ...]
    continuous: tuple[str, ...]
    monotone: tuple[str, ...]
    event_names: tuple[str, ...]

    def schema_hash(self) -> str:
        payload = json.dumps(
            {
                "categorical": list(self.categorical),
                "continuous": list(self.continuous),
                "monotone": {name: MONOTONE_DIRECTIONS[name] for name in self.monotone},
                "events": list(self.event_names),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def feature_names(event_names) -> FeatureNames:
    events = tuple(sorted(event_names))
    continuous = list(_BASE_CONTINUOUS)
    for e in events:
        continuous.append(f"lag_event_{e}")
        continuous.append(f"lead_event_{e}")
    return FeatureNames(
        categorical=tuple(CATEGORICAL_FEATURES),
        continuous=tuple(continuous),
        monotone=tuple(MONOTONE_FEATURES),
        event_names=events,
    )


def category_column(table: PairTable, name: str) -> np.ndarray:
    """String levels of a categorical feature, one per row."""
    if name in ("lag_month_of_year", "lead_month_of_year"):
        return month_of_year(getattr(table, name.removesuffix("_of_year"))).astype(str)
    return getattr(table, name)


def feature_column(table: PairTable, name: str) -> np.ndarray:
    """Float64 values of a continuous or monotone feature, one per row.

    An event the table has no column for reads 0.
    """
    for side in ("lag", "lead"):
        event = name.removeprefix(f"{side}_event_")
        if event != name:
            if event not in table.event_names:
                return np.zeros(len(table))
            return getattr(table, f"{side}_events")[:, table.event_names.index(event)].astype(np.float64)
    if name.endswith("_competitor_price_present"):
        return (~np.isnan(getattr(table, name.removesuffix("_present")))).astype(np.float64)
    col = getattr(table, name)
    if name.endswith("_competitor_price"):
        return np.where(np.isnan(col), 0.0, col)
    return col.astype(np.float64)


# ---------------------------------------------------------------------------
# splits

SPLITS = ("train", "validation", "out_of_time")


@dataclass
class DatasetSplit:
    train: PairTable
    validation: PairTable
    out_of_time: PairTable
    schema_hash: str
    names: FeatureNames
    manifest: dict = field(default_factory=dict)


CARRY_FORWARD_POLICY = {
    "lead_price": "query (initialized to lag price)",
    "price_change_pct": "computed from effective lead price",
    "lead_month_of_year": "computed from calendar",
    "lead_inventory": "carried forward from lag month",
    "lead_oos_days": "carried forward from lag month",
    "lead_rating_count": "carried forward from lag month",
    "lead_days_launched": "carried forward from lag month",
    "lead_competitor_price": "carried forward from lag month",
    "lead_substitute_available": "carried forward from lag month",
    "lead_events": "carried forward from lag month",
}


def split(pairs: PairTable, seed: int, by_item: bool = False) -> DatasetSplit:
    """Chronological out-of-time holdout plus a seeded 80/20 shuffle split.

    Each part keeps (item_id, lag, lead) order; only the events that occur
    in some pair stay in the tables and the feature names.
    """
    if not len(pairs):
        raise ConfigError("no pairs to split")
    first, last = int(pairs.lag_month.min()), int(pairs.lead_month.max())
    if month_gap(first, last) + 1 < OUT_OF_TIME_MONTHS + 1:
        raise ConfigError(
            f"data spans {month_gap(first, last) + 1} months; need at least {OUT_OF_TIME_MONTHS + 1}"
        )
    boundary = ym_add(last, -(OUT_OF_TIME_MONTHS - 1))  # first out-of-time month

    present = pairs.lag_events.any(axis=0) | pairs.lead_events.any(axis=0)
    events = tuple(e for e, keep in zip(pairs.event_names, present) if keep)
    pairs = replace(
        pairs, lag_events=pairs.lag_events[:, present], lead_events=pairs.lead_events[:, present], event_names=events
    )
    _, item_code = np.unique(pairs.item_id, return_inverse=True)
    order = np.lexsort((pairs.lead_month, pairs.lag_month, item_code))
    held_out = pairs.lead_month[order] >= boundary
    rest = order[~held_out]  # row indices of the train/validation pool, in order

    rng = np.random.default_rng(seed)
    if by_item:
        items = np.unique(pairs.item_id[rest])
        perm = rng.permutation(len(items))
        n_train = (len(items) * 4) // 5
        in_train = np.isin(pairs.item_id[rest], items[perm[:n_train]])
    else:
        perm = rng.permutation(len(rest))
        n_train = (len(rest) * 4) // 5
        in_train = np.zeros(len(rest), dtype=bool)
        in_train[perm[:n_train]] = True
    train, val, ots = (pairs.take(idx) for idx in (rest[in_train], rest[~in_train], order[held_out]))

    names = feature_names(events)
    manifest = {
        "seed": seed,
        "boundary_month": boundary,
        "split_mode": "item" if by_item else "pair",
        "row_counts": {"train": len(train), "validation": len(val), "out_of_time": len(ots)},
        "carry_forward_policy": CARRY_FORWARD_POLICY,
    }
    return DatasetSplit(
        train=train,
        validation=val,
        out_of_time=ots,
        schema_hash=names.schema_hash(),
        names=names,
        manifest=manifest,
    )


# ---------------------------------------------------------------------------
# inference set


def build_inference_set(records, as_of_month: int) -> tuple[PairTable, list[tuple[str, str]]]:
    """One lead = lag+1 row per item valid at as_of_month; unknown lead
    covariates are carried forward from the lag month, lead price starts at
    the lag price (price change 0) pending a counterfactual override."""
    validate_ym(as_of_month)
    rec, events = _record_columns(records)
    at = np.flatnonzero(rec["month"] == as_of_month)  # at most one row per item
    stocked = rec["inventory"][at] > 0
    found = set(rec["item_id"][at].tolist())
    skipped = [
        (item_id, f"no record for month {as_of_month}")
        for item_id in np.unique(rec["item_id"]).tolist()
        if item_id not in found
    ]
    skipped += [
        (item_id, f"inventory is 0 in month {as_of_month}") for item_id in rec["item_id"][at[~stocked]].tolist()
    ]
    skipped.sort()

    rows = at[stocked]
    cols = _join(rec, rows, rows)
    cols.update(
        lead_month=np.full(len(rows), ym_add(as_of_month, 1), dtype=np.int64),
        month_gap=np.ones(len(rows), dtype=np.int64),
        target=np.full(len(rows), np.nan),
    )
    return PairTable(**cols, event_names=events), skipped


# ---------------------------------------------------------------------------
# dataset serialization (pairs CSV + manifest JSON)

def _read_events(cells, event_names) -> np.ndarray:
    known = set(event_names)
    rows = {}
    for cell in set(cells):
        flags = {e for e in cell.split("|") if e}
        if not flags <= known:
            raise ValueError(f"unknown events {sorted(flags - known)}")
        rows[cell] = [e in flags for e in event_names]
    return np.array([rows[c] for c in cells], dtype=bool).reshape(len(cells), len(event_names))


def _read_split(cells, event_names) -> np.ndarray:
    labels = np.array(cells, dtype=str)
    if not np.isin(labels, SPLITS).all():
        raise ValueError("unknown split")
    return labels


def _write_events(col, event_names) -> list:
    rows, inverse = np.unique(col, axis=0, return_inverse=True)
    cells = np.array(["|".join(e for e, on in zip(event_names, row) if on) for row in rows.tolist()], dtype=object)
    return cells[inverse].tolist()


def _blank_nan(col, values) -> list:
    """``values`` as Python objects, with an empty cell where ``col`` is NaN."""
    out = values.astype(object)
    out[np.isnan(col)] = ""
    return out.tolist()


# cell codecs by column kind: (cells, event names) -> column, and (column, event names) -> cells
_READ = {
    "str": lambda cells, events: np.array(cells, dtype=str),
    "int": lambda cells, events: np.fromiter(map(int, cells), np.int64, len(cells)),
    "float": lambda cells, events: np.fromiter(map(float, cells), np.float64, len(cells)),
    "float?": lambda cells, events: np.array([float(c) if c else np.nan for c in cells], dtype=np.float64),
    "int?": lambda cells, events: np.array([float(int(c)) if c else np.nan for c in cells], dtype=np.float64),
    "bool": lambda cells, events: np.array(cells, dtype=str) == "true",
    "events": _read_events,
    "split": _read_split,
}
_WRITE = {
    "str": lambda col, events: col.tolist(),
    "int": lambda col, events: col.tolist(),
    "float": lambda col, events: col.tolist(),  # csv writes a float as its repr
    "float?": lambda col, events: _blank_nan(col, col),
    "int?": lambda col, events: _blank_nan(col, np.nan_to_num(col).astype(np.int64)),
    "bool": lambda col, events: np.where(col, "true", "false").tolist(),
    "events": _write_events,
    "split": lambda col, events: col.tolist(),
}

# pairs.csv has one column per PairTable field, in declaration order, then the
# split label; a column's cells are integers unless listed here
_CELL_KINDS = {
    **dict.fromkeys(("item_id", "brand", "size", "category", "subcategory"), "str"),
    **dict.fromkeys(("lag_price", "lead_price", "price_change_pct"), "float"),
    **dict.fromkeys(("lag_competitor_price", "lead_competitor_price"), "float?"),
    **dict.fromkeys(("lag_substitute_available", "lead_substitute_available"), "bool"),
    **dict.fromkeys(("lag_events", "lead_events"), "events"),
    "target": "int?",
}
_PAIR_COLUMNS = [(f.name, _CELL_KINDS.get(f.name, "int")) for f in fields(PairTable) if f.name != "event_names"]
_PAIR_COLUMNS.append(("split", "split"))
_PAIR_HEADER = [name for name, _ in _PAIR_COLUMNS]

# pairs.csv is written this many rows at a time, part by part. Formatting all
# 246,000 rows of a 1000-item dataset at once held ~550 MB of Python objects,
# and the page faults that cost made `build`'s time spread twice as wide
_CSV_CHUNK_ROWS = 4096


def save_dataset(ds: DatasetSplit, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "pairs.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_PAIR_HEADER)
        for label in SPLITS:
            part = getattr(ds, label)
            columns = {**part._columns(), "split": np.full(len(part), label)}
            for lo in range(0, len(part), _CSV_CHUNK_ROWS):
                chunk = {name: col[lo : lo + _CSV_CHUNK_ROWS] for name, col in columns.items()}
                writer.writerows(zip(*(_WRITE[kind](chunk[name], part.event_names) for name, kind in _PAIR_COLUMNS)))
    manifest = dict(ds.manifest)
    manifest["schema_hash"] = ds.schema_hash
    manifest["feature_list"] = {
        "categorical": list(ds.names.categorical),
        "continuous": list(ds.names.continuous),
        "monotone": {name: MONOTONE_DIRECTIONS[name] for name in ds.names.monotone},
    }
    manifest["event_names"] = list(ds.names.event_names)
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_pairs_csv(path, event_names) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != _PAIR_HEADER:
            raise ParseError(f"pairs.csv: unexpected header; expected {_PAIR_HEADER}")
        rows = list(reader)
    for line_no, row in enumerate(rows, start=2):
        if len(row) != len(_PAIR_COLUMNS):
            raise ParseError(f"line {line_no}: expected {len(_PAIR_COLUMNS)} fields, got {len(row)}")
    columns = {}
    for (name, kind), cells in zip(_PAIR_COLUMNS, list(zip(*rows)) or [()] * len(_PAIR_COLUMNS)):
        try:
            columns[name] = _READ[kind](cells, event_names)
        except (ValueError, OverflowError):
            for line_no, cell in enumerate(cells, start=2):
                try:
                    _READ[kind]((cell,), event_names)
                except (ValueError, OverflowError):
                    raise ParseError(f"line {line_no}: bad {name} {cell!r}") from None
            raise
    return columns


def load_dataset(in_dir) -> DatasetSplit:
    """Read a dataset directory; the manifest's schema hash must match its event names."""
    src = Path(in_dir)
    with open(src / "manifest.json", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise SchemaMismatchError(f"manifest.json is not valid JSON: {exc}") from None
    if not (
        isinstance(manifest, dict)
        and isinstance(manifest.get("schema_hash"), str)
        and isinstance(manifest.get("event_names"), list)
        and all(isinstance(e, str) for e in manifest["event_names"])
    ):
        raise SchemaMismatchError("manifest.json needs a schema_hash string and an event_names list of strings")
    names = feature_names(manifest["event_names"])
    if names.schema_hash() != manifest["schema_hash"]:
        raise SchemaMismatchError(
            f"manifest schema hash {manifest['schema_hash']} does not match its event names "
            f"{list(names.event_names)} (hash {names.schema_hash()})"
        )
    columns = _read_pairs_csv(src / "pairs.csv", names.event_names)
    labels = columns.pop("split")
    table = PairTable(**columns, event_names=names.event_names)
    return DatasetSplit(
        **{name: table.take(labels == name) for name in SPLITS},
        schema_hash=manifest["schema_hash"],
        names=names,
        manifest={k: v for k, v in manifest.items() if k not in ("schema_hash", "feature_list", "event_names")},
    )
