"""Monthly transaction ingestion, lead/lag pair construction, and splits.

A pair joins one historical (lag) month with one future (lead) month of the
same item. Valid pairs have a month gap of 1..12 and positive inventory in
both months; the target is the lead month's units sold. A PairTable holds
each pair as the row indices of its two months in one Transactions table,
plus the lead month, lead price and target it owns, and feature_column and
category_codes read a feature from those rows. The out-of-time
split holds out every pair whose lead month falls in the last three calendar
months of the data span; the remainder is shuffled into an 80/20
train/validation split. A dataset directory stores the transactions and each
pair's split label, and the pairs are rebuilt from them on load.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import compress, repeat
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, IntegrityError, NumericError, ParseError, SchemaMismatchError

MIN_MONTH_GAP = 1
MAX_MONTH_GAP = 12
OUT_OF_TIME_MONTHS = 3
LAST_YM = 999912  # the last YYYYMM month: December of year 9999

MONOTONE_DIRECTIONS = {"lead_price": -1, "price_change_pct": -1}
MONOTONE_FEATURES = list(MONOTONE_DIRECTIONS)


# ---------------------------------------------------------------------------
# calendar months encoded as YYYYMM integers


def _is_ym(ym):
    """Whether ``ym``, an int or elementwise an int array, is YYYYMM with year 1..9999 and month 1..12."""
    month = ym % 100
    return (ym >= 101) & (ym <= LAST_YM) & (month >= 1) & (month <= 12)


def validate_ym(ym: int) -> int:
    ym = int(ym)
    if not _is_ym(ym):
        raise DomainError(f"invalid year-month {ym}; expected YYYYMM with year 1..9999 and month 1..12")
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
# tables


@dataclass(frozen=True, eq=False)
class Transactions:
    """Monthly item transactions; row i of each column is one item's month.

    A NaN competitor price means the month had none. ``event_flags`` is a
    boolean matrix with one column per name in ``event_names``, which is
    sorted.
    """

    item_id: np.ndarray
    year_month: np.ndarray
    price: np.ndarray
    units_sold: np.ndarray
    inventory: np.ndarray
    oos_days: np.ndarray
    rating_count: np.ndarray
    days_launched: np.ndarray
    competitor_price: np.ndarray
    substitute_available: np.ndarray
    event_flags: np.ndarray
    brand: np.ndarray
    size: np.ndarray
    category: np.ndarray
    subcategory: np.ndarray
    event_names: tuple[str, ...]

    def _columns(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "event_names"}

    def __len__(self) -> int:
        return len(self.item_id)

    def take(self, idx) -> Transactions:
        """The rows picked by ``idx`` (indices or a boolean mask), in that order."""
        return Transactions(**{k: v[idx] for k, v in self._columns().items()}, event_names=self.event_names)


@dataclass(frozen=True, eq=False)
class PairTable:
    """Lead/lag pairs; pair i joins rows ``lag[i]`` and ``lead[i]`` of ``tx``.

    A pair owns three values: ``lead_month``, ``lead_price`` and ``target``,
    the lead month's units sold, NaN when absent (inference rows). Every
    other feature is read from the transactions, with feature_column or
    category_codes.

    ``tx`` is sorted by (item_id, year_month) with one row per (item,
    month), as build_pairs and build_inference_set leave it, so sorting
    pairs by their (lag, lead) row indices sorts them by (item_id,
    lag_month, lead_month).
    """

    tx: Transactions
    lag: np.ndarray
    lead: np.ndarray
    lead_month: np.ndarray
    lead_price: np.ndarray
    target: np.ndarray

    def __len__(self) -> int:
        return len(self.lag)

    @property
    def item_id(self) -> np.ndarray:
        return self.tx.item_id[self.lag]

    @property
    def lag_month(self) -> np.ndarray:
        return self.tx.year_month[self.lag]

    @property
    def lag_price(self) -> np.ndarray:
        return self.tx.price[self.lag]

    @property
    def event_names(self) -> tuple[str, ...]:
        return self.tx.event_names

    def take(self, idx) -> PairTable:
        """The pairs picked by ``idx`` (indices or a boolean mask), in that order."""
        return PairTable(self.tx, *(getattr(self, f.name)[idx] for f in fields(self)[1:]))


# ---------------------------------------------------------------------------
# CSV files: each file has a list of (column, cell kind), and the files share
# one cell codec per column kind; a file is read into a dict of columns and
# written from one


class _RuleError(ValueError):
    """A cell that parses but breaks its column's rule; the message says how."""


def _each_distinct(cells, read, dtype) -> np.ndarray:
    """``read`` of each cell, called once per distinct cell."""
    distinct = list(set(cells))
    value_of = dict(zip(distinct, map(read, distinct)))
    return np.fromiter(map(value_of.__getitem__, cells), dtype, len(cells))


def _read_months(cells) -> np.ndarray:
    months = _each_distinct(cells, int, np.int64)
    if not np.all(_is_ym(months)):
        raise ValueError("expected YYYYMM with year 1..9999 and month 1..12")
    return months


def _read_floats(cells, positive, optional=False) -> np.ndarray:
    """Finite floats, positive ones with ``positive``; with ``optional``, a
    blank cell (whitespace allowed) is an absent value, read as NaN."""
    n = len(cells)
    if optional:
        present = np.fromiter(map(bool, map(str.strip, cells)), bool, n)
        values = np.full(n, np.nan)
        values[present] = np.fromiter(map(float, compress(cells, present.tolist())), np.float64)
    else:
        present, values = True, np.fromiter(map(float, cells), np.float64, n)
    ok = (values > 0) & (values < np.inf) if positive else np.isfinite(values)
    bad = np.flatnonzero(present & ~ok)
    if bad.size:
        rule = "positive and finite" if positive else "finite"
        when = " when present" if optional else ""
        raise _RuleError(f"must be {rule}{when}, got {float(values[bad[0]])}")
    return values


def _read_counts(cells, most=None) -> np.ndarray:
    """Non-negative integers, at most ``most`` when given."""
    values = np.fromiter(map(int, cells), np.int64, len(cells))
    if np.any(values < 0):
        raise _RuleError(f"must be non-negative, got {values[np.argmax(values < 0)]}")
    if most is not None and np.any(values > most):
        raise _RuleError(f"must be 0..{most}, got {values[np.argmax(values > most)]}")
    return values


def _read_bool(cell) -> bool:
    """``true`` or ``false`` in any case, with surrounding whitespace allowed."""
    word = cell.strip().lower()
    if word not in ("true", "false"):
        raise _RuleError(f"must be true/false, got {cell!r}")
    return word == "true"


def _read_events(cells) -> tuple[tuple[str, ...], np.ndarray]:
    """The event names that the ``event_flags`` cells name, sorted, and the
    flags of each cell, one column per name; a cell joins its names with "|"."""
    distinct, inverse = np.unique(cells, return_inverse=True)
    sets = [{e for e in cell.split("|") if e} for cell in distinct.tolist()]
    names = tuple(sorted(set().union(*sets)))
    rows = np.array([[e in flags for e in names] for flags in sets], dtype=bool).reshape(len(sets), len(names))
    return names, rows[inverse]


def _write_events(flags, event_names) -> np.ndarray:
    """The ``event_flags`` cell of each row of ``flags``, as _read_events reads it."""
    if not event_names:  # no flag bytes to view
        return np.full(len(flags), "", dtype=object)
    keys = np.ascontiguousarray(flags, dtype=bool).view(f"V{len(event_names)}")[:, 0]  # one void scalar a row
    distinct, inverse = np.unique(keys, return_inverse=True)
    rows = distinct.view(bool).reshape(len(distinct), len(event_names))
    cells = np.array(["|".join(e for e, on in zip(event_names, row) if on) for row in rows.tolist()], dtype=object)
    return cells[inverse]


def _blank_nan(col) -> list:
    """The cells of float column ``col``, with an empty cell where it is NaN."""
    out = col.astype(object)
    out[np.isnan(col)] = ""
    return list(map(str, out.tolist()))


# cell codecs by column kind: cells -> column, and column -> str cells; a kind
# ending in "?" allows a blank cell and parses the others stripped. A reader
# raises ValueError or OverflowError for a cell it cannot parse and
# _RuleError for a value its column does not allow
_READ = {
    "str": lambda cells: np.array(cells, dtype=str),
    "count": _read_counts,
    "days": lambda cells: _read_counts(cells, most=31),  # days of one month
    "month": _read_months,
    "float": lambda cells: _read_floats(cells, positive=False),
    "float?": lambda cells: _read_floats(cells, positive=False, optional=True),
    "price": lambda cells: _read_floats(cells, positive=True),
    "price?": lambda cells: _read_floats(cells, positive=True, optional=True),
    "bool": lambda cells: _each_distinct(cells, _read_bool, bool),
    "split": lambda cells: _each_distinct(cells, SPLITS.index, np.int8),  # each label's index into SPLITS
}
_WRITE = {
    # a number's cell is its str, which for a float is its repr
    "str": lambda col: col.tolist(),
    **dict.fromkeys(("count", "days", "month", "float", "price"), lambda col: list(map(str, col.tolist()))),
    **dict.fromkeys(("float?", "price?"), _blank_nan),
    "bool": lambda col: np.where(col, "true", "false").tolist(),
    "split": lambda col: np.array(SPLITS, dtype=object)[col].tolist(),
}

# a transactions column's cells are non-negative integers unless listed here
_CELL_KINDS = {
    **dict.fromkeys(("item_id", "event_flags", "brand", "size", "category", "subcategory"), "str"),
    "year_month": "month",
    "price": "price",
    "competitor_price": "price?",
    "substitute_available": "bool",
    "oos_days": "days",
}
TRANSACTIONS_COLUMNS = [f.name for f in fields(Transactions) if f.name != "event_names"]
_TRANSACTION_COLUMNS = [(name, _CELL_KINDS.get(name, "count")) for name in TRANSACTIONS_COLUMNS]
# a dataset's pairs.csv: each pair's split label, in build_pairs order
_LABEL_COLUMNS = [("split", "split")]

# a CSV file is written this many rows at a time, so the Python objects that
# format its cells exist for one chunk at once, not for the whole table
_CSV_CHUNK_ROWS = 4096


def _write_csv(path, columns, table) -> None:
    """Write ``table``, a dict of equal-length columns named as in ``columns``,
    under one header row, creating the file's directory. The first listed
    column gives the row count.

    Every file is in csv's default dialect. A chunk of rows none of whose
    cells needs quoting is joined with str.join (see _plain_rows); any other
    chunk is written by csv, which writes the same bytes for a plain one.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in columns])
        for lo in range(0, len(table[columns[0][0]]), _CSV_CHUNK_ROWS):
            chunk = {name: col[lo : lo + _CSV_CHUNK_ROWS] for name, col in table.items()}
            cells = [_WRITE[kind](chunk[name]) for name, kind in columns]
            text = _plain_rows(cells)
            if text is None:
                writer.writerows(zip(*cells))
            else:
                fh.write(text)


def _plain_rows(cells) -> str | None:
    """The rows whose columns of str cells are ``cells`` as CSV text joined
    with str.join, or None when csv would quote a cell: one holding ``,``,
    ``"``, CR or LF, or the empty cell of a one-column row."""
    every_cell = "".join(map("".join, cells))
    if any(c in every_cell for c in ',"\r\n') or (len(cells) == 1 and "" in cells[0]):
        return None
    lines = cells[0] if len(cells) == 1 else map(",".join, zip(*cells))
    return "\r\n".join(lines) + "\r\n"


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, and restore it as it was on exit.

    A read through csv holds one list per row: each gen-0 collection walks
    the young rows and each full one every row, so reading costs time in
    proportion to rows times collections. The rows hold only str cells,
    which cannot form reference cycles, so pausing the collector leaks
    nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _read_csv(path, columns) -> dict:
    """Read a CSV file written by _write_csv into a dict of its columns,
    named as in ``columns``; blank lines are skipped.

    Text that csv would read as plain lines of comma-separated cells is
    split with str.split (see _split_csv); any other file is read by csv.
    Either way each column is parsed by its kind's reader.

    A cell that does not fit its column's kind, a NUL byte (numpy's str
    arrays would drop it from the end of a cell), or a byte that is not
    UTF-8 raises ParseError naming the file and line; a row whose quoted
    cell spans lines is numbered by its first line. The cyclic garbage
    collector is paused while the file is read.
    """
    path = Path(path)
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        byte = f"byte {raw[exc.start]:#04x}"
        raise ParseError(f"{path.name} line {_line_of(raw, exc.start)}: {byte} is not UTF-8") from None
    nul = raw.find(b"\0")
    if nul >= 0:
        raise ParseError(f"{path.name} line {_line_of(raw, nul)}: NUL byte")
    del raw  # freed before the rows are read
    names = [name for name, _ in columns]
    with _gc_paused():
        cells = _split_csv(text, names)
        del text  # freed before csv reads the file, when it must
        if cells is None:
            cells = _csv_cells(path, names)
        return _parse_cells(path, columns, cells)


def _line_of(raw: bytes, offset: int) -> int:
    """The line byte ``offset`` of a file's bytes ``raw`` is on; CRLF, CR and LF each end a line, as in csv."""
    return raw.count(b"\n", 0, offset) + raw.count(b"\r", 0, offset) - raw.count(b"\r\n", 0, offset) + 1


def _row_lines(path) -> list[int]:
    """The line each row of a CSV file starts on, after its header, skipping
    blank rows as _read_csv does. The file is read again for it, so only an
    error that names a line calls it."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        lines, start = [], reader.line_num + 1
        for row in reader:
            if row:
                lines.append(start)
            start = reader.line_num + 1
    return lines


def _split_csv(text: str, names) -> dict | None:
    """The cells of each column of CSV ``text`` whose header is ``names``,
    split with str.split, or None unless csv.reader would read the same
    cells: the text has no ``"``, its lines all end in LF or all in CRLF, no
    line is longer than csv's field limit, the header is ``names`` and every
    non-blank row has one cell per name. Blank rows are skipped."""
    if '"' in text:
        return None
    crs = text.count("\r")
    rows = text.split("\r\n" if crs else "\n")
    if crs and not crs == len(rows) - 1 == text.count("\n"):  # a CR or LF outside a CRLF
        return None
    if max(map(len, rows)) > csv.field_size_limit():
        return None
    if rows.pop(0).split(",") != names:
        return None
    rows = list(filter(None, rows))
    n = len(names)
    if n == 1:
        return {names[0]: rows} if "," not in text else None
    if set(map(str.count, rows, repeat(","))) - {n - 1}:
        return None
    cells = ",".join(rows).split(",") if rows else []
    return {name: cells[i::n] for i, name in enumerate(names)}


def _csv_cells(path: Path, names) -> dict:
    """The cells of each column of the CSV file ``path`` whose header is
    ``names``, read by csv; blank rows are skipped."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            rows = list(filter(None, reader))  # without blank rows
        except csv.Error as exc:  # a quoted cell longer than csv's field limit
            raise ParseError(f"{path.name} line {reader.line_num}: {exc}") from None
    if header != names:
        raise ParseError(f"{path.name}: unexpected header {header}; expected {names}")
    if set(map(len, rows)) - {len(names)}:
        i = next(i for i, row in enumerate(rows) if len(row) != len(names))
        raise ParseError(f"{path.name} line {_row_lines(path)[i]}: expected {len(names)} fields, got {len(rows[i])}")
    return dict(zip(names, zip(*rows))) or dict.fromkeys(names, ())


def _parse_cells(path: Path, columns, cells) -> dict:
    """Each column of ``columns`` parsed from its ``cells`` by its kind's reader."""
    out = {}
    for name, kind in columns:
        try:
            out[name] = _READ[kind](cells[name])
        except (ValueError, OverflowError):
            for i, cell in enumerate(cells[name]):
                try:
                    _READ[kind]((cell,))
                except _RuleError as exc:
                    raise ParseError(f"{path.name} line {_row_lines(path)[i]}: {name} {exc}") from None
                except (ValueError, OverflowError):
                    shown = cell.strip() if kind.endswith("?") else cell  # an optional cell is parsed stripped
                    raise ParseError(f"{path.name} line {_row_lines(path)[i]}: bad {name} {shown!r}") from None
            raise
    return out


# ---------------------------------------------------------------------------
# ingestion


def ingest(path) -> Transactions:
    """Parse and validate a transactions CSV (columns as TRANSACTIONS_COLUMNS).

    Rows keep file order; _read_events parses the event_flags cells.
    """
    columns = _read_csv(path, _TRANSACTION_COLUMNS)
    event_names, columns["event_flags"] = _read_events(columns["event_flags"])
    tx = Transactions(**columns, event_names=event_names)
    _item_month_order(tx)  # rejects a repeated (item, month)
    return tx


def write_transactions(tx: Transactions, path) -> None:
    cells = _write_events(tx.event_flags, tx.event_names)
    _write_csv(path, _TRANSACTION_COLUMNS, {**tx._columns(), "event_flags": cells})


# ---------------------------------------------------------------------------
# pair construction


def price_change_pct(lag_price, lead_price):
    """(lead - lag) / lag, for scalars or arrays; lag prices must be positive."""
    if np.any(np.asarray(lag_price) <= 0):
        raise DomainError(f"lag price must be positive, got {np.min(lag_price)}")
    return (lead_price - lag_price) / lag_price


def _item_month_order(tx: Transactions) -> np.ndarray:
    """Row indices sorting ``tx`` by (item_id, year_month); a repeated
    (item, month) raises IntegrityError."""
    _, item_code = np.unique(tx.item_id, return_inverse=True)
    order = np.lexsort((tx.year_month, item_code))
    item_code, month = item_code[order], tx.year_month[order]
    dup = np.flatnonzero((item_code[1:] == item_code[:-1]) & (month[1:] == month[:-1]))
    if dup.size:
        i = order[dup[0]]
        raise IntegrityError(f"duplicate record for item {str(tx.item_id[i])!r} month {tx.year_month[i]}")
    return order


def build_pairs(tx: Transactions) -> PairTable:
    """Self-join every item's months into valid (lag, lead) pairs.

    A pair is valid when the gap is 1..12 whole months and inventory is
    positive in both months. Output is sorted by (item_id, lag, lead).
    """
    tx = tx.take(_item_month_order(tx))
    month = ym_index(tx.year_month)
    stocked = tx.inventory > 0
    lags, leads = [], []
    # rows are sorted with unique (item, month), so a lead within
    # MAX_MONTH_GAP months of its lag is at most that many rows ahead
    for k in range(1, MAX_MONTH_GAP + 1):
        lag = np.arange(len(month) - k)
        lead = lag + k
        gap = month[lead] - month[lag]
        ok = (tx.item_id[lag] == tx.item_id[lead]) & (gap >= MIN_MONTH_GAP) & (gap <= MAX_MONTH_GAP)
        ok &= stocked[lag] & stocked[lead]
        lags.append(lag[ok])
        leads.append(lead[ok])
    lag, lead = np.concatenate(lags), np.concatenate(leads)
    order = np.lexsort((lead, lag))
    lag, lead = lag[order], lead[order]
    return PairTable(tx, lag, lead, tx.year_month[lead], tx.price[lead], tx.units_sold[lead].astype(np.float64))


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

@dataclass(frozen=True)
class FeatureNames:
    categorical: tuple[str, ...]
    continuous: tuple[str, ...]
    monotone: tuple[str, ...]
    event_names: tuple[str, ...]


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


# a feature's transactions column, where it is not named after it
_TX_COLUMN = {"units": "units_sold", "month": "year_month", "events": "event_flags"}


def _at(table: PairTable, name: str) -> np.ndarray:
    """``lag_<x>`` or ``lead_<x>``: transactions column x at each pair's lag
    or lead row; the lead month and lead price are the pair's own."""
    if name in ("lead_month", "lead_price"):
        return getattr(table, name)
    side, _, column = name.partition("_")
    rows = {"lag": table.lag, "lead": table.lead}[side]
    return getattr(table.tx, _TX_COLUMN.get(column, column))[rows]


def _factorize_months(months: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(levels, codes) of months of the year 1..12: the distinct months as
    strings in string order ("1" < "10" < "2"), and each month's index
    into them."""
    present = np.flatnonzero(np.bincount(months, minlength=13))
    levels = present.astype(str)
    order = np.argsort(levels, kind="stable")
    code_of = np.zeros(13, dtype=np.int64)
    code_of[present[order]] = np.arange(len(order))
    return levels[order], code_of[months]


def category_codes(table: PairTable, names) -> list[tuple[np.ndarray, np.ndarray]]:
    """(levels, codes) of each categorical feature in ``names``: its distinct
    string levels, sorted, and each pair's index into them.

    Item attributes come from the lag month, so a feature read from the
    transactions is factorized over the distinct lag rows the pairs
    reference, once each, not over the pairs; the lead month of year is the
    pair's own and is factorized as an integer.
    """
    rows, at = np.unique(table.lag, return_inverse=True)
    out = []
    for name in names:
        if name == "lead_month_of_year":
            out.append(_factorize_months(month_of_year(table.lead_month)))
        elif name == "lag_month_of_year":
            levels, codes = _factorize_months(month_of_year(table.tx.year_month[rows]))
            out.append((levels, codes[at]))
        else:
            levels, codes = np.unique(getattr(table.tx, name)[rows], return_inverse=True)
            out.append((levels, codes[at]))
    return out


def feature_column(table: PairTable, name: str) -> np.ndarray:
    """Float64 values of a continuous or monotone feature, one per row.

    An event the transactions have no column for reads 0.
    """
    if name == "month_gap":
        return month_gap(table.lag_month, table.lead_month).astype(np.float64)
    if name == "price_change_pct":
        return price_change_pct(table.lag_price, table.lead_price)
    for side in ("lag", "lead"):
        event = name.removeprefix(f"{side}_event_")
        if event != name:
            if event not in table.event_names:
                return np.zeros(len(table))
            return _at(table, f"{side}_events")[:, table.event_names.index(event)].astype(np.float64)
    if name.endswith("_competitor_price_present"):
        return (~np.isnan(_at(table, name.removesuffix("_present")))).astype(np.float64)
    col = _at(table, name)
    if name.endswith("_competitor_price"):
        return np.where(np.isnan(col), 0.0, col)
    return col.astype(np.float64)


# ---------------------------------------------------------------------------
# splits

SPLITS = ("train", "validation", "out_of_time")
# a pair's split label is its index into SPLITS, an int8
_TRAIN, _VALIDATION, _OUT_OF_TIME = range(len(SPLITS))


@dataclass(eq=False)
class DatasetSplit:
    """``pairs`` in build_pairs order, pair i in part SPLITS[labels[i]].
    Each part is a read-only property that takes its pairs, in pair order,
    on every read."""

    pairs: PairTable
    labels: np.ndarray  # int8, one index into SPLITS per pair
    names: FeatureNames
    seed: int
    split_mode: str  # "pair" or "item": what the 80/20 draw is over
    boundary_month: int

    @property
    def train(self) -> PairTable:
        return self.pairs.take(self.labels == _TRAIN)

    @property
    def validation(self) -> PairTable:
        return self.pairs.take(self.labels == _VALIDATION)

    @property
    def out_of_time(self) -> PairTable:
        return self.pairs.take(self.labels == _OUT_OF_TIME)


def _boundary_month(pairs: PairTable) -> int:
    """The first out-of-time month: pairs leading into the last
    OUT_OF_TIME_MONTHS months of the span are held out."""
    if not len(pairs):
        raise ConfigError("no pairs to split")
    first, last = int(pairs.lag_month.min()), int(pairs.lead_month.max())
    if month_gap(first, last) + 1 < OUT_OF_TIME_MONTHS + 1:
        raise ConfigError(
            f"data spans {month_gap(first, last) + 1} months; need at least {OUT_OF_TIME_MONTHS + 1}"
        )
    return ym_add(last, -(OUT_OF_TIME_MONTHS - 1))


def _draw_labels(pairs: PairTable, seed: int, by_item: bool) -> np.ndarray:
    """The split label code of each pair: out_of_time from the boundary month on,
    else a seeded 80/20 draw of train and validation over pairs, or over
    items with ``by_item``."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    labels = np.where(pairs.lead_month >= _boundary_month(pairs), _OUT_OF_TIME, _VALIDATION).astype(np.int8)
    rest = np.flatnonzero(labels == _VALIDATION)  # the train/validation pool, in pair order
    rng = np.random.default_rng(seed)
    if by_item:
        item_id = pairs.item_id[rest]
        items = np.unique(item_id)
        chosen = items[rng.permutation(len(items))[: (len(items) * 4) // 5]]
        train = rest[np.isin(item_id, chosen)]
    else:
        train = rest[rng.permutation(len(rest))[: (len(rest) * 4) // 5]]
    labels[train] = _TRAIN
    return labels


def _present_events(pairs: PairTable) -> list[str]:
    """The events that occur in some pair; only these are in the feature names."""
    flags = pairs.tx.event_flags
    return list(compress(pairs.event_names, flags[pairs.lag].any(axis=0) | flags[pairs.lead].any(axis=0)))


def split(pairs: PairTable, seed: int, by_item: bool = False) -> DatasetSplit:
    """Chronological out-of-time holdout plus a seeded 80/20 shuffle split.

    The pairs are sorted by (item_id, lag, lead), their (lag, lead) row
    order (see PairTable); only the events that occur in some pair are in
    the feature names.
    """
    pairs = pairs.take(np.lexsort((pairs.lead, pairs.lag)))
    labels = _draw_labels(pairs, seed, by_item)
    names = feature_names(_present_events(pairs))
    return DatasetSplit(pairs, labels, names, seed, "item" if by_item else "pair", _boundary_month(pairs))


# ---------------------------------------------------------------------------
# inference set


def build_inference_set(tx: Transactions, as_of_month: int) -> tuple[PairTable, list[tuple[str, str]]]:
    """One lead = lag+1 row per item valid at as_of_month. Its lead row is
    its lag row, so unknown lead covariates are carried forward from the lag
    month, and its lead price starts at the lag price (price change 0)
    pending a counterfactual override."""
    validate_ym(as_of_month)
    tx = tx.take(_item_month_order(tx))
    at = np.flatnonzero(tx.year_month == as_of_month)  # at most one row per item
    stocked = tx.inventory[at] > 0
    found = set(tx.item_id[at].tolist())
    skipped = [
        (item_id, f"no record for month {as_of_month}")
        for item_id in np.unique(tx.item_id).tolist()
        if item_id not in found
    ]
    skipped += [
        (item_id, f"inventory is 0 in month {as_of_month}") for item_id in tx.item_id[at[~stocked]].tolist()
    ]
    skipped.sort()

    rows = at[stocked]
    lead_month = np.full(len(rows), ym_add(as_of_month, 1), dtype=np.int64)
    return PairTable(tx, rows, rows, lead_month, tx.price[rows], np.full(len(rows), np.nan)), skipped


# ---------------------------------------------------------------------------
# strict JSON files, and the dataset directory: manifest JSON, a byte copy of
# the transactions CSV, and pairs.csv with each pair's split label in pair
# order; the pairs are rebuilt on load


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as strict JSON, creating the file's directory; a
    non-finite number raises NumericError and leaves no file or directory."""
    path = Path(path)
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"{path.name}: {exc}") from None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")


def read_json_object(raw: bytes, what: str, error: type[Exception]) -> dict:
    """The JSON object in the UTF-8 bytes ``raw``; anything else raises ``error`` naming ``what``."""
    try:
        value = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep to decode
        raise error(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(value, dict):
        raise error(f"{what} must hold a JSON object, got {type(value).__name__}")
    return value


def _manifest(ds: DatasetSplit, transactions_sha256: str) -> dict:
    """The manifest.json of ``ds``, split from the pairs of a transactions
    file with SHA-256 ``transactions_sha256``."""
    return {
        "boundary_month": ds.boundary_month,
        "event_names": list(ds.names.event_names),
        "row_counts": dict(zip(SPLITS, np.bincount(ds.labels, minlength=len(SPLITS)).tolist())),
        "seed": ds.seed,
        "split_mode": ds.split_mode,
        "transactions_sha256": transactions_sha256,
    }


def save_dataset(ds: DatasetSplit, transactions, out_dir) -> None:
    """Write ``ds``, split from the pairs of the ``transactions`` file, into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    raw = Path(transactions).read_bytes()
    (out / "transactions.csv").write_bytes(raw)
    _write_csv(out / "pairs.csv", _LABEL_COLUMNS, {"split": ds.labels})
    write_json(out / "manifest.json", _manifest(ds, hashlib.sha256(raw).hexdigest()))


def load_dataset(in_dir) -> DatasetSplit:
    """Rebuild the dataset that save_dataset wrote into ``in_dir``.

    The transactions copy must have the manifest's SHA-256. Its pairs are
    rebuilt and labelled by pairs.csv, one label per pair in build_pairs
    order, with out_of_time labels from the boundary month on.
    The manifest must then be the rebuilt dataset's, key for key; its
    seed and split mode, which cannot be recomputed, must be a non-negative
    integer and "pair" or "item". A mismatch raises SchemaMismatchError; a
    cell that breaks its column's rule, ParseError with its line number.
    """
    src = Path(in_dir)
    manifest = read_json_object((src / "manifest.json").read_bytes(), "manifest.json", SchemaMismatchError)
    digest = hashlib.sha256((src / "transactions.csv").read_bytes()).hexdigest()
    if digest != manifest.get("transactions_sha256"):
        raise SchemaMismatchError(
            f"transactions.csv has SHA-256 {digest}; "
            f"the manifest records {manifest.get('transactions_sha256')!r} as transactions_sha256"
        )
    pairs = build_pairs(ingest(src / "transactions.csv"))
    labels = _read_csv(src / "pairs.csv", _LABEL_COLUMNS)["split"]
    if len(labels) != len(pairs):
        raise SchemaMismatchError(f"pairs.csv has {len(labels)} labels; transactions.csv has {len(pairs)} pairs")
    boundary = _boundary_month(pairs)
    names = feature_names(_present_events(pairs))
    ds = DatasetSplit(pairs, labels, names, manifest.get("seed"), manifest.get("split_mode"), boundary)
    wrong = (labels == _OUT_OF_TIME) != (pairs.lead_month >= boundary)
    if wrong.any():
        i = int(np.argmax(wrong))
        line_no = _row_lines(src / "pairs.csv")[i]
        label = SPLITS[labels[i]]
        raise SchemaMismatchError(f"pairs.csv line {line_no}: {label} crosses the boundary month {boundary}")
    if type(ds.seed) is not int or ds.seed < 0:
        raise SchemaMismatchError(f"manifest seed is {ds.seed!r}; expected a non-negative integer")
    if ds.split_mode not in ("pair", "item"):
        raise SchemaMismatchError(f"manifest split_mode is {ds.split_mode!r}; expected 'pair' or 'item'")
    expected = _manifest(ds, digest)
    for key in sorted(manifest.keys() | expected.keys()):
        got, want = (json.dumps(m[key], sort_keys=True) if key in m else None for m in (manifest, expected))
        if got != want:
            raise SchemaMismatchError(f"manifest {key} is {got or 'missing'}; expected {want or 'no such key'}")
    return ds
