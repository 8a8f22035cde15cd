"""Synthetic transaction worlds with known per-item elasticity.

The demand law is a power law D = A * p^epsilon * season(month) * exp(eta),
eta ~ Normal(0, sigma^2), with prices following a positive random walk. A
"kinked" variant switches to a steeper exponent above the item's base price,
giving non-constant elasticity while keeping the arc elasticity in closed
form. Every generated file round-trips through the ingestion pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .data import LAST_YM, Transactions, _read_csv, _row_lines, _write_csv, month_of_year, validate_ym, ym_add
from .elasticity import arc_elasticity
from .errors import ConfigError, DegenerateDemandError, DomainError, ParseError

BRAND_POOL = [f"brand_{i:02d}" for i in range(10)]
SIZE_POOL = ["XS", "S", "M", "L", "XL"]
CATEGORY_POOL = [f"cat_{i}" for i in range(8)]
SUBCATS_PER_CATEGORY = 3

# a walking price stays within these multiples of its item's base price
PRICE_BAND = (0.3, 3.0)

# calendar month -> (extra demand multiplier, event flag); independent of the
# smooth seasonal sinusoid so the flags carry real signal
EVENT_CALENDAR = {7: (1.15, "summer_sale"), 11: (1.25, "holiday"), 12: (1.25, "holiday")}


@dataclass
class SyntheticWorld:
    n_items: int = 200
    n_months: int = 27
    start_month: int = 202301
    seed: int = 0
    base_demand_range: tuple[float, float] = (800.0, 1200.0)
    base_price_range: tuple[float, float] = (8.0, 40.0)
    epsilon_range: tuple[float, float] = (-3.0, -0.5)
    price_volatility: float = 0.2
    price_reversion: float = 0.3  # AR(1) pull toward the base price, in log space
    season_amplitude: float = 0.15
    noise_sigma: float = 0.1
    oos_rate: float = 0.1  # fraction of item-months with nonzero out-of-stock days
    competitor_presence: float = 0.8  # fraction of item-months with a competitor price
    events_enabled: bool = True
    kinked: bool = False
    kink_drop_range: tuple[float, float] = (0.8, 1.5)
    stockout_rate: float = 0.0
    fixed_prices: tuple[float, ...] | None = None  # overrides the walk for every item

    def __post_init__(self):
        lo, hi = self.epsilon_range
        if not (np.isfinite(lo) and lo <= hi < 0):
            raise ConfigError(f"epsilon range must be finite and negative with lo <= hi, got {self.epsilon_range}")
        if not 0 <= self.noise_sigma < np.inf:
            raise ConfigError(f"noise sigma must be finite and non-negative, got {self.noise_sigma}")
        validate_ym(self.start_month)
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.n_items < 1 or self.n_months < 1:
            raise ConfigError("need at least one item and one month")
        if ym_add(self.start_month, self.n_months - 1) > LAST_YM:
            raise ConfigError(f"start_month {self.start_month} and n_months {self.n_months} run past {LAST_YM}")
        if not 0 <= self.stockout_rate < 1:
            raise ConfigError(f"stockout rate must be in [0, 1), got {self.stockout_rate}")
        lo, hi = self.kink_drop_range
        if not 0 <= lo <= hi < np.inf:
            raise ConfigError(f"kink_drop_range must be finite with 0 <= lo <= hi, got {self.kink_drop_range}")
        if not 0 <= self.price_volatility < np.inf:
            raise ConfigError(f"price_volatility must be finite and non-negative, got {self.price_volatility}")
        if not 0 <= self.price_reversion <= 1:
            raise ConfigError(f"price_reversion must be in [0, 1], got {self.price_reversion}")
        if not 0 <= self.season_amplitude < 1:
            raise ConfigError(f"season_amplitude must be in [0, 1), got {self.season_amplitude}")
        for name in ("oos_rate", "competitor_presence"):
            if not 0 <= getattr(self, name) <= 1:
                raise ConfigError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if self.fixed_prices is not None and (
            len(self.fixed_prices) != self.n_months or not all(0 < p < np.inf for p in self.fixed_prices)
        ):
            raise ConfigError("fixed_prices must list one positive finite price per month")
        if not all(0 < v < np.inf for v in (*self.base_demand_range, *self.base_price_range)):
            raise ConfigError(
                f"base demand and price ranges must be positive and finite, got "
                f"{self.base_demand_range} and {self.base_price_range}"
            )
        if not self._law_is_finite():
            raise ConfigError(f"epsilon range {self.epsilon_range} gives a demand law that overflows on the price band")

    def _law_is_finite(self) -> bool:
        """Whether every item's demand law is finite on its price band, at the
        largest season lift. Its logarithm is linear in each of the log base
        demand, the log base price, the exponents and the log price, so the
        corners of their ranges bound it."""
        drops = self.kink_drop_range if self.kinked else (None,)
        lift = max(self.season_multiplier(moy)[0] for moy in range(1, 13))
        for units, base_price, epsilon, drop in product(
            self.base_demand_range, self.base_price_range, self.epsilon_range, drops
        ):
            band = self.fixed_prices or (PRICE_BAND[0] * base_price, PRICE_BAND[1] * base_price)
            try:
                epsilon_hi = None if drop is None else epsilon - drop
                truth = ItemTruth("", epsilon, epsilon_hi, units * base_price ** (-epsilon), base_price)
                if not all(np.isfinite(truth.expected_units(p, lift)) for p in (min(band), max(band))):
                    return False
            except (OverflowError, DomainError):
                return False
        return True

    def season_multiplier(self, moy: int) -> tuple[float, frozenset]:
        mult = 1.0 + self.season_amplitude * np.sin(2.0 * np.pi * (moy - 1) / 12.0)
        flags = frozenset()
        if self.events_enabled and moy in EVENT_CALENDAR:
            lift, flag = EVENT_CALENDAR[moy]
            mult *= lift
            flags = frozenset({flag})
        return float(mult), flags


@dataclass(frozen=True)
class ItemTruth:
    """Ground-truth demand law parameters for one item."""

    item_id: str
    epsilon: float  # exponent at/below the base price
    epsilon_hi: float | None  # exponent above the base price (kinked worlds)
    coeff: float  # A in D = A * p^epsilon (at/below base price)
    base_price: float

    def expected_units(self, price: float, season_mult: float = 1.0) -> float:
        """Noiseless demand law, piecewise for kinked items."""
        if price <= 0:
            raise DomainError(f"price must be positive, got {price}")
        try:
            if self.epsilon_hi is None or price <= self.base_price:
                return self.coeff * price**self.epsilon * season_mult
            # continuity at the base price fixes the upper-segment coefficient
            coeff_hi = self.coeff * self.base_price ** (self.epsilon - self.epsilon_hi)
            return coeff_hi * price**self.epsilon_hi * season_mult
        except OverflowError:
            raise DomainError(f"demand law of {self.item_id} overflows at price {price}") from None

    def arc_elasticity(self, p: float, dp: float) -> float:
        """True arc elasticity of this law at (p, p+dp); season cancels."""
        try:
            return arc_elasticity(self.expected_units(p), self.expected_units(p + dp), p, dp)
        except DegenerateDemandError as exc:
            raise DomainError(f"demand law of {self.item_id} at p={p}, dp={dp}: {exc}") from None


def true_arc_elasticity(epsilon: float, p: float, dp: float) -> float:
    """Arc elasticity of a pure power law: ((p+dp)^e - p^e)/p^e * p/dp."""
    if p <= 0:
        raise DomainError(f"base price must be positive, got {p}")
    if dp == 0:
        raise DomainError("price delta must be non-zero")
    if p + dp <= 0:
        raise DomainError(f"perturbed price must be positive, got {p + dp}")
    return ((p + dp) ** epsilon - p**epsilon) / p**epsilon * p / dp


def generate(world: SyntheticWorld) -> tuple[Transactions, list[ItemTruth]]:
    """Emit monthly transactions and the per-item truth table, reproducibly.

    The order of the random draws defines the world. Each item draws its law,
    its price walk, its noise, its stockout months and its attributes; then
    each of its months draws its inventory (not in a stockout month), its
    out-of-stock check and days, and its competitor check and price. Those
    monthly draws run one by one, because whether a draw happens depends on
    the draw before it; the arithmetic then runs over the whole table.
    """
    rng = np.random.default_rng(world.seed)
    uniform, random, integers = rng.uniform, rng.random, rng.integers
    n, m = world.n_items, world.n_months
    months = [ym_add(world.start_month, k) for k in range(m)]
    mults, flags = zip(*(world.season_multiplier(month_of_year(ym)) for ym in months))

    truths: list[ItemTruth] = []
    items = []  # per item: base units, rating, days launched, substitute flag, then brand, size, category, subcategory
    steps, shocks = np.zeros((n, m)), np.zeros((n, m))  # log-price steps and log-noise
    stockouts = np.empty((n, m), dtype=bool)
    stock_draws, oos, comp_draws = [], [], []  # per item-month; NaN where not drawn
    for i in range(n):
        base_units = uniform(*world.base_demand_range)
        base_price = uniform(*world.base_price_range)
        epsilon = uniform(*world.epsilon_range)
        epsilon_hi = epsilon - uniform(*world.kink_drop_range) if world.kinked else None
        coeff = base_units * base_price ** (-epsilon)
        truths.append(ItemTruth(f"item_{i:04d}", epsilon, epsilon_hi, coeff, base_price))
        if world.fixed_prices is None:
            steps[i] = rng.normal(0.0, world.price_volatility, size=m)
        if world.noise_sigma > 0:
            shocks[i] = rng.normal(0.0, world.noise_sigma, size=m)
        stockouts[i] = rng.random(m) < world.stockout_rate

        brand = BRAND_POOL[int(integers(len(BRAND_POOL)))]
        category = CATEGORY_POOL[int(integers(len(CATEGORY_POOL)))]
        subcategory = f"{category}_sub{int(integers(SUBCATS_PER_CATEGORY))}"
        size = SIZE_POOL[int(integers(len(SIZE_POOL)))]
        substitute = bool(random() < 0.5)
        rating, launched = int(integers(0, 500)), int(integers(30, 1000))
        items.append((base_units, rating, launched, substitute, brand, size, category, subcategory))

        for stockout in stockouts[i].tolist():
            stock_draws.append(np.nan if stockout else uniform(1.5, 3.0))
            oos.append(int(integers(1, 6)) if random() < world.oos_rate else 0)
            # competitors track the item's stable market price level, not the
            # month-to-month own-price walk
            comp_draws.append(uniform(0.85, 1.15) if random() < world.competitor_presence else np.nan)

    base_units, rating, launched, substitute, *attributes = (np.array(col) for col in zip(*items))
    base_price = np.array([t.base_price for t in truths])[:, None]
    if world.fixed_prices is not None:
        prices = np.tile(np.asarray(world.fixed_prices, dtype=np.float64), (n, 1))
    else:
        # random walk in log price, optionally mean-reverting toward the base
        # price so items keep revisiting the same price band
        phi = 1.0 - world.price_reversion
        x = np.empty((n, m))
        level = 0.0
        for k in range(m):
            level = phi * level + steps[:, k]
            x[:, k] = level
        prices = np.clip(base_price * np.exp(x), PRICE_BAND[0] * base_price, PRICE_BAND[1] * base_price)

    # units follow ItemTruth's law, the one that elasticity --truth scores against
    expected = [t.expected_units(p, mult) for t, row in zip(truths, prices.tolist()) for p, mult in zip(row, mults)]
    units = np.maximum(np.round(np.array(expected).reshape(n, m) * np.exp(shocks)), 0.0)
    fits = np.all(units < 2.0**63, axis=1)  # every count is an int64 cell
    units = np.where(fits[:, None], units, 0.0).astype(np.int64)
    gain = np.round(units * 0.02).astype(np.int64)
    rating = rating[:, None] + np.cumsum(gain, axis=1) - gain  # before this month's sales
    fits &= np.all(rating >= 0, axis=1)  # a running sum that passes 2**63 wraps negative first
    if not fits.all():
        raise DomainError(f"demand of {truths[np.argmin(fits)].item_id} does not fit a count of units sold")
    # stock level scales with the item's typical demand, not with the month's
    # realized units (which would leak the target), and never hits zero
    # unless a stockout is injected
    inventory = np.maximum(np.round(base_units[:, None] * np.array(stock_draws).reshape(n, m)), 10)

    events = tuple(sorted(set().union(*flags)))
    month_events = np.array([[e in f for e in events] for f in flags], dtype=bool).reshape(m, len(events))
    per_item = [np.array([t.item_id for t in truths]), *attributes]
    columns = dict(
        zip(("item_id", "brand", "size", "category", "subcategory"), (np.repeat(col, m) for col in per_item)),
        year_month=np.tile(np.array(months), n),
        price=prices.ravel(),
        units_sold=units.ravel(),
        inventory=np.where(stockouts, 0, inventory).astype(np.int64).ravel(),
        oos_days=np.array(oos),
        rating_count=rating.ravel(),
        days_launched=(launched[:, None] + 30 * np.arange(m)).ravel(),
        competitor_price=(base_price * np.array(comp_draws).reshape(n, m)).ravel(),
        substitute_available=np.repeat(substitute, m),
        event_flags=np.tile(month_events, (n, 1)),
    )
    return Transactions(**columns, event_names=events), truths


# truth.csv: one row per item; epsilon_hi is blank unless the world is kinked
_TRUTH_COLUMNS = [
    ("item_id", "str"),
    ("epsilon", "float"),
    ("epsilon_hi", "float?"),
    ("coeff", "price"),
    ("base_price", "price"),
]
TRUTH_COLUMNS = [name for name, _ in _TRUTH_COLUMNS]


def write_truth(truths, path) -> None:
    columns = {name: np.array([getattr(t, name) for t in truths]) for name in TRUTH_COLUMNS if name != "epsilon_hi"}
    columns["epsilon_hi"] = np.array([np.nan if t.epsilon_hi is None else t.epsilon_hi for t in truths])
    _write_csv(path, _TRUTH_COLUMNS, columns)


def read_truth(path) -> list[ItemTruth]:
    """The rows of a truth table; a cell that breaks its column's rule, or
    a repeated item_id, raises ParseError with its line number."""
    columns = _read_csv(path, _TRUTH_COLUMNS)
    seen = set()
    for i, item in enumerate(columns["item_id"].tolist()):
        if item in seen:
            raise ParseError(f"{Path(path).name} line {_row_lines(path)[i]}: repeated item_id {item!r}")
        seen.add(item)
    rows = zip(*(columns[name].tolist() for name in TRUTH_COLUMNS))
    return [ItemTruth(item, eps, None if np.isnan(hi) else hi, coeff, base) for item, eps, hi, coeff, base in rows]
