"""Synthetic transaction worlds with known per-item elasticity.

The demand law is a power law D = A * p^epsilon * season(month) * exp(eta),
eta ~ Normal(0, sigma^2), with prices following a positive random walk. A
"kinked" variant switches to a steeper exponent above the item's base price,
giving non-constant elasticity while keeping the arc elasticity in closed
form. Every generated file round-trips through the ingestion pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TRANSACTIONS_COLUMNS, Transactions, _read_csv, _write_csv, month_of_year, validate_ym, ym_add
from .elasticity import arc_elasticity
from .errors import ConfigError, DegenerateDemandError, DomainError, ParseError

BRAND_POOL = [f"brand_{i:02d}" for i in range(10)]
SIZE_POOL = ["XS", "S", "M", "L", "XL"]
CATEGORY_POOL = [f"cat_{i}" for i in range(8)]
SUBCATS_PER_CATEGORY = 3

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
        if not 0 <= self.stockout_rate < 1:
            raise ConfigError(f"stockout rate must be in [0, 1), got {self.stockout_rate}")
        if self.fixed_prices is not None and len(self.fixed_prices) != self.n_months:
            raise ConfigError("fixed_prices must list one price per month")

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
    """Emit monthly transactions and the per-item truth table, reproducibly."""
    rng = np.random.default_rng(world.seed)
    months = [ym_add(world.start_month, k) for k in range(world.n_months)]

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
            mult, flags = world.season_multiplier(month_of_year(ym))
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
    columns = {name: np.array(col) for name, col in zip(TRANSACTIONS_COLUMNS, zip(*rows))}
    events = tuple(sorted(set().union(*columns["event_flags"])))
    columns["event_flags"] = np.array([[e in flags for e in events] for flags in columns["event_flags"]], dtype=bool)
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
    _write_csv(path, _TRUTH_COLUMNS, columns, ())


def read_truth(path) -> list[ItemTruth]:
    """The rows of a truth table; a cell that breaks its column's rule, or
    a repeated item_id, raises ParseError with its line number."""
    columns, lines, _ = _read_csv(path, _TRUTH_COLUMNS)
    seen = set()
    for line_no, item in zip(lines, columns["item_id"].tolist()):
        if item in seen:
            raise ParseError(f"line {line_no}: repeated item_id {item!r}")
        seen.add(item)
    rows = zip(*(columns[name].tolist() for name in TRUTH_COLUMNS))
    return [ItemTruth(item, eps, None if np.isnan(hi) else hi, coeff, base) for item, eps, hi, coeff, base in rows]
