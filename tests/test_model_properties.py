"""Seeded property tests over randomly drawn demand models.

Each model has a random architecture (trunk and post depths 0-3, widths
1-16), activation, activation split and feature schema, and its parameters
are redrawn at a large scale. Every model must keep its weight-sign
contract, predict demand that never rises along a wide grid of each
standardized price input, and survive save -> load bit for bit; the
parameter count that loading bounds a file by must be the model's own.
"""

import re

import numpy as np
import pytest

from elastinet import data as dt
from elastinet.errors import ModelIOError
from elastinet.model import ArchConfig, DemandModel, StandardizationStats, load_model, save_model

N_MODELS = 60
N_ROWS = 16
PRICE_GRID = np.linspace(-1e3, 1e3, 30)  # standardized price values
RAW_SCALE = 10.0  # parameters are redrawn as Normal(0, RAW_SCALE**2)


def random_subset(rng, names, min_size=0):
    names = list(names)
    keep = rng.random(len(names)) < rng.random()  # a random share, so empty and full sets occur
    keep[rng.permutation(len(names))[:min_size]] = True
    return tuple(name for name, k in zip(names, keep) if k)


def random_split(rng):
    fractions = rng.random(3) * (rng.random(3) < 0.8)  # some subsets empty
    if not fractions.any():
        fractions[rng.integers(3)] = 1.0
    return tuple(float(f) for f in fractions / fractions.sum())


def random_widths(rng):
    return tuple(int(w) for w in rng.integers(1, 17, size=int(rng.integers(0, 4))))


def draw(seed):
    """A random fitted model and standardized (cat, cont, mono) inputs for it."""
    rng = np.random.default_rng([20261019, seed])
    known = dt.feature_names(random_subset(rng, ("holiday", "summer_sale")))
    categorical = random_subset(rng, known.categorical)
    continuous = random_subset(rng, known.continuous, min_size=0 if categorical else 1)
    monotone = random_subset(rng, known.monotone, min_size=1)
    names = dt.FeatureNames(categorical, continuous, monotone, known.event_names)
    sizes = {name: int(rng.integers(1, 20)) for name in categorical}
    vocabs = {name: {f"{name}_{i}": i for i in range(1, n + 1)} for name, n in sizes.items()}
    config = ArchConfig(
        trunk_widths=random_widths(rng),
        injection_width=int(rng.integers(1, 17)),
        post_widths=random_widths(rng),
        encoder_width=int(rng.integers(1, 17)),
        activation=str(rng.choice(["relu", "elu", "selu"])),
        split=random_split(rng),
    )
    scaled = (*continuous, *monotone)
    stats = StandardizationStats(
        {n: float(rng.normal(0.0, 100.0)) for n in scaled},
        {n: float(rng.uniform(0.01, 100.0)) for n in scaled},
        float(rng.normal(0.0, 100.0)),
        float(rng.uniform(0.01, 100.0)),
    )
    model = DemandModel(names, vocabs, stats, config, seed=seed)
    for p in model.parameters():
        p.data[...] = rng.normal(0.0, RAW_SCALE, size=p.shape)
    cat = np.zeros((N_ROWS, len(categorical)), dtype=np.int64)
    for j, name in enumerate(categorical):
        cat[:, j] = rng.integers(0, sizes[name] + 1, size=N_ROWS)  # 0 is the unknown row
    cont = rng.normal(0.0, 3.0, size=(N_ROWS, len(continuous)))
    mono = rng.normal(0.0, 3.0, size=(N_ROWS, len(monotone)))
    return model, (cat, cont, mono)


def demand_along_grid(model, cat, cont, mono, j):
    """(grid points, rows) predicted demand with price input j set to each
    grid value in turn, one forward per grid point over the same rows."""
    out = []
    for value in PRICE_GRID:
        probe = mono.copy()
        probe[:, j] = value
        out.append(model.stats.unscale_target(model.forward(cat, cont, probe).data[:, 0]))
    return np.array(out)


@pytest.mark.parametrize("seed", range(N_MODELS))
def test_random_model_is_monotone_and_round_trips(seed, tmp_path, edit_model_file):
    model, (cat, cont, mono) = draw(seed)
    assert model.sign_contracts_hold()

    for j, name in enumerate(model.names.monotone):
        assert dt.MONOTONE_DIRECTIONS[name] == -1
        demand = demand_along_grid(model, cat, cont, mono, j)
        assert np.all(np.isfinite(demand))
        assert np.all(np.diff(demand, axis=0) <= 0.0), f"demand rises along {name}"  # zero tolerance

    save_model(model, tmp_path / "a.mdnm")
    loaded = load_model(tmp_path / "a.mdnm")
    assert loaded.config == model.config and loaded.names == model.names and loaded.stats == model.stats
    assert loaded.encoder.vocabs == model.encoder.vocabs
    for p, q in zip(model.parameters(), loaded.parameters(), strict=True):
        assert p.name == q.name and np.array_equal(p.data, q.data)
    assert np.array_equal(loaded.forward(cat, cont, mono).data, model.forward(cat, cont, mono).data)
    save_model(loaded, tmp_path / "b.mdnm")
    assert (tmp_path / "b.mdnm").read_bytes() == (tmp_path / "a.mdnm").read_bytes()

    # with its blobs gone, loading reports the parameter count it bounds the file by
    edit_model_file(tmp_path / "a.mdnm", tmp_path / "empty.mdnm", lambda c: c["blobs"].clear())
    with pytest.raises(ModelIOError, match="model metadata implies") as exc:
        load_model(tmp_path / "empty.mdnm")
    bound = int(re.search(r"implies (\d+) parameter values", str(exc.value)).group(1))
    assert bound == sum(p.data.size for p in model.parameters())


def test_draws_cover_the_space_and_prices_move_demand():
    """The draws are not vacuous: they span the architecture space, and
    most models' demand strictly falls somewhere along the price grid."""
    draws = [draw(seed) for seed in range(N_MODELS)]
    configs = [model.config for model, _ in draws]
    assert {len(c.trunk_widths) for c in configs} == {0, 1, 2, 3}
    assert {len(c.post_widths) for c in configs} == {0, 1, 2, 3}
    assert {c.activation for c in configs} == {"relu", "elu", "selu"}
    assert {len(model.names.monotone) for model, _ in draws} == {1, 2}
    assert any(not model.names.categorical for model, _ in draws)
    assert any(not model.names.continuous for model, _ in draws)
    falls = sum(
        np.any(np.diff(demand_along_grid(model, *inputs, 0), axis=0) < 0.0) for model, inputs in draws
    )
    assert falls >= N_MODELS // 2
