"""The demand network: embeddings, dense encoders, monotone price injection.

Wiring: each categorical feature goes through an embedding table; each
continuous feature through its own small dense+relu encoder, all computed
by one column-dense op; the concatenation feeds a relu trunk. The
standardized monotone price features are injected below the trunk output
into a monodense layer whose indicator is 0 on trunk dimensions and -1 on
the price features; every layer downstream (post stack with all-+1
indicators, linear head with non-negative weights) is monotone increasing,
so the composed map is non-increasing in price by construction.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import data as dt
from .errors import ConfigError, DomainError, ModelIOError, NumericError
from .monodense import (
    ActivationSplit,
    MonoDenseLayer,
    constrained_weights,
    glorot_uniform,
)
from .tensor import Parameter, Tensor, activate, add_bias, column_dense, concat_cols, embedding_lookup, matmul

UNKNOWN_INDEX = 0  # reserved row for categorical levels unseen at training time


def default_embedding_dim(cardinality: int) -> int:
    return min(32, int(np.ceil(np.sqrt(cardinality))))


@dataclass(frozen=True)
class CategoricalSpec:
    name: str
    cardinality: int  # includes the reserved unknown row
    embedding_dim: int


@dataclass(frozen=True)
class FeatureSchema:
    categoricals: tuple[CategoricalSpec, ...]
    continuous: tuple[str, ...]
    monotone: tuple[tuple[str, int], ...]  # (name, direction)

    def __post_init__(self):
        names = [c.name for c in self.categoricals] + list(self.continuous) + [m[0] for m in self.monotone]
        if len(names) != len(set(names)):
            raise ConfigError("feature names must be unique across groups")
        mono = dict(self.monotone)
        for required in ("lead_price", "price_change_pct"):
            if required not in mono:
                raise ConfigError(f"monotone feature group must include {required!r}")
            if mono[required] != -1:
                raise ConfigError(f"{required!r} must have monotone direction -1, got {mono[required]}")
        for name, direction in self.monotone:
            if direction not in (-1, 1):
                raise ConfigError(f"monotone direction for {name!r} must be -1 or +1, got {direction}")
        for c in self.categoricals:
            if c.cardinality < 1 or c.embedding_dim < 1:
                raise ConfigError(f"categorical {c.name!r} needs positive cardinality and embedding dim")


@dataclass(frozen=True)
class ArchConfig:
    trunk_widths: tuple[int, ...] = (128, 64)
    injection_width: int = 64
    post_widths: tuple[int, ...] = (32,)
    encoder_width: int = 8
    activation: str = "relu"
    split: tuple[float, float, float] = (7 / 16, 7 / 16, 2 / 16)
    embedding_dims: dict = field(default_factory=dict, hash=False)  # per-feature overrides

    def __post_init__(self):
        widths = (*self.trunk_widths, self.injection_width, *self.post_widths, self.encoder_width)
        if any(w <= 0 for w in widths):
            raise ConfigError(f"all layer widths must be positive, got {widths}")

    def activation_split(self) -> ActivationSplit:
        return ActivationSplit(*self.split)


class DenseLayer:
    """Plain dense layer: x @ W + b, optional activation."""

    def __init__(self, in_width, out_width, activation, *, rng, name):
        if in_width <= 0 or out_width <= 0:
            raise ConfigError(f"layer widths must be positive, got {in_width}x{out_width}")
        self.activation = activation
        self.weights = Parameter(glorot_uniform(rng, in_width, out_width), name=f"{name}.w")
        self.bias = Parameter(np.zeros((1, out_width)), name=f"{name}.b")

    def forward(self, x: Tensor) -> Tensor:
        z = add_bias(matmul(x, self.weights), self.bias)
        return activate(z, self.activation) if self.activation else z

    def __call__(self, x):
        return self.forward(x)

    def parameters(self):
        return [self.weights, self.bias]


class ColumnDenseLayer(DenseLayer):
    """One 1 -> width dense layer per input column, computed as one op.

    Row j of the (columns, width) weight and bias is column j's layer,
    initialised as a (1, width) ``DenseLayer`` would be, in column order.
    """

    def __init__(self, columns, out_width, activation, *, rng, name):
        if columns < 0 or out_width <= 0:
            raise ConfigError(f"column-dense layer needs columns >= 0 and width > 0, got {columns}x{out_width}")
        self.activation = activation
        w = np.empty((columns, out_width))
        for j in range(columns):
            w[j] = glorot_uniform(rng, 1, out_width)
        self.weights = Parameter(w, name=f"{name}.w")
        self.bias = Parameter(np.zeros((columns, out_width)), name=f"{name}.b")

    def forward(self, x: np.ndarray) -> Tensor:
        z = column_dense(x, self.weights, self.bias)
        return activate(z, self.activation) if self.activation else z


@dataclass
class FeatureEncoder:
    """Pair table -> raw model input matrices: vocab lookup and feature columns."""

    vocabs: dict  # feature name -> {level: index >= 1}; 0 is the unknown row

    def cat_index(self, name: str, level: str) -> int:
        return self.vocabs[name].get(level, UNKNOWN_INDEX)

    def cat_matrix(self, table: dt.PairTable, cat_names) -> np.ndarray:
        out = np.empty((len(table), len(cat_names)), dtype=np.int64)
        for j, name in enumerate(cat_names):
            levels, inverse = np.unique(dt.category_column(table, name), return_inverse=True)
            out[:, j] = np.array([self.cat_index(name, lv) for lv in levels.tolist()], dtype=np.int64)[inverse]
        return out

    def cont_matrix(self, table: dt.PairTable, names) -> np.ndarray:
        out = np.empty((len(table), len(names)))
        for j, name in enumerate(names):
            out[:, j] = dt.feature_column(table, name)
        return out


# share of levels left out of each vocabulary (of those with more than two)
VOCAB_HOLDOUT_FRACTION = 0.01


def build_vocabs(table: dt.PairTable, cat_names, seed: int) -> dict:
    """Level -> index maps from training pairs; a small random holdout of
    levels is left unmapped so the reserved unknown row receives training
    signal."""
    rng = np.random.default_rng(seed)
    vocabs: dict[str, dict[str, int]] = {}
    for name in cat_names:
        levels = np.unique(dt.category_column(table, name)).tolist()
        kept = [lv for lv in levels if not (len(levels) > 2 and rng.random() < VOCAB_HOLDOUT_FRACTION)]
        vocabs[name] = {lv: i + 1 for i, lv in enumerate(kept)}
    return vocabs


@dataclass
class StandardizationStats:
    """Train-split feature means/stds (std floored at 1e-8) and target scaling."""

    means: dict
    stds: dict
    target_mean: float
    target_std: float

    def standardize(self, matrix: np.ndarray, names) -> np.ndarray:
        mu = np.array([self.means[n] for n in names])
        sd = np.array([self.stds[n] for n in names])
        return (matrix - mu) / sd

    def scale_target(self, y: np.ndarray) -> np.ndarray:
        return (y - self.target_mean) / self.target_std

    def unscale_target(self, y: np.ndarray) -> np.ndarray:
        return y * self.target_std + self.target_mean

    def digest(self) -> str:
        payload = json.dumps(
            [sorted(self.means.items()), sorted(self.stds.items()), self.target_mean, self.target_std]
        )
        return hashlib.sha256(payload.encode()).hexdigest()


class DemandModel:
    """Trained (or trainable) demand network with its feature plumbing."""

    def __init__(self, schema: FeatureSchema, config: ArchConfig, seed: int = 0):
        self.schema = schema
        self.config = config
        self.seed = seed
        rng = np.random.default_rng(seed)
        split = config.activation_split()
        act = config.activation

        self.embeddings: dict[str, Parameter] = {}
        for spec in schema.categoricals:
            table = rng.uniform(-0.05, 0.05, size=(spec.cardinality, spec.embedding_dim))
            self.embeddings[spec.name] = Parameter(table, name=f"emb.{spec.name}")

        self.encoders = ColumnDenseLayer(len(schema.continuous), config.encoder_width, act, rng=rng, name="enc")

        trunk_in = sum(s.embedding_dim for s in schema.categoricals) + config.encoder_width * len(
            schema.continuous
        )
        if trunk_in == 0:
            raise ConfigError("schema has no categorical or continuous features")
        self.trunk: list[DenseLayer] = []
        w_in = trunk_in
        for i, w_out in enumerate(config.trunk_widths):
            self.trunk.append(DenseLayer(w_in, w_out, act, rng=rng, name=f"trunk.{i}"))
            w_in = w_out

        mono_dirs = [direction for _, direction in schema.monotone]
        inj_indicator = np.concatenate([np.zeros(w_in), np.array(mono_dirs, dtype=np.float64)])
        self.injection = MonoDenseLayer(
            w_in + len(mono_dirs), config.injection_width, inj_indicator, split, act, rng=rng, name="inj"
        )

        self.post: list[MonoDenseLayer] = []
        w_in = config.injection_width
        for i, w_out in enumerate(config.post_widths):
            self.post.append(
                MonoDenseLayer(w_in, w_out, np.ones(w_in), split, act, rng=rng, name=f"post.{i}")
            )
            w_in = w_out

        self.head_w = Parameter(glorot_uniform(rng, w_in, 1), name="head.w")
        self.head_b = Parameter(np.zeros((1, 1)), name="head.b")
        self._head_indicator = np.ones(w_in)

        # attached after the dataset is known
        self.encoder: FeatureEncoder | None = None
        self.stats: StandardizationStats | None = None
        self.dataset_schema_hash: str | None = None

    # -- parameters --------------------------------------------------------

    def parameters(self) -> list[Parameter]:
        params = [self.embeddings[s.name] for s in self.schema.categoricals]
        params.extend(self.encoders.parameters())
        for layer in self.trunk:
            params.extend(layer.parameters())
        params.extend(self.injection.parameters())
        for layer in self.post:
            params.extend(layer.parameters())
        params.extend([self.head_w, self.head_b])
        return params

    def decayed_parameters(self) -> list[Parameter]:
        """Dense and monodense raw weights; embeddings and biases excluded."""
        params = [self.encoders.weights]
        params.extend(layer.weights for layer in self.trunk)
        params.append(self.injection.weights)
        params.extend(layer.weights for layer in self.post)
        params.append(self.head_w)
        return params

    def monodense_layers(self) -> list[MonoDenseLayer]:
        return [self.injection, *self.post]

    def parameter_count(self) -> int:
        return sum(p.data.size for p in self.parameters())

    # -- forward -----------------------------------------------------------

    def forward(self, cat_idx: np.ndarray, cont_std: np.ndarray, mono_std: np.ndarray) -> Tensor:
        """Scaled-space prediction for pre-encoded, standardized inputs."""
        parts = []
        for j, spec in enumerate(self.schema.categoricals):
            parts.append(embedding_lookup(self.embeddings[spec.name], cat_idx[:, j]))
        parts.append(self.encoders(cont_std))
        h = concat_cols(parts)
        for layer in self.trunk:
            h = layer(h)
        h = self.injection(concat_cols([h, Tensor(mono_std)]))
        for layer in self.post:
            h = layer(h)
        w_eff = constrained_weights(self.head_w, self._head_indicator)
        return add_bias(matmul(h, w_eff), self.head_b)

    # -- pair tables ----------------------------------------------------------

    def _require_fitted(self):
        if self.encoder is None or self.stats is None:
            raise ConfigError("model has no feature encoder/stats attached; train or load it first")

    def encode(self, table: dt.PairTable, lead_price=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Standardized (cat, cont, mono) inputs of ``forward`` for a pair table.

        ``lead_price`` replaces the table's lead prices, and the price change
        is then recomputed against the lag price.
        """
        self._require_fitted()
        if lead_price is not None:
            lead_price = np.asarray(lead_price, dtype=np.float64)
            table = replace(
                table, lead_price=lead_price, price_change_pct=dt.price_change_pct(table.lag_price, lead_price)
            )
        cat_names = tuple(s.name for s in self.schema.categoricals)
        mono_names = tuple(name for name, _ in self.schema.monotone)
        cat = self.encoder.cat_matrix(table, cat_names)
        cont = self.stats.standardize(self.encoder.cont_matrix(table, self.schema.continuous), self.schema.continuous)
        mono = self.stats.standardize(self.encoder.cont_matrix(table, mono_names), mono_names)
        return cat, cont, mono

    def predict_batch(self, table: dt.PairTable, override_prices=None) -> np.ndarray:
        """Demand predictions in original units; optional counterfactual prices.

        A non-NaN override price replaces the row's lead price. The
        price-change feature is always recomputed from the lead and lag
        prices.
        """
        self._require_fitted()
        if not len(table):
            return np.zeros(0)
        lead_price = table.lead_price
        if override_prices is not None:
            override = np.asarray(override_prices, dtype=np.float64)
            chosen = ~np.isnan(override)
            if np.any(override[chosen] <= 0):
                bad = override[chosen][override[chosen] <= 0][0]
                raise DomainError(f"override lead price must be positive, got {bad}")
            lead_price = np.where(chosen, override, lead_price)
        out = self.forward(*self.encode(table, lead_price))
        return self.stats.unscale_target(out.data[:, 0])

    def sign_contracts_hold(self) -> bool:
        if not all(layer.sign_contract_holds() for layer in self.monodense_layers()):
            return False
        head_eff = constrained_weights(self.head_w, self._head_indicator).data
        return bool(np.all(head_eff >= 0))


def build_schema(names: dt.FeatureNames, vocabs: dict, config: ArchConfig) -> FeatureSchema:
    cats = []
    for name in names.categorical:
        cardinality = len(vocabs[name]) + 1  # plus the unknown row
        dim = config.embedding_dims.get(name, default_embedding_dim(cardinality))
        cats.append(CategoricalSpec(name, cardinality, dim))
    monotone = tuple((m, dt.MONOTONE_DIRECTIONS[m]) for m in names.monotone)
    return FeatureSchema(tuple(cats), names.continuous, monotone)


# ---------------------------------------------------------------------------
# model container file: magic, version, schema JSON, named f64 blobs, CRCs

MAGIC = b"MDNM"
FORMAT_VERSION = 2  # 2: one "enc.w"/"enc.b" pair replaces per-feature "enc.<name>.w"/".b"

# every key save_model writes, by enclosing section ("" is the top level)
_META_KEYS = {
    "": ("config", "dataset_schema_hash", "format", "schema", "seed", "stats", "vocabs"),
    "schema": ("categoricals", "continuous", "monotone"),
    "config": (
        "activation",
        "embedding_dims",
        "encoder_width",
        "injection_width",
        "post_widths",
        "split",
        "trunk_widths",
    ),
    "stats": ("means", "stds", "target_mean", "target_std"),
}


def save_model(model: DemandModel, path) -> None:
    model._require_fitted()
    params = model.parameters()
    bad = [p.name for p in params if not np.all(np.isfinite(p.data))]
    if bad:
        raise NumericError(f"cannot save a model with non-finite parameters: {bad}")
    meta = {
        "format": FORMAT_VERSION,
        "seed": model.seed,
        "schema": {
            "categoricals": [
                [s.name, s.cardinality, s.embedding_dim] for s in model.schema.categoricals
            ],
            "continuous": list(model.schema.continuous),
            "monotone": [[name, direction] for name, direction in model.schema.monotone],
        },
        "config": {
            "trunk_widths": list(model.config.trunk_widths),
            "injection_width": model.config.injection_width,
            "post_widths": list(model.config.post_widths),
            "encoder_width": model.config.encoder_width,
            "activation": model.config.activation,
            "split": list(model.config.split),
            "embedding_dims": dict(model.config.embedding_dims),
        },
        "vocabs": {name: sorted(v.items(), key=lambda kv: kv[1]) for name, v in model.encoder.vocabs.items()},
        "stats": {
            "means": model.stats.means,
            "stds": model.stats.stds,
            "target_mean": model.stats.target_mean,
            "target_std": model.stats.target_std,
        },
        "dataset_schema_hash": model.dataset_schema_hash,
    }
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", FORMAT_VERSION)
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    blob += struct.pack("<Q", len(meta_bytes))
    blob += meta_bytes
    blob += struct.pack("<I", len(params))
    for p in params:
        name_bytes = p.name.encode("utf-8")
        payload = p.data.astype("<f8").tobytes()
        blob += struct.pack("<I", len(name_bytes))
        blob += name_bytes
        blob += struct.pack("<II", p.rows, p.cols)
        blob += struct.pack("<I", zlib.crc32(payload))
        blob += payload
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))
    Path(path).write_bytes(bytes(blob))


class _Cursor:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise ModelIOError("model file truncated")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def load_model(path) -> DemandModel:
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise ModelIOError("model file truncated")
    body, trailer = raw[:-4], raw[-4:]
    if struct.unpack("<I", trailer)[0] != zlib.crc32(body):
        raise ModelIOError("model file failed its checksum")
    cur = _Cursor(body)
    if cur.take(4) != MAGIC:
        raise ModelIOError("bad magic bytes; not a model container")
    version = cur.u32()
    if version != FORMAT_VERSION:
        raise ModelIOError(f"unsupported container version {version}; expected {FORMAT_VERSION}")
    try:
        meta = json.loads(cur.take(cur.u64()).decode("utf-8"))
    except ValueError as exc:
        raise ModelIOError(f"model metadata is not valid JSON: {exc}") from None
    for section, keys in _META_KEYS.items():
        obj = meta[section] if section else meta
        if not isinstance(obj, dict) or set(obj) != set(keys):
            got = sorted(obj) if isinstance(obj, dict) else type(obj).__name__
            raise ModelIOError(f"model metadata {section or 'top level'}: keys {got}, expected {list(keys)}")

    schema = FeatureSchema(
        tuple(CategoricalSpec(n, c, d) for n, c, d in meta["schema"]["categoricals"]),
        tuple(meta["schema"]["continuous"]),
        tuple((name, direction) for name, direction in meta["schema"]["monotone"]),
    )
    cfg = meta["config"]
    config = ArchConfig(
        trunk_widths=tuple(cfg["trunk_widths"]),
        injection_width=cfg["injection_width"],
        post_widths=tuple(cfg["post_widths"]),
        encoder_width=cfg["encoder_width"],
        activation=cfg["activation"],
        split=tuple(cfg["split"]),
        embedding_dims=dict(cfg["embedding_dims"]),
    )
    model = DemandModel(schema, config, seed=meta["seed"])
    model.encoder = FeatureEncoder(vocabs={name: dict(items) for name, items in meta["vocabs"].items()})
    model.stats = StandardizationStats(
        means=meta["stats"]["means"],
        stds=meta["stats"]["stds"],
        target_mean=meta["stats"]["target_mean"],
        target_std=meta["stats"]["target_std"],
    )
    model.dataset_schema_hash = meta["dataset_schema_hash"]

    by_name = {p.name: p for p in model.parameters()}
    n_blobs = cur.u32()
    if n_blobs != len(by_name):
        raise ModelIOError(f"parameter count mismatch: file has {n_blobs}, model expects {len(by_name)}")
    for _ in range(n_blobs):
        name = cur.take(cur.u32()).decode("utf-8")
        rows, cols = cur.u32(), cur.u32()
        crc = cur.u32()
        payload = cur.take(rows * cols * 8)
        if zlib.crc32(payload) != crc:
            raise ModelIOError(f"parameter blob {name!r} failed its checksum")
        p = by_name.pop(name, None)  # n_blobs == len(by_name), so every name must come exactly once
        if p is None:
            raise ModelIOError(f"unexpected or repeated parameter blob {name!r}")
        if (rows, cols) != p.shape:
            raise ModelIOError(f"parameter {name!r} shape mismatch: file {rows}x{cols}, model {p.shape}")
        values = np.frombuffer(payload, dtype="<f8").reshape(rows, cols)
        if not np.all(np.isfinite(values)):
            raise ModelIOError(f"parameter {name!r} has non-finite values")
        p.data[...] = values
    return model
