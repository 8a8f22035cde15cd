"""The demand network: embeddings, dense encoders, monotone price injection.

Wiring: each categorical feature goes through an embedding table; each
continuous feature through its own small dense+relu encoder, all computed
by one column-dense op; the concatenation feeds a relu trunk. The
standardized monotone price features are injected below the trunk output
into a monodense layer whose indicator is 0 on trunk dimensions and -1 on
the price features; every layer downstream (post stack with all-+1
indicators, linear head with non-negative weights) is monotone increasing,
so the composed map is non-increasing in price by construction.

``DenseLayer`` and ``MonoDenseLayer`` live in ``monodense``; this module
imports them and adds the column-dense encoder bank.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import data as dt
from .errors import ConfigError, DomainError, ModelIOError, NumericError
from .monodense import ActivationSplit, DenseLayer, MonoDenseLayer, glorot_uniform
from .tensor import Parameter, Tensor, activation_pair, column_dense, concat_cols, embedding_lookup

UNKNOWN_INDEX = 0  # reserved row for categorical levels unseen at training time
PREDICT_ROWS = 4096  # rows per forward-only pass when scoring


def default_embedding_dim(cardinality: int) -> int:
    return min(32, int(np.ceil(np.sqrt(cardinality))))


@dataclass(frozen=True)
class ArchConfig:
    trunk_widths: tuple[int, ...] = (128, 64)
    injection_width: int = 64
    post_widths: tuple[int, ...] = (32,)
    encoder_width: int = 8
    activation: str = "relu"
    split: tuple[float, float, float] = (7 / 16, 7 / 16, 2 / 16)

    def __post_init__(self):
        widths = (*self.trunk_widths, self.injection_width, *self.post_widths, self.encoder_width)
        if not all(type(w) is int and w > 0 for w in widths):
            raise ConfigError(f"all layer widths must be positive integers, got {widths}")
        activation_pair(self.activation)
        split = self.split if isinstance(self.split, (tuple, list)) else ()
        if len(split) != 3 or not all(isinstance(f, (int, float)) for f in split):
            raise ConfigError(f"split must be three fractions (convex, concave, bounded), got {self.split!r}")
        self.activation_split()  # checks the fractions

    def activation_split(self) -> ActivationSplit:
        return ActivationSplit(*self.split)


class ColumnDenseLayer(DenseLayer):
    """One 1 -> width dense layer per input column, computed as one op.

    Row j of the (columns, width) weight and bias is column j's layer,
    initialised as a (1, width) ``DenseLayer`` would be, in column order.
    """

    def __init__(self, columns, out_width, activation, *, rng, name):
        if columns < 0 or out_width <= 0:
            raise ConfigError(f"column-dense layer needs columns >= 0 and width > 0, got {columns}x{out_width}")
        self.activation = activation
        self.act = activation_pair(activation) if activation else None
        w = np.empty((columns, out_width))
        for j in range(columns):
            w[j] = glorot_uniform(rng, 1, out_width)
        self.weights = Parameter(w, name=f"{name}.w")
        self.bias = Parameter(np.zeros((columns, out_width)), name=f"{name}.b")

    def forward(self, x: np.ndarray) -> Tensor:
        return column_dense(x, self.weights, self.bias, self.act)


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
    """Train-split feature means/stds and target scaling; a std of a column
    that is constant over the train split is 1, so it is centred only."""

    means: dict[str, float]
    stds: dict[str, float]
    target_mean: float
    target_std: float

    def __post_init__(self):
        if set(self.means) != set(self.stds):
            raise ConfigError(f"means and stds name different features: {sorted(set(self.means) ^ set(self.stds))}")
        values = [*self.means.values(), *self.stds.values(), self.target_mean, self.target_std]
        if not np.all(np.isfinite(values)):
            raise ConfigError("standardization stats must be finite")
        if min(self.stds.values(), default=1.0) <= 0 or self.target_std <= 0:
            raise ConfigError("standardization stds must be positive")

    def standardize(self, matrix: np.ndarray, names) -> np.ndarray:
        mu = np.array([self.means[n] for n in names])
        sd = np.array([self.stds[n] for n in names])
        return (matrix - mu) / sd

    def scale_target(self, y: np.ndarray) -> np.ndarray:
        return (y - self.target_mean) / self.target_std

    def unscale_target(self, y: np.ndarray) -> np.ndarray:
        return y * self.target_std + self.target_mean


class DemandModel:
    """Trained (or trainable) demand network with its feature plumbing.

    ``names`` is the dataset's feature list and ``vocabs`` maps each
    categorical feature's levels to 1..n; embedding sizes, the injection
    indicator and the schema hash follow from them. Only the
    standardization ``stats`` are attached later.
    """

    def __init__(self, names: dt.FeatureNames, vocabs: dict, config: ArchConfig, seed: int = 0):
        unknown = sorted(set(names.monotone) - set(dt.MONOTONE_DIRECTIONS))
        if unknown:
            raise ConfigError(f"monotone features {unknown} have no direction in {dt.MONOTONE_DIRECTIONS}")
        if set(vocabs) != set(names.categorical):
            raise ConfigError(f"vocabularies {sorted(vocabs)} do not match categorical features {names.categorical}")
        for name, vocab in vocabs.items():
            if sorted(vocab.values()) != list(range(1, len(vocab) + 1)):
                raise ConfigError(f"vocabulary {name!r} must map its {len(vocab)} levels to 1..{len(vocab)}")
        if seed < 0:
            raise ConfigError(f"seed must be non-negative, got {seed}")
        self.names = names
        self.schema_hash = names.schema_hash()
        self.config = config
        self.seed = seed
        self.encoder = FeatureEncoder(vocabs)
        self.stats: StandardizationStats | None = None  # attached after the dataset is known
        rng = np.random.default_rng(seed)
        split = config.activation_split()
        act = config.activation

        self.embeddings: dict[str, Parameter] = {}
        for name in names.categorical:
            cardinality = len(vocabs[name]) + 1  # plus the unknown row
            table = rng.uniform(-0.05, 0.05, size=(cardinality, default_embedding_dim(cardinality)))
            self.embeddings[name] = Parameter(table, name=f"emb.{name}")

        self.encoders = ColumnDenseLayer(len(names.continuous), config.encoder_width, act, rng=rng, name="enc")

        trunk_in = sum(e.cols for e in self.embeddings.values()) + config.encoder_width * len(names.continuous)
        if trunk_in == 0:
            raise ConfigError("schema has no categorical or continuous features")
        self.trunk: list[DenseLayer] = []
        w_in = trunk_in
        for i, w_out in enumerate(config.trunk_widths):
            self.trunk.append(DenseLayer(w_in, w_out, act, rng=rng, name=f"trunk.{i}"))
            w_in = w_out

        mono_dirs = [dt.MONOTONE_DIRECTIONS[name] for name in names.monotone]
        inj_indicator = np.concatenate([np.zeros(w_in), np.array(mono_dirs, dtype=np.float64)])
        self.injection = MonoDenseLayer(
            w_in + len(mono_dirs), config.injection_width, inj_indicator, split, act, rng=rng, name="inj"
        )

        self.post: list[MonoDenseLayer] = []
        w_in = config.injection_width
        for i, w_out in enumerate(config.post_widths):
            self.post.append(MonoDenseLayer(w_in, w_out, np.ones(w_in), split, act, rng=rng, name=f"post.{i}"))
            w_in = w_out

        # a monotone linear layer: non-negative weights, no activation
        self.head = MonoDenseLayer(w_in, 1, np.ones(w_in), split, None, rng=rng, name="head")
        self.layers: list[DenseLayer] = [self.encoders, *self.trunk, self.injection, *self.post, self.head]

    # -- parameters --------------------------------------------------------

    def parameters(self) -> list[Parameter]:
        return [*self.embeddings.values(), *(p for layer in self.layers for p in layer.parameters())]

    def decayed_parameters(self) -> list[Parameter]:
        """Dense and monodense raw weights; embeddings and biases excluded."""
        return [layer.weights for layer in self.layers]

    def monodense_layers(self) -> list[MonoDenseLayer]:
        return [layer for layer in self.layers if isinstance(layer, MonoDenseLayer)]

    def parameter_count(self) -> int:
        return sum(p.data.size for p in self.parameters())

    # -- forward -----------------------------------------------------------

    def forward(self, cat_idx: np.ndarray, cont_std: np.ndarray, mono_std: np.ndarray) -> Tensor:
        """Scaled-space prediction for pre-encoded, standardized inputs."""
        parts = []
        for j, table in enumerate(self.embeddings.values()):
            parts.append(embedding_lookup(table, cat_idx[:, j]))
        parts.append(self.encoders(cont_std))
        h = concat_cols(parts)
        for layer in self.trunk:
            h = layer(h)
        h = self.injection(concat_cols([h, Tensor(mono_std)]))
        for layer in self.post:
            h = layer(h)
        return self.head(h)

    # -- pair tables ----------------------------------------------------------

    def _require_fitted(self):
        if self.stats is None:
            raise ConfigError("model has no standardization stats attached; train or load it first")

    def encode(self, table: dt.PairTable, lead_price=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Standardized (cat, cont, mono) inputs of ``forward`` for a pair table.

        ``lead_price``, one positive finite price per row, replaces the
        table's lead prices, and so the price change it reads.
        """
        self._require_fitted()
        if lead_price is not None:
            lead_price = np.asarray(lead_price, dtype=np.float64)
            if lead_price.shape != (len(table),):
                raise DomainError(f"need one lead price for each of {len(table)} rows, got shape {lead_price.shape}")
            bad = lead_price[~((lead_price > 0) & (lead_price < np.inf))]
            if bad.size:
                raise DomainError(f"lead price must be positive and finite, got {bad[0]}")
            table = replace(table, lead_price=lead_price)
        names = self.names
        cat = self.encoder.cat_matrix(table, names.categorical)
        cont = self.stats.standardize(self.encoder.cont_matrix(table, names.continuous), names.continuous)
        mono = self.stats.standardize(self.encoder.cont_matrix(table, names.monotone), names.monotone)
        return cat, cont, mono

    def _passes(self, cat: np.ndarray, cont: np.ndarray, mono: np.ndarray):
        """(rows, scaled predictions) of ``forward``, ``PREDICT_ROWS`` rows at
        a time, so each pass's tape is freed before the next one runs."""
        for lo in range(0, cat.shape[0], PREDICT_ROWS):
            rows = slice(lo, lo + PREDICT_ROWS)
            yield rows, self.forward(cat[rows], cont[rows], mono[rows]).data

    def predict_batch(self, table: dt.PairTable, lead_price=None) -> np.ndarray:
        """Demand predictions in original units, at ``lead_price`` if given (see ``encode``)."""
        self._require_fitted()
        if not len(table):
            return np.zeros(0)
        passes = self._passes(*self.encode(table, lead_price))
        return self.stats.unscale_target(np.concatenate([pred[:, 0] for _, pred in passes]))

    def sign_contracts_hold(self) -> bool:
        return all(layer.sign_contract_holds() for layer in self.monodense_layers())


# ---------------------------------------------------------------------------
# model container file: magic, version, metadata JSON, named f64 blobs, CRCs

MAGIC = b"MDNM"
# 2: one "enc.w"/"enc.b" pair replaces per-feature "enc.<name>.w"/".b"
# 3: the metadata holds the feature names, not sizes and directions derived from them
FORMAT_VERSION = 3

_META_KEYS = ("config", "features", "format", "seed", "stats", "vocabs")
# the JSON type of "vocabs": each feature's [level, index] pairs in index order
_VOCABS = dict[str, tuple[tuple[str, int], ...]]


def save_model(model: DemandModel, path) -> None:
    model._require_fitted()
    params = model.parameters()
    bad = [p.name for p in params if not np.all(np.isfinite(p.data))]
    if bad:
        raise NumericError(f"cannot save a model with non-finite parameters: {bad}")
    meta = {
        "format": FORMAT_VERSION,
        "seed": model.seed,
        "config": asdict(model.config),
        "features": asdict(model.names),
        "vocabs": {name: sorted(v.items(), key=lambda kv: kv[1]) for name, v in model.encoder.vocabs.items()},
        "stats": asdict(model.stats),
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


def _from_json(value, hint, where: str):
    """JSON ``value`` as type ``hint``: a dataclass (in its ``asdict`` form),
    ``tuple[...]``, ``dict[str, ...]``, str, int or float; lists become
    tuples. A value of another type raises ModelIOError naming ``where``."""
    if is_dataclass(hint):
        keys = [f.name for f in fields(hint)]
        if not isinstance(value, dict) or set(value) != set(keys):
            got = sorted(value) if isinstance(value, dict) else type(value).__name__
            raise ModelIOError(f"model metadata {where}: keys {got}, expected {keys}")
        hints = get_type_hints(hint)
        return hint(**{k: _from_json(value[k], hints[k], f"{where}.{k}") for k in keys})
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple and isinstance(value, list):
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        if len(args) == len(value):
            return tuple(_from_json(v, a, where) for v, a in zip(value, args))
    elif origin is dict and isinstance(value, dict):  # JSON object keys are strings
        return {k: _from_json(v, args[1], f"{where}.{k}") for k, v in value.items()}
    elif hint is float and type(value) in (int, float):
        return float(value)
    elif origin is None and type(value) is hint:
        return value
    raise ModelIOError(f"model metadata {where}: expected {hint if origin else hint.__name__}, got {value!r:.40}")


def _parameter_shapes(names: dt.FeatureNames, vocabs: dict, config: ArchConfig) -> list[tuple[int, int]]:
    """Shapes of ``DemandModel(names, vocabs, config).parameters()``, in
    order, worked out without allocating them."""
    shapes = []

    def dense(in_width, out_width):
        shapes.extend([(in_width, out_width), (1, out_width)])
        return out_width

    for name in names.categorical:
        cardinality = len(vocabs.get(name, ())) + 1  # plus the unknown row
        shapes.append((cardinality, default_embedding_dim(cardinality)))
    width = sum(cols for _, cols in shapes) + config.encoder_width * len(names.continuous)
    shapes.extend([(len(names.continuous), config.encoder_width)] * 2)
    for out_width in config.trunk_widths:
        width = dense(width, out_width)
    width = dense(width + len(names.monotone), config.injection_width)
    for out_width in config.post_widths:
        width = dense(width, out_width)
    dense(width, 1)
    return shapes


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
    if not isinstance(meta, dict) or set(meta) != set(_META_KEYS):
        got = sorted(meta) if isinstance(meta, dict) else type(meta).__name__
        raise ModelIOError(f"model metadata top level: keys {got}, expected {list(_META_KEYS)}")
    if meta["format"] != FORMAT_VERSION:
        raise ModelIOError(f"model metadata format {meta['format']!r} does not match container version {version}")
    names = _from_json(meta["features"], dt.FeatureNames, "features")
    known = dt.feature_names(names.event_names)  # every feature a pair table with these events has
    unknown = [n for group in fields(known) for n in getattr(names, group.name) if n not in getattr(known, group.name)]
    if unknown:
        raise ModelIOError(f"model metadata features: unknown features {unknown}")
    try:
        vocabs = {name: dict(pairs) for name, pairs in _from_json(meta["vocabs"], _VOCABS, "vocabs").items()}
        config = _from_json(meta["config"], ArchConfig, "config")
        # the blobs must hold every value the metadata implies, so a forged
        # width cannot make DemandModel allocate more than the file holds
        n_values = sum(rows * cols for rows, cols in _parameter_shapes(names, vocabs, config))
        if 8 * n_values > len(body) - cur.pos:
            raise ModelIOError(
                f"model metadata implies {n_values} parameter values, more than the "
                f"{len(body) - cur.pos} bytes after it can hold"
            )
        model = DemandModel(names, vocabs, config, seed=_from_json(meta["seed"], int, "seed"))
        stats = _from_json(meta["stats"], StandardizationStats, "stats")
    except ConfigError as exc:
        raise ModelIOError(f"model metadata: {exc}") from None
    if set(stats.means) != {*names.continuous, *names.monotone}:
        raise ModelIOError("model metadata stats: means and stds must name the continuous and monotone features")
    model.stats = stats

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
