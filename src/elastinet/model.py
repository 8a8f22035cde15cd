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
from dataclasses import asdict, astuple, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import data as dt
from .errors import ConfigError, DomainError, ModelIOError, NumericError
from .monodense import DEFAULT_SPLIT, ActivationSplit, DenseLayer, MonoDenseLayer, glorot_uniform
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
    split: tuple[float, float, float] = astuple(DEFAULT_SPLIT)

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
    """Pair table -> raw model input matrices: vocab lookup and feature columns.

    Categorical features are factorized per transaction row, not per pair:
    a string level is read once for each distinct lag row the table
    references, and each distinct level is mapped to its index once.
    """

    vocabs: dict  # feature name -> {level: index >= 1}; 0 is the unknown row

    def cat_index(self, name: str, level: str) -> int:
        return self.vocabs[name].get(level, UNKNOWN_INDEX)

    def cat_matrix(self, table: dt.PairTable, cat_names) -> np.ndarray:
        out = np.empty((len(table), len(cat_names)), dtype=np.int64)
        for j, (name, (levels, codes)) in enumerate(zip(cat_names, dt.category_codes(table, cat_names))):
            out[:, j] = np.array([self.cat_index(name, lv) for lv in levels.tolist()], dtype=np.int64)[codes]
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
    signal.

    Each feature's levels are those of ``data.category_codes``, factorized
    over the transaction rows the pairs reference, in string order ("1",
    "10", ..., "2" for months); the holdout draws follow that order.
    """
    rng = np.random.default_rng(seed)
    vocabs: dict[str, dict[str, int]] = {}
    for name, (levels, _) in zip(cat_names, dt.category_codes(table, cat_names)):
        levels = levels.tolist()
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


def _wiring(names: dt.FeatureNames, vocabs: dict, config: ArchConfig):
    """The shape of each embedding table, in ``names.categorical`` order, and
    the (in, out) widths of each dense layer after the encoders: the trunk,
    the injection (which also reads the price features), the post stack and
    the head. Worked out without allocating any parameter."""
    embeddings = []
    for name in names.categorical:
        cardinality = len(vocabs.get(name, ())) + 1  # plus the unknown row
        embeddings.append((cardinality, default_embedding_dim(cardinality)))
    outs = (*config.trunk_widths, config.injection_width, *config.post_widths, 1)
    ins = [sum(cols for _, cols in embeddings) + config.encoder_width * len(names.continuous), *outs[:-1]]
    ins[len(config.trunk_widths)] += len(names.monotone)
    return embeddings, list(zip(ins, outs))


class DemandModel:
    """Demand network with its feature plumbing, trainable and ready to score.

    ``names`` is the dataset's feature list, ``vocabs`` maps each
    categorical feature's levels to 1..n, and ``stats`` standardizes
    exactly the continuous and price features; embedding sizes, layer
    widths and the injection indicator follow from them (see ``_wiring``).
    """

    def __init__(
        self, names: dt.FeatureNames, vocabs: dict, stats: StandardizationStats, config: ArchConfig, seed: int = 0
    ):
        unknown = sorted(set(names.monotone) - set(dt.MONOTONE_DIRECTIONS))
        if unknown:
            raise ConfigError(f"monotone features {unknown} have no direction in {dt.MONOTONE_DIRECTIONS}")
        if set(vocabs) != set(names.categorical):
            raise ConfigError(f"vocabularies {sorted(vocabs)} do not match categorical features {names.categorical}")
        for name, vocab in vocabs.items():
            if sorted(vocab.values()) != list(range(1, len(vocab) + 1)):
                raise ConfigError(f"vocabulary {name!r} must map its {len(vocab)} levels to 1..{len(vocab)}")
        scaled = {*names.continuous, *names.monotone}
        if set(stats.means) != scaled:
            raise ConfigError(f"standardization stats and features differ in {sorted(set(stats.means) ^ scaled)}")
        if seed < 0:
            raise ConfigError(f"seed must be non-negative, got {seed}")
        if not (names.categorical or names.continuous):
            raise ConfigError("schema has no categorical or continuous features")
        self.names = names
        self.config = config
        self.seed = seed
        self.encoder = FeatureEncoder(vocabs)
        self.stats = stats
        rng = np.random.default_rng(seed)
        split = config.activation_split()
        act = config.activation
        embeddings, dense = _wiring(names, vocabs, config)

        self.embeddings: dict[str, Parameter] = {
            name: Parameter(rng.uniform(-0.05, 0.05, size=shape), name=f"emb.{name}")
            for name, shape in zip(names.categorical, embeddings)
        }
        self.encoders = ColumnDenseLayer(len(names.continuous), config.encoder_width, act, rng=rng, name="enc")

        n_trunk = len(config.trunk_widths)
        (inj_in, inj_out), *post, (head_in, _) = dense[n_trunk:]
        self.trunk = [DenseLayer(*widths, act, rng=rng, name=f"trunk.{i}") for i, widths in enumerate(dense[:n_trunk])]
        mono_dirs = [dt.MONOTONE_DIRECTIONS[name] for name in names.monotone]
        inj_indicator = np.concatenate([np.zeros(inj_in - len(mono_dirs)), np.array(mono_dirs, dtype=np.float64)])
        self.injection = MonoDenseLayer(inj_in, inj_out, inj_indicator, split, act, rng=rng, name="inj")
        self.post = [
            MonoDenseLayer(w_in, w_out, np.ones(w_in), split, act, rng=rng, name=f"post.{i}")
            for i, (w_in, w_out) in enumerate(post)
        ]
        # a monotone linear layer: non-negative weights, no activation
        self.head = MonoDenseLayer(head_in, 1, np.ones(head_in), split, None, rng=rng, name="head")
        self.layers: list[DenseLayer] = [self.encoders, *self.trunk, self.injection, *self.post, self.head]

    # -- parameters --------------------------------------------------------

    def parameters(self) -> list[Parameter]:
        return [*self.embeddings.values(), *(p for layer in self.layers for p in layer.parameters())]

    def decayed_parameters(self) -> list[Parameter]:
        """Dense and monodense raw weights; embeddings and biases excluded."""
        return [layer.weights for layer in self.layers]

    def monodense_layers(self) -> list[MonoDenseLayer]:
        return [layer for layer in self.layers if isinstance(layer, MonoDenseLayer)]

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

    def encode(self, table: dt.PairTable, lead_price=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Standardized (cat, cont, mono) inputs of ``forward`` for a pair table.

        ``lead_price``, one positive finite price per row, replaces the
        table's lead prices, and so the price change it reads.
        """
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
    Path(path).parent.mkdir(parents=True, exist_ok=True)
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
    meta = dt.read_json_object(cur.take(cur.u64()), "model metadata", ModelIOError)
    if set(meta) != set(_META_KEYS):
        raise ModelIOError(f"model metadata top level: keys {sorted(meta)}, expected {list(_META_KEYS)}")
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
        embeddings, dense = _wiring(names, vocabs, config)
        n_values = (
            sum(rows * cols for rows, cols in embeddings)
            + 2 * len(names.continuous) * config.encoder_width
            + sum((w_in + 1) * w_out for w_in, w_out in dense)
        )
        if 8 * n_values > len(body) - cur.pos:
            raise ModelIOError(
                f"model metadata implies {n_values} parameter values, more than the "
                f"{len(body) - cur.pos} bytes after it can hold"
            )
        stats = _from_json(meta["stats"], StandardizationStats, "stats")
        model = DemandModel(names, vocabs, stats, config, seed=_from_json(meta["seed"], int, "seed"))
    except ConfigError as exc:
        raise ModelIOError(f"model metadata: {exc}") from None

    by_name = {p.name: p for p in model.parameters()}
    n_blobs = cur.u32()
    if n_blobs != len(by_name):
        raise ModelIOError(f"parameter count mismatch: file has {n_blobs}, model expects {len(by_name)}")
    for _ in range(n_blobs):
        name = cur.take(cur.u32()).decode("utf-8", "backslashreplace")  # a name that is not UTF-8 matches no parameter
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
