import json
import struct
import zlib

import numpy as np
import pytest

from elastinet.model import ArchConfig
from elastinet.scenario import run_scenario
from elastinet.synth import SyntheticWorld, generate
from elastinet.training import TrainConfig, prepare_model

SMALL_ARCH = ArchConfig(trunk_widths=(24, 12), injection_width=16, post_widths=(8,), encoder_width=4)


@pytest.fixture(scope="session")
def small_world():
    world = SyntheticWorld(n_items=24, n_months=16, seed=101, noise_sigma=0.05)
    tx, truths = generate(world)
    return world, tx, truths


@pytest.fixture(scope="session")
def small_run(small_world):
    return run_scenario(small_world[0], SMALL_ARCH, TrainConfig(epochs=6, seed=101))


@pytest.fixture(scope="session")
def small_split(small_run):
    return small_run.split


@pytest.fixture(scope="session")
def untrained_model(small_split):
    return prepare_model(small_split, SMALL_ARCH, seed=101)


@pytest.fixture(scope="session")
def trained_model(small_run):
    return small_run.model, small_run.train_report


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def _read_container(raw: bytes) -> dict:
    (version,) = struct.unpack_from("<I", raw, 4)
    (meta_len,) = struct.unpack_from("<Q", raw, 8)
    pos = 16 + meta_len
    meta = json.loads(raw[16:pos])
    (count,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    blobs = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", raw, pos)
        name = raw[pos + 4 : pos + 4 + name_len].decode()
        rows, cols, _ = struct.unpack_from("<III", raw, pos + 4 + name_len)
        pos += 16 + name_len
        blobs.append([name, np.frombuffer(raw, "<f8", rows * cols, pos).reshape(rows, cols).copy()])
        pos += rows * cols * 8
    return {"version": version, "meta": meta, "blobs": blobs}


def _write_container(container: dict) -> bytes:
    meta = json.dumps(container["meta"], sort_keys=True).encode()
    out = bytearray(b"MDNM" + struct.pack("<IQ", container["version"], len(meta)) + meta)
    out += struct.pack("<I", len(container["blobs"]))
    for name, values in container["blobs"]:
        payload = np.asarray(values, dtype="<f8").tobytes()
        out += struct.pack("<I", len(name.encode())) + name.encode()
        out += struct.pack("<III", *values.shape, zlib.crc32(payload)) + payload
    return bytes(out + struct.pack("<I", zlib.crc32(out)))


@pytest.fixture(scope="session")
def edit_model_file():
    """edit(src, dst, fn): copy a .mdnm file, letting fn change its parsed
    {"version", "meta", "blobs": [[name, array], ...]} in place first; every
    checksum is recomputed, so only the edit itself can make loading fail."""

    def edit(src, dst, fn):
        container = _read_container(src.read_bytes())
        fn(container)
        dst.write_bytes(_write_container(container))

    return edit
