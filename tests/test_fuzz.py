"""Seeded edits to every file the CLI reads: each command must exit 0, 2, 3 or 4.

A 6-item, 8-month world is built, split and trained once. Each case applies
one seeded edit to one file: the input transactions, the dataset's copy of
them, pairs.csv, manifest.json, the model container, truth.csv or a
``train --config`` file. It then runs one command that reads the file
through ``cli.main``. Hashes and checksums are re-sealed where the case
says so, so that the edit reaches the parsers instead of the integrity
checks. An exception that escapes ``main``, or an exit code outside
{0, 2, 3, 4}, fails the test and names the case seed.
"""

import hashlib
import json
import random
import shutil
import struct
import zlib

import pytest

from elastinet.cli import main

CASES = 1000
ALLOWED_EXITS = {0, 2, 3, 4}

BAD_BYTES = [b"\xff", b"\xfe\xff", b"\xc3", b"\xed\xa0\x80", b"\x00", b"\x00\x00"]
TOKENS = [b'"', b",", b"\n", b"\r", b"|", b" ", b"-", b"e", b"."]
CELLS = [
    "", " ", "0", "-1", "1.5", "nan", "inf", "-inf", "1e309", "9" * 25, "true", " FALSE ", "maybe",
    "202313", "202300", "99", "x", "a|b", '"q"', "١٢", " ", "\x00",
]
# a valid ``train --config`` object; cases edit it, and ``--epochs 1`` wins over its epochs
CONFIG = {"epochs": 3, "batch_size": 16, "learning_rate": 0.01, "l2_decay": 1e-4, "seed": 11}
VALUES = [None, True, False, -1, 0, 1, 1.5, 10**30, "", "x", "pair", [], [1], ["a"], {}, {"train": 1}]


def _mutate(data: bytes, rng: random.Random) -> bytes:
    """One byte-, cell- or line-level edit of ``data``."""
    op = rng.randrange(9)
    at = rng.randrange(len(data) + 1)
    lines = data.splitlines(keepends=True)
    row = rng.randrange(len(lines)) if lines else 0
    if op == 0:  # a byte that is not UTF-8, or a NUL
        return data[:at] + rng.choice(BAD_BYTES) + data[at:]
    if op == 1:  # truncation, often mid-row
        return data[:at]
    if op == 2 and lines:  # one cell replaced
        cells = lines[row].rstrip(b"\r\n").split(b",")
        cells[rng.randrange(len(cells))] = rng.choice(CELLS).encode()
        return b"".join(lines[:row]) + b",".join(cells) + b"\n" + b"".join(lines[row + 1 :])
    if op == 3 and lines:  # a line deleted
        return b"".join(lines[:row] + lines[row + 1 :])
    if op == 4 and lines:  # a line repeated
        return b"".join(lines[: row + 1] + lines[row:])
    if op == 5 and lines:  # two lines swapped
        other = rng.randrange(len(lines))
        lines[row], lines[other] = lines[other], lines[row]
        return b"".join(lines)
    if op == 6 and data:  # one byte replaced by any byte
        at = min(at, len(data) - 1)
        return data[:at] + bytes([rng.randrange(256)]) + data[at + 1 :]
    if op == 7:  # a short span deleted
        return data[:at] + data[at + rng.randrange(1, 20) :]
    return data[:at] + rng.choice(TOKENS) + data[at:]


def _edit_json(data: bytes, rng: random.Random) -> bytes:
    """A key of a JSON object deleted, added or retyped, at any depth; or a
    text-level edit."""
    try:
        doc = json.loads(data)
    except ValueError:
        doc = None
    if not isinstance(doc, dict) or rng.random() < 0.3:
        return _mutate(data, rng)
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node))) if isinstance(node, list) else []
        if not keys:
            break
        key = rng.choice(keys)
        if isinstance(node[key], (dict, list)) and node[key] and rng.random() < 0.5:
            node = node[key]
            continue
        op = rng.randrange(3)
        if op == 0:
            del node[key]
        elif op == 1 and isinstance(node, dict):
            node["extra"] = rng.choice(VALUES)
        else:
            node[key] = rng.choice(VALUES)
        break
    return json.dumps(doc).encode()


def _seal(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def _edit_model(raw: bytes, rng: random.Random) -> bytes:
    """An edit of the container's metadata or of one blob header, with the
    file checksum re-sealed; or any edit, unsealed."""
    (meta_len,) = struct.unpack_from("<Q", raw, 8)
    op = rng.randrange(4)
    if op == 0:
        meta = _edit_json(raw[16 : 16 + meta_len], rng)
        return _seal(raw[:8] + struct.pack("<Q", len(meta)) + meta + raw[16 + meta_len : -4])
    if op in (1, 2):
        pos, headers = 16 + meta_len + 4, []
        for _ in range(struct.unpack_from("<I", raw, pos - 4)[0]):
            (n,) = struct.unpack_from("<I", raw, pos)
            rows, cols = struct.unpack_from("<II", raw, pos + 4 + n)
            headers.append((pos, n))
            pos += 4 + n + 12 + rows * cols * 8
        pos, n = rng.choice(headers)
        body = bytearray(raw[:-4])
        field = rng.choice(["name_len", "name", "rows", "cols", "crc"])
        if field == "name":
            body[pos + 4 + rng.randrange(n)] = rng.choice([0xFF, 0x00, 0x80, ord("x")])
        else:
            at = pos + {"name_len": 0, "rows": 4 + n, "cols": 8 + n, "crc": 12 + n}[field]
            old = struct.unpack_from("<I", body, at)[0]
            struct.pack_into("<I", body, at, rng.choice([0, 1, old + 1, max(old - 1, 0), 2**31, 2**32 - 1]))
        return _seal(bytes(body))
    return _mutate(raw, rng)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data, ds, run = root / "data", root / "ds", root / "run"
    assert main(["synth", "--items", "6", "--months", "8", "--seed", "11", "--out", str(data)]) == 0
    assert main(["build", "--transactions", str(data / "transactions.csv"), "--seed", "11", "--out", str(ds)]) == 0
    assert main(["train", "--dataset", str(ds), "--epochs", "1", "--seed", "11", "--out", str(run)]) == 0
    return root


def _case(world, work, seed):
    """Apply case ``seed``'s edit under ``work``; returns its command line."""
    rng = random.Random(seed)
    data, ds, run = work / "data", work / "ds", work / "run"
    for name in ("data", "ds", "run"):
        shutil.rmtree(work / name, ignore_errors=True)
        shutil.copytree(world / name, work / name)
    tx, model, truth = str(data / "transactions.csv"), str(run / "model.mdnm"), str(data / "truth.csv")
    loads = [["train", "--dataset", str(ds), "--epochs", "1"], ["evaluate", "--dataset", str(ds), "--model", model]]
    loads.append(["baseline", "--dataset", str(ds)])
    elasticity = ["elasticity", "--transactions", tx, "--model", model, "--truth", truth]
    config = work / "config.json"
    config.write_text(json.dumps(CONFIG))
    target = rng.choice(["input", "copy", "pairs", "manifest", "model", "truth", "config"])
    path, commands = {
        "input": (data / "transactions.csv", [["build", "--transactions", tx], elasticity]),
        "copy": (ds / "transactions.csv", loads),
        "pairs": (ds / "pairs.csv", loads),
        "manifest": (ds / "manifest.json", loads),
        "model": (run / "model.mdnm", [loads[1], elasticity]),
        "truth": (data / "truth.csv", [elasticity]),
        "config": (config, [["train", "--dataset", str(ds), "--epochs", "1", "--config", str(config)]]),
    }[target]
    edit = {"manifest": _edit_json, "model": _edit_model, "config": _edit_json}.get(target, _mutate)
    path.write_bytes(edit(path.read_bytes(), rng))
    if target == "copy" and rng.random() < 0.5:
        manifest = json.loads((ds / "manifest.json").read_text())
        manifest["transactions_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        (ds / "manifest.json").write_text(json.dumps(manifest))
    return rng.choice(commands) + ["--out", str(work / "out")]


@pytest.mark.filterwarnings("ignore:overflow encountered")  # a huge edited learning rate, which exits 4
def test_edited_inputs_exit_with_a_documented_code(world, tmp_path, capsys):
    failures = []
    for seed in range(CASES):
        argv = _case(world, tmp_path, seed)
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - any escape is the finding
            failures.append(f"case seed {seed}: `{argv[0]}` raised {type(exc).__name__}: {exc}")
        else:
            if code not in ALLOWED_EXITS:
                failures.append(f"case seed {seed}: `{argv[0]}` exited {code}")
        shutil.rmtree(tmp_path / "out", ignore_errors=True)
        capsys.readouterr()
    assert not failures, f"{len(failures)} of {CASES} cases failed:\n" + "\n".join(failures[:20])
