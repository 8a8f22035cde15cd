import csv
import dataclasses
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from elastinet import synth
from elastinet.cli import main
from elastinet.data import TRANSACTIONS_COLUMNS
from elastinet.errors import ElastinetError
from elastinet.model import save_model
from elastinet.scenario import run_scenario
from elastinet.training import TrainConfig


def _cli_pipeline(root, seed, epochs, *synth_args):
    """synth, build and train at ``seed`` into the data, ds and run directories under ``root``."""
    data, ds, run = root / "data", root / "ds", root / "run"
    assert main(["synth", *synth_args, "--seed", str(seed), "--out", str(data)]) == 0
    assert main(["build", "--transactions", str(data / "transactions.csv"), "--seed", str(seed), "--out", str(ds)]) == 0
    assert main(["train", "--dataset", str(ds), "--epochs", str(epochs), "--seed", str(seed), "--out", str(run)]) == 0
    return root


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    """One small end-to-end pipeline run shared by the read-only CLI tests."""
    return _cli_pipeline(tmp_path_factory.mktemp("pipeline"), 5, 2, "--items", "12", "--months", "16")


@pytest.fixture(scope="module")
def scenario_runs(pipeline_dirs, tmp_path_factory):
    """(CLI pipeline directory, run_scenario of the same world and seeds) for
    pipeline_dirs's world and a kinked one."""
    kinked_args = ("--items", "30", "--months", "16", "--world", "kinked")
    kinked = _cli_pipeline(tmp_path_factory.mktemp("kinked"), 24, 3, *kinked_args)
    constant_world = synth.SyntheticWorld(n_items=12, n_months=16, seed=5)
    kinked_world = synth.SyntheticWorld(n_items=30, n_months=16, seed=24, kinked=True)
    return [
        (pipeline_dirs, run_scenario(constant_world, config=TrainConfig(epochs=2, seed=5))),
        (kinked, run_scenario(kinked_world, config=TrainConfig(epochs=3, seed=24))),
    ]


class TestSynth:
    def test_writes_expected_artifacts(self, pipeline_dirs):
        data = pipeline_dirs / "data"
        assert (data / "transactions.csv").exists()
        assert (data / "truth.csv").exists()
        assert json.loads((data / "synth_config.json").read_text())["seed"] == 5

    def test_missing_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--items", "3"])
        assert exc.value.code == 2

    def test_same_seed_identical_files(self, tmp_path):
        for d in ("a", "b"):
            assert main(["synth", "--items", "5", "--months", "8", "--seed", "9", "--out", str(tmp_path / d)]) == 0
        for name in ("transactions.csv", "truth.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_bad_config_value_exits_2(self, tmp_path):
        assert main(["synth", "--items", "0", "--out", str(tmp_path / "x")]) == 2


class TestBuild:
    def test_writes_dataset(self, pipeline_dirs):
        ds = pipeline_dirs / "ds"
        assert (ds / "pairs.csv").exists()
        assert (ds / "transactions.csv").read_bytes() == (pipeline_dirs / "data" / "transactions.csv").read_bytes()
        manifest = json.loads((ds / "manifest.json").read_text())
        assert manifest["row_counts"]["train"] > 0

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["build", "--transactions", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]) == 2


class TestTrain:
    def test_writes_model_report_losses_config(self, pipeline_dirs):
        run = pipeline_dirs / "run"
        assert (run / "model.mdnm").exists()
        report = json.loads((run / "train_report.json").read_text())
        assert len(report["epochs"]) == 2
        assert "wall_time_seconds" not in json.dumps(report)
        lines = (run / "losses.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 3
        config = json.loads((run / "train_config.json").read_text())
        assert config["epochs"] == 2 and config["batch_size"] == 128

    def test_config_file_merged_under_flags(self, pipeline_dirs, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "learning_rate": 0.005}))
        out = tmp_path / "run"
        rc = main(
            [
                "train",
                "--dataset",
                str(pipeline_dirs / "ds"),
                "--config",
                str(cfg),
                "--epochs",
                "2",  # explicit flag wins over the file
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        resolved = json.loads((out / "train_config.json").read_text())
        assert resolved["epochs"] == 2
        assert resolved["learning_rate"] == 0.005

    def test_unknown_config_key_exits_2(self, pipeline_dirs, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lr": 0.1}))
        rc = main(
            ["train", "--dataset", str(pipeline_dirs / "ds"), "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{bad", "is not valid JSON"),
            ("5", "must hold a JSON object, got int"),
            ('{"epochs": "2"}', "config key 'epochs' must be int, got '2'"),
            ('{"learning_rate": true}', "config key 'learning_rate' must be float, got True"),
        ],
    )
    def test_malformed_config_file_exits_2(self, pipeline_dirs, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc = main(
            ["train", "--dataset", str(pipeline_dirs / "ds"), "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_dataset_without_validation_pairs_exits_2(self, pipeline_dirs, tmp_path, capsys):
        # every validation pair relabelled train, with row_counts to match: the directory loads
        ds = tmp_path / "ds"
        shutil.copytree(pipeline_dirs / "ds", ds)
        _edit_lines("pairs.csv", lambda ls: ["train\n" if line == "validation\n" else line for line in ls])(ds)

        def no_validation(manifest):
            counts = manifest["row_counts"]
            counts["train"], counts["validation"] = counts["train"] + counts["validation"], 0

        _edit_manifest(no_validation)(ds)
        model = pipeline_dirs / "run" / "model.mdnm"
        assert main(["evaluate", "--dataset", str(ds), "--model", str(model), "--out", str(tmp_path / "e")]) == 0
        capsys.readouterr()
        assert main(["train", "--dataset", str(ds), "--epochs", "1", "--out", str(tmp_path / "run")]) == 2
        assert "no validation pairs" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


    def test_dataset_with_every_pair_out_of_time_exits_2(self, tmp_path, capsys):
        # a four-month world leads every pair into the last three months
        data, ds = tmp_path / "data", tmp_path / "ds"
        assert main(["synth", "--items", "3", "--months", "4", "--out", str(data)]) == 0
        assert main(["build", "--transactions", str(data / "transactions.csv"), "--out", str(ds)]) == 0
        assert "pairs: train=0 validation=0 out_of_time=18" in capsys.readouterr().out
        assert main(["train", "--dataset", str(ds), "--epochs", "1", "--out", str(tmp_path / "run")]) == 2
        assert "error: cannot fit standardization stats on an empty split" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestEvaluate:
    def test_metrics_json(self, scenario_runs, tmp_path):
        for k, (root, run) in enumerate(scenario_runs):
            out = tmp_path / f"eval{k}"
            argv = ["evaluate", "--dataset", str(root / "ds"), "--model", str(root / "run" / "model.mdnm")]
            assert main(argv + ["--out", str(out)]) == 0
            metrics = json.loads((out / "metrics.json").read_text())
            assert "out_of_time" in metrics and metrics["out_of_time"]["wmape_pct"] >= 0
            # run_scenario is the CLI chain in one process: the same model, the same metrics
            save_model(run.model, out / "scenario.mdnm")
            assert (out / "scenario.mdnm").read_bytes() == (root / "run" / "model.mdnm").read_bytes()
            assert run.metrics == metrics

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_predictions_exit_4(self, pipeline_dirs, tmp_path, edit_model_file, capsys):
        # a finite but huge bias loads, then overflows every prediction to inf
        def edit(container):
            dict(container["blobs"])["head.b"][0, 0] = 1e308

        model = tmp_path / "huge.mdnm"
        edit_model_file(pipeline_dirs / "run" / "model.mdnm", model, edit)
        out = tmp_path / "eval"
        rc = main(["evaluate", "--dataset", str(pipeline_dirs / "ds"), "--model", str(model), "--out", str(out)])
        assert rc == 4
        assert "finite" in capsys.readouterr().err
        assert not (out / "metrics.json").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_failed_evaluate_leaves_no_out_directory(self, pipeline_dirs, tmp_path, edit_model_file, capsys):
        # finite trunk weights save and load, but overflow every prediction
        def edit(container):
            blobs = dict(container["blobs"])
            blobs["trunk.0.w"][...] = 1e308
            blobs["trunk.1.w"][...] = 1e308

        model = tmp_path / "huge.mdnm"
        edit_model_file(pipeline_dirs / "run" / "model.mdnm", model, edit)
        out = tmp_path / "eval"
        rc = main(["evaluate", "--dataset", str(pipeline_dirs / "ds"), "--model", str(model), "--out", str(out)])
        assert rc == 4
        assert "wmape needs finite actuals and predictions" in capsys.readouterr().err
        assert not out.exists()

    def test_feature_names_mismatch_exits_3(self, pipeline_dirs, tmp_path, capsys):
        # a Jan-Jun world has no seasonal events, so it lacks the model's event features
        other = tmp_path / "other"
        assert main(["synth", "--items", "6", "--months", "6", "--seed", "6", "--out", str(other / "data")]) == 0
        assert main(["build", "--transactions", str(other / "data" / "transactions.csv"), "--out", str(other / "ds")]) == 0
        import elastinet.data as dt
        import elastinet.model as mdl

        model = mdl.load_model(pipeline_dirs / "run" / "model.mdnm")
        ds = dt.load_dataset(other / "ds")
        only_model = sorted(set(model.names.continuous) - set(ds.names.continuous))
        assert only_model and set(ds.names.continuous) < set(model.names.continuous)
        capsys.readouterr()
        rc = main(
            [
                "evaluate",
                "--dataset",
                str(other / "ds"),
                "--model",
                str(pipeline_dirs / "run" / "model.mdnm"),
                "--out",
                str(tmp_path / "e"),
            ]
        )
        assert rc == 3
        assert f"only the model has {only_model}, only the dataset has []" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_reordered_monotone_features_exit_3_naming_the_group(self, pipeline_dirs, tmp_path, edit_model_file, capsys):
        # the same feature names as the dataset, but the monotone pair in the other order
        model = tmp_path / "reversed.mdnm"
        edit_model_file(pipeline_dirs / "run" / "model.mdnm", model, lambda c: c["meta"]["features"]["monotone"].reverse())
        argv = ["evaluate", "--dataset", str(pipeline_dirs / "ds"), "--model", str(model), "--out", str(tmp_path / "e")]
        assert main(argv) == 3
        assert (
            "model and dataset monotone features differ: the model orders them "
            "['price_change_pct', 'lead_price'], the dataset ['lead_price', 'price_change_pct']"
        ) in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_edited_manifest_event_names_exit_3(self, pipeline_dirs, tmp_path, capsys):
        ds = tmp_path / "ds"
        shutil.copytree(pipeline_dirs / "ds", ds)
        manifest = json.loads((ds / "manifest.json").read_text())
        manifest["event_names"] = manifest["event_names"][1:]
        (ds / "manifest.json").write_text(json.dumps(manifest))
        rc = main(["train", "--dataset", str(ds), "--epochs", "1", "--out", str(tmp_path / "run")])
        assert rc == 3
        assert "manifest event_names is" in capsys.readouterr().err

    def test_manifest_missing_key_exits_3(self, pipeline_dirs, tmp_path, capsys):
        ds = tmp_path / "ds"
        shutil.copytree(pipeline_dirs / "ds", ds)
        manifest = json.loads((ds / "manifest.json").read_text())
        del manifest["event_names"]
        (ds / "manifest.json").write_text(json.dumps(manifest))
        rc = main(["train", "--dataset", str(ds), "--epochs", "1", "--out", str(tmp_path / "run")])
        assert rc == 3
        assert "manifest event_names is missing" in capsys.readouterr().err

    @pytest.mark.parametrize("column, value", [("split", "trian")])
    def test_malformed_pairs_csv_exits_2(self, pipeline_dirs, tmp_path, capsys, column, value):
        ds = tmp_path / "ds"
        shutil.copytree(pipeline_dirs / "ds", ds)
        with open(ds / "pairs.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[2][rows[0].index(column)] = value
        with open(ds / "pairs.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        model = pipeline_dirs / "run" / "model.mdnm"
        rc = main(["evaluate", "--dataset", str(ds), "--model", str(model), "--out", str(tmp_path / "e")])
        assert rc == 2
        assert "line 3: " in capsys.readouterr().err

    def test_corrupt_model_exits_3(self, pipeline_dirs, tmp_path):
        bad = tmp_path / "bad.mdnm"
        bad.write_bytes(b"XXXX" + bytes(100))
        rc = main(
            ["evaluate", "--dataset", str(pipeline_dirs / "ds"), "--model", str(bad), "--out", str(tmp_path / "o")]
        )
        assert rc == 3

    def test_previous_container_version_exits_3(self, pipeline_dirs, tmp_path, edit_model_file, capsys):
        model = tmp_path / "v1.mdnm"
        edit_model_file(pipeline_dirs / "run" / "model.mdnm", model, lambda c: c.update(version=1))
        dataset = pipeline_dirs / "ds"
        rc = main(["evaluate", "--dataset", str(dataset), "--model", str(model), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "unsupported container version 1" in capsys.readouterr().err


def _edit_lines(name, edit, rehash=False):
    """A dataset edit that rewrites the lines of file ``name`` with ``edit``;
    with ``rehash``, the manifest then records the edited file's SHA-256."""

    def apply(ds):
        path = ds / name
        path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
        if rehash:
            _edit_manifest(lambda m: m.update(transactions_sha256=hashlib.sha256(path.read_bytes()).hexdigest()))(ds)

    return apply


def _edit_manifest(edit):
    def apply(ds):
        manifest = json.loads((ds / "manifest.json").read_text())
        edit(manifest)
        (ds / "manifest.json").write_text(json.dumps(manifest))

    return apply


def _swap_train_and_out_of_time(lines):
    """``lines`` with the first train pair and the first out-of-time pair
    trading labels, so every row count stays the same."""
    i, j = lines.index("train\n"), lines.index("out_of_time\n")
    lines = list(lines)
    lines[i], lines[j] = lines[j], lines[i]
    return lines


def _set_cell(column, value, line_no):
    def edit(lines):
        header = lines[0].rstrip("\n").split(",")
        row = lines[line_no - 1].rstrip("\n").split(",")
        row[header.index(column)] = value
        return lines[: line_no - 1] + [",".join(row) + "\n"] + lines[line_no:]

    return edit


def _bad_copy_cell(column, value):
    """Set ``column`` on line 5 of the transactions copy and record its new hash."""
    return _edit_lines("transactions.csv", _set_cell(column, value, 5), rehash=True)


def _more_row_counts(manifest):
    manifest["row_counts"]["train"] += 1


@pytest.mark.parametrize(
    "edit, code, message",
    [
        (_edit_lines("transactions.csv", lambda ls: ls[:1] + [ls[1].replace(",", ", ", 1)] + ls[2:]), 3, "SHA-256"),
        (_edit_lines("transactions.csv", lambda ls: ls[:-1]), 3, "SHA-256"),
        (_bad_copy_cell("substitute_available", "maybe"), 2, "line 5: substitute_available must be true/false"),
        (_bad_copy_cell("price", "nan"), 2, "line 5: price must be positive and finite, got nan"),
        (_bad_copy_cell("units_sold", "1.5"), 2, "line 5: bad units_sold '1.5'"),
        (_bad_copy_cell("units_sold", "9" * 20), 2, f"line 5: bad units_sold '{'9' * 20}'"),
        (_edit_lines("pairs.csv", lambda ls: ls[:2] + ls[3:]), 3, "pairs.csv has"),
        (_edit_lines("pairs.csv", lambda ls: ls[:3] + ls[2:]), 3, "pairs.csv has"),
        (_edit_lines("pairs.csv", lambda ls: ls + ["train\n"]), 3, "pairs.csv has"),
        (_edit_lines("pairs.csv", _set_cell("split", "trian", 3)), 2, "line 3: bad split 'trian'"),
        (_edit_lines("pairs.csv", _swap_train_and_out_of_time), 3, "crosses the boundary month"),
        (_edit_manifest(_more_row_counts), 3, "manifest row_counts"),
        (_edit_manifest(lambda m: m.update(boundary_month=202301)), 3, "manifest boundary_month"),
        (_edit_manifest(lambda m: m.pop("transactions_sha256")), 3, "the manifest records None"),
        (lambda ds: (ds / "transactions.csv").unlink(), 2, "transactions.csv"),
    ],
    ids=[
        "copy-edited",
        "copy-truncated",
        "copy-maybe-rehashed",
        "copy-nan-price-rehashed",
        "copy-fraction-rehashed",
        "copy-overflow-rehashed",
        "key-missing",
        "key-duplicated",
        "key-extra",
        "label-unknown",
        "label-across-boundary",
        "row-counts-edited",
        "boundary-edited",
        "hash-missing",
        "copy-missing",
    ],
)
def test_edited_dataset_directory_exits_with_its_code(pipeline_dirs, tmp_path, capsys, edit, code, message):
    ds = tmp_path / "ds"
    shutil.copytree(pipeline_dirs / "ds", ds)
    edit(ds)
    model = pipeline_dirs / "run" / "model.mdnm"
    assert main(["evaluate", "--dataset", str(ds), "--model", str(model), "--out", str(tmp_path / "e")]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "e").exists()


def _shift_boundary(manifest):
    manifest["boundary_month"] -= 1 if manifest["boundary_month"] % 100 > 1 else 89  # the month before


MANIFEST_KEYS = ["boundary_month", "event_names", "row_counts", "seed", "split_mode", "transactions_sha256"]


@pytest.mark.parametrize(
    "edit, key",
    [
        (_shift_boundary, "boundary_month"),
        (lambda m: m.update(event_names=m["event_names"][1:]), "event_names"),
        (_more_row_counts, "row_counts"),
        (lambda m: m.update(schema_hash="0" * 64), "schema_hash"),  # as a directory built before it was dropped
        (lambda m: m.update(transactions_sha256="0" * 64), "transactions_sha256"),
        (lambda m: m.update(seed=-1), "seed"),
        (lambda m: m.update(seed="7"), "seed"),
        (lambda m: m.update(seed=True), "seed"),
        (lambda m: m.update(seed=7.0), "seed"),
        (lambda m: m.update(split_mode="bogus"), "split_mode"),
        (lambda m: m.update(boundary_month=float(m["boundary_month"])), "boundary_month"),
        (lambda m: m["row_counts"].update(extra=0), "row_counts"),
        (lambda m: m.update(carry_forward_policy={}), "carry_forward_policy"),
        (lambda m: m.update(feature_list={}), "feature_list"),
        *((lambda m, key=key: m.pop(key), key) for key in MANIFEST_KEYS),
    ],
    ids=[
        "boundary-changed",
        "events-changed",
        "row-counts-changed",
        "schema-hash-changed",
        "sha-changed",
        "seed-negative",
        "seed-string",
        "seed-bool",
        "seed-float",
        "split-mode-bogus",
        "boundary-float",
        "row-counts-extra",
        "key-added",
        "feature-list-added",
        *(f"{key}-deleted" for key in MANIFEST_KEYS),
    ],
)
def test_every_manifest_key_is_checked(pipeline_dirs, tmp_path, capsys, edit, key):
    ds = tmp_path / "ds"
    shutil.copytree(pipeline_dirs / "ds", ds)
    assert sorted(json.loads((ds / "manifest.json").read_text())) == MANIFEST_KEYS
    _edit_manifest(edit)(ds)
    assert main(["baseline", "--dataset", str(ds), "--out", str(tmp_path / "b")]) == 3
    assert key in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


# each CSV file kind, and a command that reads it
CSV_FILE_CASES = {
    "input": ("data/transactions.csv", ["build", "--transactions", "{data}/transactions.csv"]),
    "copy": ("ds/transactions.csv", ["baseline", "--dataset", "{ds}"]),
    "pairs": ("ds/pairs.csv", ["evaluate", "--dataset", "{ds}", "--model", "{run}/model.mdnm"]),
    "truth": (
        "data/truth.csv",
        ["elasticity", "--transactions", "{data}/transactions.csv", "--model", "{run}/model.mdnm", "--truth", "{data}/truth.csv"],
    ),
}


@pytest.mark.parametrize("kind", CSV_FILE_CASES)
def test_non_utf8_byte_exits_2_naming_its_line(pipeline_dirs, tmp_path, capsys, kind):
    root = tmp_path / "p"
    shutil.copytree(pipeline_dirs, root)
    name, argv = CSV_FILE_CASES[kind]
    path = root / name
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1]) + b"\xff" + lines[-1][1:])
    if kind == "copy":
        _edit_manifest(lambda m: m.update(transactions_sha256=hashlib.sha256(path.read_bytes()).hexdigest()))(root / "ds")
    argv = [arg.format(data=root / "data", ds=root / "ds", run=root / "run") for arg in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert f"error: {path.name} line {len(lines)}: byte 0xff is not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("kind", CSV_FILE_CASES)
def test_nul_byte_exits_2_naming_its_line(pipeline_dirs, tmp_path, capsys, kind):
    # numpy's str arrays drop trailing NULs, so "item_0000\0" would read as "item_0000"
    # and "out_of_time\0" as "out_of_time"
    root = tmp_path / "p"
    shutil.copytree(pipeline_dirs, root)
    name, argv = CSV_FILE_CASES[kind]
    path = root / name
    lines = path.read_bytes().splitlines(keepends=True)
    end = len(lines[-1].split(b",")[0].rstrip(b"\r\n"))  # the end of the first cell
    path.write_bytes(b"".join(lines[:-1]) + lines[-1][:end] + b"\0" + lines[-1][end:])
    if kind == "copy":
        _edit_manifest(lambda m: m.update(transactions_sha256=hashlib.sha256(path.read_bytes()).hexdigest()))(root / "ds")
    argv = [arg.format(data=root / "data", ds=root / "ds", run=root / "run") for arg in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert f"error: {path.name} line {len(lines)}: NUL byte" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, cell", [("pairs", "trian"), ("truth", "abc")])
def test_bad_cell_error_names_its_file(pipeline_dirs, tmp_path, capsys, kind, cell):
    root = tmp_path / "p"
    shutil.copytree(pipeline_dirs, root)
    name, argv = CSV_FILE_CASES[kind]
    path = root / name
    lines = path.read_text().splitlines(keepends=True)
    column = lines[0].rstrip("\n").split(",")[-1]  # the last column: split or base_price
    lines[2] = ",".join(lines[2].rstrip("\n").split(",")[:-1] + [cell]) + "\n"
    path.write_text("".join(lines))
    argv = [arg.format(data=root / "data", ds=root / "ds", run=root / "run") for arg in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert f"error: {path.name} line 3: bad {column} '{cell}'" in capsys.readouterr().err


def test_non_utf8_blob_name_exits_3(pipeline_dirs, tmp_path, capsys):
    raw = bytearray((pipeline_dirs / "run" / "model.mdnm").read_bytes())
    (meta_len,) = struct.unpack_from("<Q", raw, 8)
    raw[16 + meta_len + 8] = 0xFF  # first byte of the first blob's name, after the blob count and the name length
    raw[-4:] = struct.pack("<I", zlib.crc32(raw[:-4]))
    model = tmp_path / "edited.mdnm"
    model.write_bytes(raw)
    argv = ["evaluate", "--dataset", str(pipeline_dirs / "ds"), "--model", str(model), "--out", str(tmp_path / "e")]
    assert main(argv) == 3
    assert "unexpected or repeated parameter blob '\\\\xff" in capsys.readouterr().err


def _resealed(edit):
    """A model-file forgery: ``edit`` the bytes before the trailer, then reseal the trailer CRC."""

    def forge(src, dst, edit_model_file):
        body = edit(src.read_bytes()[:-4])
        dst.write_bytes(body + struct.pack("<I", zlib.crc32(body)))

    return forge


def _edited(edit):
    """A model-file forgery that edits the parsed container; every checksum is resealed."""
    return lambda src, dst, edit_model_file: edit_model_file(src, dst, edit)


def _repeat_first_blob(container):
    container["blobs"].append(container["blobs"][0])


def _transpose_item_embedding(container):
    blob = next(blob for blob in container["blobs"] if blob[0] == "emb.item_id")
    blob[1] = blob[1].T


@pytest.mark.parametrize(
    "forge, code, message",
    [
        (_resealed(lambda body: body[:4]), 3, "model file truncated"),
        (_resealed(lambda body: b"MDNX" + body[4:]), 3, "bad magic bytes"),
        (_edited(_repeat_first_blob), 3, "parameter count mismatch: file has 20, model expects 19"),
        (_edited(_transpose_item_embedding), 3, "parameter 'emb.item_id' shape mismatch: file 4x13, model 13x4"),
        (None, 2, "no pairs to split"),
    ],
    ids=["short-file", "magic", "blob-count", "blob-shape", "one-month-world"],
)
def test_rejection_reaches_its_check(pipeline_dirs, tmp_path, capsys, edit_model_file, forge, code, message):
    if forge is None:  # one month per item makes no pair
        data = tmp_path / "data"
        assert main(["synth", "--items", "3", "--months", "1", "--out", str(data)]) == 0
        argv = ["build", "--transactions", str(data / "transactions.csv")]
    else:
        model = tmp_path / "forged.mdnm"
        forge(pipeline_dirs / "run" / "model.mdnm", model, edit_model_file)
        argv = ["evaluate", "--dataset", str(pipeline_dirs / "ds"), "--model", str(model)]
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "out")]) == code
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("target", ["manifest", "model metadata", "config"])
def test_json_nested_too_deep_exits_with_its_code(pipeline_dirs, tmp_path, capsys, edit_model_file, target):
    deep = "[" * 100_000
    ds, model, config = tmp_path / "ds", tmp_path / "m.mdnm", tmp_path / "config.json"
    shutil.copytree(pipeline_dirs / "ds", ds)
    edit_model_file(pipeline_dirs / "run" / "model.mdnm", model, lambda c: None)
    if target == "manifest":
        (ds / "manifest.json").write_text(deep)
    elif target == "model metadata":
        raw = model.read_bytes()
        (meta_len,) = struct.unpack_from("<Q", raw, 8)
        body = raw[:8] + struct.pack("<Q", len(deep)) + deep.encode() + raw[16 + meta_len : -4]
        model.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    else:
        config.write_text(deep)
    argv = {
        "manifest": ["baseline", "--dataset", str(ds)],
        "model metadata": ["evaluate", "--dataset", str(ds), "--model", str(model)],
        "config": ["train", "--dataset", str(ds), "--config", str(config)],
    }[target]
    assert main(argv + ["--out", str(tmp_path / "out")]) == (2 if target == "config" else 3)
    assert "not valid JSON: maximum recursion depth exceeded" in capsys.readouterr().err


def _set(*path, value):
    """An edit_model_file edit that sets the metadata entry at ``path`` to ``value``."""

    def edit(container):
        section = container["meta"]
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value

    return edit


def _del(*path):
    def edit(container):
        section = container["meta"]
        for key in path[:-1]:
            section = section[key]
        del section[path[-1]]

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _set("seed", value="x"),
        _set("seed", value=-1),
        _set("config", "trunk_widths", value=5),
        _set("vocabs", "brand", value=7),
        _set("vocabs", "brand", 0, 1, value=999),
        _set("vocabs", "brand", 0, 1, value=-1),
        _set("vocabs", "extra", value=[]),
        _del("stats", "means", "lag_units"),
        _set("stats", "target_std", value="a"),
        _set("config", "split", value=[1, 1]),
        _set("config", "activation", value="tanh"),
        _set("config", "injection_width", value=0),
        _set("stats", "target_std", value=float("nan")),
        _set("stats", "stds", "lag_units", value=0.0),
        _set("stats", "means", "lag_units", value=float("inf")),
        _set("features", "monotone", value=["lead_price", "lag_price"]),
        _set("features", "continuous", 0, value="no_such_feature"),
        _set("format", value=2),
        _set("config", "split", value=[float("nan"), 0.5, 0.5]),
        _set("config", "split", value=[0.5, 0.5, float("nan")]),
        lambda c: c.update(version=2),
        _set("config", "trunk_widths", value=[2.5]),
    ],
)
def test_malformed_model_metadata_exits_3(pipeline_dirs, tmp_path, edit_model_file, capsys, edit):
    model = tmp_path / "edited.mdnm"
    edit_model_file(pipeline_dirs / "run" / "model.mdnm", model, edit)
    for argv in (
        ["evaluate", "--dataset", str(pipeline_dirs / "ds")],
        ["elasticity", "--transactions", str(pipeline_dirs / "data" / "transactions.csv")],
    ):
        assert main(argv + ["--model", str(model), "--out", str(tmp_path / argv[0])]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / argv[0]).exists()


@pytest.mark.parametrize(
    "edit, differ",
    [
        (lambda stats: [stats[key].pop("lag_units") for key in ("means", "stds")], "['lag_units']"),
        (lambda stats: [stats[key].update(extra=1.0) for key in ("means", "stds")], "['extra']"),
    ],
    ids=["missing", "extra"],
)
def test_model_stats_naming_other_features_exit_3(pipeline_dirs, tmp_path, edit_model_file, capsys, edit, differ):
    model = tmp_path / "edited.mdnm"
    edit_model_file(pipeline_dirs / "run" / "model.mdnm", model, lambda c: edit(c["meta"]["stats"]))
    argv = ["evaluate", "--dataset", str(pipeline_dirs / "ds"), "--model", str(model), "--out", str(tmp_path / "e")]
    assert main(argv) == 3
    assert f"standardization stats and features differ in {differ}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["synth", "--sigma", "nan"], "noise sigma must be finite"),
        (["synth", "--epsilon-min", "nan"], "epsilon range must be finite"),
        (["synth", "--start-month", "202313"], "invalid year-month 202313"),
        (["train", "--dataset", "{ds}", "--l2-decay", "nan"], "l2_decay must be finite"),
        (["train", "--dataset", "{ds}", "--config", "{nan_config}"], "l2_decay must be finite"),
        (["train", "--dataset", "{ds}", "--learning-rate", "inf"], "learning_rate finite"),
        (["elasticity", "--transactions", "{tx}", "--model", "{model}", "--dp-pct", "nan"], "--dp-pct must be finite"),
        (["elasticity", "--transactions", "{header_only}", "--model", "{model}"], "no transactions"),
        (["synth", "--seed", "-1"], "seed must be non-negative, got -1"),
        (["build", "--transactions", "{tx}", "--seed", "-1"], "seed must be non-negative, got -1"),
        (["train", "--dataset", "{ds}", "--seed", "-1"], "seed must be non-negative, got -1"),
        (["train", "--dataset", "{ds}", "--config", "{seed_config}"], "seed must be non-negative, got -1"),
        (["elasticity", "--transactions", "{tx}", "--model", "{model}", "--dp-pct", "0"], "above -100, got 0.0"),
        (["elasticity", "--transactions", "{tx}", "--model", "{model}", "--dp-pct", "-100"], "above -100, got -100.0"),
        (["elasticity", "--transactions", "{tx}", "--model", "{model}", "--dp-pct", "-150"], "above -100, got -150.0"),
        (["gradcheck", "--probes", "0"], "probes per parameter must be at least 1, got 0"),
        (["gradcheck", "--probes", "-1"], "probes per parameter must be at least 1, got -1"),
        (
            ["elasticity", "--transactions", "{tx}", "--model", "{model}", "--truth", "{repeated_truth}"],
            "line 14: repeated item_id 'item_0000'",
        ),
        (
            ["elasticity", "--transactions", "{tx}", "--model", "{model}", "--truth", "{vanishing_truth}"],
            "demand law of item_0000",
        ),
        (
            ["elasticity", "--transactions", "{tx}", "--model", "{model}", "--truth", "{overflowing_truth}"],
            "demand law of item_0000",
        ),
        (
            ["synth", "--items", "1", "--months", "2", "--epsilon-min", "-400", "--epsilon-max", "-399"],
            "epsilon range (-400.0, -399.0) gives a demand law that overflows",
        ),
        (
            ["synth", "--items", "1", "--months", "2", "--world", "kinked"]
            + ["--epsilon-min", "-300", "--epsilon-max", "-299"],
            "epsilon range (-300.0, -299.0) gives a demand law that overflows",
        ),
        (["synth", "--start-month", "99999999999999999912"], "invalid year-month 99999999999999999912"),
        (["synth", "--start-month", "999901", "--months", "13"], "start_month 999901 and n_months 13 run past 999912"),
        (
            ["elasticity", "--transactions", "{tx}", "--model", "{model}", "--as-of", "99999999999999999912"],
            "invalid year-month 99999999999999999912",
        ),
    ],
)
def test_unusable_values_exit_2(pipeline_dirs, tmp_path, capsys, argv, message):
    paths = {
        "ds": pipeline_dirs / "ds",
        "tx": pipeline_dirs / "data" / "transactions.csv",
        "model": pipeline_dirs / "run" / "model.mdnm",
        "nan_config": tmp_path / "nan.json",
        "header_only": tmp_path / "header_only.csv",
        "seed_config": tmp_path / "seed.json",
    }
    paths["nan_config"].write_text('{"l2_decay": NaN}')
    paths["seed_config"].write_text('{"seed": -1}')
    paths["header_only"].write_text(",".join(TRANSACTIONS_COLUMNS) + "\n")
    # truth tables that repeat item_0000, or give it a law with no usable demand at p or p + dp
    truths = synth.read_truth(pipeline_dirs / "data" / "truth.csv")
    for name, edited in (
        ("repeated_truth", truths + [dataclasses.replace(truths[0], epsilon=-0.1)]),
        ("vanishing_truth", [dataclasses.replace(truths[0], epsilon=-1000.0)] + truths[1:]),
        ("overflowing_truth", [dataclasses.replace(truths[0], epsilon=1000.0)] + truths[1:]),
    ):
        paths[name] = tmp_path / f"{name}.csv"
        synth.write_truth(edited, paths[name])
    out = tmp_path / "out"
    assert main([arg.format(**paths) for arg in argv] + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


class TestElasticity:
    def test_non_finite_weight_exits_3(self, pipeline_dirs, tmp_path, edit_model_file, capsys):
        def edit(container):
            dict(container["blobs"])["head.w"][0, 0] = np.nan

        model = tmp_path / "nan.mdnm"
        edit_model_file(pipeline_dirs / "run" / "model.mdnm", model, edit)
        transactions = pipeline_dirs / "data" / "transactions.csv"
        out = tmp_path / "elast"
        rc = main(["elasticity", "--transactions", str(transactions), "--model", str(model), "--out", str(out)])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_report_and_summary(self, scenario_runs, tmp_path):
        for k, (root, run) in enumerate(scenario_runs):
            out = tmp_path / f"elast{k}"
            argv = ["elasticity", "--transactions", str(root / "data" / "transactions.csv")]
            argv += ["--model", str(root / "run" / "model.mdnm"), "--truth", str(root / "data" / "truth.csv")]
            assert main(argv + ["--out", str(out)]) == 0
            with open(out / "elasticity.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert rows
            for row in rows:
                if row["status"] == "ok":
                    assert float(row["elasticity"]) <= 0.0
            summary = json.loads((out / "elasticity_summary.json").read_text())
            assert summary["valid"] > 0
            assert "mae_vs_truth" in summary
            assert run.summary == summary  # the summary elasticity writes, from run_scenario

    def test_dp_pct_flag_controls_query(self, pipeline_dirs, tmp_path):
        out = tmp_path / "elast10"
        rc = main(
            [
                "elasticity",
                "--transactions",
                str(pipeline_dirs / "data" / "transactions.csv"),
                "--model",
                str(pipeline_dirs / "run" / "model.mdnm"),
                "--dp-pct",
                "-10",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        with open(out / "elasticity.csv") as fh:
            row = next(r for r in csv.DictReader(fh) if r["status"] == "ok")
        assert float(row["dp"]) == pytest.approx(-0.10 * float(row["p"]))

    @pytest.mark.parametrize("dp_pct", ["1e-300", "1e-17"])
    def test_price_change_that_rounds_away_is_an_invalid_query(self, pipeline_dirs, tmp_path, dp_pct):
        out = tmp_path / "elast"
        argv = ["elasticity", "--transactions", str(pipeline_dirs / "data" / "transactions.csv")]
        argv += ["--model", str(pipeline_dirs / "run" / "model.mdnm"), "--dp-pct", dp_pct, "--out", str(out)]
        assert main(argv) == 0
        with open(out / "elasticity.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(row["status"].startswith("invalid query") for row in rows)
        summary = json.loads((out / "elasticity_summary.json").read_text())
        assert summary["valid"] == 0 and "mean_elasticity" not in summary


class TestBaselineCommand:
    def test_writes_per_item_slopes(self, pipeline_dirs, tmp_path):
        out = tmp_path / "base"
        rc = main(["baseline", "--dataset", str(pipeline_dirs / "ds"), "--out", str(out)])
        assert rc == 0
        lines = (out / "baseline.csv").read_text().strip().splitlines()
        assert lines[0] == "item_id,elasticity"
        assert len(lines) > 1

    @pytest.mark.parametrize("prefix", ["item_", 'it,em "'], ids=["plain", "needs-quotes"])
    def test_item_ids_read_back(self, tmp_path, monkeypatch, prefix):
        from elastinet import data as dt
        from elastinet.elasticity import loglog_baseline
        from reference_ops import baseline_pool

        tx, _ = synth.generate(synth.SyntheticWorld(n_items=5, seed=3))
        tx = dataclasses.replace(tx, item_id=np.char.replace(tx.item_id, "item_", prefix))
        dt.write_transactions(tx, tmp_path / "transactions.csv")
        assert main(["build", "--transactions", str(tmp_path / "transactions.csv"), "--out", str(tmp_path / "ds")]) == 0
        assert main(["baseline", "--dataset", str(tmp_path / "ds"), "--out", str(tmp_path / "base")]) == 0
        calls = []
        reader = dt.csv.reader

        def counting_reader(*args, **kwargs):
            calls.append(args)
            return reader(*args, **kwargs)

        monkeypatch.setattr(dt.csv, "reader", counting_reader)
        ds = dt.load_dataset(tmp_path / "ds")
        monkeypatch.undo()
        # a plain dataset is split, never read by csv; quoted ids send the transactions copy, not pairs.csv, to csv
        assert len(calls) == (0 if prefix == "item_" else 1)
        slopes, _ = loglog_baseline(baseline_pool(ds))
        assert len(slopes) == 5 and all(item.startswith(prefix) for item in slopes)
        with open(tmp_path / "base" / "baseline.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["item_id", "elasticity"]] + [[item, repr(slopes[item])] for item in sorted(slopes)]
        if prefix == "item_":  # a plain id is written as is, one row a CRLF-ended line
            text = "".join(f"{item},{slopes[item]!r}\r\n" for item in sorted(slopes))
            assert (tmp_path / "base" / "baseline.csv").read_bytes() == f"item_id,elasticity\r\n{text}".encode()


class TestGradcheckCommand:
    def test_passes_on_default_architecture(self, tmp_path, capsys):
        rc = main(["gradcheck", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "gradcheck.json").read_text())
        assert payload["max_rel_error"] < 1e-5

    def test_failing_check_exits_4_after_reporting(self, tmp_path, monkeypatch, capsys):
        from elastinet import cli
        from elastinet.gradcheck import TOLERANCE, GradCheckReport

        report = GradCheckReport(per_param={"trunk.w": 2e-3, "head.b": 1e-9}, probes=7)
        monkeypatch.setattr(cli, "check_demand_model", lambda seed, probes_per_param: (None, report))
        assert main(["gradcheck", "--out", str(tmp_path)]) == 4
        out, err = capsys.readouterr()
        assert json.loads(out) == {"max_rel_error": 2e-3, "probes": 7}
        assert err == "numeric failure: gradcheck failed: max relative error 2.000e-03\n"
        payload = json.loads((tmp_path / "gradcheck.json").read_text())
        assert payload == {"max_rel_error": 2e-3, "tolerance": TOLERANCE, "probes": 7, "per_param": report.per_param}
        assert not (tmp_path / "gradcheck_config.json").exists()


class TestDeterminism:
    def test_rerun_reproduces_artifacts_byte_identically(self, tmp_path):
        outs = []
        for tag in ("r1", "r2"):
            root = tmp_path / tag
            assert main(["synth", "--items", "8", "--months", "16", "--seed", "3", "--out", str(root / "d")]) == 0
            assert main(["build", "--transactions", str(root / "d" / "transactions.csv"), "--seed", "3", "--out", str(root / "ds")]) == 0
            assert main(["train", "--dataset", str(root / "ds"), "--epochs", "2", "--seed", "3", "--out", str(root / "m")]) == 0
            assert (
                main(
                    [
                        "elasticity",
                        "--transactions",
                        str(root / "d" / "transactions.csv"),
                        "--model",
                        str(root / "m" / "model.mdnm"),
                        "--out",
                        str(root / "e"),
                    ]
                )
                == 0
            )
            outs.append(root)
        for rel in (
            "d/transactions.csv",
            "ds/transactions.csv",
            "ds/pairs.csv",
            "ds/manifest.json",
            "m/model.mdnm",
            "m/train_report.json",
            "m/losses.csv",
            "e/elasticity.csv",
            "e/elasticity_summary.json",
        ):
            a = (outs[0] / rel).read_bytes()
            b = (outs[1] / rel).read_bytes()
            assert a == b, f"{rel} differs between identical runs"


def test_event_seen_only_out_of_time_scores_finitely(tmp_path):
    """In a 13-month world the holiday months lead only into out-of-time
    pairs, so the holiday features are constant over the training rows and
    differ at scoring time. Without L2 decay nothing hides a blown-up scale."""
    from elastinet import data as dt

    data, ds, run = tmp_path / "data", tmp_path / "ds", tmp_path / "run"
    tx = str(data / "transactions.csv")
    assert main(["synth", "--items", "50", "--months", "13", "--seed", "3", "--out", str(data)]) == 0
    assert main(["build", "--transactions", tx, "--seed", "3", "--out", str(ds)]) == 0
    split = dt.load_dataset(ds)
    assert dt.feature_column(split.train, "lag_event_holiday").std() == 0
    assert dt.feature_column(split.out_of_time, "lag_event_holiday").any()
    argv = ["train", "--dataset", str(ds), "--epochs", "5", "--batch-size", "64", "--l2-decay", "0", "--out", str(run)]
    assert main(argv) == 0
    model = str(run / "model.mdnm")
    assert main(["evaluate", "--dataset", str(ds), "--model", model, "--out", str(tmp_path / "eval")]) == 0
    wmape = json.loads((tmp_path / "eval" / "metrics.json").read_text())["out_of_time"]["wmape_pct"]
    assert np.isfinite(wmape) and wmape < 100
    argv = ["elasticity", "--transactions", tx, "--model", model, "--as-of", "202311", "--out", str(tmp_path / "el")]
    assert main(argv) == 0
    summary = json.loads((tmp_path / "el" / "elasticity_summary.json").read_text())
    assert (summary["items"], summary["skipped"]) == (50, 0)


def test_json_artifacts_are_strict(tmp_path):
    from elastinet.data import write_json as _write_json
    from elastinet.errors import NumericError

    with pytest.raises(NumericError, match="bad.json"):
        _write_json(tmp_path / "bad.json", {"wmape_pct": float("inf")})
    assert not (tmp_path / "bad.json").exists()


# each command, the settings its <command>_config.json must record, and a
# variant of it that fails; "{config}" holds {"epochs": 3, "learning_rate": 0.005}
SETTINGS_CASES = {
    "synth": (
        ["synth", "--items", "4", "--months", "6", "--seed", "3"],
        {"items": 4, "months": 6, "seed": 3, "world": "constant", "stockout_rate": 0.0},
        ["--sigma", "nan"],
    ),
    "build": (
        ["build", "--transactions", "{data}/transactions.csv", "--by-item"],
        {"transactions": "{data}/transactions.csv", "seed": 0, "by_item": True},
        ["--seed", "-1"],
    ),
    "train": (
        ["train", "--dataset", "{ds}", "--config", "{config}", "--epochs", "1"],  # flag over file over default
        {"dataset": "{ds}", "epochs": 1, "learning_rate": 0.005, "batch_size": 128, "l2_decay": 1e-4, "seed": 0},
        ["--l2-decay", "nan"],
    ),
    "evaluate": (
        ["evaluate", "--dataset", "{ds}", "--model", "{run}/model.mdnm"],
        {"dataset": "{ds}", "model": "{run}/model.mdnm"},
        ["--model", "{ds}/absent.mdnm"],
    ),
    "elasticity": (
        ["elasticity", "--transactions", "{data}/transactions.csv", "--model", "{run}/model.mdnm"],
        {"as_of": 202404, "dp_pct": -5.0, "truth": None},  # the latest month of a 16-month world from 202301
        ["--dp-pct", "0"],
    ),
    "baseline": (["baseline", "--dataset", "{ds}"], {"dataset": "{ds}"}, ["--dataset", "{ds}/absent"]),
    "gradcheck": (["gradcheck", "--probes", "1"], {"seed": 0, "probes": 1}, ["--probes", "0"]),
}


@pytest.mark.parametrize("command", SETTINGS_CASES)
def test_every_command_records_its_resolved_settings(pipeline_dirs, tmp_path, monkeypatch, capsys, command):
    argv, expected, failing = SETTINGS_CASES[command]
    paths = {name: pipeline_dirs / name for name in ("data", "ds", "run")}
    paths["config"] = tmp_path / "train.json"
    paths["config"].write_text(json.dumps({"epochs": 3, "learning_rate": 0.005}))
    fill = lambda args: [arg.format(**paths) for arg in args]  # noqa: E731
    out = tmp_path / "out"
    assert main(fill(argv) + ["--out", str(out)]) == 0
    recorded = json.loads((out / f"{command}_config.json").read_text())
    want = {"command": command, **{k: fill([v])[0] if isinstance(v, str) else v for k, v in expected.items()}}
    assert {k: recorded.get(k, "missing") for k in want} == want
    assert not {"out", "func", "config"} & set(recorded)
    failed = tmp_path / "failed"
    assert main(fill(argv + failing) + ["--out", str(failed)]) != 0
    assert not (failed / f"{command}_config.json").exists()
    if command == "gradcheck":  # without --out, the result is printed and no file is written
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        capsys.readouterr()
        assert main(fill(argv)) == 0
        assert '"max_rel_error"' in capsys.readouterr().out
        assert not any(cwd.iterdir())


def _error_classes(cls=ElastinetError):
    """``cls`` and every subclass of it, recursively."""
    return [cls] + [c for sub in cls.__subclasses__() for c in _error_classes(sub)]


# main's exit code and stderr prefix when a command raises each error
EXIT_TABLE = {
    "ElastinetError": (1, "error"),
    "DimensionError": (1, "error"),
    "EmbeddingIndexError": (1, "error"),
    "ConfigError": (2, "error"),
    "DomainError": (2, "error"),
    "DegenerateDemandError": (2, "error"),
    "ParseError": (2, "error"),
    "IntegrityError": (2, "error"),
    "OSError": (2, "error"),
    "SchemaMismatchError": (3, "error"),
    "ModelIOError": (3, "error"),
    "NumericError": (4, "numeric failure"),
    "MetricError": (4, "numeric failure"),
}


def test_exit_table_names_every_error_class():
    assert set(EXIT_TABLE) == {c.__name__ for c in _error_classes()} | {"OSError"}


@pytest.mark.parametrize("error", [*_error_classes(), OSError], ids=lambda c: c.__name__)
def test_each_error_exits_with_its_code(tmp_path, monkeypatch, capsys, error):
    from elastinet import cli

    def fail(args):
        raise error("stub failure")

    monkeypatch.setattr(cli, "cmd_baseline", fail)
    code, prefix = EXIT_TABLE[error.__name__]
    out = tmp_path / "out"
    assert main(["baseline", "--dataset", str(tmp_path), "--out", str(out)]) == code
    assert capsys.readouterr().err == f"{prefix}: stub failure\n"
    assert not (out / "baseline_config.json").exists()


@pytest.mark.parametrize(
    "argv, code, stderr",
    [
        (["gradcheck", "--probes", "1"], 0, ""),
        (["synth", "--items", "0", "--out", "{tmp}/synth"], 2, "error: "),
        (["synth", "--items", "3"], 2, "usage: "),  # --out is missing
        (["evaluate", "--dataset", "{ds}", "--model", "{tmp}/bad.mdnm", "--out", "{tmp}/eval"], 3, "error: "),
        # a full-batch step hands its largest product to the helper thread
        (["train", "--dataset", "{ds}", "--epochs", "1", "--batch-size", "4096", "--out", "{tmp}/run"], 0, ""),
    ],
    ids=["ok", "config", "usage", "corrupt-model", "train-batch-4096"],
)
def test_process_exit_status(pipeline_dirs, tmp_path, argv, code, stderr):
    """``python -m elastinet`` exits with the code that main returns."""
    import elastinet

    (tmp_path / "bad.mdnm").write_bytes(b"XXXX" + bytes(100))
    src = str(Path(elastinet.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [arg.format(tmp=tmp_path, ds=pipeline_dirs / "ds") for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "elastinet", *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(stderr)


def test_import_and_forward_only_commands_start_no_thread(pipeline_dirs, tmp_path):
    """The dense VJP's helper thread starts only when a backward pass needs it."""
    import elastinet

    data, ds, model = pipeline_dirs / "data", pipeline_dirs / "ds", pipeline_dirs / "run" / "model.mdnm"
    commands = [
        ["synth", "--items", "3", "--months", "14", "--seed", "1", "--out", str(tmp_path / "synth")],
        ["build", "--transactions", str(data / "transactions.csv"), "--seed", "5", "--out", str(tmp_path / "ds")],
        ["evaluate", "--dataset", str(ds), "--model", str(model), "--out", str(tmp_path / "eval")],
    ]
    script = (
        "import json, sys, threading\n"
        "counts = [threading.active_count()]\n"
        "from elastinet.cli import main\n"
        "counts.append(threading.active_count())\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "    counts.append(threading.active_count())\n"
        "print(json.dumps(counts))\n"
    )
    src = str(Path(elastinet.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [1] * 5
