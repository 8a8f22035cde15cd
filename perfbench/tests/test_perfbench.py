"""Tests of the benchmark itself, on tiny versions of its workloads.

    python -m pytest perfbench/tests -q

The tiny workloads have 6 items, 16 months and one epoch of 32-row batches,
so the whole file runs in well under a minute. Timing values are never asserted; counts and
quality metrics are, because they must repeat exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(REPO / "src"))

import chain  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("tensor.allocs_per_step", "training.steps", "data.pairs", "model.encode_rows", "elasticity.queries")


@pytest.fixture
def tiny(monkeypatch):
    # 32-row batches give one epoch on ~400 rows enough Adam steps that no
    # item's predicted baseline demand is negative; one 4096-row step is not
    for name, w in list(run.WORKLOADS.items()):
        tiny_w = dataclasses.replace(w, items=6, months=16, epochs=1, batch_size=32)
        monkeypatch.setitem(run.WORKLOADS, name, tiny_w)


def bench(capsys, work_root: Path, workload: str, seed: int, trace: int):
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        root=REPO,
        work_root=work_root,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_benchmark_json_matches_the_runner():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [(w.name, w.why) for w in run.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_METRICS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (m.name, m.unit, m.better) for m in tracer.LAYER_METRICS
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_names_every_metric_with_its_unit(tiny, capsys, tmp_path, workload, trace):
    code, lines, result = bench(capsys, tmp_path, workload, seed=3, trace=trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
    assert not [line for line in lines if line.startswith("# unresolved")]


def test_counts_and_quality_repeat_exactly(tiny, capsys, tmp_path):
    traced = [bench(capsys, tmp_path, "train_pinned", seed=5, trace=1)[2] for _ in range(2)]
    untraced = [bench(capsys, tmp_path, "train_pinned", seed=5, trace=0)[1:] for _ in range(2)]
    # the second run of each pair also compared its artifacts with the first
    assert all(r["correct"] for r in traced + [r for _, r in untraced])
    for name in EXACT_COUNTS:
        a, b = (r["metrics"][name]["value"] for r in traced)
        assert a == b and a == int(a) and a > 0, name
    a, b = (r["metrics"]["oot_wmape_pct"]["value"] for _, r in untraced)
    assert a == b
    mae = [[line for line in lines if line.startswith("# recovery_mae ")] for lines, _ in untraced]
    assert len(mae[0]) == 1 and mae[0] == mae[1]


# pairs.csv is a set-up artifact on train_pinned and a chain artifact on catalog_wide
@pytest.mark.parametrize(
    "workload, artifact",
    [("catalog_wide", "model.mdnm"), ("catalog_wide", "pairs.csv"), ("train_pinned", "pairs.csv")],
)
def test_changed_artifacts_fail_the_run(tiny, capsys, tmp_path, workload, artifact):
    assert bench(capsys, tmp_path, workload, seed=7, trace=0)[2]["correct"]
    store = tmp_path / "digests.json"
    known = json.loads(store.read_text())
    for digests in known.values():
        digests[artifact] = "0" * 64
    store.write_text(json.dumps(known))
    code, lines, result = bench(capsys, tmp_path, workload, seed=7, trace=0)
    assert code == 0 and not result["correct"]
    assert any("artifacts differ from an earlier run" in line for line in lines)


def test_catalog_wide_times_evaluate_once_more_than_its_chains(tiny, capsys, tmp_path):
    code, lines, result = bench(capsys, tmp_path, "catalog_wide", seed=3, trace=0)
    assert code == 0 and result["correct"]
    [header] = [line for line in lines if line.startswith("# timed chains=")]
    chains = int(header.split()[2].split("=")[1])
    [timings] = [line for line in lines if line.startswith("# evaluate: wall ")]
    assert len(timings.split(",")) == chains + 1


def test_failed_command_counts_and_fails_the_run(monkeypatch, capsys, tmp_path):
    w = run.WORKLOADS["train_pinned"]
    # batch size 0 makes `train` exit 2, so `evaluate` and `elasticity` never run
    monkeypatch.setitem(run.WORKLOADS, w.name, dataclasses.replace(w, items=6, months=16, batch_size=0))
    code, lines, result = bench(capsys, tmp_path, w.name, seed=1, trace=0)
    assert code == 0 and not result["correct"]
    # one set-up (synth, build) ran before the chain; the rest are skipped
    assert result["failed"] == 3
    assert result["attempted"] == 2 + 3


def test_command_that_raises_is_a_failed_command(capsys):
    class Cli:
        @staticmethod
        def main(argv):
            return [][len(argv)]

    assert chain.run_command(Cli, ["train"]) == 1
    assert "IndexError" in capsys.readouterr().out


def test_flagged_query_counts_as_failed_but_output_stays_correct(monkeypatch, capsys, tmp_path):
    w = run.WORKLOADS["catalog_wide"]
    # one 4096-row Adam step leaves seed 3's model predicting a negative
    # baseline demand for one item, which `elasticity` flags instead of reporting
    monkeypatch.setitem(run.WORKLOADS, w.name, dataclasses.replace(w, items=6, months=16, epochs=1))
    code, lines, result = bench(capsys, tmp_path, w.name, seed=3, trace=0)
    assert code == 0 and result["correct"]
    # every timed chain repeats the query, and how many chains fit is timing
    flagged = [line for line in lines if line.startswith("# query not ok: ")]
    assert result["failed"] == len(flagged) >= 1
    assert len(set(flagged)) == 1


def test_missing_and_uncalled_hooks_are_unresolved_not_zero():
    from elastinet.model import DenseLayer
    from elastinet.tensor import Tensor

    hooks = (
        tracer.Hook("elastinet.tensor", "no_such_function", "model.trunk"),
        tracer.Hook("elastinet.tensor", "relu", "model.embed"),
        # called, but no layer name matches, so no span is recorded
        tracer.Hook("elastinet.model", "DenseLayer.__call__", layers={"fused.": "model.encoders"}),
    )
    t = tracer.Tracer(hooks=hooks)
    t.install()
    DenseLayer(1, 2, "relu", rng=np.random.default_rng(0), name="enc.x")(Tensor(np.ones((3, 1))))
    t.uninstall()
    t.finish()
    assert t.unresolved["elastinet.tensor:no_such_function"] == "no_such_function missing"
    assert t.unresolved["elastinet.tensor:relu"] == "recorded no calls"
    assert t.unresolved["span model.encoders"] == "recorded nothing"
    assert "elastinet.model:DenseLayer.__call__" not in t.unresolved
    layers = t.layer_metrics()
    assert layers["model.trunk_s"] is None
    assert layers["model.embed_s"] is None
    assert layers["model.encoders_s"] is None


def test_uninstall_restores_every_original():
    import elastinet.cli
    import elastinet.tensor

    before = (elastinet.tensor.Tensor.__init__, elastinet.tensor.Tensor.__rmul__, elastinet.cli.cmd_train)
    t = tracer.Tracer()
    t.install()
    assert elastinet.tensor.Tensor.__init__ is not before[0]
    t.uninstall()
    after = (elastinet.tensor.Tensor.__init__, elastinet.tensor.Tensor.__rmul__, elastinet.cli.cmd_train)
    assert after == before
    assert not t.unresolved


def test_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_pinned", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
