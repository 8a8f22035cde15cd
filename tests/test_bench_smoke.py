"""Smoke test of the benchmark harness (perfbench/run.py) on a tiny world.

Both workloads run end to end, untraced and traced, hash the `pairs.csv`
that `build` writes among their artifacts and check them. A traced run
must resolve every hook of `perfbench/tracer.py` and reach each one, so
every per-layer metric but `trace.overhead_pct` is a positive finite
number. The world is the one perfbench's own tests use: 6 items, 16 months
and one epoch of 32-row batches. No timing is asserted.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))

import run  # noqa: E402


@pytest.mark.parametrize(
    "workload, trace",
    [pytest.param(w, t, id=w if t == "0" else f"{w}-traced") for w in sorted(run.WORKLOADS) for t in ("0", "1")],
)
def test_harness_run_is_correct(monkeypatch, capsys, tmp_path, workload, trace):
    tiny = dataclasses.replace(run.WORKLOADS[workload], items=6, months=16, epochs=1, batch_size=32)
    monkeypatch.setitem(run.WORKLOADS, workload, tiny)
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace]
    assert run.main(argv, root=REPO, work_root=tmp_path) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    # a traced run hooks every name it lists; a renamed function shows up here
    assert not [line for line in lines if line.startswith("# unresolved")]
    if trace == "1":
        # a hook that resolves but is never called reads 0 or null, so every
        # per-layer metric but the trace's own overhead must be positive
        layers = {name: m["value"] for name, m in result["metrics"].items() if name != "trace.overhead_pct"}
        assert [name for name, v in layers.items() if not (v is not None and math.isfinite(v) and v > 0)] == []
