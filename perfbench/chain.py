"""Child process of run.py: runs elastinet CLI commands in-process.

    python3 perfbench/chain.py SPEC.json

SPEC names the source directory, groups of CLI commands (each group is
followed by hashing its artifacts), the artifacts to check after the last
group, an optional trace file, and where to write the result JSON. run.py
starts one process per timed chain, so the process's ``ru_maxrss`` is that
chain's own peak and cannot carry over to the next one.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import json
import math
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def run_command(cli, argv: list[str]) -> int:
    """Exit code of one ``elastinet`` command run in this process.

    An exception the CLI does not turn into an exit code is printed and
    gives exit code 1, so the command counts as a failed operation.
    """
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc(file=sys.stdout)
        return 1


def openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS will use, or None if not found."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    env = {"python": platform.python_version(), "numpy": np.__version__, "blas": None, "blas_version": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"], env["blas_version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):  # numpy < 2 prints its config instead
        pass
    env["blas_threads"] = openblas_threads()
    return env


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(paths: dict) -> tuple[dict, list[str]]:
    """Facts read from a finished chain's artifacts, and failed checks."""
    from elastinet.model import load_model

    failures = []
    manifest = json.loads(Path(paths["manifest"]).read_text())
    metrics = json.loads(Path(paths["metrics"]).read_text())
    summary = json.loads(Path(paths["summary"]).read_text())
    counts = manifest["row_counts"]
    facts = {
        "pairs": sum(counts.values()),
        "train_rows": counts["train"],
        "eval_rows": sum(m["rows"] for m in metrics.values()),
        "recovery_mae": summary.get("mae_vs_truth"),
        "oot_wmape_pct": metrics.get("out_of_time", {}).get("wmape_pct"),
    }
    for name in ("recovery_mae", "oot_wmape_pct"):
        if not isinstance(facts[name], float) or not math.isfinite(facts[name]):
            failures.append(f"{name} is {facts[name]!r}, not a finite number")

    if not load_model(paths["model"]).sign_contracts_hold():
        failures.append("saved model breaks its weight-sign contract")

    with open(paths["transactions"], newline="", encoding="utf-8") as fh:
        items = {row["item_id"] for row in csv.DictReader(fh)}
    with open(paths["elasticity"], newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    reported = [row["item_id"] for row in rows]
    if sorted(reported) != sorted(items):
        failures.append(f"elasticity report covers {len(set(reported))} of {len(items)} items")
    bad = []
    for row in rows:
        if row["status"] == "ok":
            try:
                e = float(row["elasticity"])
            except ValueError:
                e = math.nan
            if not (math.isfinite(e) and e <= 0.0):
                bad.append(f"{row['item_id']}={row['elasticity']!r}")
    if bad:
        failures.append(f"ok elasticities that are not finite and <= 0: {bad[:5]}")
    facts["queries"] = len(rows)
    facts["failed_queries"] = [f"{row['item_id']}: {row['status']}" for row in rows if row["status"] != "ok"]
    return facts, failures


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    from elastinet import cli

    tracer = None
    if spec["trace_file"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = {"env": environment(), "commands": [], "digests": [], "failures": []}
    ok = True
    for g, group in enumerate(spec["groups"]):
        for i, argv in enumerate(group["commands"]):
            if tracer is not None:
                tracer.command = f"{g}.{i}.{argv[0]}"
            t0, c0 = time.perf_counter(), time.process_time()
            code = run_command(cli, argv)
            seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
            result["commands"].append({"group": g, "name": argv[0], "seconds": seconds, "cpu": cpu, "exit": code})
            if code != 0:
                ok = False
                break
        if not ok:
            break
        result["digests"].append({name: sha256(Path(p)) for name, p in group["hash"].items()})
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        tracer.finish()
        result["layers"] = tracer.layer_metrics()
        result["unresolved"] = tracer.unresolved
        result["counters"] = tracer.counters
        result["span_table"] = tracer.span_table()
        tracer.dump(spec["trace_file"], {"env": result["env"], "commands": result["commands"]})
    if ok and spec["check"]:
        try:
            result["facts"], result["failures"] = check_outputs(spec["check"])
        except Exception as exc:  # a missing or malformed artifact
            traceback.print_exc(file=sys.stdout)
            result["failures"] = [f"checking the artifacts raised {exc!r}"]
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
