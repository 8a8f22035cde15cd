"""elastinet benchmark: drives the real CLI and checks what it writes.

    python3 perfbench/run.py --workload train_pinned --seed 24 --seconds 40 --trace 0

Run it from the repository root; it imports the package from ``src/``. With
``--trace 0`` it prints every end-to-end metric, with ``--trace 1`` every
per-layer metric from the outside-in tracer (tracer.py). Lines starting with
``#`` are for people; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. README.md lists the
metrics and which layer metric should move which end-to-end metric.

A workload generates one synthetic world from ``--seed``. It has set-up
commands and a timed chain of commands. Every command runs in-process through
``elastinet.cli.main`` inside a child process (chain.py): one child per set-up
repetition, one per timed chain and one for the traced run, so each chain's
peak RSS is its own. Scratch files go to
``.perfbench_work/`` and are removed at the end, except the digest record
that lets later runs with the same seed compare artifacts byte for byte, and
the gzipped span file of the last traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402

WORK_DIR = ".perfbench_work"
# One BLAS thread on both sides of every comparison: artifacts are
# byte-identical only at a fixed thread count, and on a small shared machine
# a second BLAS thread made every stage slower and noisier.
BLAS_THREADS = 1
SETUP_REPS = 7
RUN_DEADLINE_S = 170.0

E2E_METRICS = {  # name -> unit; bounds live in BENCHMARK.json
    "setup_s": "s",
    "pipeline_s": "s",
    "train_rows_per_s": "rows/s",
    "build_pairs_per_s": "pairs/s",
    "evaluate_rows_per_s": "rows/s",
    "oot_wmape_pct": "%",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    items: int
    epochs: int
    batch_size: int
    build_in_setup: bool  # else `build` is the first command of the timed chain
    evaluate_reps: int = 0  # extra `evaluate` runs after the timed chains
    months: int = 27

    def plan(self, seed: int, work: Path) -> dict:
        """Set-up commands, chain commands and artifact paths of the world."""
        data, chain = work / "data", work / "chain"
        ds = (work if self.build_in_setup else chain) / "ds"
        model = chain / "run" / "model.mdnm"
        s = str(seed)
        synth = ["synth", "--items", str(self.items), "--months", str(self.months), "--seed", s, "--out", str(data)]
        build = ["build", "--transactions", str(data / "transactions.csv"), "--seed", s, "--out", str(ds)]
        train = ["train", "--dataset", str(ds), "--seed", s, "--epochs", str(self.epochs)]
        train += ["--batch-size", str(self.batch_size), "--out", str(chain / "run")]
        evaluate = ["evaluate", "--dataset", str(ds), "--model", str(model), "--out", str(chain / "eval")]
        evaluate_rep = evaluate[:-1] + [str(chain / "eval_rep")]
        elasticity = ["elasticity", "--transactions", str(data / "transactions.csv"), "--model", str(model)]
        elasticity += ["--truth", str(data / "truth.csv"), "--out", str(chain / "elasticity")]
        setup_hash = {"transactions.csv": data / "transactions.csv", "truth.csv": data / "truth.csv"}
        chain_hash = {
            "model.mdnm": model,
            "elasticity.csv": chain / "elasticity" / "elasticity.csv",
            "metrics.json": chain / "eval" / "metrics.json",
        }
        (setup_hash if self.build_in_setup else chain_hash)["pairs.csv"] = ds / "pairs.csv"
        return {
            "setup": [synth, build] if self.build_in_setup else [synth],
            "chain": [train, evaluate, elasticity] if self.build_in_setup else [build, train, evaluate, elasticity],
            "chain_dir": chain,
            "evaluate_rep": [evaluate_rep],
            "evaluate_rep_hash": {"metrics.json": chain / "eval_rep" / "metrics.json"},
            "setup_hash": setup_hash,
            "chain_hash": chain_hash,
            "check": {
                "manifest": ds / "manifest.json",
                "metrics": chain / "eval" / "metrics.json",
                "summary": chain / "elasticity" / "elasticity_summary.json",
                "model": model,
                "transactions": data / "transactions.csv",
                "elasticity": chain / "elasticity" / "elasticity.csv",
            },
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train_pinned",
            "acceptance scenario, 200 items x 27 months: small-batch training is most of the chain, "
            "so tape overhead in tensor, monodense, model.forward and training dominates",
            items=200,
            epochs=4,
            batch_size=128,
            build_in_setup=True,
        ),
        Workload(
            "catalog_wide",
            "1000 items x 27 months, 5x the catalog: build, CSV load, encode and 78k-row scoring are most "
            "of the chain; big-batch steps leave little tape overhead",
            items=1000,
            epochs=4,
            batch_size=4096,
            build_in_setup=False,
            evaluate_reps=1,
        ),
    )
}


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed check)."""


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _seconds(result: dict, name: str) -> list[float]:
    return [c["seconds"] for c in result["commands"] if c["name"] == name]


class Runner:
    """One benchmark run: set-up, timed chains, optional traced chain, checks."""

    def __init__(self, workload: Workload, seed: int, root: Path, work_root: Path):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.work_root = work_root
        self.work = work_root / f"{workload.name}-{seed}-{os.getpid()}"
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.failures: list[str] = []
        self.failed_queries: list[str] = []
        self.attempted = 0
        self.failed = 0
        self._children = 0

    # -- child processes -------------------------------------------------------

    def child(self, groups: list[tuple[list, dict]], check=None, trace_file=None) -> dict:
        """Run command groups in a fresh process; return its result record."""
        self._children += 1
        tag = f"child{self._children}"
        spec = {
            "src": str(self.root / "src"),
            "groups": [
                {"commands": commands, "hash": {k: str(v) for k, v in hashes.items()}} for commands, hashes in groups
            ],
            "check": {k: str(v) for k, v in check.items()} if check else None,
            "trace_file": str(trace_file) if trace_file else None,
            "result": str(self.work / f"{tag}.result.json"),
        }
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        log = self.work / f"{tag}.log"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"the {RUN_DEADLINE_S:.0f} s run deadline passed")
        with open(log, "w", encoding="utf-8") as fh:
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "chain.py"), str(spec_path)],
                    stdout=fh,
                    stderr=subprocess.STDOUT,
                    env=self.env,
                    cwd=self.root,
                    timeout=timeout,
                )
            except subprocess.TimeoutExpired:
                raise BenchError(f"{tag} passed the {RUN_DEADLINE_S:.0f} s run deadline") from None
        if proc.returncode != 0 or not Path(spec["result"]).exists():
            raise BenchError(f"{tag} exited with {proc.returncode}:\n{self._tail(log)}")
        result = json.loads(Path(spec["result"]).read_text())
        self._account(result, sum(len(commands) for commands, _ in groups), log)
        return result

    @staticmethod
    def _tail(log: Path) -> str:
        return log.read_text(encoding="utf-8", errors="replace")[-2000:]

    def _account(self, result: dict, planned: int, log: Path) -> None:
        """Count operations (commands and elasticity queries) and failures."""
        for cmd in result["commands"]:
            if cmd["exit"] != 0:
                self.failed += 1
                self.failures.append(f"`elastinet {cmd['name']}` exited with {cmd['exit']}")
                print(self._tail(log), file=sys.stderr)
        # commands after a failed one never start; they count as failed too
        self.attempted += planned
        self.failed += planned - len(result["commands"])
        facts = result.get("facts")
        if facts:
            # a query that is not ok is a failed operation, but the output is
            # still correct: elasticity flags rather than reports that item
            self.attempted += facts["queries"]
            self.failed += len(facts["failed_queries"])
            self.failed_queries.extend(facts["failed_queries"])
        self.failures.extend(result["failures"])
        threads = result["env"]["blas_threads"]
        if threads is not None and threads != BLAS_THREADS:
            self.failures.append(f"BLAS runs {threads} threads, expected {BLAS_THREADS}")

    # -- determinism -------------------------------------------------------------

    def _same(self, what: str, records: list) -> None:
        if any(r != records[0] for r in records[1:]):
            self.failures.append(f"{what} differ between repetitions in one run")

    def _compare_with_earlier_runs(self, digest: dict) -> None:
        """Set-up and chain artifacts must match earlier runs of the same code and seed."""
        store = self.work_root / "digests.json"
        src = _src_digest(self.root / "src")
        known = json.loads(store.read_text()) if store.exists() else {}
        key = json.dumps([asdict(self.workload), self.seed, BLAS_THREADS, src], sort_keys=True)
        if key in known and known[key] != digest:
            self.failures.append("artifacts differ from an earlier run")
        known[key] = digest
        if not self.failures:
            tmp = store.with_suffix(".tmp")
            tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
            os.replace(tmp, store)

    # -- the run -------------------------------------------------------------------

    def run(self, seconds: int, trace: bool) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        try:
            return self._run(seconds, trace)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def _run(self, seconds: int, trace: bool) -> dict:
        w = self.workload
        plan = w.plan(self.seed, self.work / "world")
        env = {"seed": self.seed, "blas_threads_set": BLAS_THREADS, "nproc": _nproc()}
        out = {"env": env, "chains": 0}

        # The world is set up right before the first chain, and the remaining
        # set-up repetitions follow the last chain, so set-up timings sample the
        # whole run rather than one stretch of it.
        setups: list[dict] = []

        def set_up() -> None:
            setups.append(self.child([(plan["setup"], plan["setup_hash"])]))

        set_up()
        chains: list[dict] = []
        chain_seconds = 0.0
        while not self.failures:
            t0 = time.monotonic()
            shutil.rmtree(plan["chain_dir"], ignore_errors=True)
            chains.append(self.child([(plan["chain"], plan["chain_hash"])], check=plan["check"]))
            took = time.monotonic() - t0
            chain_seconds += took
            if chain_seconds + took > seconds or time.monotonic() + 2 * took > self.deadline:
                break
        while not self.failures and len(setups) < SETUP_REPS:
            set_up()
        # Only one catalog_wide chain fits in a run, so `evaluate` runs again
        # at the end of the run: a second timing, from a later stretch of it.
        evaluates: list[dict] = []
        while not self.failures and len(evaluates) < w.evaluate_reps:
            evaluates.append(self.child([(plan["evaluate_rep"], plan["evaluate_rep_hash"])]))
        env.update(setups[0]["env"])
        out["chains"] = len(chains)
        out["chain_times"] = [
            (sum(c["seconds"] for c in r["commands"]), sum(c["cpu"] for c in r["commands"])) for r in chains
        ]
        if self.failures:
            return out
        self._same("set-up artifacts", [r["digests"] for r in setups])
        self._same("chain artifacts", [r["digests"] for r in chains])
        self._same("chain results", [r["facts"] for r in chains])
        self._same("evaluate outputs", [r["digests"][0]["metrics.json"] for r in chains + evaluates])
        facts = chains[0]["facts"]
        digest = {**setups[0]["digests"][0], **chains[0]["digests"][0]}

        med = statistics.median
        evaluate_seconds = [s for r in chains + evaluates for s in _seconds(r, "evaluate")]
        out["evaluate_times"] = evaluate_seconds
        builds = [s for r in (setups if w.build_in_setup else chains) for s in _seconds(r, "build")]
        # recovery_mae is printed, not a bounded metric: over ten seeds, one
        # 1000-item training spread 0.07 in one draw and 0.31 in another,
        # above the largest bound a metric may have (0.25)
        out["recovery_mae"] = facts["recovery_mae"]
        out["metrics"] = {
            "setup_s": med(sum(c["seconds"] for c in r["commands"]) for r in setups),
            "pipeline_s": med(wall for wall, _ in out["chain_times"]),
            "train_rows_per_s": med(w.epochs * facts["train_rows"] / s for r in chains for s in _seconds(r, "train")),
            "build_pairs_per_s": med(facts["pairs"] / s for s in builds),
            "evaluate_rows_per_s": med(facts["eval_rows"] / s for s in evaluate_seconds),
            "oot_wmape_pct": facts["oot_wmape_pct"],
            "peak_rss_mb": med(r["peak_rss_mb"] for r in chains),
        }

        if trace:
            # set-up and chain again, traced from scratch, so every layer is
            # reached on both workloads; the artifacts must not change
            traced_plan = w.plan(self.seed, self.work / "traced")
            trace_file = self.work_root / f"trace-{w.name}-{self.seed}.json.gz"
            hashes = {**traced_plan["setup_hash"], **traced_plan["chain_hash"]}
            traced = self.child(
                [(traced_plan["setup"] + traced_plan["chain"], hashes)],
                check=traced_plan["check"],
                trace_file=trace_file,
            )
            if traced["digests"] != [digest]:
                self.failures.append("traced run artifacts differ from the untraced run")
            n_setup = len(traced_plan["setup"])
            traced_pipeline = sum(c["seconds"] for c in traced["commands"][n_setup:])
            layers = dict(traced["layers"])
            layers["trace.overhead_pct"] = 100.0 * (traced_pipeline / out["metrics"]["pipeline_s"] - 1.0)
            out.update(
                layers=layers,
                skipped=traced["counters"].get("elasticity.skipped"),
                unresolved=traced["unresolved"],
                span_table=traced["span_table"],
                trace_file=str(trace_file),
            )

        self._compare_with_earlier_runs(digest)
        return out


def _fmt(value) -> str:
    return "unresolved" if value is None else f"{value:.6g}"


def report(args, out: dict, runner: Runner) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# env {json.dumps(out['env'], sort_keys=True)}")
    print(f"# timed chains={out['chains']} set-up repetitions={SETUP_REPS}")
    for wall, cpu in out.get("chain_times", []):
        print(f"# chain: wall {wall:.4f} s, cpu {cpu:.4f} s")
    if out.get("evaluate_times"):
        print(f"# evaluate: wall {', '.join(f'{s:.4f}' for s in out['evaluate_times'])} s")
    metrics = {}
    if args.trace and "layers" in out:
        print(f"# {'span':26s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}")
        for name, row in sorted(out["span_table"].items()):
            print(f"# {name:26s} {row['calls']:8d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
        for target, reason in sorted(out["unresolved"].items()):
            print(f"# unresolved {target}: {reason}")
        print(f"# spans written to {out['trace_file']}")
        # not a metric, like failed_share: it is 0 on a passing run
        print(f"# elasticity.skipped {out['skipped']} (items build_inference_set skipped + queries not ok)")
        metrics = {m.name: {"value": out["layers"].get(m.name), "unit": m.unit} for m in LAYER_METRICS}
    elif not args.trace and "metrics" in out:
        metrics = {name: {"value": out["metrics"][name], "unit": unit} for name, unit in E2E_METRICS.items()}
    for name, m in metrics.items():
        print(f"# {name:26s} {_fmt(m['value']):>14s} {m['unit']}")
    if "recovery_mae" in out:
        print(f"# recovery_mae {out['recovery_mae']!r} (not a bounded metric)")
    share = runner.failed / runner.attempted if runner.attempted else 0.0
    print(f"# failed_share {share:.6g} ({runner.failed} of {runner.attempted} operations)")
    for query in runner.failed_queries:
        print(f"# query not ok: {query}")
    for failure in runner.failures:
        print(f"# check failed: {failure}")
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def main(argv=None, root: Path | None = None, work_root: Path | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=24)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = (root or Path.cwd()).resolve()
    if not (root / "src" / "elastinet" / "__init__.py").is_file():
        print(f"error: {root} has no src/elastinet; run from the repository root", file=sys.stderr)
        return 2
    work_root = (work_root or root / WORK_DIR).resolve()
    work_root.mkdir(parents=True, exist_ok=True)
    runner = Runner(WORKLOADS[args.workload], args.seed, root, work_root)
    # on SIGTERM, unwind so subprocess.run kills and reaps the running child
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        out = runner.run(args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)
    print(json.dumps(report(args, out, runner)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
