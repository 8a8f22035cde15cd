"""Outside-in tracer: wraps elastinet functions and methods from the outside.

Nothing under ``src/`` knows about it. ``Tracer.install`` replaces module
attributes and class attributes with timing wrappers before the CLI runs and
``Tracer.uninstall`` puts the originals back. Spans (name, start, end,
parent span, CLI command) stay in memory until ``Tracer.dump`` writes them.

Three details of the wrapping matter:

- A name imported with ``from ... import`` is a separate binding, so it is
  wrapped in the module that uses it (``training.backward``,
  ``cli.prepare_model``), not where it is defined.
- ``DenseLayer`` and ``MonoDenseLayer`` alias ``forward`` as ``__call__`` and
  the model calls ``layer(x)``, so the wrapper goes on ``__call__``.
- ``Parameter.__init__`` calls ``Tensor.__init__``, so the allocation count
  includes parameters.

A hook whose target is missing or that records no call, and a span or counter
that nothing recorded, are reported as unresolved; every metric built on them
is then ``None``, never 0. A traced run reaches every hook, so refactors that
remove or rename a traced function show in the trace.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """One wrapped attribute: ``module`` + dotted ``attr`` (``Class.method``)."""

    module: str
    attr: str
    span: str | None = None
    # layer objects: weight-name prefix -> span name, chosen per call
    layers: dict | None = None
    # (counter, (args, result) -> int) pairs added after each call
    counts: tuple = ()
    role: str = "span"  # "span", "step_open", "step_close" or "alloc"

    @property
    def target(self) -> str:
        return f"{self.module}:{self.attr}"

    def names(self) -> set[str]:
        """Span and counter names this hook feeds."""
        names = {c for c, _ in self.counts}
        if self.span:
            names.add(self.span)
        if self.layers:
            names.update(self.layers.values())
        if self.role in ("step_open", "step_close"):
            names.add(STEP)
        if self.role == "alloc":
            names.add("tensor.step_allocs")
        return names

    def span_for(self, args) -> str | None:
        if self.layers is None:
            return self.span
        name = args[0].weights.name
        for prefix, span in self.layers.items():
            if name.startswith(prefix):
                return span
        return None


def _queries(args, report) -> int:
    return len(report.entries)


def _failed_queries(args, report) -> int:
    return sum(1 for e in report.entries if e.status != "ok")


STEP = "training.step"

HOOKS = (
    # cmd_* functions are looked up at each cli.main call (build_parser)
    Hook("elastinet.cli", "cmd_synth", "cli.synth"),
    Hook("elastinet.cli", "cmd_build", "cli.build"),
    Hook("elastinet.cli", "cmd_train", "cli.train"),
    Hook("elastinet.cli", "cmd_evaluate", "cli.evaluate"),
    Hook("elastinet.cli", "cmd_elasticity", "cli.elasticity"),
    Hook("elastinet.data", "ingest", "data.ingest"),
    Hook("elastinet.data", "build_pairs", "data.build_pairs", counts=(("data.pairs", lambda a, r: len(r)),)),
    Hook("elastinet.data", "split", "data.split"),
    Hook("elastinet.data", "save_dataset", "data.save_dataset"),
    Hook("elastinet.data", "load_dataset", "data.load_dataset"),
    Hook(
        "elastinet.data",
        "build_inference_set",
        "data.inference_set",
        counts=(("elasticity.skipped", lambda a, r: len(r[1])),),
    ),
    Hook("elastinet.cli", "prepare_model", "training.prepare_model"),
    Hook("elastinet.cli", "save_model", "model.save"),
    Hook("elastinet.cli", "load_model", "model.load"),
    Hook(
        "elastinet.cli",
        "evaluate_elasticities",
        "elasticity.evaluate",
        counts=(("elasticity.queries", _queries), ("elasticity.skipped", _failed_queries)),
    ),
    Hook(
        "elastinet.model",
        "FeatureEncoder.cat_matrix",
        "model.encode",
        counts=(("model.encode_rows", lambda a, r: len(r)),),
    ),
    Hook("elastinet.model", "FeatureEncoder.cont_matrix", "model.encode"),
    Hook("elastinet.model", "StandardizationStats.standardize", "model.encode"),
    Hook("elastinet.model", "DemandModel.predict_batch", "model.predict_batch"),
    Hook("elastinet.model", "DemandModel.forward", "model.forward"),
    Hook("elastinet.model", "embedding_lookup", "model.embed"),
    Hook("elastinet.model", "DenseLayer.__call__", layers={"enc.": "model.encoders", "trunk.": "model.trunk"}),
    Hook(
        "elastinet.monodense",
        "MonoDenseLayer.__call__",
        layers={"inj.": "monodense.injection", "post.": "monodense.post"},
    ),
    Hook("elastinet.training", "backward", "tensor.backward"),
    Hook("elastinet.training", "mse_loss", "training.loss"),
    # the L2 chain: loss + l2_decay * sum_sq(w) for every decayed weight
    # (float * Tensor reaches Tensor.__rmul__, never __mul__)
    Hook("elastinet.training", "sum_sq", "training.l2"),
    Hook("elastinet.tensor", "Tensor.__add__", "training.l2"),
    Hook("elastinet.tensor", "Tensor.__rmul__", "training.l2"),
    # one training step runs from Adam.zero_grad entry to Adam.step exit
    Hook("elastinet.training", "Adam.zero_grad", role="step_open"),
    Hook("elastinet.training", "Adam.step", "training.adam", role="step_close"),
    Hook("elastinet.tensor", "Tensor.__init__", role="alloc"),
)


def _resolve(hook: Hook):
    """(owner, attribute name, current value), or LookupError with the reason."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError as exc:
        raise LookupError(f"module missing: {exc}") from None
    *path, name = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{part} missing")
    value = getattr(owner, name, None)
    if not callable(value):
        raise LookupError(f"{name} missing")
    return owner, name, value


class Tracer:
    """In-memory span recorder with outside-in hooks."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[list] = []  # [name, start, end, parent index or -1, command]
        self.counters: dict[str, int] = {}
        self.hook_calls: dict[str, int] = {}
        self.unresolved: dict[str, str] = {}  # hook target -> reason
        self.command: str | None = None
        self._stack: list[int] = []
        self._step: int | None = None
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.command])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        # spans close in LIFO order; a raised exception may skip inner closes
        while self._stack and self._stack.pop() != sid:
            pass

    def _count(self, counter: str, n: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + n

    # -- hooks ---------------------------------------------------------------

    def _wrap(self, hook: Hook, original):
        tracer = self
        target = hook.target
        calls = self.hook_calls

        if hook.role == "alloc":

            @functools.wraps(original)
            def alloc(*args, **kwargs):
                calls[target] += 1
                if tracer._step is not None:
                    tracer._count("tensor.step_allocs", 1)
                return original(*args, **kwargs)

            return alloc

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls[target] += 1
            if hook.role == "step_open":
                if tracer._step is not None:
                    tracer.close(tracer._step)
                tracer._step = tracer.open(STEP)
            span = hook.span_for(args)
            sid = tracer.open(span) if span is not None else None
            try:
                result = original(*args, **kwargs)
            finally:
                if sid is not None:
                    tracer.close(sid)
            for counter, fn in hook.counts:
                tracer._count(counter, fn(args, result))
            if hook.role == "step_close" and tracer._step is not None:
                tracer.close(tracer._step)
                tracer._step = None
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every resolvable hook target; unresolvable ones are recorded."""
        for hook in self.hooks:
            self.hook_calls.setdefault(hook.target, 0)
            try:
                owner, name, original = _resolve(hook)
            except LookupError as exc:
                self.unresolved[hook.target] = str(exc)
                continue
            # an inherited attribute is restored by deleting the wrapper
            self._undo.append((owner, name, vars(owner).get(name)))
            setattr(owner, name, self._wrap(hook, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._undo.clear()

    def finish(self) -> None:
        """Mark hooks that recorded no call, and spans nothing recorded, unresolved."""
        for target, n in self.hook_calls.items():
            if n == 0 and target not in self.unresolved:
                self.unresolved[target] = "recorded no calls"
        recorded = set(self.span_table()) | set(self.counters)
        for metric in LAYER_METRICS:
            for name in metric.needs:
                if name not in recorded:
                    self.unresolved.setdefault(f"span {name}", "recorded nothing")

    # -- aggregation -----------------------------------------------------------

    def span_table(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        table: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if end is None:
                continue
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return table

    def unresolved_names(self) -> set[str]:
        """Span and counter names fed by an unresolved hook or never recorded."""
        names = {n for hook in self.hooks if hook.target in self.unresolved for n in hook.names()}
        return names | {key.removeprefix("span ") for key in self.unresolved if key.startswith("span ")}

    def step_durations_ms(self) -> list[float]:
        return [(end - start) * 1000.0 for name, start, end, _, _ in self.spans if name == STEP and end is not None]

    def layer_metrics(self) -> dict[str, float | None]:
        """Every per-layer metric except trace.overhead_pct; None if unresolved."""
        table = self.span_table()
        bad = self.unresolved_names()
        steps = self.step_durations_ms()
        return {
            m.name: None if bad.intersection(m.needs) else m.compute(table, self.counters, steps)
            for m in LAYER_METRICS
            if m.needs
        }

    def dump(self, path, extra: dict) -> None:
        payload = {
            **extra,
            "span_fields": ["name", "start", "end", "parent", "command"],
            "spans": self.spans,
            "counters": self.counters,
            "hook_calls": self.hook_calls,
            "unresolved": self.unresolved,
            "span_table": self.span_table(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# per-layer metrics (README.md says which end-to-end metric each should move)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    needs: tuple[str, ...] = ()  # span or counter names; () means run.py computes it
    compute: Callable | None = None  # (span table, counters, step durations) -> value


def _secs(name: str, span: str, key: str = "total_s") -> LayerMetric:
    return LayerMetric(name, "s", "lower", (span,), lambda table, counters, steps: table[span][key])


def _num(name: str, counter: str) -> LayerMetric:
    return LayerMetric(name, "count", "higher", (counter,), lambda table, counters, steps: counters[counter])


def _step_ms(name: str, percentile: int) -> LayerMetric:
    def compute(table, counters, steps):
        if len(steps) < 2:
            return steps[0]
        return statistics.quantiles(steps, n=100, method="inclusive")[percentile - 1]

    return LayerMetric(name, "ms", "lower", (STEP,), compute)


LAYER_METRICS = (
    _secs("cli.build_s", "cli.build"),
    _secs("cli.train_s", "cli.train"),
    _secs("cli.evaluate_s", "cli.evaluate"),
    _secs("cli.elasticity_s", "cli.elasticity"),
    _secs("data.ingest_s", "data.ingest"),
    _secs("data.build_pairs_s", "data.build_pairs"),
    _secs("data.split_s", "data.split"),
    _num("data.pairs", "data.pairs"),
    _secs("data.save_dataset_s", "data.save_dataset"),
    _secs("data.load_dataset_s", "data.load_dataset"),
    _secs("data.inference_set_s", "data.inference_set"),
    _secs("training.prepare_model_s", "training.prepare_model"),
    _secs("model.encode_s", "model.encode"),
    _num("model.encode_rows", "model.encode_rows"),
    LayerMetric("training.steps", "count", "higher", (STEP,), lambda table, counters, steps: len(steps)),
    _step_ms("training.step_ms_p50", 50),
    _step_ms("training.step_ms_p99", 99),
    _secs("tensor.backward_s", "tensor.backward"),
    LayerMetric(
        "tensor.allocs_per_step",
        "count",
        "lower",
        (STEP, "tensor.step_allocs"),
        lambda table, counters, steps: counters["tensor.step_allocs"] / len(steps),
    ),
    _secs("training.adam_s", "training.adam"),
    _secs("training.l2_s", "training.l2"),
    _secs("training.loss_s", "training.loss"),
    # self time: the concatenations, the head and the input wrapping
    _secs("model.forward_s", "model.forward", key="self_s"),
    _secs("model.embed_s", "model.embed"),
    _secs("model.encoders_s", "model.encoders"),
    _secs("model.trunk_s", "model.trunk"),
    _secs("monodense.injection_s", "monodense.injection"),
    _secs("monodense.post_s", "monodense.post"),
    _secs("model.predict_batch_s", "model.predict_batch"),
    _secs("model.save_s", "model.save"),
    _secs("model.load_s", "model.load"),
    _secs("elasticity.evaluate_s", "elasticity.evaluate"),
    _num("elasticity.queries", "elasticity.queries"),
    LayerMetric("trace.overhead_pct", "%", "lower"),
)
