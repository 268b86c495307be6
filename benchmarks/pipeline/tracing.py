"""Outside-in span tracing of one ``repro`` process, and its layer metrics.

:class:`Tracer` wraps the public entry points of each pipeline layer at
the module attribute where the caller looks them up, so no file under
``src/`` changes.  Each call records a span: name, start, end, parent
span and trial id (the derived seed of the enclosing ``run_trial``).
Spans stay in memory and are written as JSON lines after the run.

A target that no longer resolves (a refactor renamed or moved it) is
listed in :attr:`Tracer.missing` and never fails the run; its time then
shows up as self time of the nearest traced caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

#: (span name, module, attribute) -- where each layer is entered.  The
#: attribute is looked up on the module the *caller* reads it from.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("runtable.expand", "repro.exec.runtable", "RunTable.expand"),
    ("runtable.report", "repro.exec.runtable", "RunTableResult.report"),
    ("campaign", "repro.exec.executor", "SweepExecutor.run"),
    ("campaign.plan", "repro.exec.campaign", "plan_units"),
    ("cache.get", "repro.exec.cache", "ResultCache.get"),
    ("cache.put", "repro.exec.cache", "ResultCache.put"),
    ("cache.len", "repro.exec.cache", "ResultCache.__len__"),
    ("trial", "repro.exec.executor", "run_trial"),
    ("build", "repro.exec.specs", "build_scenario"),
    ("build.topology", "repro.experiments.scenarios", "make_topology"),
    ("build.placement", "repro.experiments.scenarios", "random_bounded_placement"),
    ("build.trim", "repro.experiments.scenarios", "trim_to_budget"),
    ("build.byzantine", "repro.experiments.scenarios", "make_byzantine"),
    ("engine.processes", "repro.experiments.scenarios", "correct_process_map"),
    ("scenario.run", "repro.experiments.scenarios", "BroadcastScenario.run"),
    ("engine.schedule", "repro.radio.engine", "make_schedule"),
    ("engine.loop", "repro.radio.engine", "Engine.run"),
    ("grade", "repro.radio.run", "grade_outcome"),
    ("grade", "repro.radio.fastpath.runner", "grade_outcome"),
    ("engine.lattice", "repro.radio.fastpath.runner", "get_lattice"),
    ("engine.kernel", "repro.radio.fastpath.runner", "run_crash_flood_kernel"),
    ("engine.kernel", "repro.radio.fastpath.runner", "run_cpa_kernel"),
    ("engine.kernel", "repro.radio.fastpath.runner", "run_bv_two_hop_kernel"),
    ("engine.assemble", "repro.radio.fastpath.runner", "build_trace"),
    ("engine.assemble", "repro.radio.fastpath.runner", "build_processes"),
)

#: the root span, wrapped around ``repro.cli.main`` by the child
ROOT_SPAN = "cli"


class Tracer:
    """Collects spans from wrapped layer entry points."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, trial id, attrs]
        self.spans: List[List[Any]] = []
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._trial: Optional[int] = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span per call."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            outer_trial = self._trial
            if name == "trial":
                self._trial = args[1] if len(args) > 1 else kwargs.get("seed")
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self._trial, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                self._trial = outer_trial
            if name == "cache.get":
                span[5] = {"hit": result is not None}
            elif name == "cache.put":
                span[5] = {"bytes": os.path.getsize(result)}
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in place; unresolvable ones go to ``missing``.

        All modules are imported before any wrapping: a module imported
        later would copy an already-wrapped function by ``from ...
        import`` and wrap it twice.
        """
        modules: Dict[str, Any] = {}
        for _, module_name, _ in TARGETS:
            try:
                modules[module_name] = importlib.import_module(module_name)
            except ImportError:
                pass
        for name, module_name, attr in TARGETS:
            where = f"{module_name}.{attr}"
            owner: Any = modules.get(module_name)
            if owner is None:
                self.missing.append(where)
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(leaf) if owner is not None else None
            if not callable(fn):
                self.missing.append(where)
                continue
            setattr(owner, leaf, self.wrap(name, fn))

    def write(self, path: str) -> None:
        """Spans as JSON lines in start order, after a header naming
        ``missing``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"missing": self.missing}) + "\n")
            for name, start, end, parent, trial, attrs in self.spans:
                rec = {"name": name, "start": start, "end": end,
                       "parent": parent, "trial": trial}
                rec.update(attrs or {})
                fh.write(json.dumps(rec) + "\n")


def read_trace(path: str) -> Tuple[List[str], List[Dict[str, Any]]]:
    """``(missing, spans)`` from a file :meth:`Tracer.write` wrote."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh if line.strip()]
    return header["missing"], spans


def layer_metrics(
    spans: List[Mapping[str, Any]], report: Mapping[str, Any]
) -> Dict[str, float]:
    """Per-layer seconds and counts of one traced rep.

    ``*_s`` without ``self`` is the layer's total time, children
    included; ``*.self_s`` excludes its traced children.
    ``trace.accounted`` is the share of the root span spent in the
    named layers of :data:`LEAVES`.  The rest is self time of the CLI,
    campaign and trial spans: code between the layers, or a layer whose
    target went missing.
    """
    total: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    children: Dict[int, float] = defaultdict(float)
    graded_in_run = 0.0
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["end"] - span["start"]
    for index, span in enumerate(spans):
        took = span["end"] - span["start"]
        total[span["name"]] += took
        own[span["name"]] += took - children[index]
        calls[span["name"]] += 1
        parent = span["parent"]
        if span["name"] == "grade" and parent is not None \
                and spans[parent]["name"] == "scenario.run":
            graded_in_run += took

    trial_ms = sorted(
        (s["end"] - s["start"]) * 1e3 for s in spans if s["name"] == "trial"
    )
    gets = calls["cache.get"]
    hits = sum(1 for s in spans if s["name"] == "cache.get" and s.get("hit"))
    rows = [row for run in report["runs"] for row in run["rows"]]

    m: Dict[str, float] = {
        "cli.self_s": own[ROOT_SPAN],
        "runtable.expand_s": total["runtable.expand"],
        "runtable.report_s": total["runtable.report"],
        "campaign.self_s": own["campaign"],
        "campaign.plan_s": total["campaign.plan"],
        "campaign.units": report["stats"]["units_total"],
        "cache.get_s": total["cache.get"],
        "cache.get_calls": gets,
        "cache.hit_ratio": hits / gets if gets else 0.0,
        "cache.len_s": total["cache.len"],
        "cache.len_calls": calls["cache.len"],
        "cache.put_s": total["cache.put"],
        "cache.put_calls": calls["cache.put"],
        "cache.put_bytes": sum(
            s.get("bytes", 0) for s in spans if s["name"] == "cache.put"
        ),
        "trial_s": total["trial"],
        "trial.self_s": own["trial"],
        "trial.n": len(trial_ms),
        "trial.p50_ms": statistics.median(trial_ms) if trial_ms else 0.0,
        # the 90th percentile needs >= 10 samples beyond it
        "trial.p90_ms": (
            statistics.quantiles(trial_ms, n=10)[-1]
            if len(trial_ms) >= 100 else 0.0
        ),
        "build_s": total["build"],
        "build.topology_s": total["build.topology"],
        "build.placement_s": total["build.placement"],
        "build.trim_s": total["build.trim"],
        "build.byzantine_s": total["build.byzantine"],
        "build.self_s": own["build"],
        "engine_s": total["scenario.run"] - graded_in_run,
        "engine.schedule_s": total["engine.schedule"],
        "engine.processes_s": total["engine.processes"],
        "engine.loop_s": total["engine.loop"],
        "engine.lattice_s": total["engine.lattice"],
        "engine.kernel_s": total["engine.kernel"],
        "engine.assemble_s": total["engine.assemble"],
        "grade_s": total["grade"],
        "work.rounds": sum(row["rounds"] for row in rows),
        "work.messages": sum(row["messages"] for row in rows),
        "work.faults": sum(row["faults"] for row in rows),
    }
    root = total[ROOT_SPAN]
    m["trace.accounted"] = (
        sum(m[name] for name in LEAVES) / root if root else 0.0
    )
    return m


#: named layers that, with the self time of the ``cli``, ``campaign``
#: and ``trial`` spans, tile the root span without overlap
LEAVES: Tuple[str, ...] = (
    "runtable.expand_s",
    "runtable.report_s",
    "campaign.plan_s",
    "cache.get_s",
    "cache.len_s",
    "cache.put_s",
    "build_s",
    "engine_s",
    "grade_s",
)
