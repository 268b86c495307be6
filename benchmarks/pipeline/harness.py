"""Shared core of the pipeline benchmark: reps, correctness gate, stats.

A *rep* is one fresh child interpreter (``child.py``) running
``repro runtable <table> --seed S --workers 1 --cache-dir D --json R``,
the same path as the ``repro`` command, then a few children that only
import ``repro.cli``, for the set-up time.  ``bench.py`` (all workloads,
interleaved rounds) and ``run.py`` (one workload for a fixed time) are
thin front ends over :func:`run_rep`, :func:`gate` and :func:`summarize`.

Metric names, units and bounds live in ``BENCHMARK.json`` at the root of
the checkout; the workload tables in ``workloads/<name>.json``.
"""

from __future__ import annotations

import compileall
import contextlib
import hashlib
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from tracing import layer_metrics, read_trace

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
DEFAULT_OUT = HERE / "out"

#: workloads whose cache is filled once, untimed, before the timed reps
WARM = ("rerun-warm",)

#: workload -> workload whose report rows it must reproduce byte for byte
SAME_ROWS_AS = {"sweep-default-fast": "sweep-default-ref"}

#: per-child wall-clock caps; a rep takes 1-5 s and a set-up 0.1-0.3 s.
#: A rep stops at its first failed child, so a run.py run ends within
#: 180 s even when children hang.
REP_TIMEOUT_S = 40
SETUP_TIMEOUT_S = 10

#: set-up-only children per rep; the rep's ``setup_s`` is their median.
#: Five bring the spread of ``setup_s`` between reps from 9% to 3%.
SETUP_RUNS = 5

#: Which end-to-end metric work on a layer should move, on which
#: workloads, and where the prediction is no change.  ``layers`` names
#: the per-layer metrics that would show the work; the self-test checks
#: that each of them records calls on every workload in ``on``.
LAYER_MAP: Sequence[Mapping[str, Any]] = (
    {"work": "scenario build",
     "layers": ["build_s", "build.topology_s", "build.placement_s",
                "build.trim_s"],
     "moves": "trials_per_s",
     "on": ["sweep-side100-fast", "sweep-default-ref", "sweep-default-fast"],
     "no_change": ["byz-bv-ref", "rerun-warm"]},
    {"work": "fastpath kernel",
     "layers": ["engine.kernel_s", "engine.lattice_s"],
     "moves": "trials_per_s", "on": ["sweep-default-fast"],
     "no_change": ["sweep-default-ref", "byz-bv-ref", "rerun-warm"]},
    {"work": "reference engine",
     "layers": ["engine.loop_s", "engine.processes_s", "engine.schedule_s"],
     "moves": "trials_per_s", "on": ["byz-bv-ref", "sweep-default-ref"],
     "no_change": ["sweep-default-fast", "sweep-side100-fast", "rerun-warm"]},
    {"work": "cache probe and planning",
     "layers": ["cache.len_s", "cache.get_s", "campaign.plan_s"],
     "moves": "trials_per_s", "on": ["rerun-warm"],
     "no_change": ["sweep-default-ref", "sweep-default-fast",
                   "sweep-side100-fast", "byz-bv-ref"]},
    {"work": "cache write",
     "layers": ["cache.put_s", "cache.put_bytes"], "moves": "sweep_s",
     "on": ["sweep-default-ref", "sweep-default-fast"],
     "no_change": ["rerun-warm", "sweep-side100-fast"]},
    {"work": "anything moved into import or module init",
     "layers": [], "moves": "setup_s",
     "on": ["sweep-default-ref", "sweep-default-fast", "sweep-side100-fast",
            "byz-bv-ref", "rerun-warm"],
     "no_change": []},
    {"work": "per-process memo tables",
     "layers": [], "moves": "peak_rss_mb",
     "on": ["sweep-side100-fast", "sweep-default-ref", "sweep-default-fast"],
     "no_change": []},
)


def load_benchmark() -> Dict[str, Any]:
    """``BENCHMARK.json`` at the root of the checkout."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def table_path(workload: str) -> pathlib.Path:
    """The run table a workload executes."""
    return HERE / "workloads" / f"{workload}.json"


def prepare() -> None:
    """Check the checkout holds the program and byte-compile it once.

    Compiling up front keeps bytecode compilation out of the first
    rep's set-up time: users pay it once per install, not per run.
    """
    if not (SRC / "repro" / "cli.py").is_file():
        raise SystemExit(f"no repro source under {SRC}; nothing to measure")
    if not compileall.compile_dir(str(SRC / "repro"), quiet=1):
        raise SystemExit(f"byte-compiling {SRC / 'repro'} failed")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@contextlib.contextmanager
def work_dir(out: pathlib.Path) -> Iterator[pathlib.Path]:
    """A private on-disk directory under ``out`` for caches and reports."""
    out.mkdir(parents=True, exist_ok=True)
    path = pathlib.Path(tempfile.mkdtemp(prefix="work-", dir=out))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def digest(report: Mapping[str, Any]) -> str:
    """sha256 of the report's runs (rows and summaries), canonical JSON.

    The ``table`` block (it names the engine) and ``stats`` (wall clock,
    cache accounting) are left out, so equal digests mean equal rows.
    """
    canonical = json.dumps(report["runs"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def below_threshold(report: Mapping[str, Any]) -> List[str]:
    """Cells within the paper's tolerable budget that did not all succeed.

    Theorems 4/5 (crash) and Theorem 1 (Byzantine) guarantee broadcast
    for every placement with ``t`` at most the bound, so each such cell
    must have ``achieved_fraction == 1.0``.
    """
    from repro.core.thresholds import byzantine_linf_max_t, crash_linf_max_t

    out = []
    for run in report["runs"]:
        key = json.loads(run["scenario_key"])
        bound = (crash_linf_max_t if key["kind"] == "crash"
                 else byzantine_linf_max_t)(key["r"])
        achieved = run["summary"]["achieved_fraction"]
        if key["t"] <= bound and achieved != 1.0:
            out.append(f"{run['run_id']}: achieved_fraction {achieved} "
                       f"< 1.0 at t={key['t']} <= {bound}")
    return out


def _failed(error: str) -> Dict[str, Any]:
    return {"ok": False, "error": error}


class ChildFailed(Exception):
    """A child exited non-zero, timed out or reported a failed command."""


def run_child(args: Sequence[str], timeout: float
              ) -> Tuple[float, Dict[str, Any]]:
    """Run ``child.py args``: its wall time, spawn to exit, and its
    result line."""
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=timeout, cwd=str(ROOT),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"timed out after {timeout} s") from None
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise ChildFailed(f"child exited {proc.returncode}: {tail[0]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["exit"] != 0:
        raise ChildFailed(f"repro runtable exited {result['exit']}")
    return wall, result


def run_rep(
    table: pathlib.Path,
    seed: int,
    work: pathlib.Path,
    cache_dir: Optional[pathlib.Path] = None,
    trace_path: Optional[pathlib.Path] = None,
) -> Dict[str, Any]:
    """Run one child on ``table``, then :data:`SETUP_RUNS` set-up-only
    children, and return the measurements.

    A fresh cache is made under ``work`` unless ``cache_dir`` is
    given.  With ``trace_path`` the child records spans there and the
    rep carries their ``layers`` metrics and ``missing`` targets.
    """
    rep_dir = pathlib.Path(tempfile.mkdtemp(prefix="rep-", dir=work))
    try:
        report_path = rep_dir / "report.json"
        args = ["--trace", str(trace_path)] if trace_path is not None else []
        args += [
            "--", "runtable", str(table), "--seed", str(seed),
            "--workers", "1",
            "--cache-dir", str(cache_dir or rep_dir / "cache"),
            "--json", str(report_path),
        ]
        try:
            _, result = run_child(args, REP_TIMEOUT_S)
            setups = [run_child(["--setup-only"], SETUP_TIMEOUT_S)
                      for _ in range(SETUP_RUNS)]
        except ChildFailed as exc:
            return _failed(str(exc))
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)

    # wall times scaled to the reference CPU (child.SpeedProbe)
    speed = result["speed"]
    sweep_s = result["main_s"] * speed
    stats = report["stats"]
    rep = {
        "ok": True,
        "error": None,
        "sweep_s": sweep_s,
        "trials_per_s": stats["trials_total"] / sweep_s,
        "setup_s": statistics.median(wall * r["speed"] for wall, r in setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "wall_sweep_s": result["main_s"],
        "speed": speed,
        "hit_fraction": stats["hit_fraction"],
        "digest": digest(report),
        "below_threshold": below_threshold(report),
    }
    if trace_path is not None:
        missing, spans = read_trace(str(trace_path))
        rep["install_s"] = result["install_s"] * speed
        rep["missing"] = missing
        rep["layers"] = {
            name: value * speed if name.endswith(("_s", "_ms")) else value
            for name, value in layer_metrics(spans, report).items()
        }
    return rep


def violations(
    rep: Mapping[str, Any], warm: bool, reference: Optional[str]
) -> List[str]:
    """Why ``rep`` fails the correctness gate (empty when it passes)."""
    if not rep["ok"]:
        return [rep["error"]]
    out = list(rep["below_threshold"])
    want = 1.0 if warm else 0.0
    if rep["hit_fraction"] != want:
        out.append(f"hit_fraction {rep['hit_fraction']} != {want}")
    if reference is not None and rep["digest"] != reference:
        out.append(f"rows digest {rep['digest'][:16]} != reference "
                   f"{reference[:16]}")
    return out


def gate(runs: Mapping[str, Tuple[Optional[Mapping[str, Any]],
                                  Sequence[Mapping[str, Any]]]]
         ) -> Dict[str, Tuple[int, int, List[str]]]:
    """``{workload: (attempted, failed, [violations])}`` for
    ``{workload: (fill, reps)}``; ``fill`` is ``None`` for cold ones.

    Every rep of a workload must reproduce one digest: the fill's for a
    warm workload, else that of the workload named in ``SAME_ROWS_AS``
    when it ran too, else its own first rep's.
    """
    first = {
        name: next((r["digest"] for r in reps if r["ok"]), None)
        for name, (_, reps) in runs.items()
    }
    out = {}
    for name, (fill, reps) in runs.items():
        reference = first.get(SAME_ROWS_AS.get(name), first[name])
        checked = [(rep, fill is not None) for rep in reps]
        if fill is not None:
            reference = fill.get("digest", reference)
            checked.insert(0, (fill, False))
        messages, failed = [], 0
        for index, (rep, warm) in enumerate(checked):
            problems = violations(rep, warm, reference)
            failed += bool(problems)
            messages += [f"rep {index}: {p}" for p in problems]
        out[name] = (len(checked), failed, messages)
    return out


def fill_cache(
    workload: str, seed: int, work: pathlib.Path
) -> Dict[str, Any]:
    """Untimed cold rep that fills a warm workload's cache.

    The rep carries ``cache_dir``, which the timed reps then reuse.
    """
    cache_dir = pathlib.Path(tempfile.mkdtemp(prefix="warm-", dir=work))
    rep = run_rep(table_path(workload), seed, work, cache_dir=cache_dir)
    rep["cache_dir"] = cache_dir
    return rep


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles and sample count (``None`` stats when empty)."""
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def end_to_end_values(reps: Sequence[Mapping[str, Any]], names: Sequence[str]
                      ) -> Dict[str, List[float]]:
    """Per-metric values over the reps that ran to completion."""
    return {name: [rep[name] for rep in reps if rep["ok"]] for name in names}


def per_layer(traced: Mapping[str, Any], untraced_sweep_s: Optional[float]
              ) -> Dict[str, float]:
    """A traced rep's layer metrics plus ``trace.overhead``.

    The traced child imports the wrapped modules before ``main`` starts,
    work the untraced child does inside ``main``; that install time is
    added back so the overhead compares like with like.
    """
    layers = dict(traced["layers"])
    traced_s = traced["sweep_s"] + traced["install_s"]
    layers["trace.overhead"] = (
        traced_s / untraced_sweep_s - 1.0 if untraced_sweep_s else 0.0
    )
    return layers
