"""One benchmark rep: a fresh interpreter running the ``repro`` CLI.

Usage::

    python benchmarks/pipeline/child.py [--trace SPANS.jsonl] -- runtable ...
    python benchmarks/pipeline/child.py --setup-only

Everything after ``--`` goes verbatim to ``repro.cli.main``, the function
the ``repro`` console script calls, with ``src/`` of this checkout first
on ``sys.path``.  The last line of standard output is one JSON object::

    {"exit": 0, "main_s": 1.93, "speed": 0.81, "install_s": 0.0,
     "peak_rss_mb": 61.2}

``main_s`` is the wall time spent inside ``repro.cli.main``, and
``speed`` how fast the CPU ran meanwhile, relative to the reference CPU
(see :class:`SpeedProbe`); the parent scales the one by the other.  The
process is pinned to one CPU, so the probe and ``main`` share it.

With ``--setup-only`` the child imports ``repro.cli`` and exits without
calling ``main``; it prints ``{"exit": 0, "speed": ...}``, the speed
since it started.  The parent times it from spawn to exit: interpreter
start-up, ``import repro.cli`` and teardown.

With ``--trace`` the layers' entry points are wrapped first (see
``tracing.py``), which imports their modules ahead of ``main``;
``install_s`` is that time.  The spans are written to SPANS after the
run.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import statistics
import sys
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: wall time of :func:`probe_kernel` on the reference CPU, an idle core
#: of the 2-vCPU host the baseline was measured on
PROBE_REF_S = 40e-6

#: pause between probe samples; a sample costs well under 1% of it
PROBE_INTERVAL_S = 0.01


def probe_kernel() -> dict:
    """Fixed pure-Python work, dict-bound like the simulator's loops."""
    counts: dict = {}
    for i in range(300):
        counts[i & 63] = counts.get(i & 63, 0) + i
    return counts


class SpeedProbe:
    """Samples the CPU's speed while the rep runs.

    A thread times :func:`probe_kernel` every :data:`PROBE_INTERVAL_S`.
    On a shared host the same code can run 1.6x slower for seconds at a
    time when a neighbour loads the physical core; process CPU time
    slows with it, so only a concurrent measurement separates the
    host's speed from the program's.  Samples are evenly spaced in
    time, so the mean of ``PROBE_REF_S / sample`` over a stretch of the
    rep is the CPU's mean speed in it, and the stretch's wall time times
    that speed is the time it would have taken on the reference CPU.
    """

    def __init__(self) -> None:
        #: (perf_counter at start, seconds taken) per sample
        self.samples: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        started = time.perf_counter()
        probe_kernel()
        self.samples.append((started, time.perf_counter() - started))

    def _loop(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            self._sample()

    def start(self) -> None:
        """Take one sample, then sample in the background."""
        for _ in range(20):
            probe_kernel()  # warm the code path before the first sample
        self._sample()
        self._thread.start()

    def stop(self) -> None:
        """Stop sampling, then take one last sample."""
        self._stop.set()
        self._thread.join()
        self._sample()

    def speed(self, since: float = float("-inf")) -> float:
        """Mean speed, relative to the reference, of the samples that
        started at ``since`` or later."""
        return statistics.fmean(PROBE_REF_S / took
                                for at, took in self.samples if at >= since)


def main(argv: list) -> int:
    setup_only = argv == ["--setup-only"]
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if argv[:1] != ["--"] and not setup_only:
        print("usage: child.py --setup-only | [--trace SPANS] -- <repro args>",
              file=sys.stderr)
        return 2
    cli_args = argv[1:]

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    probe = SpeedProbe()
    probe.start()

    sys.path.insert(0, str(SRC))
    import repro
    import repro.cli

    # never time an installed copy in place of the checkout's source
    if SRC not in pathlib.Path(repro.__file__).resolve().parents:
        print(f"child.py: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 3
    if setup_only:
        probe.stop()
        print(json.dumps({"exit": 0, "speed": probe.speed()}))
        return 0

    entry = repro.cli.main
    tracer = None
    install_s = 0.0
    if trace_path is not None:
        from tracing import Tracer

        started = time.perf_counter()
        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap("cli", entry)
        install_s = time.perf_counter() - started

    started = time.perf_counter()
    code = entry(cli_args)
    main_s = time.perf_counter() - started
    probe.stop()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.write(trace_path)
    sys.stdout.flush()
    print(json.dumps({
        "exit": int(code or 0),
        "main_s": main_s,
        "speed": probe.speed(since=started),
        "install_s": install_s,
        "peak_rss_mb": peak_kb / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
