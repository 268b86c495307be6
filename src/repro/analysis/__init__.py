"""Graph and statistical analysis substrate.

Hosts the combinatorial engines the protocols and experiments rely on:

- :mod:`repro.analysis.packing` -- exact maximum set packing (the
  commit rules of both Bhandari-Vaidya protocols reduce to packing
  node-disjoint evidence chains); sets of size <= 2 dispatch to
- :mod:`repro.analysis.blossom` -- Edmonds' maximum cardinality matching
  in general graphs (the exact polynomial route for two-hop evidence);
- :mod:`repro.analysis.flows` -- vertex-capacitated max flow /
  vertex-disjoint path counting (Menger-style connectivity checks used to
  analyze constructions and crash-stop reachability);
- :mod:`repro.analysis.reachability` -- BFS reachability on fault-pruned
  radio graphs (the crash-stop criterion is pure reachability);
- :mod:`repro.analysis.percolation` -- the random-failure model the paper
  points to in its conclusion (site percolation);
- :mod:`repro.analysis.stats` -- small-sample statistics for experiment
  reports.
"""

from repro.analysis.packing import max_set_packing, find_set_packing, PackingBudgetExceeded
from repro.analysis.flows import (
    max_vertex_disjoint_paths,
    vertex_disjoint_paths,
    local_vertex_connectivity,
)
from repro.analysis.blossom import (
    max_cardinality_matching,
    matching_size,
    max_small_set_packing,
)
from repro.analysis.reachability import reachable_from, crash_broadcast_coverage
from repro.analysis.percolation import (
    percolation_trial,
    percolation_curve,
    cluster_statistics,
    cluster_statistics_curve,
)
from repro.analysis.stats import mean, stdev, confidence_interval95, summarize
from repro.analysis.sweep import (
    SweepPoint,
    byzantine_sharpness_sweep,
    crash_sharpness_sweep,
)

__all__ = [
    "max_set_packing",
    "find_set_packing",
    "PackingBudgetExceeded",
    "max_vertex_disjoint_paths",
    "vertex_disjoint_paths",
    "local_vertex_connectivity",
    "max_cardinality_matching",
    "matching_size",
    "max_small_set_packing",
    "reachable_from",
    "crash_broadcast_coverage",
    "percolation_trial",
    "percolation_curve",
    "cluster_statistics",
    "cluster_statistics_curve",
    "mean",
    "stdev",
    "confidence_interval95",
    "summarize",
    "SweepPoint",
    "byzantine_sharpness_sweep",
    "crash_sharpness_sweep",
]
