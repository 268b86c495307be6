"""Declarative run tables: factors x levels x repetitions.

A :class:`RunTable` is the experiment-campaign analogue of a single
:class:`~repro.exec.specs.ScenarioSpec`: instead of one sweep point it
declares a *grid* of them -- a base spec, a list of factors each with its
levels, and a repetition count -- and expands deterministically into the
cartesian product of work units (the muBench ``RunnerConfig`` run-table
idiom: 6 topologies x 3 sizes x 10 repetitions = 180 runs, declared in
one config block).

The expansion inherits every guarantee of the execution layer for free,
because each expanded unit *is* a ``ScenarioSpec``:

- repetitions become ``trials`` on the spec, so per-trial seeds come from
  the same ``derive_seed(root_seed, scenario_key, index)`` streams as any
  other sweep;
- identical tables expand to identical specs, so a rerun against a warm
  :class:`~repro.exec.cache.ResultCache` is 100% cache hits (asserted by
  the ``runtable-smoke`` CI job);
- expansion order is the declaration order of factors and levels
  (rightmost factor fastest), never dict-hash order;
- two cells that would alias to the same scenario key are a
  configuration error, not a silent double-count.

JSON schema (see ``docs/TOPOLOGIES.md``)::

    {
      "name": "axes-smoke",
      "base": {"kind": "crash", "r": 1, "t": 1, "placement": "random"},
      "factors": {
        "metric":   ["linf", "l2"],
        "topology": ["torus", "bounded"]
      },
      "repetitions": 4
    }
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from dataclasses import fields as dataclass_fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError
from repro.exec.executor import ExecStats, SweepExecutor
from repro.exec.specs import ScenarioSpec, check_scenario_kwargs

#: schema tag stamped on serialized tables and reports
RUNTABLE_SCHEMA = "repro/runtable/v1"

#: ScenarioSpec fields a factor may range over.  ``trials`` is owned by
#: ``repetitions`` and ``scenario_kwargs`` is structured (base-only).
FACTOR_FIELDS: Tuple[str, ...] = tuple(
    f.name
    for f in dataclass_fields(ScenarioSpec)
    if f.name not in ("trials", "scenario_kwargs")
)

#: spec fields accepted in the ``base`` block (everything but ``trials``)
BASE_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in dataclass_fields(ScenarioSpec) if f.name != "trials"
)


@dataclass(frozen=True)
class RunUnit:
    """One expanded cell: its id, its factor levels, and its spec."""

    run_id: str
    levels: Tuple[Tuple[str, Any], ...]
    spec: ScenarioSpec

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (what ``--expand-only`` emits)."""
        return {
            "run_id": self.run_id,
            "levels": {k: v for k, v in self.levels},
            "scenario_key": self.spec.scenario_key(),
            "trials": self.spec.trials,
        }


@dataclass(frozen=True)
class RunTable:
    """A declarative experiment grid (frozen, JSON round-trippable).

    ``factors`` is an ordered tuple of ``(field_name, levels)`` pairs;
    ``base`` fixes the non-swept spec fields; every expanded spec runs
    ``repetitions`` trials.
    """

    factors: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    base: Tuple[Tuple[str, Any], ...] = ()
    repetitions: int = 1
    name: str = "runtable"

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ConfigurationError(
                f"repetitions must be >= 1, got {self.repetitions}"
            )
        factors = tuple(
            (str(name), tuple(levels)) for name, levels in self.factors
        )
        object.__setattr__(self, "factors", factors)
        base = tuple((str(k), v) for k, v in self.base)
        object.__setattr__(self, "base", base)
        seen = set()
        for fname, levels in factors:
            if fname not in FACTOR_FIELDS:
                raise ConfigurationError(
                    f"unknown factor {fname!r}; factors range over "
                    f"{FACTOR_FIELDS}"
                )
            if fname in seen:
                raise ConfigurationError(f"duplicate factor {fname!r}")
            seen.add(fname)
            if not levels:
                raise ConfigurationError(
                    f"factor {fname!r} declares no levels"
                )
            if len(set(levels)) != len(levels):
                raise ConfigurationError(
                    f"factor {fname!r} repeats a level: {list(levels)}"
                )
        for bname, _ in base:
            if bname not in BASE_FIELDS and bname != "scenario_kwargs":
                raise ConfigurationError(
                    f"unknown base field {bname!r}; base fixes "
                    f"ScenarioSpec fields (not 'trials' -- use "
                    f"repetitions)"
                )
            if bname in seen:
                raise ConfigurationError(
                    f"{bname!r} is both a base field and a factor"
                )

    # -- (de)serialization --------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunTable":
        """Build a table from its JSON form (see the module docstring)."""
        known = {"schema", "name", "base", "factors", "repetitions"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown run-table keys {unknown}; expected {sorted(known)}"
            )
        schema = data.get("schema", RUNTABLE_SCHEMA)
        if schema != RUNTABLE_SCHEMA:
            raise ConfigurationError(
                f"unsupported run-table schema {schema!r}; this build "
                f"reads {RUNTABLE_SCHEMA!r}"
            )
        factors_in = data.get("factors", {})
        if not isinstance(factors_in, Mapping):
            raise ConfigurationError(
                "factors must be a mapping of field name -> level list"
            )
        base_in = data.get("base", {})
        if not isinstance(base_in, Mapping):
            raise ConfigurationError(
                "base must be a mapping of spec field -> value"
            )
        kwargs_in = base_in.get("scenario_kwargs", {})
        if not isinstance(kwargs_in, Mapping):
            raise ConfigurationError(
                "base.scenario_kwargs must be a mapping of builder "
                f"keyword -> value, got {type(kwargs_in).__name__} "
                f"{kwargs_in!r}"
            )
        return cls(
            factors=tuple(
                (name, tuple(levels)) for name, levels in factors_in.items()
            ),
            base=tuple(base_in.items()),
            repetitions=int(data.get("repetitions", 1)),
            name=str(data.get("name", "runtable")),
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON form; ``from_dict(as_dict())`` is the identity."""
        return {
            "schema": RUNTABLE_SCHEMA,
            "name": self.name,
            "base": {k: v for k, v in self.base},
            "factors": {name: list(levels) for name, levels in self.factors},
            "repetitions": self.repetitions,
        }

    # -- expansion ----------------------------------------------------------

    def num_runs(self) -> int:
        """Cells in the grid (product of level counts; 1 for no factors)."""
        n = 1
        for _, levels in self.factors:
            n *= len(levels)
        return n

    def expand(self) -> Tuple[RunUnit, ...]:
        """The full cartesian product, in declaration order.

        Deterministic (no hash-order anywhere: factors and levels expand
        exactly as declared, rightmost factor fastest) and duplicate-free
        (two cells normalizing to the same scenario key -- e.g. two
        ``strategy`` levels under ``kind="crash"``, where the builder
        ignores the strategy -- raise :class:`ConfigurationError` naming
        both cells instead of silently double-running one scenario).  A
        ``scenario_kwargs`` key or value the cell's scenario builder or
        protocol cannot take is refused here too, by name
        (:func:`~repro.exec.specs.check_scenario_kwargs`, run once per
        distinct set of the cell fields it reads), not left to fail
        mid-run.
        """
        base_kwargs: Dict[str, Any] = {}
        for k, v in self.base:
            if k == "scenario_kwargs" and isinstance(v, Mapping):
                base_kwargs[k] = tuple(v.items())
            else:
                base_kwargs[k] = v
        names = [name for name, _ in self.factors]
        level_lists = [levels for _, levels in self.factors]
        units: List[RunUnit] = []
        seen_keys: Dict[str, str] = {}
        checked: Set[str] = set()
        for combo in itertools.product(*level_lists):
            levels = tuple(zip(names, combo))
            cell = ",".join(f"{k}={v}" for k, v in levels)
            run_id = f"{self.name}/{cell}" if cell else self.name
            kwargs = dict(base_kwargs)
            kwargs.update(levels)
            try:
                spec = ScenarioSpec(trials=self.repetitions, **kwargs)
                reads = repr((spec.kind, spec.protocol, spec.t, spec.metric,
                              spec.scenario_kwargs))
                if reads not in checked:
                    check_scenario_kwargs(spec)
                    checked.add(reads)
            except (ConfigurationError, TypeError) as exc:
                raise ConfigurationError(
                    f"run-table cell {run_id!r} does not describe a "
                    f"valid scenario: {exc}"
                ) from exc
            key = spec.scenario_key()
            if key in seen_keys:
                raise ConfigurationError(
                    f"cells {seen_keys[key]!r} and {run_id!r} normalize "
                    "to the same scenario; drop one factor level (the "
                    "expansion must be duplicate-free)"
                )
            seen_keys[key] = run_id
            units.append(RunUnit(run_id=run_id, levels=levels, spec=spec))
        return tuple(units)


def load_runtable(path: str) -> RunTable:
    """Read a :class:`RunTable` from a JSON file."""
    try:
        with open(path, "r") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"{path}: a run table is a JSON object, got "
            f"{type(data).__name__}"
        )
    return RunTable.from_dict(data)


def summarize_rows(rows: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate one cell's trial rows: the fractions of trials that
    achieved broadcast and stayed safe, and per-trial means."""
    n = len(rows)
    return {
        "trials": n,
        "achieved_fraction": sum(1 for r in rows if r["achieved"]) / n,
        "safe_fraction": sum(1 for r in rows if r["safe"]) / n,
        "mean_undecided": sum(r["undecided"] for r in rows) / n,
        "mean_rounds": sum(r["rounds"] for r in rows) / n,
        "mean_messages": sum(r["messages"] for r in rows) / n,
    }


@dataclass
class RunTableResult:
    """An executed table: expanded units, per-unit trial rows, stats."""

    table: RunTable
    units: Tuple[RunUnit, ...]
    rows: List[List[Dict[str, Any]]]
    stats: ExecStats

    def report(self) -> Dict[str, Any]:
        """The JSON report (what ``repro runtable --json`` writes)."""
        return {
            "schema": RUNTABLE_SCHEMA,
            "table": self.table.as_dict(),
            "runs": [
                dict(unit.as_dict(), summary=summarize_rows(rows), rows=rows)
                for unit, rows in zip(self.units, self.rows)
            ],
            "stats": self.stats.as_dict(),
        }


def execute_runtable(
    table: RunTable,
    executor: Optional[SweepExecutor] = None,
    root_seed: int = 0,
) -> RunTableResult:
    """Expand ``table`` and run every cell through ``executor``.

    The result is a pure function of ``(table, root_seed)`` -- worker
    count, caching, and resumption change only the stats, exactly as for
    :meth:`SweepExecutor.run`.
    """
    units = table.expand()
    executor = executor or SweepExecutor()
    result = executor.run([u.spec for u in units], root_seed=root_seed)
    return RunTableResult(
        table=table, units=units, rows=result.rows, stats=result.stats
    )
