"""Picklable sweep specifications and the single-trial runner.

A :class:`ScenarioSpec` is the unit of *description*: one scenario point
(fault kind, radius, budget, protocol, adversary, placement scheme) plus
how many randomized trials to run at it.  It is a frozen dataclass of
plain values so work units can cross process boundaries and so its
canonical JSON form can be hashed -- the same string serves as the
seed-derivation key and as part of the disk-cache key.

:func:`run_trial` is the unit of *work*: build the scenario with a derived
seed, simulate, and reduce the outcome to a small dict of plain metrics
(everything the sweep aggregators and figure runners need, nothing that
drags simulator state across the pickle boundary).
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field, fields
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Mapping,
    Optional,
    Tuple,
)

from repro.errors import ConfigurationError
from repro.grid.factory import TOPOLOGY_KINDS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.scenarios import BroadcastScenario

#: Fault kinds a spec can describe.  ``"byzantine"`` routes through
#: :func:`repro.experiments.scenarios.byzantine_broadcast_scenario`,
#: ``"crash"`` through
#: :func:`repro.experiments.scenarios.crash_broadcast_scenario`.
KINDS = ("byzantine", "crash")

#: :class:`ScenarioSpec` fields that are *deliberately* outside the
#: scenario/cache key, with the reason -- audited statically by the
#: ``cache-key-soundness`` lint pass: any spec field read in the call
#: closure of :func:`run_trial` must either feed
#: :meth:`ScenarioSpec.key_payload` or appear here with a reason.
KEY_EXEMPT_FIELDS: Dict[str, str] = {
    "collect_metrics": (
        "pure observation: it never changes the simulation, so it is "
        "excluded from scenario_key() on purpose (same seeds either "
        "way); it joins unit_cache_key conditionally because it "
        "changes the cached row shape"
    ),
    "engine": (
        "backend selection, not scenario identity: the fastpath and "
        "reference engines are observationally identical (enforced "
        "byte-for-byte by tests/test_fastpath_differential.py), so the "
        "same seeds, rows, and cached results apply either way and the "
        "engine is excluded from scenario_key() and unit_cache_key"
    ),
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One sweep point: a scenario family and a trial count.

    Everything except ``trials`` identifies the scenario and feeds the
    stable :meth:`scenario_key`; ``trials`` only says how many seeds to
    draw from that scenario's stream, so extending a sweep from 5 to 50
    trials reuses the first 5 trials' seeds (and their cached results).
    """

    kind: str
    r: int
    t: int
    trials: int = 1
    protocol: str = "bv-two-hop"
    strategy: Optional[str] = "fabricator"
    placement: str = "random"
    metric: str = "linf"
    enforce_budget: bool = True
    validate: bool = False
    max_rounds: int = 200
    #: attach a :class:`repro.obs.RunMetrics` observer to every trial and
    #: embed its schema-versioned summary in the result row under
    #: ``"metrics"``.  Pure observation: it does not change the scenario,
    #: so it is excluded from :meth:`scenario_key` (same seeds, same
    #: simulation with or without it) -- but it *is* part of the work-unit
    #: cache key, since it changes the row shape.
    collect_metrics: bool = False
    #: extra keyword arguments forwarded to the scenario builder
    #: (protocol kwargs for Byzantine scenarios, e.g.
    #: ``staggered_max_round`` for crash ones), kept as a sorted tuple of
    #: pairs so the spec stays hashable and canonical.
    scenario_kwargs: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)
    #: which simulation backend runs the trials (see
    #: :data:`repro.radio.engines.ENGINES`).  Outside the scenario/cache
    #: key: the backends are observationally identical, so rows computed
    #: on either are interchangeable (see :data:`KEY_EXEMPT_FIELDS`).
    engine: str = "reference"
    #: topology factor level (:data:`repro.grid.factory.TOPOLOGY_KINDS`).
    #: Keyed *conditionally*: the default ``"torus"`` is omitted from
    #: :meth:`key_payload` so every pre-existing scenario key -- and with
    #: it every derived trial seed and cached work unit -- is unchanged
    #: by the field's introduction (schema evolution by omission).
    topology: str = "torus"

    def __post_init__(self) -> None:
        from repro.radio.engines import (
            FASTPATH_BYZANTINE_PROTOCOLS,
            FASTPATH_FIXED_STRATEGIES,
            FASTPATH_PROTOCOLS,
            validate_engine,
        )

        validate_engine(self.engine)
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown scenario kind {self.kind!r}; expected one of {KINDS}"
            )
        if self.trials < 1:
            raise ConfigurationError(
                f"trials must be >= 1, got {self.trials}"
            )
        if self.topology not in TOPOLOGY_KINDS:
            raise ConfigurationError(
                f"unknown topology kind {self.topology!r}; expected one "
                f"of {TOPOLOGY_KINDS}"
            )
        if self.max_rounds < 1:
            raise ConfigurationError(
                f"max_rounds must be >= 1, got {self.max_rounds}"
            )
        if self.engine == "fastpath":
            # hard gate, not silent fallback: the kernels assume toroidal
            # wrap, so anything else must raise -- never quietly compute
            # torus results for a spec that asked for another topology
            if self.topology != "torus":
                raise ConfigurationError(
                    'engine="fastpath" cannot run this scenario: the '
                    "fastpath engine supports only the torus topology "
                    f"factor, got topology={self.topology!r}"
                )
            if self.protocol not in FASTPATH_PROTOCOLS:
                raise ConfigurationError(
                    'engine="fastpath" cannot run this scenario: '
                    f"protocol {self.protocol!r} has no fastpath kernel "
                    f"(supported: {FASTPATH_PROTOCOLS})"
                )
            if self.kind == "byzantine":
                if self.protocol not in FASTPATH_BYZANTINE_PROTOCOLS:
                    raise ConfigurationError(
                        'engine="fastpath" cannot run this scenario: '
                        f"protocol {self.protocol!r} has no "
                        "Byzantine-capable fastpath kernel (supported: "
                        f"{FASTPATH_BYZANTINE_PROTOCOLS}); Byzantine "
                        "scenarios for other protocols need the "
                        "reference engine"
                    )
                strategy = self.strategy or "fabricator"
                if strategy not in FASTPATH_FIXED_STRATEGIES:
                    raise ConfigurationError(
                        'engine="fastpath" cannot run this scenario: '
                        f"Byzantine strategy {strategy!r} runs arbitrary "
                        "node code (no fixed-strategy kernel; supported: "
                        f"{FASTPATH_FIXED_STRATEGIES}); use "
                        'engine="reference"'
                    )
        canonical = tuple(
            sorted((str(k), v) for k, v in tuple(self.scenario_kwargs))
        )
        object.__setattr__(self, "scenario_kwargs", canonical)
        if self.kind == "crash":
            object.__setattr__(self, "strategy", None)

    def key_payload(self) -> Dict[str, Any]:
        """The scenario-identity fields as a JSON-ready mapping.

        Excludes ``trials`` (see the class docstring): identity is the
        scenario family, not how many samples were taken from it.

        ``topology`` joins the payload only at a non-default level: it
        *is* scenario identity (a bounded grid is a different
        simulation), but omitting the default ``"torus"`` keeps every
        scenario key minted before the field existed -- and every seed
        stream and cached row derived from one -- valid verbatim.  The
        ``cache-key-soundness`` deep lint counts this conditional re-add
        as keyed.
        """
        payload = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name
            not in (
                "trials",
                "scenario_kwargs",
                "collect_metrics",
                "engine",
                "topology",
            )
        }
        if self.topology != "torus":
            payload["topology"] = self.topology
        payload["scenario_kwargs"] = {k: v for k, v in self.scenario_kwargs}
        return payload

    def scenario_key(self) -> str:
        """Canonical JSON identity string (stable across processes)."""
        return json.dumps(
            self.key_payload(), sort_keys=True, separators=(",", ":")
        )

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form (for pickling into worker payloads)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["scenario_kwargs"] = [list(kv) for kv in self.scenario_kwargs]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`as_dict` output."""
        payload = dict(data)
        payload["scenario_kwargs"] = tuple(
            (str(k), v) for k, v in payload.get("scenario_kwargs", ())
        )
        return cls(**payload)


def build_scenario(spec: ScenarioSpec, seed: int) -> "BroadcastScenario":
    """Construct the :class:`~repro.experiments.scenarios.BroadcastScenario`
    one trial of ``spec`` runs.

    Split out of :func:`run_trial` so certification
    (:mod:`repro.adversary.certify`) can replay the *exact* scenario a
    sweep row came from -- same builder, same derived seed -- and attach
    its own instrumentation.
    """
    builder, kwargs = _builder_call(spec, seed)
    return builder(**kwargs, **dict(spec.scenario_kwargs))


def _builder_call(
    spec: ScenarioSpec, seed: int
) -> Tuple[Callable[..., "BroadcastScenario"], Dict[str, Any]]:
    """The scenario builder of ``spec`` and the keywords it is called
    with, before ``spec.scenario_kwargs``."""
    # imported lazily so a spec can be constructed (e.g. for cache-key
    # inspection) without paying for the simulator stack
    from repro.experiments.scenarios import (
        byzantine_broadcast_scenario,
        crash_broadcast_scenario,
    )

    kwargs: Dict[str, Any] = dict(
        r=spec.r,
        t=spec.t,
        placement=spec.placement,
        metric=spec.metric,
        seed=seed,
        enforce_budget=spec.enforce_budget,
        max_rounds=spec.max_rounds,
        protocol=spec.protocol,
        engine=spec.engine,
        topology_kind=spec.topology,
    )
    if spec.kind == "byzantine":
        kwargs["strategy"] = spec.strategy or "fabricator"
        return byzantine_broadcast_scenario, kwargs
    return crash_broadcast_scenario, kwargs


def _keywords(fn: Callable[..., Any]) -> FrozenSet[str]:
    """The parameters of ``fn`` that a keyword argument can bind."""
    return frozenset(
        name
        for name, param in inspect.signature(fn).parameters.items()
        if param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY)
    )


def check_scenario_kwargs(spec: ScenarioSpec) -> None:
    """Refuse ``scenario_kwargs`` keys the scenario cannot take.

    A key may name a keyword of the spec's scenario builder that
    :func:`build_scenario` does not set from the spec's own fields
    (e.g. ``torus_side``).  The Byzantine builder forwards any other
    keyword to the protocol constructor, so there a key may also name
    a keyword the protocol class adds to the base constructor (e.g.
    ``max_relays`` for ``bv-indirect``).  Both sets are read from the
    signatures, so they follow the code.  :class:`ScenarioSpec` itself
    stays permissive; run tables, where outside input names builder
    keywords, call this per cell.

    Raises :class:`ConfigurationError` naming every unknown key.
    """
    if not spec.scenario_kwargs:
        return
    from repro.protocols.base import BroadcastProtocolNode
    from repro.protocols.registry import protocol_class

    builder, fixed = _builder_call(spec, 0)
    allowed = _keywords(builder) - set(fixed)
    if spec.kind == "byzantine":
        allowed |= _keywords(protocol_class(spec.protocol)) - _keywords(
            BroadcastProtocolNode
        )
    unknown = sorted(set(dict(spec.scenario_kwargs)) - allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown scenario_kwargs key(s) {unknown} for a {spec.kind} "
            f"scenario running {spec.protocol!r}; allowed: {sorted(allowed)}"
        )


def run_trial(spec: ScenarioSpec, seed: int) -> Dict[str, Any]:
    """Build, run, and grade one trial of ``spec`` with ``seed``.

    Returns a flat dict of plain scalars -- the only shape that crosses
    the worker/cache boundary: ``achieved`` / ``safe`` / ``live``
    (booleans), ``undecided`` / ``rounds`` / ``messages`` / ``faults``
    (counts).  With ``spec.collect_metrics`` the row additionally carries
    ``"wrong_commits"`` (correct nodes that committed a wrong value) and
    ``"metrics"``: the JSON-exact :func:`repro.obs.metrics_summary` of a
    :class:`repro.obs.RunMetrics` observer attached to the run (identical
    for any worker count, and stable across the cache boundary).
    """
    sc = build_scenario(spec, seed)
    if spec.validate:
        sc.validate()
    metrics = None
    if spec.collect_metrics:
        from repro.obs import RunMetrics

        metrics = RunMetrics(source=sc.source)
    out = sc.run(observers=(metrics,) if metrics is not None else None)
    row = {
        "achieved": bool(out.achieved),
        "safe": bool(out.safe),
        "live": bool(out.live),
        "undecided": len(out.undecided),
        "rounds": out.rounds,
        "messages": out.messages,
        "faults": len(sc.faulty_nodes),
    }
    if metrics is not None:
        from repro.obs import metrics_summary

        row["wrong_commits"] = len(out.wrong_commits)
        row["metrics"] = metrics_summary(metrics)
    return row
