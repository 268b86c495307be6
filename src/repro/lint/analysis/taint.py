"""``nondet-taint``: interprocedural nondeterminism reachability.

The determinism contract (see :mod:`repro.exec.executor`) makes four
entry points *sinks* whose entire call closure must be deterministic:

- :func:`repro.exec.specs.run_trial` and
  :func:`repro.exec.specs.build_scenario` (cached ground truth);
- :meth:`repro.radio.engine.Engine.run` (the simulation itself);
- every public adversary move kernel (``repro.adversary.moves``), whose
  draws must replay byte-identically during certification.

A *source* is anything whose value depends on process state rather than
the derived seed: module-level ``random`` draws, unseeded
``random.Random()`` / ``random.SystemRandom()``, global
``numpy.random.*`` draws and unseeded ``numpy.random.default_rng()`` /
``RandomState()``, ``time.*``, ``os.urandom``, ``uuid.*``, ``id()`` /
``hash()`` of objects (a ``hash()`` whose result is discarded -- a bare
expression statement probing hashability -- is not a source), and
order-sensitive iteration over a set
(including sets proven interprocedurally, e.g. a set passed into an
``Iterable`` parameter).

The only sanctioned barrier is :func:`repro.exec.seeds.derive_seed`:
call edges into it are not traversed (whatever enters it comes out as a
pure function of the spec identity).  Every source found in a sink's
closure is reported *at the source line* (so ordinary per-line
suppressions apply) with a witness call chain from the sink.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Tuple

from repro.lint.analysis.project import (
    FunctionInfo,
    ProjectModel,
    _head_name,
)
from repro.lint.findings import Finding
from repro.lint.rules import Rule, register
from repro.lint.sources import LintContext

#: bare function names never entered during closure traversal -- the
#: sanctioned nondeterminism barrier
BARRIER_NAMES = frozenset({"derive_seed"})

#: ``random`` members that are constructors, not draws
_RNG_CONSTRUCTORS = {"Random", "SystemRandom"}

#: call heads that materialize an iterable in iteration order
_ORDER_MATERIALIZERS = {"list", "tuple", "enumerate"}


def _is_sink(fn: FunctionInfo) -> bool:
    """Whether ``fn`` is one of the determinism sinks."""
    mod = fn.module.name
    if fn.cls is None and fn.name in ("run_trial", "build_scenario"):
        if mod == "exec.specs" or mod.endswith(".exec.specs"):
            return True
    if (
        fn.cls is not None
        and fn.name == "run"
        and fn.cls.rpartition(".")[2] == "Engine"
        and (mod == "radio.engine" or mod.endswith(".radio.engine"))
    ):
        return True
    parts = mod.split(".")
    if (
        fn.cls is None
        and "adversary" in parts
        and parts[-1] == "moves"
        and not fn.name.startswith("_")
    ):
        return True
    return False


def _sources(
    model: ProjectModel, fn: FunctionInfo
) -> List[Tuple[ast.AST, str]]:
    """``(node, description)`` for every nondeterminism source in ``fn``."""
    env = model.local_env(fn)
    mod = fn.module.name
    out: List[Tuple[ast.AST, str]] = []
    # calls whose value is discarded (bare expression statements): a
    # discarded hash() only probes hashability, so no value escapes
    discarded = {
        stmt.value for stmt in ast.walk(fn.node) if isinstance(stmt, ast.Expr)
    }
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Attribute):
            dotted = model.resolve_dotted(mod, node)
            if dotted and dotted.startswith("time."):
                out.append(
                    (node, f"wall-clock read '{dotted}'")
                )
            continue
        if isinstance(node, ast.For):
            t = model.expr_type(fn, env, node.iter)
            if t is not None and t.is_set:
                out.append(
                    (node.iter, "for-loop over a set (unordered)")
                )
            continue
        if isinstance(node, (ast.ListComp, ast.DictComp)):
            kind = (
                "list" if isinstance(node, ast.ListComp) else "dict"
            )
            for gen in node.generators:
                t = model.expr_type(fn, env, gen.iter)
                if t is not None and t.is_set:
                    out.append(
                        (
                            gen.iter,
                            f"{kind} comprehension over a set "
                            "(unordered)",
                        )
                    )
            continue
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            if (
                func.id in ("id", "hash")
                and model.resolve_symbol(mod, func.id) is None
                and not (func.id == "hash" and node in discarded)
            ):
                out.append(
                    (node, f"identity-dependent builtin '{func.id}()'")
                )
        head = _head_name(func)
        if head in _ORDER_MATERIALIZERS and node.args:
            t = model.expr_type(fn, env, node.args[0])
            if t is not None and t.is_set:
                out.append(
                    (node, f"'{head}()' materializes a set in set order")
                )
        dotted = (
            model.resolve_dotted(mod, func)
            if isinstance(func, (ast.Name, ast.Attribute))
            else None
        )
        if not dotted:
            continue
        root, _, member = dotted.partition(".")
        member = member.rpartition(".")[2] or member
        if root == "random" and member:
            if member == "Random":
                if not node.args and not node.keywords:
                    out.append((node, "unseeded 'random.Random()'"))
            elif member == "SystemRandom":
                out.append((node, "OS-entropy 'random.SystemRandom()'"))
            elif member != "seed":
                out.append(
                    (
                        node,
                        f"module-level RNG draw 'random.{member}' "
                        "(shared hidden state)",
                    )
                )
        elif dotted == "os.urandom":
            out.append((node, "OS-entropy 'os.urandom()'"))
        elif root == "uuid" and member:
            out.append((node, f"'uuid.{member}' (host/clock dependent)"))
        elif root == "numpy" and dotted.startswith("numpy.random."):
            # numpy's RNG surface mirrors stdlib random: the global
            # draws share hidden state, and the constructors are
            # OS-entropy unless explicitly seeded
            if member in ("default_rng", "RandomState"):
                if not node.args and not node.keywords:
                    out.append(
                        (node, f"unseeded 'numpy.random.{member}()'")
                    )
            elif member not in ("seed", "Generator"):
                out.append(
                    (
                        node,
                        f"global numpy RNG draw 'numpy.random.{member}' "
                        "(shared hidden state)",
                    )
                )
    return out


@register
class NondetTaintRule(Rule):
    """Flag nondeterminism sources reachable from determinism sinks.

    Whole-program pass over the :class:`ProjectModel` call graph:
    BFS the call closure of every sink (never crossing
    :data:`BARRIER_NAMES`), scan every reached function for sources,
    and report each source site once with the shortest witness chain.
    A source two calls upstream of ``run_trial`` is exactly as fatal as
    one inside it: the cached rows stop being a pure function of
    ``(spec, root_seed)``.
    """

    rule_id = "nondet-taint"
    deep = True
    description = (
        "no nondeterminism source (random/numpy.random/time/uuid/"
        "os.urandom/id/hash/set iteration) may reach Engine.run, "
        "run_trial, build_scenario, or an adversary move kernel except "
        "through derive_seed"
    )

    def check_project(self, ctx: LintContext) -> Iterator[Finding]:
        """Run the taint pass over the whole lint context."""
        model = ctx.project
        sinks = sorted(
            (f for f in model.functions.values() if _is_sink(f)),
            key=lambda f: f.qualname,
        )
        reported: Dict[Tuple[str, int, int, str], bool] = {}
        for sink in sinks:
            parents = model.reachable_from(
                [sink.qualname], stop=set(BARRIER_NAMES)
            )
            for qualname in sorted(parents):
                fn = model.functions.get(qualname)
                if fn is None:
                    continue
                for node, desc in _sources(model, fn):
                    key = (
                        fn.module.name,
                        getattr(node, "lineno", 0),
                        getattr(node, "col_offset", 0),
                        desc,
                    )
                    if key in reported:
                        continue
                    reported[key] = True
                    chain = model.call_chain(parents, qualname)
                    path = " -> ".join(chain)
                    yield self.finding(
                        fn.module,
                        node,
                        f"{desc} reaches determinism sink "
                        f"'{sink.qualname}' (call path: {path}); "
                        "derive randomness via derive_seed or iterate "
                        "via sorted(...)",
                    )
