"""``fork-safety``: worker-submitted closures must not touch shared
state.

The sweep executor fans work units out to worker processes through a
forked ``multiprocessing`` pool.  A worker sees a *snapshot* of module
state; anything the submitted closure mutates -- or reads from a
module-level mutable that the parent may have mutated -- silently
diverges between serial (``workers=1``) and parallel runs, breaking the
executor's byte-identical contract.

The pass finds every function submitted across a process boundary --
the first argument of ``pool.map`` / ``imap`` / ``apply_async`` / ...
on a variable bound from a ``...Pool(...)`` call, as in the executor's
``pool.imap_unordered(_run_unit, tasks)`` -- and walks its call
closure for:

1. **mutable default arguments** -- shared across calls *within* one
   worker but reset per fork: results depend on the chunk-to-worker
   assignment;
2. **``global`` rebinding** of a module-level name;
3. **in-place mutation** of module-level state (mutating method calls,
   subscript stores, ``del``, augmented assignment);
4. **reads of public module-level mutable registries** (``UPPER_CASE``
   dict/list/set literals): these work today only because nobody
   mutates them -- freeze them (``types.MappingProxyType``, ``tuple``,
   ``frozenset``) so the invariant is structural, not social.

Private underscore names and ``__all__`` are out of scope for check 4
(they are module-internal by convention); checks 1-3 apply everywhere
in the closure.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from repro.lint.analysis.project import (
    FunctionInfo,
    ModuleBinding,
    ProjectModel,
    _head_name,
    _value_mutability,
)
from repro.lint.findings import Finding
from repro.lint.rules import Rule, register
from repro.lint.sources import LintContext

#: pool methods whose first argument is a function shipped to workers
_SUBMIT_METHODS = {
    "map", "imap", "imap_unordered", "starmap", "apply", "apply_async",
    "map_async", "starmap_async", "submit",
}

#: method names that mutate their receiver in place (the model-rule set
#: plus container extras)
_MUTATING_METHODS = {
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "add", "discard", "update", "setdefault", "popitem",
    "appendleft", "extendleft",
}


def _bound_names(target: ast.AST, out: Set[str]) -> None:
    """Names a binding target actually binds.

    ``x, (y, *z) = ...`` binds x/y/z; ``d[k] = ...`` and ``o.a = ...``
    bind *nothing* (they mutate an existing object), so recursion stops
    at Subscript/Attribute -- treating those as local bindings would
    hide real module-state mutations behind the shadowing guard.
    """
    if isinstance(target, ast.Name):
        out.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            _bound_names(elt, out)
    elif isinstance(target, ast.Starred):
        _bound_names(target.value, out)


def _local_names(fn: FunctionInfo) -> Set[str]:
    """Names bound locally in ``fn`` (params, assignments, loops, ...)."""
    out: Set[str] = set(fn.params)
    for node in ast.walk(fn.node):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for tgt in targets:
                _bound_names(tgt, out)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            _bound_names(node.target, out)
        elif isinstance(node, ast.withitem):
            if node.optional_vars is not None:
                _bound_names(node.optional_vars, out)
        elif isinstance(node, ast.comprehension):
            _bound_names(node.target, out)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            out.add(node.name)
    # names declared global are *not* local -- mutations must be seen
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Global):
            out.difference_update(node.names)
    return out


def _binding_for(
    model: ProjectModel, fn: FunctionInfo, node: ast.AST, locals_: Set[str]
) -> "ModuleBinding | None":
    """Module binding a Name/Attribute chain refers to, if any."""
    root = node
    while isinstance(root, (ast.Attribute, ast.Subscript)):
        root = root.value
    if isinstance(root, ast.Name) and root.id in locals_:
        return None
    if isinstance(node, ast.Name):
        qn = model.resolve_symbol(fn.module.name, node.id)
    elif isinstance(node, (ast.Attribute,)):
        qn = model.resolve_dotted(fn.module.name, node)
    else:
        return None
    return model.bindings.get(qn) if qn else None


def pool_entry_functions(model: ProjectModel) -> List[FunctionInfo]:
    """Every function shipped across a process boundary: passed to a
    submission method of a multiprocessing pool."""
    entries: List[FunctionInfo] = []
    seen: Set[str] = set()
    for qualname in sorted(model.functions):
        fn = model.functions[qualname]
        pool_vars: Set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.withitem):
                call = node.context_expr
                if (
                    isinstance(call, ast.Call)
                    and _head_name(call.func).endswith("Pool")
                    and isinstance(node.optional_vars, ast.Name)
                ):
                    pool_vars.add(node.optional_vars.id)
            elif isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                if _head_name(node.value.func).endswith("Pool"):
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Name):
                            pool_vars.add(tgt.id)
        if not pool_vars:
            continue
        for node in ast.walk(fn.node):
            # only on variables bound from a ...Pool(...) call (method
            # names like 'map' are far too common to match bare)
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SUBMIT_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in pool_vars
                and node.args
                and isinstance(node.args[0], ast.Name)
            ):
                continue
            qn = model.resolve_symbol(fn.module.name, node.args[0].id)
            target = model.functions.get(qn) if qn else None
            if target is not None and target.qualname not in seen:
                seen.add(target.qualname)
                entries.append(target)
    return entries


@register
class ForkSafetyRule(Rule):
    """Flag shared-state hazards in pool-submitted call closures."""

    rule_id = "fork-safety"
    deep = True
    description = (
        "functions shipped to the multiprocessing pool must not carry "
        "mutable defaults, rebind globals, mutate module state, or "
        "read unfrozen module-level mutable registries"
    )

    def check_project(self, ctx: LintContext) -> Iterator[Finding]:
        """Run the fork-safety pass over the whole lint context."""
        model = ctx.project
        seen: Set[Tuple[str, int, int, str]] = set()
        for entry in pool_entry_functions(model):
            parents = model.reachable_from([entry.qualname])
            for qualname in sorted(parents):
                fn = model.functions.get(qualname)
                if fn is None:
                    continue
                for f in self._check_function(model, fn, entry):
                    key = (f.path, f.line, f.col, f.message)
                    if key not in seen:
                        seen.add(key)
                        yield f

    def _check_function(
        self, model: ProjectModel, fn: FunctionInfo, entry: FunctionInfo
    ) -> Iterator[Finding]:
        where = (
            f"'{fn.qualname}' (in the pool-submitted closure of "
            f"'{entry.qualname}')"
        )
        args = fn.node.args
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            mutable, kind = _value_mutability(default)
            if mutable:
                yield self.finding(
                    fn.module,
                    default,
                    f"mutable default argument ({kind}) on {where}; "
                    "worker results depend on call history -- default "
                    "to None and build inside",
                )
        global_names: Set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Global):
                global_names.update(node.names)
        locals_ = _local_names(fn)
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for tgt in targets:
                    if (
                        isinstance(tgt, ast.Name)
                        and tgt.id in global_names
                    ):
                        yield self.finding(
                            fn.module,
                            node,
                            f"rebinds global '{tgt.id}' in {where}; "
                            "worker-local rebinding diverges from the "
                            "parent process",
                        )
                    elif isinstance(tgt, (ast.Subscript, ast.Attribute)):
                        binding = _binding_for(
                            model, fn, tgt.value, locals_
                        )
                        if binding is not None:
                            yield self.finding(
                                fn.module,
                                node,
                                f"mutates module-level "
                                f"'{binding.qualname}' in {where}; "
                                "forked workers never see each "
                                "other's writes",
                            )
            elif isinstance(node, ast.Delete):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Subscript):
                        binding = _binding_for(
                            model, fn, tgt.value, locals_
                        )
                        if binding is not None:
                            yield self.finding(
                                fn.module,
                                node,
                                f"deletes from module-level "
                                f"'{binding.qualname}' in {where}",
                            )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in _MUTATING_METHODS:
                    binding = _binding_for(
                        model, fn, node.func.value, locals_
                    )
                    if binding is not None and binding.mutable:
                        yield self.finding(
                            fn.module,
                            node,
                            f"calls mutating '.{node.func.attr}()' on "
                            f"module-level '{binding.qualname}' in "
                            f"{where}",
                        )
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load
            ):
                binding = _binding_for(model, fn, node, locals_)
                yield from self._registry_read(fn, where, node, binding)

    def _registry_read(
        self,
        fn: FunctionInfo,
        where: str,
        node: ast.AST,
        binding: "ModuleBinding | None",
    ) -> Iterator[Finding]:
        if binding is None or not binding.mutable:
            return
        name = binding.name
        if name.startswith("_") or name == "__all__" or not name.isupper():
            return
        yield self.finding(
            fn.module,
            node,
            f"reads module-level mutable registry '{binding.qualname}' "
            f"({binding.kind}) in {where}; freeze it with "
            "types.MappingProxyType / tuple / frozenset so a parent-"
            "process mutation can never diverge from the fork snapshot",
        )
