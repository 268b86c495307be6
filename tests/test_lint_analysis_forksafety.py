"""Fork-safety pass tests.

The pass finds the functions shipped across a process boundary -- the
first argument of ``pool.map``/``submit`` inside a ``with ...Pool(...)``
block -- walks their call closures, and flags the shared-state hazards
a fork can turn into silent divergence: mutable default arguments,
global rebinding, module-state mutation, and reads of unfrozen
module-level mutable registries.
"""

import os

from repro.lint.analysis.forksafety import pool_entry_functions
from repro.lint.sources import LintContext, discover_py_files, load_modules
from tests.test_lint_rules import run_lint

SRC_REPRO = os.path.join(os.path.dirname(__file__), "..", "src", "repro")

RULE = ["fork-safety"]

EXECUTOR = (
    "import multiprocessing as mp\n"
    "from repro.exec.worker import run_unit\n"
    "def sweep(payloads):\n"
    "    ctx = mp.get_context('fork')\n"
    "    with ctx.Pool(2) as pool:\n"
    "        return pool.map(run_unit, payloads)\n"
)


def findings(report):
    return [f for f in report.findings if f.rule_id == "fork-safety"]


def lint_worker(tmp_path, worker_source):
    return run_lint(
        tmp_path,
        {
            "repro/exec/executor.py": EXECUTOR,
            "repro/exec/worker.py": worker_source,
        },
        RULE,
    )


class TestHazards:
    def test_mutable_default_argument(self, tmp_path):
        report = lint_worker(
            tmp_path,
            "def run_unit(payload, extras=[]):\n"
            "    extras.append(payload)\n"
            "    return extras\n",
        )
        assert any("mutable default" in f.message for f in findings(report))

    def test_global_rebinding(self, tmp_path):
        report = lint_worker(
            tmp_path,
            "COUNT = 0\n"
            "def run_unit(payload):\n"
            "    global COUNT\n"
            "    COUNT = COUNT + 1\n"
            "    return payload\n",
        )
        assert any("rebinds global" in f.message for f in findings(report))

    def test_module_state_mutation_in_callee(self, tmp_path):
        """Hazards in the closure count, not just the entry function."""
        report = lint_worker(
            tmp_path,
            "_CACHE = {}\n"
            "def remember(key, value):\n"
            "    _CACHE[key] = value\n"
            "def run_unit(payload):\n"
            "    remember(payload, 1)\n"
            "    return payload\n",
        )
        assert any(
            "mutates module-level" in f.message for f in findings(report)
        )

    def test_unfrozen_registry_read(self, tmp_path):
        report = lint_worker(
            tmp_path,
            "STRATEGIES = {'a': 1}\n"
            "def run_unit(payload):\n"
            "    return STRATEGIES[payload]\n",
        )
        found = findings(report)
        assert any("mutable registry" in f.message for f in found)

    def test_frozen_registry_read_is_clean(self, tmp_path):
        report = lint_worker(
            tmp_path,
            "from types import MappingProxyType\n"
            "STRATEGIES = MappingProxyType({'a': 1})\n"
            "def run_unit(payload):\n"
            "    return STRATEGIES[payload]\n",
        )
        assert findings(report) == []

    def test_local_shadowing_is_not_a_mutation(self, tmp_path):
        """Mutating a *local* that shadows a module name is fine."""
        report = lint_worker(
            tmp_path,
            "from types import MappingProxyType\n"
            "DEFAULTS = MappingProxyType({'a': 1})\n"
            "def run_unit(payload):\n"
            "    DEFAULTS = {}\n"
            "    DEFAULTS['b'] = payload\n"
            "    return DEFAULTS\n",
        )
        assert findings(report) == []

    def test_hazard_outside_pool_closure_is_ignored(self, tmp_path):
        """The same registry read is silent when nothing submits the
        function to a pool."""
        report = run_lint(
            tmp_path,
            {
                "repro/exec/worker.py": (
                    "STRATEGIES = {'a': 1}\n"
                    "def run_unit(payload):\n"
                    "    return STRATEGIES[payload]\n"
                ),
            },
            RULE,
        )
        assert findings(report) == []


class TestShippedTree:
    def test_executor_unit_function_is_a_submission_entry(self):
        """The executor's one pool call,
        ``pool.imap_unordered(_run_unit, tasks)`` in ``_compute_units``,
        names the unit function the pool ships, so the pass walks the
        real closure -- not just the fixtures above."""
        modules, failures = load_modules(discover_py_files([SRC_REPRO]))
        assert not failures
        entries = pool_entry_functions(LintContext(modules).project)
        assert "repro.exec.executor._run_unit" in {
            fn.qualname for fn in entries
        }
