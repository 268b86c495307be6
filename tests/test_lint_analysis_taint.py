"""Nondeterminism-taint pass tests.

The acceptance fixture is the issue's own: an unseeded
``random.random()`` *two calls upstream* of ``run_trial`` must be
flagged, with the witness call path in the message.  The rest pins the
source catalog (time, urandom, uuid, numpy.random, set iteration, ``id()``,
``hash()`` except a discarded hashability probe), the
``derive_seed`` barrier, and the sink catalog (``Engine.run``,
``build_scenario``, adversary move kernels).
"""

from tests.test_lint_rules import run_lint

RULE = ["nondet-taint"]


def findings(report):
    return [f for f in report.findings if f.rule_id == "nondet-taint"]


class TestAcceptanceFixture:
    def test_unseeded_random_two_calls_upstream_of_run_trial(self, tmp_path):
        report = run_lint(
            tmp_path,
            {
                "repro/exec/specs.py": (
                    "from repro.util.jitter import jitter\n"
                    "def helper(spec):\n"
                    "    return jitter(spec)\n"
                    "def run_trial(spec, seed):\n"
                    "    return {'x': helper(spec)}\n"
                ),
                "repro/util/jitter.py": (
                    "import random\n"
                    "def jitter(spec):\n"
                    "    return random.random()\n"
                ),
            },
            RULE,
        )
        found = findings(report)
        assert len(found) == 1
        f = found[0]
        # anchored at the source site, not the sink
        assert f.module == "repro.util.jitter"
        assert f.line == 3
        assert "run_trial" in f.message
        # the witness path names every hop
        assert "helper" in f.message and "jitter" in f.message

    def test_derive_seed_barrier_sanctions_the_path(self, tmp_path):
        """The same shape is clean when randomness flows through the
        sanctioned breaker."""
        report = run_lint(
            tmp_path,
            {
                "repro/exec/seeds.py": (
                    "def derive_seed(root, key, index):\n"
                    "    return hash((root, key, index))\n"
                ),
                "repro/exec/specs.py": (
                    "import random\n"
                    "from repro.exec.seeds import derive_seed\n"
                    "def run_trial(spec, seed):\n"
                    "    rng = random.Random(derive_seed(0, 'k', 0))\n"
                    "    return rng.random()\n"
                ),
            },
            RULE,
        )
        assert findings(report) == []


class TestSourceCatalog:
    def _lint_source_in_sink(self, tmp_path, body, extra_imports=""):
        return run_lint(
            tmp_path,
            {
                "repro/exec/specs.py": (
                    f"{extra_imports}"
                    "def run_trial(spec, seed):\n"
                    f"    {body}\n"
                ),
            },
            RULE,
        )

    def test_time_source(self, tmp_path):
        report = self._lint_source_in_sink(
            tmp_path, "return time.time()", "import time\n"
        )
        assert len(findings(report)) == 1

    def test_urandom_source(self, tmp_path):
        report = self._lint_source_in_sink(
            tmp_path, "return os.urandom(8)", "import os\n"
        )
        assert len(findings(report)) == 1

    def test_uuid_source(self, tmp_path):
        report = self._lint_source_in_sink(
            tmp_path, "return uuid.uuid4()", "import uuid\n"
        )
        assert len(findings(report)) == 1

    def test_set_iteration_source(self, tmp_path):
        report = self._lint_source_in_sink(
            tmp_path, "return [x for x in {1, 2, 3}]"
        )
        assert len(findings(report)) == 1

    def test_sorted_set_iteration_is_clean(self, tmp_path):
        report = self._lint_source_in_sink(
            tmp_path, "return [x for x in sorted({1, 2, 3})]"
        )
        assert findings(report) == []

    def test_hash_value_reaching_sink_is_source(self, tmp_path):
        report = self._lint_source_in_sink(
            tmp_path, "h = hash(spec)\n    return {'h': h}"
        )
        found = findings(report)
        assert len(found) == 1
        assert "hash()" in found[0].message

    def test_discarded_hash_probe_is_clean(self, tmp_path):
        """``hash(v)`` as a bare statement only probes hashability (it
        raises or not); no identity-dependent value escapes."""
        report = run_lint(
            tmp_path,
            {
                "repro/exec/specs.py": (
                    "from repro.util.probe import hashable\n"
                    "def run_trial(spec, seed):\n"
                    "    return {'ok': hashable(spec)}\n"
                ),
                "repro/util/probe.py": (
                    "def hashable(value):\n"
                    "    try:\n"
                    "        hash(value)\n"
                    "    except TypeError:\n"
                    "        return False\n"
                    "    return True\n"
                ),
            },
            RULE,
        )
        assert findings(report) == []

    def test_discarded_id_is_still_a_source(self, tmp_path):
        report = self._lint_source_in_sink(tmp_path, "id(spec)\n    return 0")
        assert len(findings(report)) == 1

    def test_seeded_rng_is_clean(self, tmp_path):
        report = self._lint_source_in_sink(
            tmp_path, "return random.Random(seed).random()", "import random\n"
        )
        assert findings(report) == []


    def test_numpy_global_draw_source(self, tmp_path):
        report = self._lint_source_in_sink(
            tmp_path, "return np.random.rand()", "import numpy as np\n"
        )
        assert len(findings(report)) == 1
        assert "numpy.random.rand" in findings(report)[0].message

    def test_numpy_unseeded_default_rng_source(self, tmp_path):
        report = self._lint_source_in_sink(
            tmp_path,
            "return default_rng().integers(8)",
            "from numpy.random import default_rng\n",
        )
        assert len(findings(report)) == 1
        assert "default_rng" in findings(report)[0].message

    def test_numpy_unseeded_randomstate_source(self, tmp_path):
        report = self._lint_source_in_sink(
            tmp_path,
            "return np.random.RandomState().rand()",
            "import numpy as np\n",
        )
        # the constructor is flagged; the .rand() draw on the returned
        # object is instance state, not the shared global
        assert len(findings(report)) == 1
        assert "RandomState" in findings(report)[0].message

    def test_numpy_seeded_default_rng_is_clean(self, tmp_path):
        report = self._lint_source_in_sink(
            tmp_path,
            "return default_rng(seed).integers(8)",
            "from numpy.random import default_rng\n",
        )
        assert findings(report) == []

    def test_numpy_seeded_randomstate_is_clean(self, tmp_path):
        report = self._lint_source_in_sink(
            tmp_path,
            "return np.random.RandomState(seed).rand()",
            "import numpy as np\n",
        )
        assert findings(report) == []


class TestSinkCatalog:
    def test_engine_run_is_a_sink(self, tmp_path):
        report = run_lint(
            tmp_path,
            {
                "repro/radio/engine.py": (
                    "import random\n"
                    "class Engine:\n"
                    "    def run(self):\n"
                    "        return random.random()\n"
                ),
            },
            RULE,
        )
        assert len(findings(report)) == 1
        assert "Engine.run" in findings(report)[0].message

    def test_adversary_move_kernel_is_a_sink(self, tmp_path):
        report = run_lint(
            tmp_path,
            {
                "repro/adversary/moves.py": (
                    "import random\n"
                    "def add_fault(state, rng):\n"
                    "    return random.random()\n"
                ),
            },
            RULE,
        )
        assert len(findings(report)) == 1

    def test_unrelated_module_is_not_a_sink(self, tmp_path):
        """A random draw in a function no sink reaches stays silent."""
        report = run_lint(
            tmp_path,
            {
                "repro/viz/plots.py": (
                    "import random\n"
                    "def scatter_jitter():\n"
                    "    return random.random()\n"
                ),
            },
            RULE,
        )
        assert findings(report) == []
