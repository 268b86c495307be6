"""Cache-key-soundness pass tests.

The load-bearing case runs against the *shipped* ``repro/exec/specs.py``:
as checked in (with ``collect_metrics`` exempted) the pass is silent,
and deleting the ``KEY_EXEMPT_FIELDS`` entry makes it fail -- the
negative test the issue's acceptance criteria demand.  Synthetic
fixtures then pin the read-collection and exemption-hygiene behaviors.
"""

import os
import re

from repro.lint import Severity
from tests.test_lint_rules import run_lint

RULE = ["cache-key-soundness"]
SPECS_PATH = os.path.join(
    os.path.dirname(__file__), "..", "src", "repro", "exec", "specs.py"
)


def errors(report):
    return [
        f
        for f in report.findings
        if f.rule_id == "cache-key-soundness" and f.severity is Severity.ERROR
    ]


class TestShippedSpecs:
    def test_shipped_specs_is_sound(self, tmp_path):
        source = open(SPECS_PATH).read()
        report = run_lint(
            tmp_path, {"repro/exec/specs.py": source}, RULE
        )
        assert errors(report) == []

    def test_removing_collect_metrics_exemption_fails(self, tmp_path):
        """Deleting the annotation entry must break the pass: that is
        the whole point of making exemptions explicit."""
        source = open(SPECS_PATH).read()
        stripped = re.sub(
            r'    "collect_metrics": \(\n(?:        .*\n)+    \),\n',
            "",
            source,
        )
        assert stripped != source, "exemption entry not found to delete"
        report = run_lint(
            tmp_path, {"repro/exec/specs.py": stripped}, RULE
        )
        found = errors(report)
        assert len(found) >= 1
        assert any("collect_metrics" in f.message for f in found)

    def test_removing_topology_conditional_keying_fails(self, tmp_path):
        """The scenario-axis fields are keyed *conditionally* (the
        default level is omitted for key stability); deleting the
        non-default re-add must fail the pass, because ``topology`` is
        read in ``build_scenario`` and is not exempt."""
        source = open(SPECS_PATH).read()
        stripped = re.sub(
            r'        if self\.topology != "torus":\n'
            r'            payload\["topology"\] = self\.topology\n',
            "",
            source,
        )
        assert stripped != source, "topology re-add not found to delete"
        report = run_lint(
            tmp_path, {"repro/exec/specs.py": stripped}, RULE
        )
        found = errors(report)
        assert any("topology" in f.message for f in found), found


class TestSyntheticFixtures:
    SPEC_PREAMBLE = (
        "import json\n"
        "from dataclasses import dataclass, fields\n"
        "KEY_EXEMPT_FIELDS = {}\n"
        "@dataclass(frozen=True)\n"
        "class ScenarioSpec:\n"
        "    kind: str\n"
        "    r: int\n"
        "    debug_label: str = ''\n"
        "    def key_payload(self):\n"
        "        return {\n"
        "            f.name: getattr(self, f.name)\n"
        "            for f in fields(self)\n"
        "            if f.name not in ('debug_label',)\n"
        "        }\n"
        "    def scenario_key(self):\n"
        "        return json.dumps(self.key_payload(), sort_keys=True)\n"
    )

    def test_unkeyed_read_in_helper_is_flagged(self, tmp_path):
        """A read through a helper (not run_trial itself) is caught --
        the collection is over the whole call closure."""
        report = run_lint(
            tmp_path,
            {
                "repro/exec/specs.py": (
                    self.SPEC_PREAMBLE
                    + "def describe(spec: ScenarioSpec):\n"
                    "    return spec.debug_label\n"
                    "def run_trial(spec: ScenarioSpec, seed):\n"
                    "    return {'label': describe(spec)}\n"
                ),
            },
            RULE,
        )
        found = errors(report)
        assert len(found) == 1
        assert "debug_label" in found[0].message
        # anchored at the read site inside the helper
        assert found[0].line == 18

    def test_keyed_reads_are_clean(self, tmp_path):
        report = run_lint(
            tmp_path,
            {
                "repro/exec/specs.py": (
                    self.SPEC_PREAMBLE
                    + "def run_trial(spec: ScenarioSpec, seed):\n"
                    "    return {'kind': spec.kind, 'r': spec.r}\n"
                ),
            },
            RULE,
        )
        assert errors(report) == []

    def test_exempted_read_is_clean(self, tmp_path):
        source = self.SPEC_PREAMBLE.replace(
            "KEY_EXEMPT_FIELDS = {}\n",
            "KEY_EXEMPT_FIELDS = {\n"
            "    'debug_label': 'display only: never touches the run',\n"
            "}\n",
        ) + (
            "def run_trial(spec: ScenarioSpec, seed):\n"
            "    return {'label': spec.debug_label}\n"
        )
        report = run_lint(
            tmp_path, {"repro/exec/specs.py": source}, RULE
        )
        assert errors(report) == []

    def test_stale_exemption_is_warned(self, tmp_path):
        """An exemption for a field that is keyed (or never read) is
        hygiene rot: reported as a warning, not an error."""
        source = self.SPEC_PREAMBLE.replace(
            "KEY_EXEMPT_FIELDS = {}\n",
            "KEY_EXEMPT_FIELDS = {\n"
            "    'kind': 'stale reason',\n"
            "}\n",
        ) + (
            "def run_trial(spec: ScenarioSpec, seed):\n"
            "    return {'kind': spec.kind}\n"
        )
        report = run_lint(
            tmp_path, {"repro/exec/specs.py": source}, RULE
        )
        assert errors(report) == []
        warnings = [
            f
            for f in report.findings
            if f.rule_id == "cache-key-soundness"
            and f.severity is Severity.WARNING
        ]
        assert len(warnings) >= 1
        assert any("kind" in f.message for f in warnings)
