"""Tests for the simlint determinism linter.

Every rule gets at least one fixture snippet that must fire and one
near-miss snippet that must not; plus pragma suppression, baseline
application (including stale-entry detection), the ``--json`` document,
and the CLI exit-code contract.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.findings import Finding
from repro.analysis.rules import RULE_REGISTRY
from repro.analysis.simlint import lint_source, main

SIM_PATH = "src/repro/fleet/example.py"  # inside an ordering-sensitive package
PLAIN_PATH = "src/repro/workload/example.py"  # simulated code, not ordering-sensitive
TEST_PATH = "tests/unit/test_example.py"


def rules_of(findings: list[Finding]) -> list[str]:
    return [f.rule for f in findings]


def assert_fires(source: str, rule: str, path: str = PLAIN_PATH) -> list[Finding]:
    findings = lint_source(source, path=path)
    assert rule in rules_of(findings), f"expected {rule} to fire on:\n{source}"
    return [f for f in findings if f.rule == rule]


def assert_clean(source: str, rule: str, path: str = PLAIN_PATH) -> None:
    findings = lint_source(source, path=path)
    assert rule not in rules_of(findings), (
        f"expected {rule} NOT to fire on:\n{source}\ngot: {findings}"
    )


# ---------------------------------------------------------------------------
# SIM001: unseeded / global-state randomness
# ---------------------------------------------------------------------------


class TestSIM001:
    def test_global_stdlib_draw_fires(self):
        assert_fires("import random\nx = random.random()\n", "SIM001")

    def test_global_stdlib_shuffle_fires(self):
        assert_fires("import random\nrandom.shuffle(items)\n", "SIM001")

    def test_unseeded_default_rng_fires(self):
        assert_fires("import numpy as np\nrng = np.random.default_rng()\n", "SIM001")

    def test_legacy_np_global_fires(self):
        assert_fires("import numpy as np\nx = np.random.rand(3)\n", "SIM001")

    def test_unseeded_random_instance_fires(self):
        assert_fires("import random\nrng = random.Random()\n", "SIM001")

    def test_system_random_fires(self):
        assert_fires("import random\nrng = random.SystemRandom()\n", "SIM001")

    def test_seeded_stdlib_in_sim_dir_fires(self):
        # Inside ordering-sensitive packages even a *seeded* stdlib stream
        # must justify itself in the baseline.
        assert_fires("import random\nrng = random.Random(seed)\n", "SIM001", path=SIM_PATH)

    def test_seeded_default_rng_clean(self):
        assert_clean("import numpy as np\nrng = np.random.default_rng(42)\n", "SIM001")

    def test_seeded_stdlib_outside_sim_dirs_clean(self):
        assert_clean("import random\nrng = random.Random(7)\n", "SIM001")

    def test_generator_method_clean(self):
        assert_clean("x = rng.random()\ny = rng.integers(0, 10)\n", "SIM001")

    def test_test_code_exempt(self):
        assert_clean("import random\nx = random.random()\n", "SIM001", path=TEST_PATH)


# ---------------------------------------------------------------------------
# SIM002: wall-clock reads
# ---------------------------------------------------------------------------


class TestSIM002:
    def test_time_time_fires(self):
        assert_fires("import time\nt = time.time()\n", "SIM002")

    def test_perf_counter_fires(self):
        assert_fires("import time\nt = time.perf_counter()\n", "SIM002")

    def test_datetime_now_fires(self):
        assert_fires(
            "import datetime\nt = datetime.datetime.now()\n", "SIM002"
        )

    def test_engine_now_clean(self):
        assert_clean("t = engine.now\n", "SIM002")

    def test_perf_module_allowlisted(self):
        assert_clean(
            "import time\nt = time.perf_counter()\n", "SIM002",
            path="src/repro/obs/profiler.py",
        )

    def test_cli_allowlisted(self):
        assert_clean("import time\nt = time.time()\n", "SIM002", path="src/repro/cli.py")

    def test_benchmarks_allowlisted(self):
        assert_clean(
            "import time\nt = time.monotonic()\n", "SIM002",
            path="benchmarks/bench_engine.py",
        )

    def test_test_code_exempt(self):
        assert_clean("import time\nt = time.time()\n", "SIM002", path=TEST_PATH)


# ---------------------------------------------------------------------------
# SIM003: set iteration order
# ---------------------------------------------------------------------------


class TestSIM003:
    def test_for_over_set_literal_fires(self):
        assert_fires("for m in {1, 2, 3}:\n    go(m)\n", "SIM003", path=SIM_PATH)

    def test_for_over_tracked_set_name_fires(self):
        assert_fires(
            "machines = set()\nfor m in machines:\n    go(m)\n", "SIM003", path=SIM_PATH
        )

    def test_for_over_annotated_self_attr_fires(self):
        source = (
            "class Pool:\n"
            "    def __init__(self):\n"
            "        self.live: set[int] = set()\n"
            "    def drain(self):\n"
            "        for m in self.live:\n"
            "            go(m)\n"
        )
        assert_fires(source, "SIM003", path=SIM_PATH)

    def test_list_of_set_fires(self):
        assert_fires("s = {1, 2}\nitems = list(s)\n", "SIM003", path=SIM_PATH)

    def test_comprehension_over_set_fires(self):
        assert_fires("s = set()\nout = [x for x in s]\n", "SIM003", path=SIM_PATH)

    def test_set_pop_fires(self):
        assert_fires("s = {1, 2}\nx = s.pop()\n", "SIM003", path=SIM_PATH)

    def test_sorted_set_clean(self):
        assert_clean("s = {3, 1}\nfor m in sorted(s):\n    go(m)\n", "SIM003", path=SIM_PATH)

    def test_set_into_set_comprehension_clean(self):
        # set -> set keeps it unordered; no order is observed.
        assert_clean("s = {1, 2}\nout = {x + 1 for x in s}\n", "SIM003", path=SIM_PATH)

    def test_rebound_name_clean(self):
        assert_clean(
            "s = {1, 2}\ns = sorted(s)\nfor m in s:\n    go(m)\n", "SIM003", path=SIM_PATH
        )

    def test_outside_sim_dirs_not_checked(self):
        assert_clean("for m in {1, 2}:\n    go(m)\n", "SIM003", path=PLAIN_PATH)

    def test_membership_check_clean(self):
        assert_clean("s = {1, 2}\nok = 1 in s\n", "SIM003", path=SIM_PATH)


# ---------------------------------------------------------------------------
# SIM004: named event priorities
# ---------------------------------------------------------------------------


class TestSIM004:
    def test_bare_int_priority_fires(self):
        assert_fires(
            "engine.schedule_at(t, cb, priority=1, tag='x')\n", "SIM004", path=SIM_PATH
        )

    def test_arbitrary_name_fires(self):
        assert_fires(
            "engine.schedule_after(d, cb, priority=level)\n", "SIM004", path=SIM_PATH
        )

    def test_named_constant_clean(self):
        assert_clean(
            "engine.schedule_at(t, cb, priority=FAULT_EVENT_PRIORITY)\n",
            "SIM004",
            path=SIM_PATH,
        )

    def test_dotted_constant_clean(self):
        assert_clean(
            "engine.schedule_at(t, cb, priority=events.ARRIVAL_EVENT_PRIORITY)\n",
            "SIM004",
            path=SIM_PATH,
        )

    def test_forwarded_priority_variable_clean(self):
        # Forwarding a parameter literally named `priority` is the
        # RecurringTask pattern, not a re-derived ladder.
        assert_clean(
            "engine.schedule_after(d, cb, priority=priority)\n", "SIM004", path=SIM_PATH
        )

    def test_positional_priority_not_checked(self):
        # Only keyword priorities are inspected; positional ones are rare
        # enough that the rule stays quiet rather than guessing signatures.
        assert_clean("engine.schedule_at(t, cb, 1)\n", "SIM004", path=SIM_PATH)

    def test_default_priority_omitted_clean(self):
        assert_clean("engine.schedule_at(t, cb, tag='x')\n", "SIM004", path=SIM_PATH)


# ---------------------------------------------------------------------------
# SIM005: frozen-instance mutation
# ---------------------------------------------------------------------------


class TestSIM005:
    def test_foreign_setattr_fires(self):
        assert_fires(
            "object.__setattr__(event, 'cancelled', True)\n", "SIM005", path=SIM_PATH
        )

    def test_foreign_delattr_fires(self):
        assert_fires("object.__delattr__(cfg, 'seed')\n", "SIM005", path=SIM_PATH)

    def test_self_setattr_clean(self):
        source = (
            "class Event:\n"
            "    def _mark(self):\n"
            "        object.__setattr__(self, 'fired', True)\n"
        )
        assert_clean(source, "SIM005", path=SIM_PATH)


# ---------------------------------------------------------------------------
# SIM006: exact simulated-time comparison
# ---------------------------------------------------------------------------


class TestSIM006:
    def test_eq_on_time_attrs_fires(self):
        assert_fires("if event.time == engine.now:\n    pass\n", "SIM006", path=SIM_PATH)

    def test_neq_on_deadline_fires(self):
        assert_fires("done = deadline != finish_time\n", "SIM006", path=SIM_PATH)

    def test_suffix_match_fires(self):
        assert_fires("if arrival_time_s == depart_time_s:\n    pass\n", "SIM006", path=SIM_PATH)

    def test_literal_sentinel_clean(self):
        # Comparisons against literal sentinels are state flags, not
        # independently computed times.
        assert_clean("if start_time == 0.0:\n    pass\n", "SIM006", path=SIM_PATH)

    def test_inequality_clean(self):
        assert_clean("if event.time <= engine.now:\n    pass\n", "SIM006", path=SIM_PATH)

    def test_non_time_names_clean(self):
        assert_clean("if count == total:\n    pass\n", "SIM006", path=SIM_PATH)


# ---------------------------------------------------------------------------
# SIM007: os.environ reads
# ---------------------------------------------------------------------------


class TestSIM007:
    def test_environ_get_fires(self):
        assert_fires("import os\nv = os.environ.get('X')\n", "SIM007")

    def test_getenv_fires(self):
        assert_fires("import os\nv = os.getenv('X', '1')\n", "SIM007")

    def test_environ_subscript_fires(self):
        assert_fires("import os\nv = os.environ['X']\n", "SIM007")

    def test_cli_allowlisted(self):
        assert_clean("import os\nv = os.environ.get('X')\n", "SIM007", path="src/repro/cli.py")

    def test_config_module_allowlisted(self):
        assert_clean(
            "import os\nv = os.getenv('X')\n", "SIM007", path="src/repro/fleet/config.py"
        )

    def test_test_code_exempt(self):
        assert_clean("import os\nv = os.environ['X']\n", "SIM007", path=TEST_PATH)


# ---------------------------------------------------------------------------
# Pragma suppression
# ---------------------------------------------------------------------------


class TestPragmas:
    def test_trailing_pragma_suppresses(self):
        source = "import time\nt = time.time()  # simlint: disable=SIM002\n"
        assert_clean(source, "SIM002")

    def test_trailing_pragma_is_rule_specific(self):
        source = "import time\nt = time.time()  # simlint: disable=SIM007\n"
        assert_fires(source, "SIM002")

    def test_standalone_pragma_covers_next_line(self):
        source = (
            "import time\n"
            "# simlint: disable=SIM002\n"
            "t = time.time()\n"
        )
        assert_clean(source, "SIM002")

    def test_standalone_pragma_does_not_leak_further(self):
        source = (
            "import time\n"
            "# simlint: disable=SIM002\n"
            "a = 1\n"
            "t = time.time()\n"
        )
        assert_fires(source, "SIM002")

    def test_file_wide_pragma(self):
        source = (
            "# simlint: disable-file=SIM002\n"
            "import time\n"
            "a = time.time()\n"
            "b = time.monotonic()\n"
        )
        assert_clean(source, "SIM002")

    def test_multiple_rules_one_pragma(self):
        source = (
            "import time, os\n"
            "t = time.time()  # simlint: disable=SIM002,SIM007\n"
        )
        assert_clean(source, "SIM002")

    def test_pragma_with_trailing_justification_prose(self):
        source = (
            "import time\n"
            "t = time.time()  # simlint: disable=SIM002 - measured for the log banner\n"
        )
        assert_clean(source, "SIM002")


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


def _finding(rule="SIM001", path="src/repro/fleet/x.py", line=10) -> Finding:
    return Finding(rule=rule, path=path, line=line, col=0, message="m", hint="h")


class TestBaseline:
    def test_pinned_line_matches(self):
        entry = BaselineEntry(rule="SIM001", path="src/repro/fleet/x.py", line=10, note="ok")
        assert entry.matches(_finding())
        assert not entry.matches(_finding(line=11))

    def test_file_wide_entry_matches_any_line(self):
        entry = BaselineEntry(rule="SIM001", path="src/repro/fleet/x.py", line=None, note="ok")
        assert entry.matches(_finding(line=10))
        assert entry.matches(_finding(line=999))
        assert not entry.matches(_finding(rule="SIM002"))

    def test_apply_partitions_and_detects_stale(self):
        live = BaselineEntry(rule="SIM001", path="src/repro/fleet/x.py", line=10, note="ok")
        stale = BaselineEntry(rule="SIM003", path="gone.py", line=None, note="old")
        baseline = Baseline(entries=(live, stale))
        result = baseline.apply([_finding(), _finding(rule="SIM002")])
        assert rules_of(result.unbaselined) == ["SIM002"]
        assert rules_of(result.suppressed) == ["SIM001"]
        assert result.stale == [stale]

    def test_load_rejects_empty_note(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({
            "version": 1,
            "entries": [{"rule": "SIM001", "path": "x.py", "note": "  "}],
        }))
        with pytest.raises(ValueError, match="empty note"):
            Baseline.load(path)

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"version": 2, "entries": []}))
        with pytest.raises(ValueError, match="version 1"):
            Baseline.load(path)

    def test_write_then_load_roundtrip(self, tmp_path):
        baseline = Baseline.from_findings([_finding()], note="justified")
        path = tmp_path / "b.json"
        baseline.write(path)
        loaded = Baseline.load(path)
        assert loaded.entries[0].rule == "SIM001"
        assert loaded.entries[0].note == "justified"


# ---------------------------------------------------------------------------
# CLI: exit codes, --json, --write-baseline
# ---------------------------------------------------------------------------


@pytest.fixture
def dirty_tree(tmp_path):
    """A tiny tree with one deliberate finding (SIM002 in simulated code)."""
    pkg = tmp_path / "src" / "repro" / "fleet"
    pkg.mkdir(parents=True)
    (pkg / "clocky.py").write_text("import time\n\n\ndef f():\n    return time.time()\n")
    clean = tmp_path / "src" / "repro" / "ok.py"
    clean.write_text("def g():\n    return 1\n")
    return tmp_path


class TestCLI:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("x = 1\n")
        assert main([str(tmp_path), "--no-baseline"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, dirty_tree, capsys):
        assert main([str(dirty_tree), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "SIM002" in out and "clocky.py" in out

    def test_json_document(self, dirty_tree, capsys):
        assert main([str(dirty_tree), "--no-baseline", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        assert doc["files_checked"] == 2
        assert [f["rule"] for f in doc["findings"]] == ["SIM002"]
        assert doc["baselined"] == [] and doc["stale_baseline_entries"] == []
        assert set(doc["rules"]) == set(RULE_REGISTRY)

    def test_write_baseline_then_lint_clean(self, dirty_tree, capsys):
        baseline = dirty_tree / "accepted.json"
        assert main([
            str(dirty_tree), "--write-baseline", str(baseline),
            "--baseline-note", "known wall-clock read",
        ]) == 0
        assert main([str(dirty_tree), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_stale_baseline_reported_and_strict_fails(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("x = 1\n")
        baseline = tmp_path / "b.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "entries": [{"rule": "SIM001", "path": "gone.py", "note": "was here"}],
        }))
        assert main([str(tmp_path), "--baseline", str(baseline)]) == 0
        assert "stale baseline entry" in capsys.readouterr().out
        assert main([str(tmp_path), "--baseline", str(baseline), "--strict-baseline"]) == 1

    def test_malformed_baseline_exits_two(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("x = 1\n")
        baseline = tmp_path / "b.json"
        baseline.write_text(json.dumps({"version": 99}))
        assert main([str(tmp_path), "--baseline", str(baseline)]) == 2

    def test_syntax_error_becomes_sim000(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def f(:\n")
        assert main([str(tmp_path), "--no-baseline"]) == 1
        assert "SIM000" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_REGISTRY:
            assert rule_id in out

    def test_repro_sim_lint_subcommand(self, dirty_tree, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["lint", str(dirty_tree), "--no-baseline"]) == 1
        assert "SIM002" in capsys.readouterr().out


class TestRepoIsClean:
    def test_src_tree_has_no_unbaselined_findings(self, capsys, monkeypatch):
        # The acceptance gate: the shipped tree lints clean against the
        # committed baseline (run from the repo root, as CI does — finding
        # paths are cwd-relative, so chdir there first).
        from pathlib import Path

        repo_root = Path(__file__).resolve().parents[2]
        monkeypatch.chdir(repo_root)
        rc = main(["src", "--baseline", ".simlint-baseline.json", "--strict-baseline"])
        out = capsys.readouterr().out
        assert rc == 0, f"simlint found unbaselined findings:\n{out}"
