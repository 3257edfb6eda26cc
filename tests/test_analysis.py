"""Tests for the repro.analysis invariant linter.

Every rule gets the fixture triple — a failing file, a passing file, and a
suppressed file — built as miniature repos under ``tmp_path`` so the rules
see realistic repo-relative paths.  On top of that: the baseline round-trip,
the JSON output schema, the engine's exit codes, and the acceptance
criterion that the real repository lints clean against its committed
baseline.
"""

from __future__ import annotations

import json
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import (BASELINE_FILENAME, BaselineError, Finding,
                            load_baseline, partition, run_analysis,
                            rules_by_code, suppressed_codes, write_baseline)
from repro.analysis.engine import main as analysis_main

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_repo(tmp_path: Path, files: dict) -> Path:
    """Materialize ``{relpath: source}`` as a miniature repo."""
    (tmp_path / "src" / "repro").mkdir(parents=True, exist_ok=True)
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path


def lint(tmp_path: Path, files: dict, code: str) -> list:
    """Run one rule over a miniature repo; returns post-suppression findings."""
    root = make_repo(tmp_path, files)
    report = run_analysis(root, rules=[rules_by_code()[code]])
    return report.findings


ALLOW = "# repro: allow[%s] fixture-justified"


# ---------------------------------------------------------------- RPL001

class TestSeamDiscipline:
    BAD = """
        from repro.core.ftc import FTCLabeling

        def build(graph, config):
            return FTCLabeling(graph, config)
    """

    def test_flags_transport_imports_and_uses(self, tmp_path):
        findings = lint(tmp_path, {"src/repro/cli.py": self.BAD}, "RPL001")
        assert [finding.code for finding in findings] == ["RPL001", "RPL001"]
        assert "repro.core.ftc" in findings[0].message
        assert "FTCLabeling" in findings[1].message

    def test_benchmarks_are_in_scope_but_library_code_is_not(self, tmp_path):
        findings = lint(tmp_path, {
            "benchmarks/bench_x.py": "from repro.server.client import QueryClient\n",
            "src/repro/api.py": "from repro.core.ftc import FTCLabeling\n",
        }, "RPL001")
        assert [finding.path for finding in findings] == ["benchmarks/bench_x.py"]

    def test_facade_construction_passes(self, tmp_path):
        clean = """
            from repro.api import Oracle, open_oracle

            def build(path):
                return open_oracle("snapshot:%s" % path)
        """
        assert lint(tmp_path, {"src/repro/cli.py": clean}, "RPL001") == []

    def test_inline_suppression_silences_the_line(self, tmp_path):
        source = ("from repro.core.ftc import FTCLabeling  %s\n"
                  % (ALLOW % "RPL001"))
        root = make_repo(tmp_path, {"src/repro/cli.py": source})
        report = run_analysis(root, rules=[rules_by_code()["RPL001"]])
        assert report.findings == [] and report.suppressed == 1


# ---------------------------------------------------------------- RPL002

class TestErrorDiscipline:
    def test_flags_bare_except_and_swallowing(self, tmp_path):
        source = """
            import contextlib

            def risky():
                try:
                    return 1
                except:
                    pass

            def swallow():
                try:
                    return 2
                except Exception:
                    pass

            def quiet():
                with contextlib.suppress(Exception):
                    return 3
        """
        findings = lint(tmp_path, {"src/repro/core/thing.py": source}, "RPL002")
        messages = " / ".join(finding.message for finding in findings)
        assert len(findings) == 3
        assert "bare except" in messages and "pass-only body" in messages \
            and "contextlib.suppress" in messages

    def test_handled_broad_except_passes(self, tmp_path):
        source = """
            def guarded():
                try:
                    return 1
                except Exception as error:
                    record(error)
                    return 0
        """
        assert lint(tmp_path, {"src/repro/core/thing.py": source},
                    "RPL002") == []

    def test_narrow_suppress_passes(self, tmp_path):
        source = """
            import contextlib

            def close(writer):
                with contextlib.suppress(OSError):
                    writer.close()
        """
        assert lint(tmp_path, {"src/repro/server/x.py": source}, "RPL002") == []

    def test_raise_outside_hierarchy_flagged_at_api_boundary(self, tmp_path):
        source = """
            class WeirdError(ArithmeticError):
                pass

            def boundary(flag):
                if flag:
                    raise ZeroDivisionError("not in the hierarchy")
                raise WeirdError("locally defined: allowed")
        """
        findings = lint(tmp_path, {"src/repro/api.py": source}, "RPL002")
        assert len(findings) == 1
        assert "ZeroDivisionError" in findings[0].message

    def test_raise_rules_skip_non_boundary_modules(self, tmp_path):
        source = "def f():\n    raise ZeroDivisionError('internal')\n"
        assert lint(tmp_path, {"src/repro/core/thing.py": source},
                    "RPL002") == []

    def test_shared_hierarchy_builtins_and_reraise_pass(self, tmp_path):
        source = """
            from repro.errors import OracleError, TransportError

            def boundary(mode, error):
                if mode == 1:
                    raise TransportError("connection refused")
                if mode == 2:
                    raise KeyError("unknown vertex")
                if mode == 3:
                    raise map_error(error)
                raise
        """
        assert lint(tmp_path, {"src/repro/server/x.py": source}, "RPL002") == []

    def test_suppression_on_the_raise_line(self, tmp_path):
        source = ("def f():\n"
                  "    raise ZeroDivisionError('x')  %s\n" % (ALLOW % "RPL002"))
        root = make_repo(tmp_path, {"src/repro/api.py": source})
        report = run_analysis(root, rules=[rules_by_code()["RPL002"]])
        assert report.findings == [] and report.suppressed == 1


# ---------------------------------------------------------------- RPL003

class TestAsyncSafety:
    def test_blocking_calls_inside_async_def(self, tmp_path):
        source = """
            import time

            async def handler(self, faults):
                time.sleep(0.1)
                session = self.oracle.batch_session(faults)
                return session
        """
        findings = lint(tmp_path, {"src/repro/server/x.py": source}, "RPL003")
        assert len(findings) == 2
        assert "time.sleep" in findings[0].message
        assert "batch_session" in findings[1].message

    def test_awaited_and_offloaded_calls_pass(self, tmp_path):
        source = """
            async def handler(self, pairs, faults):
                answers = await self.sessions.connected_many(pairs, faults)
                loop = get_loop()
                more = await loop.run_in_executor(
                    None, lambda: self.oracle.batch_session(faults))
                return answers, more

            def sync_path(self, faults):
                return self.oracle.batch_session(faults)
        """
        assert lint(tmp_path, {"src/repro/server/x.py": source}, "RPL003") == []

    def test_scope_is_server_only(self, tmp_path):
        source = "import time\n\nasync def f():\n    time.sleep(1)\n"
        assert lint(tmp_path, {"src/repro/core/x.py": source}, "RPL003") == []

    def test_suppression(self, tmp_path):
        source = ("import time\n\nasync def f():\n"
                  "    time.sleep(0)  %s\n" % (ALLOW % "RPL003"))
        root = make_repo(tmp_path, {"src/repro/server/x.py": source})
        report = run_analysis(root, rules=[rules_by_code()["RPL003"]])
        assert report.findings == [] and report.suppressed == 1


# ---------------------------------------------------------------- RPL004

class TestLockDiscipline:
    MODULE = "src/repro/server/session_manager.py"
    GOOD = """
        import threading
        from collections import Counter

        class SessionManager:
            def __init__(self):
                self._hot_lock = threading.Lock()
                self._hot_keys = Counter()

            def _record_hot_key(self, key, fault_list):
                with self._hot_lock:
                    self._hot_keys[key] += 1
    """
    BAD = """
        import threading
        from collections import Counter

        class SessionManager:
            def __init__(self):
                self._hot_lock = threading.Lock()
                self._hot_keys = Counter()

            def _record_hot_key(self, key, fault_list):
                self._hot_keys[key] += 1

            def reset(self):
                self._hot_keys.clear()
    """

    def test_unlocked_mutations_flagged(self, tmp_path):
        findings = lint(tmp_path, {self.MODULE: self.BAD}, "RPL004")
        assert len(findings) == 2
        assert "_record_hot_key" in findings[0].message
        assert ".clear()" in findings[1].message

    def test_locked_mutations_and_init_pass(self, tmp_path):
        assert lint(tmp_path, {self.MODULE: self.GOOD},
                    "RPL004") == []

    def test_only_registered_classes_are_checked(self, tmp_path):
        other = self.BAD.replace("SessionManager", "UnregisteredThing")
        assert lint(tmp_path, {self.MODULE: other},
                    "RPL004") == []

    def test_suppression(self, tmp_path):
        source = self.BAD.replace(
            "self._hot_keys[key] += 1",
            "self._hot_keys[key] += 1  %s" % (ALLOW % "RPL004")).replace(
            "self._hot_keys.clear()",
            "self._hot_keys.clear()  %s" % (ALLOW % "RPL004"))
        root = make_repo(tmp_path, {self.MODULE: source})
        report = run_analysis(root, rules=[rules_by_code()["RPL004"]])
        assert report.findings == [] and report.suppressed == 2

    MATCH_BAD = """
        import threading
        from collections import Counter

        class SessionManager:
            def __init__(self):
                self._hot_lock = threading.Lock()
                self._hot_keys = Counter()

            def _record_hot_key(self, key, fault_list):
                match key:
                    case "query":
                        self._hot_keys[key] += 1
                    case _:
                        self._hot_keys.clear()
    """

    def test_mutations_inside_match_cases_flagged(self, tmp_path):
        findings = lint(tmp_path, {self.MODULE: self.MATCH_BAD}, "RPL004")
        assert len(findings) == 2

    MATCH_GOOD = """
        import threading
        from collections import Counter

        class SessionManager:
            def __init__(self):
                self._hot_lock = threading.Lock()
                self._hot_keys = Counter()

            def _record_hot_key(self, key, fault_list):
                with self._hot_lock:
                    match key:
                        case "query":
                            self._hot_keys[key] += 1
                        case _:
                            self._hot_keys.clear()
    """

    def test_match_under_lock_passes(self, tmp_path):
        assert lint(tmp_path, {self.MODULE: self.MATCH_GOOD},
                    "RPL004") == []


# ---------------------------------------------------------------- RPL005

class TestBulkScalarParity:
    def test_unregistered_bulk_op_flagged(self, tmp_path):
        source = """
            def widget(x):
                return x

            def widget_many(xs):
                return [widget(x) for x in xs]
        """
        findings = lint(tmp_path, {"src/repro/coding/widget.py": source},
                        "RPL005")
        assert len(findings) == 1
        assert "widget_many" in findings[0].message
        assert "PARITY_TABLE" in findings[0].message

    def test_registered_module_with_missing_members_flagged(self, tmp_path):
        # The real registry declares find_roots/find_roots_many in
        # repro.coding.rootfind; a drifted file at that path must fail.
        source = "def something_else():\n    return 1\n"
        findings = lint(tmp_path, {"src/repro/coding/rootfind.py": source},
                        "RPL005")
        assert findings
        assert all("no longer resolves" in finding.message
                   for finding in findings)

    def test_private_and_non_many_defs_ignored(self, tmp_path):
        source = """
            def _helper_many(xs):
                return xs

            def decode_many_deferred(xs):
                return xs
        """
        assert lint(tmp_path, {"src/repro/outdetect/extra.py": source},
                    "RPL005") == []

    def test_real_repo_registry_is_consistent(self):
        report = run_analysis(REPO_ROOT, rules=[rules_by_code()["RPL005"]])
        assert report.findings == [], \
            [finding.render() for finding in report.findings]


# ---------------------------------------------------------------- RPL006

class TestDeterminism:
    def test_ambient_entropy_flagged(self, tmp_path):
        source = """
            import random
            import time

            def jitter(edges):
                random.shuffle(edges)
                stamp = time.time()
                order = hash(str(stamp))
                for edge in set(edges):
                    yield edge, order
        """
        findings = lint(tmp_path, {"src/repro/build/x.py": source}, "RPL006")
        messages = [finding.message for finding in findings]
        assert len(findings) == 4
        assert any("random.shuffle" in message for message in messages)
        assert any("time.time" in message for message in messages)
        assert any("hash()" in message for message in messages)
        assert any("iterates a set" in message for message in messages)

    def test_seeded_rng_perf_counter_and_hash_dunder_pass(self, tmp_path):
        source = """
            import time
            from random import Random

            class Key:
                def __hash__(self):
                    return hash(("key", 1))

            def build(seed, items):
                rng = Random(seed)
                start = time.perf_counter()
                for item in sorted(set(items)):
                    rng.random()
                return time.perf_counter() - start
        """
        findings = lint(tmp_path, {"src/repro/build/x.py": source}, "RPL006")
        # rng.random() is a method on the seeded instance, not module-level
        # random.*; sorted(set(...)) fixes the order before iteration.
        assert findings == []

    def test_scope_excludes_workloads_and_server(self, tmp_path):
        source = "import random\n\ndef f():\n    return random.random()\n"
        assert lint(tmp_path, {"src/repro/workloads/x.py": source,
                               "src/repro/server/x.py": source},
                    "RPL006") == []

    def test_suppression(self, tmp_path):
        source = ("import time\n\ndef f():\n"
                  "    return time.time()  %s\n" % (ALLOW % "RPL006"))
        root = make_repo(tmp_path, {"src/repro/build/x.py": source})
        report = run_analysis(root, rules=[rules_by_code()["RPL006"]])
        assert report.findings == [] and report.suppressed == 1


# ---------------------------------------------------------------- RPL007

class TestSwapDiscipline:
    def test_oracle_assignment_outside_the_seam_flagged(self, tmp_path):
        source = """
            class Handler:
                def hijack(self, replacement):
                    self.oracle = replacement

            def rebind(manager, replacement):
                manager.oracle = replacement
        """
        findings = lint(tmp_path, {"src/repro/server/x.py": source}, "RPL007")
        assert len(findings) == 2
        assert all("swap_oracle" in finding.message for finding in findings)

    def test_allowed_sites_and_other_attributes_pass(self, tmp_path):
        source = """
            class SessionManager:
                def __init__(self, oracle):
                    self.oracle = oracle

                def swap_oracle(self, loader):
                    self.oracle = loader()

            class Other:
                def configure(self, oracle):
                    self.fallback = oracle
        """
        assert lint(tmp_path, {"src/repro/server/x.py": source},
                    "RPL007") == []

    def test_scope_is_the_server_package(self, tmp_path):
        source = "class X:\n    def f(self, o):\n        self.oracle = o\n"
        assert lint(tmp_path, {"src/repro/pool/x.py": source}, "RPL007") == []

    def test_real_repo_respects_the_swap_seam(self):
        report = run_analysis(REPO_ROOT, rules=[rules_by_code()["RPL007"]])
        assert report.findings == [], \
            [finding.render() for finding in report.findings]


# ----------------------------------------------------------- suppressions

def test_suppression_comments_are_tokenized_not_grepped():
    source = 'MESSAGE = "# repro: allow[RPL001] inside a string"\n'
    assert suppressed_codes(source) == {}


def test_suppression_star_and_lists():
    source = ("a = 1  # repro: allow[*] everything\n"
              "b = 2  # repro: allow[RPL001, RPL002] two codes\n"
              "c = 3  # repro: allow\n")
    codes = suppressed_codes(source)
    assert codes == {1: {"*"}, 2: {"RPL001", "RPL002"}}


def test_wrong_code_does_not_suppress(tmp_path):
    source = ("from repro.core.ftc import FTCLabeling  %s\n"
              % (ALLOW % "RPL002"))
    root = make_repo(tmp_path, {"src/repro/cli.py": source})
    report = run_analysis(root, rules=[rules_by_code()["RPL001"]])
    assert len(report.findings) == 1 and report.suppressed == 0


def test_suppression_codes_are_case_insensitive(tmp_path):
    """``allow[rpl001]`` suppresses RPL001, matching ``--rules`` parsing."""
    source = ("a = 1  # repro: allow[rpl001] lowercase\n"
              "b = 2  # repro: allow[Rpl001, rpl002] mixed case\n")
    assert suppressed_codes(source) == {1: {"RPL001"}, 2: {"RPL001", "RPL002"}}
    repo_source = ("from repro.core.ftc import FTCLabeling  "
                   "# repro: allow[rpl001] fixture-justified\n")
    root = make_repo(tmp_path, {"src/repro/cli.py": repo_source})
    report = run_analysis(root, rules=[rules_by_code()["RPL001"]])
    assert report.findings == [] and report.suppressed == 1


# ---------------------------------------------------------------- baseline

def test_baseline_round_trip(tmp_path):
    findings = [
        Finding("src/repro/x.py", 3, 0, "RPL001", "message one"),
        Finding("src/repro/x.py", 9, 4, "RPL001", "message one"),
        Finding("src/repro/y.py", 1, 0, "RPL006", "message two"),
    ]
    path = tmp_path / BASELINE_FILENAME
    assert write_baseline(path, findings) == 3
    baseline = load_baseline(path)
    assert baseline == Counter({"RPL001|src/repro/x.py|message one": 2,
                                "RPL006|src/repro/y.py|message two": 1})
    new, baselined, stale = partition(findings, baseline)
    assert new == [] and baselined == 3 and stale == []


def test_baseline_multiplicity_and_staleness():
    finding = Finding("src/repro/x.py", 3, 0, "RPL001", "message one")
    twice = [finding, Finding("src/repro/x.py", 30, 0, "RPL001", "message one")]
    baseline = Counter({finding.identity(): 1,
                        "RPL006|gone.py|fixed long ago": 1})
    new, baselined, stale = partition(twice, baseline)
    assert len(new) == 1 and baselined == 1
    assert stale == ["RPL006|gone.py|fixed long ago"]


def test_baseline_identity_ignores_line_numbers():
    a = Finding("p.py", 10, 0, "RPL001", "m")
    b = Finding("p.py", 99, 7, "RPL001", "m")
    assert a.identity() == b.identity()


def test_baseline_rejects_malformed_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(BaselineError):
        load_baseline(path)
    path.write_text(json.dumps({"version": 99, "entries": {}}))
    with pytest.raises(BaselineError):
        load_baseline(path)
    path.write_text(json.dumps({"version": 1, "entries": {"x": 0}}))
    with pytest.raises(BaselineError):
        load_baseline(path)


# ------------------------------------------------------------ engine / CLI

def _violating_repo(tmp_path):
    return make_repo(tmp_path, {
        "src/repro/cli.py": "from repro.core.ftc import FTCLabeling\n"})


def test_exit_codes_and_baseline_flow(tmp_path, capsys):
    root = _violating_repo(tmp_path)
    assert analysis_main(["--root", str(root)]) == 1
    capsys.readouterr()
    assert analysis_main(["--root", str(root), "--write-baseline"]) == 0
    capsys.readouterr()
    assert analysis_main(["--root", str(root)]) == 0
    # --no-baseline resurrects the debt.
    assert analysis_main(["--root", str(root), "--no-baseline"]) == 1


def test_json_output_schema(tmp_path, capsys):
    root = _violating_repo(tmp_path)
    exit_code = analysis_main(["--root", str(root), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    assert payload["version"] == 1 and payload["tool"] == "repro.analysis"
    assert payload["files_scanned"] == 1
    assert payload["rules_run"] == ["RPL001", "RPL002", "RPL003", "RPL004",
                                    "RPL005", "RPL006", "RPL007"]
    assert payload["counts_by_code"] == {"RPL001": 1}
    (finding,) = payload["findings"]
    assert set(finding) == {"code", "path", "line", "col", "message"}
    assert finding["path"] == "src/repro/cli.py" and finding["line"] == 1


def test_rule_selection_and_unknown_rule(tmp_path, capsys):
    root = _violating_repo(tmp_path)
    assert analysis_main(["--root", str(root), "--rules", "rpl006"]) == 0
    assert analysis_main(["--root", str(root), "--rules", "RPL999"]) == 2


def test_list_rules(capsys):
    assert analysis_main(["--list-rules", "--format", "json"]) == 0
    listed = json.loads(capsys.readouterr().out)
    assert [rule["code"] for rule in listed] == \
        ["RPL001", "RPL002", "RPL003", "RPL004", "RPL005", "RPL006",
         "RPL007"]
    assert all(rule["name"] and rule["description"] for rule in listed)


def test_explicit_paths_and_missing_path(tmp_path, capsys):
    root = _violating_repo(tmp_path)
    make_repo(tmp_path, {"src/repro/ok.py": "x = 1\n"})
    assert analysis_main(["--root", str(root), "src/repro/ok.py"]) == 0
    assert analysis_main(["--root", str(root), "src/repro/cli.py"]) == 1
    assert analysis_main(["--root", str(root), "no/such/file.py"]) == 2


def test_explicit_path_outside_root_is_a_usage_error(tmp_path, capsys):
    """An absolute path outside ``--root`` exits 2 with a message, not a
    traceback (the relpath computation cannot be asked to escape the root)."""
    root = _violating_repo(tmp_path / "repo")
    outside = tmp_path / "elsewhere" / "stray.py"
    outside.parent.mkdir(parents=True)
    outside.write_text("x = 1\n")
    assert analysis_main(["--root", str(root), str(outside)]) == 2
    assert "outside the analysis root" in capsys.readouterr().err


def test_syntax_errors_surface_as_rpl000(tmp_path):
    root = make_repo(tmp_path, {"src/repro/broken.py": "def f(:\n"})
    report = run_analysis(root)
    (finding,) = report.findings
    assert finding.code == "RPL000" and "does not parse" in finding.message


def test_non_repo_root_is_a_usage_error(tmp_path, capsys):
    assert analysis_main(["--root", str(tmp_path / "empty")]) == 2


def test_stale_baseline_entries_are_reported_not_fatal(tmp_path, capsys):
    root = make_repo(tmp_path, {"src/repro/fine.py": "x = 1\n"})
    (root / BASELINE_FILENAME).write_text(json.dumps(
        {"version": 1, "entries": {"RPL001|gone.py|old debt": 1}}))
    assert analysis_main(["--root", str(root)]) == 0
    out = capsys.readouterr().out
    assert "stale baseline entry" in out and "old debt" in out


def test_cli_lint_subcommand_forwards_to_the_engine(tmp_path, capsys):
    from repro.cli import main as cli_main

    root = _violating_repo(tmp_path)
    assert cli_main(["lint", "--root", str(root), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts_by_code"] == {"RPL001": 1}
    assert cli_main(["lint", "--list-rules"]) == 0


# ------------------------------------------------------------- acceptance

def test_repository_lints_clean_against_committed_baseline(capsys):
    """The repo at HEAD, with its committed baseline, has zero new findings —
    the same gate CI's lint job enforces."""
    assert (REPO_ROOT / "src" / "repro").is_dir()
    assert analysis_main(["--root", str(REPO_ROOT)]) == 0
    summary = capsys.readouterr().out
    assert "0 new finding(s)" in summary


def test_repository_has_recorded_debt_without_baseline(capsys):
    """The committed baseline is load-bearing: without it the benchmark debt
    fails the run (so the baseline cannot silently rot away)."""
    assert analysis_main(["--root", str(REPO_ROOT), "--no-baseline"]) == 1
