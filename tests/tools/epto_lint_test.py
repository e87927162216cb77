#!/usr/bin/env python3
"""Unit tests for tools/epto_lint.py — every rule fires on a minimal
positive fixture, every suppression mechanism suppresses, the scrubber
never matches prose, and the real tree is clean."""

from __future__ import annotations

import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import epto_lint  # noqa: E402


def rule_ids(findings):
    return sorted({f.rule_id for f in findings})


class RuleFixtureTest(unittest.TestCase):
    """Each rule must fire on code that violates it."""

    def assert_fires(self, rule_id: str, rel_path: str, code: str):
        findings = epto_lint.lint_text(rel_path, code)
        self.assertIn(rule_id, rule_ids(findings),
                      f"{rule_id} did not fire on: {code!r}")

    def test_nondeterminism_random_device(self):
        self.assert_fires("nondeterminism", "src/x.cpp",
                          "std::random_device rd;\n")

    def test_nondeterminism_rand(self):
        self.assert_fires("nondeterminism", "src/x.cpp", "int r = rand();\n")
        self.assert_fires("nondeterminism", "src/x.cpp", "srand(42);\n")

    def test_nondeterminism_time(self):
        self.assert_fires("nondeterminism", "src/x.cpp",
                          "auto t = time(nullptr);\n")

    def test_nondeterminism_wall_clocks(self):
        self.assert_fires("nondeterminism", "src/x.cpp",
                          "auto n = std::chrono::system_clock::now();\n")
        self.assert_fires("nondeterminism", "src/x.cpp",
                          "auto n = std::chrono::high_resolution_clock::now();\n")

    def test_stdout(self):
        self.assert_fires("stdout", "src/x.cpp", 'std::cout << done;\n')
        self.assert_fires("stdout", "src/x.cpp", 'printf(fmt, 1);\n')

    def test_raw_mutex(self):
        self.assert_fires("raw-mutex", "src/x.h", "std::mutex m_;\n")
        self.assert_fires("raw-mutex", "src/x.cpp",
                          "const std::scoped_lock lock(m_);\n")
        self.assert_fires("raw-mutex", "src/x.cpp",
                          "std::lock_guard<std::mutex> g(m_);\n")

    def test_naked_lock(self):
        self.assert_fires("naked-lock", "src/x.cpp", "mutex_.lock();\n")
        self.assert_fires("naked-lock", "src/x.cpp", "mutex_.unlock();\n")

    def test_iostream_header(self):
        self.assert_fires("iostream-header", "src/x.h",
                          "#include <iostream>\n")

    def test_iostream_allowed_in_cpp(self):
        findings = epto_lint.lint_text("src/x.cpp", "#include <iostream>\n")
        self.assertNotIn("iostream-header", rule_ids(findings))

    def test_eventid_order(self):
        self.assert_fires("eventid-order", "src/x.cpp",
                          "if (a.id < b.id) deliver(a);\n")
        self.assert_fires("eventid-order", "src/x.cpp",
                          "return lhs.id >= rhs.id;\n")

    def test_eventid_equality_allowed(self):
        code = "if (a.id == b.id || a.id != c.id) merge();\n"
        self.assertEqual([], epto_lint.lint_text("src/x.cpp", code))

    def test_eventid_stream_insert_allowed(self):
        code = "log << e.id << later;\n"
        findings = epto_lint.lint_text("src/x.cpp", code)
        self.assertNotIn("eventid-order", rule_ids(findings))

    def test_decoded_ball_trust(self):
        self.assert_fires("decoded-ball-trust", "src/x.cpp",
                          "auto decoded = codec::decodeBall(frame);\n")
        self.assert_fires("decoded-ball-trust", "src/x.cpp",
                          "if (decodeBall(datagram.bytes).ok) relay();\n")

    def test_decoded_ball_trust_sanctioned_ingress_suppressed(self):
        code = "auto decoded = codec::decodeBall(frame);\n"
        allow = {("decoded-ball-trust", "src/runtime/udp_cluster.cpp")}
        self.assertEqual([], epto_lint.lint_text(
            "src/runtime/udp_cluster.cpp", code, allow))

    def test_decoded_ball_trust_other_words_allowed(self):
        code = "auto frame = codec::encodeBall(ball); decodeBallast();\n"
        findings = epto_lint.lint_text("src/x.cpp", code)
        self.assertNotIn("decoded-ball-trust", rule_ids(findings))

    def test_speculative_frontier_write_assignment(self):
        self.assert_fires("speculative-frontier-write", "src/core/speculation.cpp",
                          "lastDelivered_ = slot.key;\n")

    def test_speculative_frontier_write_container_mutation(self):
        self.assert_fires("speculative-frontier-write", "src/core/speculation.cpp",
                          "received_.erase(it);\n")
        self.assert_fires("speculative-frontier-write", "src/core/speculation.cpp",
                          "receivedIndex_.emplace(id.packed(), &entry);\n")
        self.assert_fires("speculative-frontier-write", "src/core/speculation.cpp",
                          "received_.clear();\n")

    def test_speculative_frontier_read_allowed(self):
        code = ("auto it = received_.upper_bound(*frontier);\n"
                "if (lastDelivered_.has_value() && key <= *lastDelivered_) hold();\n"
                "if (lastDelivered_ == key) confirm();\n")
        findings = epto_lint.lint_text("src/core/speculation.cpp", code)
        self.assertNotIn("speculative-frontier-write", rule_ids(findings))

    def test_speculative_frontier_write_committed_path_suppressed(self):
        code = "lastDelivered_ = event.orderKey();\n"
        allow = {("speculative-frontier-write", "src/core/ordering.cpp")}
        self.assertEqual([], epto_lint.lint_text(
            "src/core/ordering.cpp", code, allow))

    def test_shard_affinity_write_dispatch(self):
        self.assert_fires("shard-affinity-write", "src/runtime/reassembly.cpp",
                          "node.process->onBall(*ball);\n")
        self.assert_fires("shard-affinity-write", "src/runtime/reassembly.cpp",
                          "const auto out = node.process->onRound();\n")
        self.assert_fires("shard-affinity-write", "src/runtime/reassembly.cpp",
                          "node.ingress.push(std::move(decoded.ball));\n")

    def test_shard_affinity_write_lifecycle(self):
        self.assert_fires("shard-affinity-write", "src/runtime/reassembly.cpp",
                          "node.process.reset();\n")
        self.assert_fires("shard-affinity-write", "src/runtime/reassembly.cpp",
                          "node.process = makeProcess(node.id, node.incarnation);\n")
        self.assert_fires("shard-affinity-write", "src/runtime/reassembly.cpp",
                          "node.reassembler.clear();\n")

    def test_shard_affinity_read_allowed(self):
        code = ("auto n = node.process->disseminationStats().ballsReceived;\n"
                "node.process->metricsSnapshot().recordTo(registry_);\n"
                "storeMax(highWater_, node.ingress.highWater());\n"
                "const auto& stats = node.reassembler.stats();\n"
                "if (node.process == nullptr) return;\n")
        findings = epto_lint.lint_text("src/runtime/reassembly.cpp", code)
        self.assertNotIn("shard-affinity-write", rule_ids(findings))

    def test_shard_affinity_write_owning_loop_suppressed(self):
        code = "while (auto ball = node.ingress.pop()) node.process->onBall(*ball);\n"
        allow = {("shard-affinity-write", "src/runtime/udp_cluster.cpp")}
        self.assertEqual([], epto_lint.lint_text(
            "src/runtime/udp_cluster.cpp", code, allow))


class ScrubberTest(unittest.TestCase):
    """Comments and literals must never produce findings."""

    def test_line_comment(self):
        code = "// std::mutex and rand() and std::cout in prose\nint x = 0;\n"
        self.assertEqual([], epto_lint.lint_text("src/x.cpp", code))

    def test_block_comment_keeps_line_numbers(self):
        code = "/* std::random_device\n spans lines */\nstd::mutex m;\n"
        findings = epto_lint.lint_text("src/x.cpp", code)
        self.assertEqual([("raw-mutex", 3)],
                         [(f.rule_id, f.line) for f in findings])

    def test_string_literal(self):
        code = 'const char* s = "calls rand() and time(nullptr)";\n'
        self.assertEqual([], epto_lint.lint_text("src/x.cpp", code))

    def test_raw_string_literal(self):
        code = 'const char* s = R"(std::cout << rand())";\nint y = 0;\n'
        self.assertEqual([], epto_lint.lint_text("src/x.cpp", code))

    def test_escaped_quote_in_string(self):
        code = 'const char* s = "quote \\" then rand()";\n'
        self.assertEqual([], epto_lint.lint_text("src/x.cpp", code))


class AllowlistTest(unittest.TestCase):
    """Each allowlist entry must suppress exactly its (rule, file) pair."""

    def test_entry_suppresses(self):
        code = "if (a.id < b.id) keepSorted();\n"
        allow = {("eventid-order", "src/core/merge.cpp")}
        self.assertEqual([], epto_lint.lint_text("src/core/merge.cpp", code, allow))

    def test_entry_is_per_file(self):
        code = "if (a.id < b.id) keepSorted();\n"
        allow = {("eventid-order", "src/core/merge.cpp")}
        findings = epto_lint.lint_text("src/core/other.cpp", code, allow)
        self.assertIn("eventid-order", rule_ids(findings))

    def test_entry_is_per_rule(self):
        code = "std::mutex m;\n"
        allow = {("eventid-order", "src/x.cpp")}
        findings = epto_lint.lint_text("src/x.cpp", code, allow)
        self.assertIn("raw-mutex", rule_ids(findings))

    def test_checked_in_allowlist_parses(self):
        entries = epto_lint.parse_allowlist(
            REPO_ROOT / "tools" / "epto_lint_allowlist.txt")
        self.assertIn(("raw-mutex", "src/util/mutex.h"), entries)
        self.assertIn(("eventid-order", "src/core/dissemination.cpp"), entries)
        self.assertIn(("decoded-ball-trust", "src/runtime/udp_cluster.cpp"), entries)
        self.assertIn(("speculative-frontier-write", "src/core/ordering.cpp"), entries)
        self.assertIn(("shard-affinity-write", "src/runtime/udp_cluster.cpp"), entries)

    def test_every_checked_in_entry_is_load_bearing(self):
        """Dropping any allowlist entry must surface at least one finding —
        a stale entry would silently widen the suppression surface."""
        entries = epto_lint.parse_allowlist(
            REPO_ROOT / "tools" / "epto_lint_allowlist.txt")
        for rule_id, rel in sorted(entries):
            remaining = entries - {(rule_id, rel)}
            text = (REPO_ROOT / rel).read_text()
            findings = epto_lint.lint_text(rel, text, remaining)
            self.assertIn(rule_id, rule_ids(findings),
                          f"allowlist entry '{rule_id} {rel}' is stale")

    def test_stale_entry_missing_file_reported(self):
        with tempfile.TemporaryDirectory() as tmp:
            stale = epto_lint.stale_allowlist_entries(
                Path(tmp), {("raw-mutex", "src/gone.cpp")})
            self.assertEqual(
                [("raw-mutex", "src/gone.cpp", "file no longer exists")], stale)

    def test_stale_entry_no_matching_line_reported(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src" / "clean.cpp"
            src.parent.mkdir(parents=True)
            src.write_text("int f() { return 0; }\n")
            stale = epto_lint.stale_allowlist_entries(
                Path(tmp), {("raw-mutex", "src/clean.cpp")})
            self.assertEqual(
                [("raw-mutex", "src/clean.cpp", "rule no longer matches any line")],
                stale)

    def test_live_entry_not_reported(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src" / "locky.cpp"
            src.parent.mkdir(parents=True)
            src.write_text("std::mutex m_;\n")
            self.assertEqual([], epto_lint.stale_allowlist_entries(
                Path(tmp), {("raw-mutex", "src/locky.cpp")}))

    def test_comment_only_match_is_stale(self):
        """The audit must scrub like the linter does: a rule string living
        only in a comment keeps suppressing nothing."""
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src" / "prose.cpp"
            src.parent.mkdir(parents=True)
            src.write_text("// std::mutex discussed in prose only\nint x;\n")
            stale = epto_lint.stale_allowlist_entries(
                Path(tmp), {("raw-mutex", "src/prose.cpp")})
            self.assertEqual(1, len(stale))

    def test_headers_only_rule_on_source_is_stale(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src" / "impl.cpp"
            src.parent.mkdir(parents=True)
            src.write_text("#include <iostream>\n")
            stale = epto_lint.stale_allowlist_entries(
                Path(tmp), {("iostream-header", "src/impl.cpp")})
            self.assertEqual(
                [("iostream-header", "src/impl.cpp", "rule applies only to headers")],
                stale)

    def test_checked_in_allowlist_has_no_stale_entries(self):
        entries = epto_lint.parse_allowlist(
            REPO_ROOT / "tools" / "epto_lint_allowlist.txt")
        self.assertEqual([], epto_lint.stale_allowlist_entries(REPO_ROOT, entries))

    def test_cli_warns_on_stale_entry_but_stays_clean(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "src").mkdir()
            (root / "src" / "ok.cpp").write_text("int f() { return 0; }\n")
            allow = root / "allow.txt"
            allow.write_text("raw-mutex src/vanished.cpp\n")
            proc = subprocess.run(
                [sys.executable, str(REPO_ROOT / "tools" / "epto_lint.py"),
                 "--root", str(root), "--allowlist", str(allow)],
                capture_output=True, text=True)
            self.assertEqual(0, proc.returncode, proc.stdout + proc.stderr)
            self.assertIn("stale allowlist entry", proc.stderr)
            self.assertIn("src/vanished.cpp", proc.stderr)

    def test_malformed_allowlist_rejected(self):
        with tempfile.NamedTemporaryFile("w", suffix=".txt") as f:
            f.write("raw-mutex too many fields\n")
            f.flush()
            with self.assertRaises(ValueError):
                epto_lint.parse_allowlist(Path(f.name))

    def test_unknown_rule_rejected(self):
        with tempfile.NamedTemporaryFile("w", suffix=".txt") as f:
            f.write("no-such-rule src/x.cpp\n")
            f.flush()
            with self.assertRaises(ValueError):
                epto_lint.parse_allowlist(Path(f.name))


class CliTest(unittest.TestCase):
    """End-to-end: the committed tree is clean, a seeded violation fails."""

    SCRIPT = REPO_ROOT / "tools" / "epto_lint.py"

    def test_repo_is_clean(self):
        proc = subprocess.run([sys.executable, str(self.SCRIPT)],
                              capture_output=True, text=True)
        self.assertEqual(0, proc.returncode, proc.stdout + proc.stderr)
        self.assertIn("OK", proc.stdout)

    def test_seeded_violation_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / "src" / "bad.cpp"
            bad.parent.mkdir(parents=True)
            bad.write_text("#include <cstdlib>\nint f() { return rand(); }\n")
            proc = subprocess.run(
                [sys.executable, str(self.SCRIPT), "--root", tmp],
                capture_output=True, text=True)
            self.assertEqual(1, proc.returncode, proc.stdout + proc.stderr)
            self.assertIn("nondeterminism", proc.stdout)


if __name__ == "__main__":
    unittest.main()
