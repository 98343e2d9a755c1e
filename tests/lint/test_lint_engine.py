"""Engine-level tests: registry, suppressions, CLI exit codes."""

from __future__ import annotations

import pytest

from repro.lint import (
    Finding,
    RULE_FACTORIES,
    available_rules,
    lint_text,
    make_rules,
    register_rule,
)
from repro.lint.cli import main


class TestRegistry:
    def test_all_builtin_rules_registered(self):
        assert available_rules() == [
            "RPL001",
            "RPL002",
            "RPL003",
            "RPL004",
            "RPL005",
            "RPL006",
            "RPL007",
            "RPL008",
        ]

    def test_make_rules_instantiates_selection(self):
        rules = make_rules(["RPL001", "RPL004"])
        assert [r.id for r in rules] == ["RPL001", "RPL004"]

    def test_unknown_selection_rejected(self):
        with pytest.raises(ValueError, match="unknown rule ids"):
            make_rules(["RPL999"])

    def test_duplicate_registration_rejected(self):
        class Dupe:
            id = "RPL001"
            name = "dupe"
            description = "clashes with the builtin"

            def check(self, ctx):
                return []

        with pytest.raises(ValueError, match="already registered"):
            register_rule(Dupe)
        assert RULE_FACTORIES["RPL001"] is not Dupe

    def test_bad_rule_id_rejected(self):
        class Nameless:
            id = "lowercase1"
            name = "bad"
            description = "id does not match ABCnnn"

            def check(self, ctx):
                return []

        with pytest.raises(ValueError, match="rule id"):
            register_rule(Nameless)

    def test_third_party_rule_roundtrip(self):
        class Custom:
            id = "XYZ001"
            name = "custom"
            description = "third-party rule"

            def check(self, ctx):
                yield Finding(
                    rule=self.id, path=ctx.path, line=1, col=0, message="hit"
                )

        try:
            register_rule(Custom)
            findings = lint_text("x = 1\n", rules=make_rules(["XYZ001"]))
            assert [f.rule for f in findings] == ["XYZ001"]
        finally:
            RULE_FACTORIES.pop("XYZ001", None)

    def test_overwrite_requires_flag(self):
        class Custom:
            id = "XYZ002"
            name = "custom"
            description = "third-party rule"

            def check(self, ctx):
                return []

        class Replacement(Custom):
            pass

        try:
            register_rule(Custom)
            with pytest.raises(ValueError, match="overwrite"):
                register_rule(Replacement)
            register_rule(Replacement, overwrite=True)
            assert RULE_FACTORIES["XYZ002"] is Replacement
        finally:
            RULE_FACTORIES.pop("XYZ002", None)


_CLOCK_SNIPPET = "import time\n\ndef now():\n    return time.monotonic()\n"
_SRC_PATH = "src/repro/snn/example.py"


class TestSuppressions:
    def test_inline_disable_specific_rule(self):
        hit = lint_text(_CLOCK_SNIPPET, path=_SRC_PATH)
        assert any(f.rule == "RPL002" for f in hit)
        suppressed = lint_text(
            _CLOCK_SNIPPET.replace(
                "time.monotonic()",
                "time.monotonic()  # repro-lint: disable=RPL002",
            ),
            path=_SRC_PATH,
        )
        assert not any(f.rule == "RPL002" for f in suppressed)

    def test_inline_disable_all(self):
        suppressed = lint_text(
            _CLOCK_SNIPPET.replace(
                "time.monotonic()",
                "time.monotonic()  # repro-lint: disable=all",
            ),
            path=_SRC_PATH,
        )
        assert suppressed == []

    def test_disable_on_other_line_does_not_suppress(self):
        source = (
            "import time  # repro-lint: disable=RPL002\n"
            "\ndef now():\n    return time.monotonic()\n"
        )
        assert any(f.rule == "RPL002" for f in lint_text(source, path=_SRC_PATH))

    def test_syntax_error_becomes_rpl000(self):
        findings = lint_text("def broken(:\n", path=_SRC_PATH)
        assert [f.rule for f in findings] == ["RPL000"]
        assert "syntax error" in findings[0].message


@pytest.fixture()
def dirty_tree(tmp_path):
    """A lintable tree containing exactly one RPL002 violation."""
    pkg = tmp_path / "src" / "repro" / "snn"
    pkg.mkdir(parents=True)
    (pkg / "example.py").write_text(_CLOCK_SNIPPET)
    return tmp_path


class TestCli:
    def test_advisory_mode_reports_but_exits_zero(self, dirty_tree, capsys):
        rc = main([str(dirty_tree / "src")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "RPL002" in out and "1 finding" in out

    def test_strict_fails_on_new_finding(self, dirty_tree):
        assert main([str(dirty_tree / "src"), "--strict"]) == 1

    def test_strict_passes_on_clean_tree(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "snn"
        pkg.mkdir(parents=True)
        (pkg / "clean.py").write_text("VALUE = 1\n")
        assert main([str(tmp_path / "src"), "--strict"]) == 0

    def test_missing_path_is_usage_error(self, tmp_path):
        assert main([str(tmp_path / "nope.txt")]) == 2

    def test_unknown_rule_is_usage_error(self, dirty_tree):
        assert main([str(dirty_tree / "src"), "--select", "RPL999"]) == 2

    def test_select_restricts_rules(self, dirty_tree, capsys):
        rc = main([str(dirty_tree / "src"), "--select", "RPL001"])
        out = capsys.readouterr().out
        assert rc == 0 and "RPL002" not in out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in available_rules():
            assert rule_id in out
