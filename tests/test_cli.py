import json

import pytest

from ietkit import QuadNum
from ietkit.cli import (
    KeaneCheckFailed,
    emit_report,
    main,
    parse_iet_file,
    verify_return_words,
)
from ietkit.instance import IetFileError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTransformCommands:
    def test_bwt(self, capsys):
        code, out, _ = run(capsys, "bwt", "--alphabet", "abn", "banana")
        assert code == 0
        assert "transform: nnbaaa" in out

    def test_cluster_json_record(self, capsys, tmp_path):
        path = tmp_path / "record.json"
        code, out, _ = run(capsys, "cluster", "--alphabet", "abn", "--json", str(path), "banana")
        assert code == 0
        record = json.loads(path.read_text())
        assert record == {
            "input": "banana",
            "transform": "nnbaaa",
            "blocks": ["n", "b", "a"],
            "permutation": "nba",
            "perfect": True,
        }

    def test_cluster_not_clustering(self, capsys):
        code, out, _ = run(capsys, "cluster", "--alphabet", "nab", "banana")
        assert code == 0
        assert "clustering: no" in out

    def test_ebwt(self, capsys):
        code, out, _ = run(capsys, "ebwt", "--alphabet", "abc", "aac", "ab", "ab")
        assert code == 0
        assert "transform: cbbaaaa" in out

    def test_ebwt_rejects_non_lyndon(self, capsys):
        code, _, err = run(capsys, "ebwt", "--alphabet", "ab", "ba")
        assert code == 2
        assert "Lyndon" in err

    def test_ebwt_inverse(self, capsys):
        code, out, _ = run(capsys, "ebwt-inverse", "--alphabet", "abc", "cbbaaaa")
        assert code == 0
        assert "words: aac ab ab" in out

    def test_morphism_apply(self, capsys):
        code, out, _ = run(capsys, "morphism", "apply", "--spec", "a:ab,b:b,c:c", "cab")
        assert code == 0
        assert out.strip() == "cabb"


class TestDietCommand:
    def test_action_and_words(self, capsys):
        code, out, _ = run(
            capsys, "diet", "--composition", "4,2,1", "--pi", "cba", "--words", "--cylinder", "ab"
        )
        assert code == 0
        assert "action: (1,4,7)(2,5)(3,6)" in out
        assert "orbit words: aac ab ab" in out
        assert "cylinder ab: {2,3}" in out

    def test_cycle_notation_pi(self, capsys):
        code, out, _ = run(capsys, "diet", "--composition", "4,2,1", "--pi", "(a c)(b)")
        assert code == 0
        assert "action: (1,4,7)(2,5)(3,6)" in out


class TestIetFileParsing:
    def test_golden_file(self, golden_file, golden):
        assert parse_iet_file(golden_file) == golden

    def test_zero_length_rejected(self, tmp_path):
        path = tmp_path / "bad.iet"
        path.write_text("d = 5\nalphabet = ab\npi = ba\nlen.a = (0)\nlen.b = (1)\n")
        with pytest.raises(IetFileError):
            parse_iet_file(str(path))

    def test_mixed_radicands_rejected(self, tmp_path):
        path = tmp_path / "bad.iet"
        path.write_text("d = 5\nd = 2\nalphabet = ab\npi = ba\nlen.a = (1)\nlen.b = (1)\n")
        with pytest.raises(IetFileError, match="line 2.*mixed radicands"):
            parse_iet_file(str(path))

    def test_square_radicand_rejected(self, tmp_path):
        path = tmp_path / "bad.iet"
        path.write_text("d = 4\nalphabet = ab\npi = ba\nlen.a = (1)\nlen.b = (1)\n")
        with pytest.raises(IetFileError, match="square-free"):
            parse_iet_file(str(path))

    def test_syntax_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.iet"
        path.write_text("alphabet = ab\npi = ba\nlen.a  (1)\n")
        with pytest.raises(IetFileError, match="line 3"):
            parse_iet_file(str(path))

    def test_bad_literal_line_number(self, tmp_path):
        path = tmp_path / "bad.iet"
        path.write_text("alphabet = ab\npi = ba\nlen.a = (1, 2)\nlen.b = (1)\n")
        with pytest.raises(IetFileError, match="line 3"):
            parse_iet_file(str(path))

    def test_missing_length_reported(self, tmp_path):
        path = tmp_path / "bad.iet"
        path.write_text("alphabet = ab\npi = ba\nlen.a = (1)\n")
        with pytest.raises(IetFileError, match="missing lengths"):
            parse_iet_file(str(path))

    def test_cycles_permutation_accepted(self, tmp_path, golden):
        path = tmp_path / "ok.iet"
        path.write_text(
            "d = 5\nalphabet = abc\npi = (a b c)\n"
            "len.a = (-2, 1, 1)\nlen.b = (3, -1, 2)\nlen.c = (3, -1, 2)\n"
        )
        iet = parse_iet_file(str(path))
        assert iet.permutation == golden.permutation


class TestIetCommands:
    def test_check(self, capsys, golden_file):
        code, out, _ = run(capsys, "iet", "check", golden_file, "--depth", "50")
        assert code == 0
        assert "no connection up to depth 50" in out

    def test_traj(self, capsys, golden_file):
        code, out, _ = run(capsys, "iet", "traj", golden_file, "--point", "(0)", "--steps", "5")
        assert code == 0
        assert out.strip() == "acbba"

    def test_language(self, capsys, golden_file):
        code, out, _ = run(capsys, "iet", "language", golden_file, "--max-len", "2")
        assert code == 0
        assert "length 2 (5): ac ba bb cb cc" in out

    def test_rauzy_manual_steps(self, capsys, golden_file):
        code, out, _ = run(capsys, "iet", "rauzy", golden_file, "--steps", "rrll")
        assert code == 0
        assert "step 2: right top_shorter pivot=c partner=a morphism c:ac" in out
        assert "alphabet: acb" in out
        assert "alphabet: cab" in out

    def test_rauzy_auto(self, capsys, golden_file):
        code, out, _ = run(capsys, "iet", "rauzy", golden_file, "--steps", "auto", "--word", "b")
        assert code == 0
        assert out.count("step ") == 4

    def test_returns_both_methods(self, capsys, golden_file):
        code, out, _ = run(
            capsys, "iet", "returns", golden_file, "--word", "b", "--method", "both", "--trace"
        )
        assert code == 0
        assert "theta: a:bac, c:bacc, b:b" in out
        assert "induction returns: b bac bacc" in out
        assert "scan returns: b bac bacc" in out
        assert "agreement: yes" in out

    def test_zero_connection_step_errors(self, capsys, tmp_path):
        path = tmp_path / "tied.iet"
        path.write_text("alphabet = ab\npi = ba\nlen.a = (1)\nlen.b = (1)\n")
        code, _, err = run(capsys, "iet", "rauzy", str(path), "--steps", "r")
        assert code == 2
        assert "equal length" in err

    @pytest.mark.parametrize(
        "instance, message",
        [
            ("alphabet = a\npi = a\nlen.a = (1)\n", "induction needs at least two intervals"),
            ("alphabet = abc\npi = bac\nlen.a = (1)\nlen.b = (2)\nlen.c = (4)\n",
             "induction needs an irreducible permutation"),
            ("alphabet = ab\npi = ba\nlen.a = (1)\nlen.b = (1)\n",
             "right step undefined: pieces 'b' and 'a' have equal length (1)"),
        ],
        ids=["one_letter", "reducible", "tied"],
    )
    def test_a_first_step_that_cannot_be_taken_prints_nothing(self, capsys, tmp_path, instance, message):
        path = tmp_path / "instance.iet"
        path.write_text(instance)
        code, out, err = run(capsys, "iet", "rauzy", str(path), "--steps", "rl")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_a_step_failing_midway_leaves_the_earlier_steps_printed(self, capsys, tmp_path):
        path = tmp_path / "tied_later.iet"
        path.write_text("alphabet = abc\npi = bca\nlen.a = (3)\nlen.b = (1)\nlen.c = (3)\n")
        code, out, err = run(capsys, "iet", "rauzy", str(path), "--steps", "lll")
        assert code == 2
        assert out.startswith("start:\n")
        assert [line.split(":")[0] for line in out.splitlines() if line.startswith("step")] == ["step 1", "step 2"]
        assert "left step undefined" in err


class TestExtgraphAndClassify:
    def test_extgraph_epsilon(self, capsys):
        code, out, _ = run(
            capsys, "extgraph", "--source", "multiset:aac,ab", "--word", "ε", "--orders", "pi:A"
        )
        assert code == 0
        assert "edges: (c,a) (b,a) (a,a) (a,b) (a,c)" in out
        assert "compatible: yes" in out

    def test_extgraph_not_clustering_pi_errors(self, capsys):
        code, _, err = run(
            capsys, "extgraph", "--source", "multiset:ab,aab", "--word", "", "--orders", "pi:A"
        )
        assert code == 2
        assert "not clustering" in err

    def test_classify_pair(self, capsys):
        code, out, _ = run(capsys, "classify", "--source", "multiset:ab,aab", "--depth", "4")
        assert code == 0
        assert "dendric: no" in out
        assert "alsinic: yes" in out
        assert "ordered_dendric: no" in out

    def test_classify_iet_source(self, capsys, golden_file):
        code, out, _ = run(
            capsys, "classify", "--source", f"iet:{golden_file}", "--depth", "3",
            "--orders", "bca:A",
        )
        assert code == 0
        assert "ordered_dendric: yes" in out

    def test_classify_iet_source_pi_order(self, capsys, golden_file):
        # The pi order of an instance source comes from its permutation.
        code, out, _ = run(
            capsys, "classify", "--source", f"iet:{golden_file}", "--depth", "3",
            "--orders", "pi:A",
        )
        assert code == 0
        assert "ordered_dendric: yes" in out

    def test_extgraph_layout(self, capsys):
        code, out, _ = run(
            capsys, "extgraph", "--source", "multiset:aac,ab", "--word", "ε",
            "--orders", "pi:A", "--layout",
        )
        assert code == 0
        assert "  a | a b c" in out


class TestVerify:
    def test_golden_passes(self, capsys, golden_file):
        code, out, _ = run(capsys, "verify", golden_file, "--max-len", "3")
        assert code == 0
        assert "failures: 0" in out

    def test_structured_deterministic(self, capsys, golden_file, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, "verify", golden_file, "--max-len", "3", "--format", "json",
                   "--output", str(first))[0] == 0
        assert run(capsys, "verify", golden_file, "--max-len", "3", "--format", "json",
                   "--output", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()
        payload = json.loads(first.read_text())
        assert payload["words_checked"] == 15
        assert payload["failures"] == []

    def test_refuses_connected_instance(self, capsys, tmp_path):
        path = tmp_path / "periodic.iet"
        path.write_text("alphabet = abc\npi = cba\nlen.a = (4)\nlen.b = (2)\nlen.c = (1)\n")
        code, _, err = run(capsys, "verify", str(path), "--max-len", "2")
        assert code == 2
        assert "refused" in err and "connection" in err


class TestVerifyLibrary:
    def test_report_failure_free(self, golden):
        report = verify_return_words(golden, 2, keane_depth=50)
        assert report.ok
        assert report.words_checked == 8  # 3 letters + 5 length-2 factors

    def test_keane_refusal(self, abc, seven_diet):
        from ietkit import as_iet

        with pytest.raises(KeaneCheckFailed):
            verify_return_words(as_iet(seven_diet, abc), 2)

    def test_emit_formats(self, golden):
        report = verify_return_words(golden, 2, keane_depth=50)
        text = emit_report(report, "text").decode()
        assert "failures: 0" in text
        payload = json.loads(emit_report(report, "structured").decode())
        assert payload["records"][0]["word"] == "a"
        assert emit_report(report, "structured") == emit_report(report, "structured")

    def test_trace_records_theta(self, golden):
        report = verify_return_words(golden, 1, keane_depth=50, trace=True)
        by_word = {r.word: r for r in report.records}
        assert dict(by_word["b"].theta) == {"a": "bac", "b": "b", "c": "bacc"}

    def test_cli_trace_prints_theta(self, capsys, golden_file):
        code = main(["verify", golden_file, "--max-len", "1", "--trace"])
        out = capsys.readouterr().out
        assert code == 0
        assert "theta:" in out

    def test_failures_listed_before_records(self, golden):
        from ietkit.verify import Failure, VerificationReport

        report = verify_return_words(golden, 1, keane_depth=50)
        rigged = VerificationReport(
            instance=report.instance,
            max_len=report.max_len,
            keane_depth=report.keane_depth,
            words_checked=report.words_checked,
            failures=(Failure("b", "bac", "bca", "synthetic failure for format test"),),
            records=report.records,
        )
        assert not rigged.ok
        text = emit_report(rigged, "text").decode()
        assert text.index("FAIL b:") < text.index("word a:")


def test_verify_checks_each_return_word_once(monkeypatch, golden):
    """Return words shared by several factors, and conjugates of one another,
    are analysed once per conjugacy class; when a class is not clustering,
    every record that holds a member of it still adds its own failure,
    naming that member."""
    import collections
    import dataclasses

    import ietkit.verify as cli

    least = lambda u: min(u[i:] + u[:i] for i in range(len(u)))
    members = collections.defaultdict(set)
    for r in verify_return_words(golden, 4, keane_depth=50).records:
        for u in r.return_words:
            members[least(u)].add(u)
    bad_class = max(sorted(members), key=lambda k: len(members[k]))
    assert len(members[bad_class]) > 1
    analysed = []
    real = cli.clustering_report

    def report_marking_one_bad(u, alphabet):
        analysed.append(u)
        report = real(u, alphabet)
        if least(u) == bad_class:
            return dataclasses.replace(report, is_clustering=False, permutation=None)
        return report

    monkeypatch.setattr(cli, "clustering_report", report_marking_one_bad)
    report = verify_return_words(golden, 4, keane_depth=50)
    assert sorted(map(least, analysed)) == sorted(members)
    having = [(r.word, u) for r in report.records for u in r.return_words if least(u) == bad_class]
    assert {u for _, u in having} == members[bad_class]
    bad = [f for f in report.failures if f.reason == "return word not clustering"]
    assert [(f.word, f.return_word) for f in bad] == having
    for r in report.records:
        for check in r.checks:
            assert check.is_clustering == (least(check.word) != bad_class)
