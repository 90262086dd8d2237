"""Suites, reports, exit codes, and the command-line front end."""
import hashlib
import json
import subprocess
from pathlib import Path

import pytest

from purecheck import (
    Falsified,
    Holds,
    LogicalError,
    Suite,
    TacticalError,
    brute_force_equiv,
    check_with,
    conjoin,
    default_suite,
    exit_code,
    full_suite,
    integers,
    negative_suite,
    parse_word,
    report_json,
    report_text,
    run_suite,
)
from purecheck.cli import main
from purecheck.runner import EntryResult, verdict_name


def small_suite():
    s = Suite()
    s.register("always", conjoin(), ("demo",))
    s.register("ints.nonneg", check_with(integers(), lambda x: x >= 0), ("demo", "int"))
    return s


# -- suite plumbing -----------------------------------------------------------


def test_register_rejects_duplicates():
    s = Suite()
    s.register("x", conjoin(), ())
    with pytest.raises(ValueError):
        s.register("x", conjoin(), ())


def test_run_suite_verdicts():
    report = run_suite(small_suite(), confidence=10)
    by_name = {r.name: r.verdict for r in report.entries}
    assert by_name["always"] == Holds()
    assert isinstance(by_name["ints.nonneg"], Falsified)


def test_run_suite_confidence_is_respected():
    report = run_suite(small_suite(), confidence=2)  # samples 0, 1 only
    by_name = {r.name: r.verdict for r in report.entries}
    assert by_name["ints.nonneg"] == Holds()


def test_run_suite_name_filter():
    report = run_suite(small_suite(), confidence=5, name_filter="ints")
    assert [r.name for r in report.entries] == ["ints.nonneg"]


def test_run_suite_catches_entry_exceptions():
    from purecheck.check import Check

    s = Suite()

    def blow_up(n):
        raise RuntimeError("broken harness")

    s.register("bad", Check(blow_up), ())
    report = run_suite(s, confidence=3)
    assert isinstance(report.entries[0].verdict, TacticalError)


def test_exit_codes():
    clean = run_suite(Suite(), confidence=1)
    assert exit_code(clean) == 0
    assert exit_code(run_suite(small_suite(), confidence=10)) == 1

    s = Suite()
    s.register("err", check_with(integers(), lambda x: 1 // x == 1), ())
    assert exit_code(run_suite(s, confidence=5)) == 2


def test_falsification_outranks_errors_in_exit_code():
    s = Suite()
    s.register("err", check_with(integers(), lambda x: x + ""), ())
    s.register("false", check_with(integers(), lambda x: x < 2), ())
    assert exit_code(run_suite(s, confidence=10)) == 1


# -- reports -------------------------------------------------------------------


def test_verdict_names():
    assert verdict_name(Holds()) == "holds"
    assert verdict_name(Falsified("3")) == "falsified"
    assert verdict_name(LogicalError("x")) == "logical_error"
    assert verdict_name(TacticalError("x")) == "tactical_error"


def test_verdict_name_rejects_a_non_verdict():
    with pytest.raises(TypeError, match="not a verdict: int"):
        verdict_name(3)


def test_report_json_shape():
    report = run_suite(small_suite(), confidence=10)
    doc = json.loads(report_json(report))
    assert set(doc) == {"entries", "summary"}
    assert doc["summary"] == {
        "holds": 1,
        "falsified": 1,
        "logical_error": 0,
        "tactical_error": 0,
    }
    entries = {e["name"]: e for e in doc["entries"]}
    assert set(entries["always"]) == {"name", "verdict", "counterexample", "samples", "ms"}
    assert entries["always"]["verdict"] == "holds"
    assert entries["always"]["counterexample"] == ""
    assert entries["always"]["samples"] == 10
    assert entries["ints.nonneg"]["verdict"] == "falsified"
    assert entries["ints.nonneg"]["counterexample"] == "-1"
    assert isinstance(entries["always"]["ms"], float)


def test_report_text_mentions_every_entry():
    report = run_suite(small_suite(), confidence=10)
    text = report_text(report)
    assert "always" in text and "ints.nonneg" in text
    assert "FALSIFIED" in text and "HOLDS" in text
    assert "-1" in text


def test_report_is_deterministic_apart_from_timing():
    a = json.loads(report_json(run_suite(small_suite(), confidence=10)))
    b = json.loads(report_json(run_suite(small_suite(), confidence=10)))
    for e in a["entries"] + b["entries"]:
        e.pop("ms")
    assert a == b


# -- shipped suites -------------------------------------------------------------


def test_default_suite_holds_quickly():
    report = run_suite(default_suite(), confidence=100)
    for r in report.entries:
        assert r.verdict == Holds(), f"{r.name}: {r.verdict}"
    assert exit_code(report) == 0


def test_negative_suite_is_all_falsified():
    report = run_suite(negative_suite(), confidence=60)
    assert len(report.entries) == 2
    for r in report.entries:
        assert isinstance(r.verdict, Falsified), r.name
    assert exit_code(report) == 1


def test_full_suite_is_the_union():
    names = {e.name for e in full_suite().entries()}
    assert {e.name for e in default_suite().entries()} <= names
    assert {e.name for e in negative_suite().entries()} <= names


def test_default_suite_covers_every_family():
    names = [e.name for e in default_suite().entries()]
    for prefix in ("monoid.", "raction.", "patch.invert", "editor."):
        assert any(n.startswith(prefix) for n in names), prefix


# -- the exhaustive oracle -------------------------------------------------------


def test_brute_force_equiv_matches_known_pairs():
    x = parse_word("+2:a,-3:b")
    y = parse_word("-2:b,+2:a")
    assert brute_force_equiv(x, y, "ab", 6)
    assert not brute_force_equiv(parse_word("+0:a"), parse_word("+0:b"), "ab", 2)
    assert brute_force_equiv(parse_word(""), parse_word("+0:a,~+0:a"), "ab", 4)


# -- command line ----------------------------------------------------------------


def test_cli_run_text(capsys):
    code = main(["run", "--confidence", "40", "--filter", "monoid."])
    out = capsys.readouterr().out
    assert code == 0
    assert "monoid.assoc<list<int>>" in out
    assert "HOLDS" in out


def test_cli_run_json(capsys):
    code = main(["run", "--confidence", "25", "--format", "json", "--filter", "raction"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["summary"]["holds"] == len(doc["entries"]) == 2
    assert all(e["samples"] == 25 for e in doc["entries"])


def test_cli_run_negative_suite(capsys):
    code = main(["run", "--suite", "negative", "--confidence", "30"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FALSIFIED" in out


def test_cli_confidence_from_environment(monkeypatch, capsys):
    monkeypatch.setenv("PURECHECK_CONFIDENCE", "17")
    main(["run", "--format", "json", "--filter", "raction"])
    doc = json.loads(capsys.readouterr().out)
    assert all(e["samples"] == 17 for e in doc["entries"])


def test_cli_flag_overrides_environment(monkeypatch, capsys):
    monkeypatch.setenv("PURECHECK_CONFIDENCE", "17")
    main(["run", "--confidence", "9", "--format", "json", "--filter", "raction"])
    doc = json.loads(capsys.readouterr().out)
    assert all(e["samples"] == 9 for e in doc["entries"])


def test_cli_rejects_malformed_confidence_in_environment(monkeypatch, capsys):
    monkeypatch.setenv("PURECHECK_CONFIDENCE", "1e3")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--filter", "raction"])
    assert exc.value.code == 2
    assert "1e3" in capsys.readouterr().err
    # an explicit flag does not read the environment
    assert main(["run", "--confidence", "9", "--filter", "raction"]) == 0


def test_cli_rejects_nonpositive_confidence(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--confidence", "0"])
    assert exc.value.code == 2
    assert "confidence" in capsys.readouterr().err


def test_cli_list(capsys):
    code = main(["list"])
    out = capsys.readouterr().out
    assert code == 0
    assert "monoid.assoc<list<int>>" in out
    assert "editor.semantics_sound" in out


def test_cli_list_tags(capsys):
    main(["list", "--tags"])
    out = capsys.readouterr().out
    assert "axiom" in out and "adequacy" in out


def test_cli_oracle_equal(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("+2:a\n-3:b\n")
    b.write_text("-2:b\n+2:a\n")
    code = main(["oracle", str(a), str(b)])
    out = capsys.readouterr().out
    assert code == 0
    assert "equal" in out


def test_readme_oracle_example_runs_as_printed(tmp_path, capsys, monkeypatch):
    # the README's first oracle example: its two printf lines under sh,
    # then the oracle on the files they write, printing the README's lines
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = next(b for b in readme.split("```sh\n") if "purecheck oracle left.txt right.txt" in b)
    lines = block.split("```")[0].splitlines()
    shell = [line[2:] for line in lines if line.startswith("$ printf")]
    printed = [line for line in lines if not line.startswith("$ ")]
    assert len(shell) == 2 and len(printed) == 6
    for command in shell:
        subprocess.run(["sh", "-c", command], cwd=tmp_path, check=True)
    monkeypatch.chdir(tmp_path)
    code = main(["oracle", "left.txt", "right.txt"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == printed


def test_cli_oracle_different(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("+0:a\n")
    b.write_text("+0:b\n")
    code = main(["oracle", str(a), str(b)])
    out = capsys.readouterr().out
    assert code == 1
    assert "different" in out


@pytest.mark.parametrize(
    "left, right, witness",
    [
        ("-0:c", "-0:d", "'c': left gives '', right gives undefined"),
        ("+9:a", "+10:a", "'aaaaaaaaa': left gives 'aaaaaaaaaa', right gives undefined"),
    ],
)
def test_cli_oracle_witness_separates_past_the_small_universe(
    tmp_path, capsys, left, right, witness
):
    # {ab}^<=6 cannot tell these words apart; the model's witness can
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text(left + "\n")
    b.write_text(right + "\n")
    code = main(["oracle", str(a), str(b)])
    out = capsys.readouterr().out
    assert code == 1
    assert "brute force over {ab}^<=6: equal" in out
    assert f"witness {witness}" in out
    assert "DISAGREEMENT" not in out


def test_cli_oracle_separates_past_every_code_point(tmp_path, capsys):
    # 300000 unconstrained positions outnumber the printable code points
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("+300000:a\n")
    b.write_text("+300000:b\n")
    code = main(["oracle", str(a), str(b)])
    out = capsys.readouterr().out
    assert code == 1
    assert "witness " in out
    assert "DISAGREEMENT" not in out


def test_cli_oracle_output_is_bounded(tmp_path, capsys):
    # automata, witness and outputs all grow with the position: 3.8 MB in full
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("+100000:a\n")
    b.write_text("+100000:b\n")
    code = main(["oracle", str(a), str(b)])
    out = capsys.readouterr().out
    assert code == 1
    assert len(out.encode("utf-8")) < 4000
    assert "normal-form automata: different" in out and "(1400020 characters)" in out
    assert "witness " in out and "DISAGREEMENT" not in out


@pytest.mark.parametrize(
    "broken, fake",
    [
        ("word_equiv", lambda x, y: True),  # brute force separates "equal" words
        ("witness_diff", lambda x, y: None),  # "different" without a witness
    ],
)
def test_cli_oracle_reports_a_real_disagreement(tmp_path, capsys, monkeypatch, broken, fake):
    from purecheck import editor

    monkeypatch.setattr(editor, broken, fake)
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("+0:a\n")
    b.write_text("+0:b\n")
    code = main(["oracle", str(a), str(b)])
    assert code == 2
    assert "DISAGREEMENT" in capsys.readouterr().out


def test_cli_oracle_rejects_negative_max_len(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text("+0:a\n")
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--max-len", "-1", str(a), str(a)])
    assert exc.value.code == 2
    assert "--max-len" in capsys.readouterr().err


def test_cli_oracle_skips_blank_lines(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("\n+0:a\n\n~+0:a\n")
    b.write_text("\n\n")
    code = main(["oracle", str(a), str(b)])
    assert code == 0  # insert-then-undo collapses to the empty word


def test_cli_oracle_keeps_a_space_argument(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("+0: \n")  # inserts ' ' at 0
    b.write_text("~-0: \n")  # un-deletes ' ' at 0: the same edit
    code = main(["oracle", str(a), str(b)])
    out = capsys.readouterr().out
    assert code == 0
    assert "left:  +0: \n" in out
    assert "right: ~-0: \n" in out


def test_cli_oracle_rejects_malformed_word_file(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("+2:a,-3:b\n")  # comma form: words are one literal per line
    b.write_text("+0:a\n")
    with pytest.raises(SystemExit) as exc:
        main(["oracle", str(a), str(b)])
    assert exc.value.code == 2
    assert "one literal per line" in capsys.readouterr().err


def test_cli_oracle_rejects_non_ascii_positions(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("+٣:a\n", encoding="utf-8")  # ARABIC-INDIC DIGIT THREE
    b.write_text("+3:a\n")
    with pytest.raises(SystemExit) as exc:
        main(["oracle", str(a), str(b)])
    assert exc.value.code == 2
    assert "one literal per line" in capsys.readouterr().err


def test_cli_oracle_rejects_a_leading_zero(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("+03:a\n")
    b.write_text("+3:a\n")
    with pytest.raises(SystemExit) as exc:
        main(["oracle", str(a), str(b)])
    assert exc.value.code == 2
    assert "one literal per line" in capsys.readouterr().err


def test_cli_oracle_reports_missing_file(tmp_path, capsys):
    b = tmp_path / "b.txt"
    b.write_text("+0:a\n")
    with pytest.raises(SystemExit) as exc:
        main(["oracle", str(tmp_path / "nope.txt"), str(b)])
    assert exc.value.code == 2


def _default_suite_digest(confidence):
    # sha256 of the JSON report with timings dropped, in canonical form:
    # any change to a verdict, counterexample or entry shows here
    doc = json.loads(report_json(run_suite(default_suite(), confidence)))
    for entry in doc["entries"]:
        del entry["ms"]
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def test_default_suite_report_is_unchanged_at_confidence_100():
    assert _default_suite_digest(100) == "fc414742c08d2761f36505673fafe1c1bcd8811e2367d99f574a3574ad786333"


def test_default_suite_report_is_unchanged_at_confidence_1000_and_3000():
    assert _default_suite_digest(1000) == "3540e3988e84dfc3a3217746cff64486cfa99861a2b8a77388b54ac967d3dc95"
    assert _default_suite_digest(3000) == "2eab542ab7178328339eadb97196635fbd2b19cbfff33d1f5c90166a8e072377"


def test_run_suite_records_a_check_that_returns_no_verdict():
    from purecheck.check import Check

    s = Suite()
    s.register("x", Check(lambda n: True))
    report = run_suite(s, confidence=3)
    verdict = report.entries[0].verdict
    assert isinstance(verdict, TacticalError) and "bool" in verdict.diagnostic
    assert "1 tactical errors" in report_text(report)
    assert exit_code(report) == 2


def test_cli_view_prints_up_to_200_characters_whole():
    from purecheck.cli import _view

    assert _view("x" * 200) == "x" * 200
    text = "a" * 100 + "b" + "c" * 100
    assert _view(text) == "a" * 98 + "..." + "c" * 98 + " (201 characters)"


@pytest.mark.parametrize(
    "args, code",
    [
        (["run", "--confidence", "5"], 0),
        (["run", "--suite", "negative", "--confidence", "30"], 1),
        (["list", "--tags"], 0),
        (["oracle", "{a}", "{b}"], 1),
    ],
)
def test_cli_output_closed_early_keeps_the_exit_code(tmp_path, args, code):
    import os
    import subprocess
    import sys

    import purecheck

    (tmp_path / "a.txt").write_text("+2:a\n")
    (tmp_path / "b.txt").write_text("+3:a\n")
    args = [arg.format(a=tmp_path / "a.txt", b=tmp_path / "b.txt") for arg in args]
    src = os.path.dirname(os.path.dirname(purecheck.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "purecheck", *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    proc.stdout.close()  # the reader is gone before the first line is written
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == code, err
    assert err == ""
