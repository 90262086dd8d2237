"""Suites, reports, exit codes, and the command-line front end."""
import gc
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
from purecheck import cli
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


def test_a_str_registers_as_one_tag(monkeypatch, capsys):
    s = Suite()
    s.register("x", conjoin(), "axiom")
    s.register("y", conjoin(), ["axiom", "law"])
    assert [e.tags for e in s.entries()] == [("axiom",), ("axiom", "law")]
    monkeypatch.setitem(cli._SUITES, "default", lambda: s)
    assert main(["list", "--tags"]) == 0
    assert capsys.readouterr().out == "x  [axiom]\ny  [axiom, law]\n"


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


def _is_tracked(x):
    """Whether the collector would traverse ``x``: frozen objects are in
    none of the generations `gc.get_objects` lists."""
    return any(o is x for o in gc.get_objects())


def _recording_suite(seen):
    """Two entries that record the freeze count, whether the pre-run object
    is traversed, and whether what earlier entries left alive is."""
    from purecheck.check import Check

    pre_run = ["made before the run"]
    left = []

    def record(n):
        seen.append((gc.get_freeze_count(), _is_tracked(pre_run), all(map(_is_tracked, left))))
        left.append(["left alive by an entry"])
        return Holds()

    s = Suite()
    s.register("first", Check(record))
    s.register("second", Check(record))
    return s


def test_run_suite_freezes_nothing_when_the_collector_is_disabled():
    before = gc.get_freeze_count()
    seen = []
    suite = _recording_suite(seen)
    gc.disable()
    try:
        run_suite(suite, 1)
        assert not gc.isenabled() and gc.get_freeze_count() == before
    finally:
        gc.enable()
    assert seen == [(before, True, True)] * 2


def test_run_suite_leaves_a_callers_frozen_objects_alone():
    seen = []
    suite = _recording_suite(seen)
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        run_suite(suite, 1)
        assert gc.isenabled() and gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()
    # the caller froze `pre_run` itself; the run froze nothing more
    assert seen == [(frozen, False, True)] * 2


_COLLECTOR_STATE = """
import gc
import sys

kept = [[i] for i in range(1000)]
gc.freeze()
from purecheck import Suite, negative_suite, run_suite
from purecheck.check import Check


def interrupt(n):
    raise KeyboardInterrupt


def state():
    return gc.get_freeze_count(), gc.isenabled()


interrupting = Suite()
interrupting.register("interrupt", Check(interrupt))
for disable in (False, True):
    if disable:
        gc.disable()
    before = state()
    run_suite(negative_suite(), 10)
    try:
        run_suite(interrupting, 1)
        sys.exit("the interrupt did not propagate")
    except KeyboardInterrupt:
        pass
    if state() != before:
        sys.exit(f"collector state {state()} after the runs, {before} before them")
"""


def test_run_suite_leaves_the_collector_as_the_caller_had_it():
    # in a fresh interpreter, so that objects are frozen before `purecheck`
    # is imported: a run leaves the freeze count and the collector's switch
    # as they were, whether it ends normally or by an interrupt, with the
    # collector enabled or disabled.  The count is read after the import:
    # on 3.12 and 3.13, importing a module from source frees a few frozen
    # objects, and a freed object leaves the count
    import os
    import sys

    import purecheck

    src = os.path.dirname(os.path.dirname(purecheck.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _COLLECTOR_STATE], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


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
    # the witness and outputs grow with the position; the automata do not
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("+100000:a\n")
    b.write_text("+100000:b\n")
    code = main(["oracle", str(a), str(b)])
    out = capsys.readouterr().out
    assert code == 1
    assert len(out.encode("utf-8")) < 4000
    assert '       Try[Ins ""; Skip*100000; Ins "a"; Return]\n' in out
    assert "normal-form automata: different" in out and "(100004 characters)" in out
    assert "witness " in out and "DISAGREEMENT" not in out


def test_cli_oracle_far_position_against_a_near_one(tmp_path, capsys):
    # the automaton of a position near sys.maxsize prints in full, and the
    # empty input separates the words
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("+1000000000000000000:a\n")
    b.write_text("+0:a\n")
    code = main(["oracle", str(a), str(b)])
    out = capsys.readouterr().out
    assert code == 1
    assert '       Try[Ins ""; Skip*1000000000000000000; Ins "a"; Return]\n' in out
    assert "witness '': left gives undefined, right gives 'a'" in out


def test_cli_oracle_witness_too_long_to_build(tmp_path, capsys):
    # only an input of 10**18 characters separates these words: no string
    # that long fits in memory, and that is a usage error, like a position
    # past sys.maxsize
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("+1000000000000000000:a\n")
    b.write_text("+1000000000000000000:b\n")
    code = main(["oracle", str(a), str(b)])
    out = capsys.readouterr().out
    assert code == 2
    assert out.splitlines()[-1] == "witness too long to build (1000000000000000000 characters)"
    assert "DISAGREEMENT" not in out


@pytest.mark.parametrize("order", [("huge", "del"), ("del", "huge")])
def test_cli_oracle_witness_does_not_depend_on_the_order(tmp_path, capsys, order):
    # the input 'c' separates the words whichever file comes first, though
    # the left-to-right witness of the huge word is too long to build
    words = {"huge": "+1000000000000000000:a\n", "del": "-0:c\n"}
    outs = {"huge": "undefined", "del": "''"}
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text(words[order[0]])
    b.write_text(words[order[1]])
    code = main(["oracle", str(a), str(b)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines()[-1] == (
        f"witness 'c': left gives {outs[order[0]]}, right gives {outs[order[1]]}"
    )


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


def test_cli_oracle_rejects_a_position_no_string_reaches(tmp_path, capsys):
    # a position past `sys.maxsize` overflowed while the automaton was
    # rendered, a traceback under exit code 1, the code for "words differ"
    far = "100000000000000000000"
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text(f"+0:b\n+{far}:a\n")
    b.write_text("+0:a\n")
    for files in ([a, b], [b, a]):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", *map(str, files)])
        assert exc.value.code == 2
        assert far in capsys.readouterr().err


def test_cli_oracle_reports_missing_file(tmp_path, capsys):
    b = tmp_path / "b.txt"
    b.write_text("+0:a\n")
    with pytest.raises(SystemExit) as exc:
        main(["oracle", str(tmp_path / "nope.txt"), str(b)])
    assert exc.value.code == 2


def _timing_free_digest(text):
    # sha256 of a JSON report with timings dropped, in canonical form:
    # any change to a verdict, counterexample or entry shows here
    doc = json.loads(text)
    for entry in doc["entries"]:
        del entry["ms"]
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _default_suite_digest(confidence):
    return _timing_free_digest(report_json(run_suite(default_suite(), confidence)))


def test_default_suite_report_is_unchanged_at_confidence_100():
    assert _default_suite_digest(100) == "fc414742c08d2761f36505673fafe1c1bcd8811e2367d99f574a3574ad786333"


def test_default_suite_report_is_unchanged_at_confidence_1000_and_3000():
    assert _default_suite_digest(1000) == "3540e3988e84dfc3a3217746cff64486cfa99861a2b8a77388b54ac967d3dc95"
    assert _default_suite_digest(3000) == "2eab542ab7178328339eadb97196635fbd2b19cbfff33d1f5c90166a8e072377"


_MEMO_ENTRIES = """
import gc
from purecheck.generators import Generator
from purecheck.runner import default_suite, report_json, run_suite

suite = default_suite()
text = report_json(run_suite(suite, 3000))
print(sum(len(g._memo) for g in gc.get_objects() if isinstance(g, Generator)))
print(text)
"""


def test_the_default_suite_at_3000_keeps_only_its_marginals_memos():
    # in a fresh interpreter, so that no other test's generators count, and
    # with the suite alive, so that its products count too: a product
    # rebuilds its tuples from its marginals' memos and keeps only the
    # prefix that an enclosing product read by index (34,161 entries when
    # every product kept all it produced)
    import os
    import sys

    import purecheck

    src = os.path.dirname(os.path.dirname(purecheck.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _MEMO_ENTRIES], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    entries, text = done.stdout.split("\n", 1)
    assert int(entries) == 10050
    assert _timing_free_digest(text) == "2eab542ab7178328339eadb97196635fbd2b19cbfff33d1f5c90166a8e072377"


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
