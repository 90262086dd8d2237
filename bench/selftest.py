"""Self-test of the benchmark at tiny confidence and stream size.

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that a seed's ``attempted`` and ``failed`` do not depend on how many passes
a run makes, that a tampered report fails the digest check, that a flipped
verdict fails the known-answer checks, that the edit commutations used to
build equal pairs are sound, and that a directory without the sources
yields no result.
Takes well under a minute.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import answers  # noqa: E402
import run_bench  # noqa: E402
import workloads  # noqa: E402

TINY = ["--seconds", "0.5", "--confidence", "100", "--pairs", "40"]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run_bench.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def test_every_metric_printed_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run_bench.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run_bench.WORKLOADS:
            proc = bench("--workload", workload, "--seed", "3", "--trace", str(trace), *TINY)
            assert proc.returncode == 0, proc.stderr
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(doc) == {"correct", "attempted", "failed", "metrics"}
            assert doc["correct"] is True and doc["attempted"] >= 1, doc
            got = {name: m["unit"] for name, m in doc["metrics"].items()}
            assert got == expected, (workload, trace, set(got) ^ set(expected))
            assert all(isinstance(m["value"], (int, float)) for m in doc["metrics"].values())


def test_counts_do_not_depend_on_passes():
    """The same seed gives the same ``attempted`` and ``failed`` whether a
    run makes two passes or more."""
    counts = []
    for seconds in ("0.5", "4"):
        proc = bench("--workload", "word-problem", "--seed", "3", "--trace", "0",
                     "--seconds", seconds, "--confidence", "100", "--pairs", "100")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        passes = int(proc.stdout.split(" passes ", 1)[0].rsplit(" ", 1)[1])
        counts.append((passes, doc["attempted"], doc["failed"]))
    (few, *first), (many, *second) = counts
    assert few < many, counts
    assert first == second and first[0] == 100, counts


def _report_100() -> str:
    from purecheck import default_suite, report_json, run_suite

    return report_json(run_suite(default_suite(), 100))


def test_digest_ignores_timing_only():
    text = _report_100()
    assert answers.check_suite_report("suite-holds", 100, text) == {}
    doc = json.loads(text)
    for e in doc["entries"]:
        e["ms"] = 12345.0
    assert answers.report_digest(json.dumps(doc)) == answers.EXPECTED_DIGESTS[100]


def test_tampered_report_fails_digest():
    doc = json.loads(_report_100())
    doc["entries"][3]["samples"] = 99
    problems = answers.check_suite_report("suite-holds", 100, json.dumps(doc))
    assert "digest" in problems.get("report", ""), problems


def test_flipped_verdicts_fail_known_answers():
    from purecheck import report_json, run_suite

    doc = json.loads(report_json(run_suite(workloads.falsify_suite(), 100)))
    assert answers.check_suite_report("falsify-early", 100, json.dumps(doc)) == {}
    doc["entries"][2]["verdict"] = "holds"
    assert len(answers.check_suite_report("falsify-early", 100, json.dumps(doc))) == 1

    doc = json.loads(_report_100())
    doc["entries"][0]["verdict"] = "falsified"
    assert answers.check_suite_report("suite-holds", 100, json.dumps(doc))

    from purecheck import parse_word, render_word, semantics, witness_diff, word_equiv, words

    pool = [render_word(w) for w in words.generate(workloads.SHORT_POOL)]
    pairs = workloads.word_stream(5, 60, pool)
    oracle = answers.StreamOracle(pairs)
    results = []
    for p in pairs:
        x, y = parse_word(p["x"]), parse_word(p["y"])
        try:
            eq = word_equiv(x, y)
            results.append([eq, None if eq else witness_diff(semantics(x), semantics(y)), None, 0])
        except (RecursionError, RuntimeError) as e:
            results.append([None, None, repr(e), 0])
    wrong, _raised = oracle.check(results)
    assert wrong == {}
    i = next(k for k, r in enumerate(results) if r[2] is None)
    flipped = [list(r) for r in results]
    flipped[i][0] = not flipped[i][0]
    flipped[i][1] = None if flipped[i][0] else "zz"
    assert len(oracle.check(flipped)[0]) == 1
    # a witness that does not separate the words fails the replay check
    from purecheck import action

    for j, r in enumerate(results):
        x, y = oracle.words[j]
        same = next((t for t in ("", "a", "ab", "zzz") if action(t, x) == action(t, y)), None)
        if r[1] is not None and same is not None:
            bad = [list(r) for r in results]
            bad[j][1] = same
            assert len(oracle.check(bad)[0]) == 1
            break
    else:
        raise AssertionError("no pair to tamper with")


def test_commutations_are_sound():
    edits = [(op, pos, ch) for op in "+-" for pos in range(4) for ch in "ab"]
    universe = ["".join(t) for n in range(6) for t in itertools.product("ab", repeat=n)]
    for a, b in itertools.product(edits, repeat=2):
        swapped = workloads.commute(a, b)
        if swapped is None:
            continue
        for s in universe:
            assert workloads.simulate(s, [a, b]) == workloads.simulate(s, list(swapped)), (a, b, s)


def test_sources_missing_gives_no_result():
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "suite-holds", "--seed", "1", "--trace", "0", *TINY, cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip()


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception as e:  # noqa: BLE001 — report every test, then fail
            failures += 1
            print(f"FAIL {name}: {e!r}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
