"""Verdict-time benchmark for purecheck.

    python3 bench/run_bench.py --workload suite-holds --seed 1 --seconds 20 --trace 0

Workloads (see README.md in this directory):

* ``suite-holds`` — the default suite at confidence 3000, as
  ``purecheck run --format json --confidence 3000`` computes it; every
  report's timing-free digest is checked against the checked-in one;
* ``falsify-early`` — the negative suite plus broken laws at confidence
  3000, each verdict and counterexample checked against a known answer;
* ``word-problem`` — a seeded stream of word pairs decided one at a time
  with ``word_equiv`` (plus ``witness_diff`` on different pairs), each
  answer checked against brute force or the way the pair was built.

Every timed pass runs in a fresh interpreter, one at a time (a closed loop
with a single caller).  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` it has the
per-layer metrics of a separate traced run.  Exits 1 without a result line
when the run cannot be made, 2 when the checkout has no ``src/purecheck``.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

WORKLOADS = ("suite-holds", "falsify-early", "word-problem")
CONFIDENCE = 3000
STREAM_PAIRS = 2000
SETUP_SAMPLES = 5  # set-up-only interpreters per run, besides each pass's own
MIN_PASSES = 2  # a median needs more than one pass, however long a pass takes
ROADMAP_WORDS = 32768  # at confidence 3000; scaled with the confidence
CHILD_TIMEOUT_S = 170
REF_NOMINAL_MS = 1.5  # reference slice time that defines reference speed

#: name -> unit, printed with --trace 0
END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "decisions_per_s": "1/s",
    "decide_p50_ms": "ms",
    "decide_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def entry_metric(name: str) -> str:
    """``monoid.assoc<list<int>>`` -> ``runner.entry_ms.monoid.assoc-list-int``."""
    return "runner.entry_ms." + re.sub(r"[^A-Za-z0-9_.-]+", "-", name).strip("-")


def per_layer_units(entry_names) -> dict:
    """name -> unit, printed with --trace 1."""
    units = {
        "generators.lists_of_ms": "ms",
        "generators.words_ms": "ms",
        "generators.words_32768_ms": "ms",
        "editor.editors_cold_ms": "ms",
        "editor.editors_warm_ms": "ms",
        "editor.editor_pairs_ms": "ms",
        "editor.fold_calls_per_editor": "calls/editor",
        "editor.semantics_hit_ratio": "ratio",
        "editor.semantics_entries": "count",
        "editor.fold_ms": "ms",
        "editor.fold_32768_ms": "ms",
        "editor.witness_ms": "ms",
        "patches.action_ms": "ms",
        "check.enumerate_ms": "ms",
        "check.body_ms": "ms",
        "check.editor_enumerate_share": "ratio",
        "runner.suite_exponent": "exponent",
        "runner.report_ms": "ms",
        "cli.list_ms": "ms",
        "trace.overhead_s": "s",
    }
    units.update({entry_metric(n): "ms" for n in entry_names})
    return units


class BenchError(Exception):
    """The run cannot be made; no result is printed."""


# ---------------------------------------------------------------------------
# child processes


def spawn(task: str, args: dict, stdin: str | None = None, spans: list | None = None) -> dict:
    """Run one child to completion and return its JSON result."""
    start = time.monotonic_ns()
    cmd = [sys.executable, str(CHILD), task, json.dumps({**args, "spawn_ns": start})]
    try:
        proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{task} child exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{task} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if spans is not None:
        spans.append({"task": task, "args": args, "start_ns": start, "end_ns": time.monotonic_ns(),
                      "spans": out.pop("spans", [])})
    return out


class Workload:
    """What one workload runs in a pass and how its outputs are checked."""

    def __init__(self, name: str, seed: int, confidence: int, n_pairs: int):
        self.name = name
        self.confidence = confidence
        self.stdin = None
        self.oracle = None
        if name == "word-problem":
            import answers
            import workloads
            from purecheck import render_word, words

            pool = [render_word(w) for w in words.generate(workloads.SHORT_POOL)]
            pairs = workloads.word_stream(seed, n_pairs, pool)
            self.oracle = answers.StreamOracle(pairs)
            self.stdin = json.dumps([[p["x"], p["y"]] for p in pairs])
        self.task = "stream" if self.oracle else "verdict"
        self.args = {"workload": name, "confidence": confidence}

    def setup(self) -> dict:
        return spawn("setup", self.args, self.stdin)

    def run_pass(self, trace: bool = False, spans: list | None = None) -> dict:
        return spawn(self.task, {**self.args, "trace": trace}, self.stdin, spans)

    def check(self, out: dict) -> tuple:
        """``(decisions, wrong, raised, latencies_ms)`` for one pass.

        ``decisions`` names what the pass decided: the pairs of the stream
        on ``word-problem``; on the suite workloads, the suite's entries
        plus its report as a whole (the digest and entry-list checks).
        ``wrong`` and ``raised`` map a failed decision to its problem.  One
        latency is one pair on ``word-problem`` and one whole suite verdict
        on the suite workloads.
        """
        if self.oracle:
            wrong, raised = self.oracle.check(out["results"])
            return range(len(out["results"])), wrong, raised, [r[3] for r in out["results"]]
        decided, wrong = suite_decisions(self.name, self.confidence, out["report"])
        return decided, wrong, {}, [out["verdict_s"] * 1000.0]


def suite_decisions(workload: str, confidence: int, report: str) -> tuple:
    """``(decisions, wrong)`` of one suite report, named by workload,
    confidence and entry, with ``report`` for the report as a whole."""
    import answers

    tag = f"{workload}@{confidence}:"
    names = [e["name"] for e in json.loads(report)["entries"]] + ["report"]
    problems = answers.check_suite_report(workload, confidence, report)
    return [tag + n for n in names], {tag + k: v for k, v in problems.items()}


class Tally:
    """Decisions and failures of a run, each decision counted once.

    A run repeats its pass until its time is up, so the same decision is
    made in every pass; it is attempted once and failed once if it failed
    in any pass.  So ``attempted`` and ``failed`` depend on the seed only,
    not on how many passes the machine's speed allowed.
    """

    def __init__(self):
        self.decisions: set = set()
        self.wrong: dict = {}  # decision -> problem
        self.raised: dict = {}  # decision -> problem
        self.passes: dict = {}  # decision -> passes it failed in

    def add(self, decisions, wrong: dict, raised: dict) -> None:
        self.decisions.update(decisions)
        for failures, into in ((wrong, self.wrong), (raised, self.raised)):
            for key, problem in failures.items():
                into.setdefault(key, problem)
                self.passes[key] = self.passes.get(key, 0) + 1

    @property
    def attempted(self) -> int:
        return len(self.decisions)

    @property
    def failed(self) -> int:
        return len(self.wrong.keys() | self.raised.keys())

    def print_failures(self) -> None:
        for tag, failures in (("WRONG ", self.wrong), ("RAISED", self.raised)):
            for key, problem in failures.items():
                print(f"{tag} {problem}  [{self.passes[key]} pass(es)]")


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# the two kinds of run


def speed(out: dict) -> float:
    """Factor that takes a child's timings to reference speed."""
    return REF_NOMINAL_MS / out["ref_ms"]


def measure(wl: Workload, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics: fresh-interpreter passes for ``seconds``, and at
    least ``MIN_PASSES``.

    Times are at reference speed: each child's wall times multiplied by
    ``REF_NOMINAL_MS`` over the mean reference slice it measured.  Every
    pass decides the same pairs, so a pair's latency is its mean over the
    passes, which evens out the shared host's interruptions of single
    decisions; a suite verdict is decided once per pass.
    """
    wl.setup()  # warm-up: compiles bytecode and fills the page cache; not counted
    setups = [wl.setup() for _ in range(SETUP_SAMPLES)]
    passes, decisions = [], []
    per_decision: dict = {}  # decision -> its latencies, one per pass
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        out = wl.run_pass()
        decided, wrong, raised, lat = wl.check(out)
        tally.add(decided, wrong, raised)
        for key, ms in zip(decided if wl.oracle else [len(passes)], lat):
            per_decision.setdefault(key, []).append(ms * speed(out))
        passes.append(out)
        decisions.append(len(lat))
        setups.append(out)
    latencies = [statistics.fmean(v) for v in per_decision.values()]
    raw = ", ".join(f"{o['verdict_s']:.3f}" for o in passes)
    refs = ", ".join(f"{o['ref_ms']:.2f}" for o in passes)
    print(f"{wl.name}: {len(passes)} passes (wall {raw} s; reference slice {refs} ms), "
          f"{len(setups)} set-up samples, {len(latencies)} decision latencies"
          + (" (each a pair's mean over the passes)" if wl.oracle else ""))
    return {
        "setup_s": statistics.median(o["setup_s"] * speed(o) for o in setups),
        "verdict_s": statistics.median(o["verdict_s"] * speed(o) for o in passes),
        "decisions_per_s": statistics.median(n / (o["verdict_s"] * speed(o)) for o, n in zip(passes, decisions)),
        "decide_p50_ms": percentile(latencies, 50),
        "decide_p99_ms": percentile(latencies, 99),
        "peak_rss_mb": statistics.median(o["rss_mb"] for o in passes),
    }


def trace(wl: Workload, tally: Tally, spans: list) -> dict:
    """Per-layer metrics: the workload's pass untraced and traced, then the
    layer profile that is the same for every workload.  Times are at
    reference speed, like the end-to-end metrics."""
    c = wl.confidence
    plain = wl.run_pass(spans=spans)
    traced = wl.run_pass(trace=True, spans=spans)
    for out in (plain, traced):
        tally.add(*wl.check(out)[:3])
    info = traced["cache"]
    m = {
        "trace.overhead_s": traced["verdict_s"] * speed(traced) - plain["verdict_s"] * speed(plain),
        "editor.semantics_hit_ratio": info["hits"] / max(1, info["hits"] + info["misses"]),
        "editor.semantics_entries": info["currsize"],
    }

    # the default suite at the confidence ladder c/30, c/3, c
    rungs = {}
    for rung in (c // 30, c // 3, c):
        if wl.name == "suite-holds" and rung == c:
            rungs[rung] = traced
            continue
        out = spawn("verdict", {"workload": "suite-holds", "confidence": rung, "trace": True}, spans=spans)
        tally.add(*suite_decisions("suite-holds", rung, out["report"]), {})
        rungs[rung] = out
    times = {rung: o["verdict_s"] * speed(o) for rung, o in rungs.items()}
    xs = [math.log(r) for r in times]
    ys = [math.log(t) for t in times.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    m["runner.suite_exponent"] = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    top = rungs[c]
    entries = {e["name"]: e["ms"] * speed(top) for e in json.loads(top["report"])["entries"]}
    for name, ms in entries.items():
        m[entry_metric(name)] = ms
    m["runner.report_ms"] = top["report_ms"] * speed(top)

    # enumeration vs body, entry by entry, at the top rung
    out = spawn("enumerate", {"confidence": c}, spans=spans)
    enum = {name: ms * speed(out) for name, ms in out["enumerate_ms"].items()}
    m["check.enumerate_ms"] = sum(enum.values())
    m["check.body_ms"] = sum(entries.values()) - m["check.enumerate_ms"]
    editor_enum = sum(ms for name, ms in enum.items() if name.startswith("editor."))
    m["check.editor_enumerate_share"] = editor_enum / (times[c] * 1000.0)

    probe = spawn("probe", {"confidence": c}, spans=spans)
    for key in ("lists_of_ms", "words_ms"):
        m[f"generators.{key}"] = probe[key] * speed(probe)
    for key in ("editors_cold_ms", "editors_warm_ms", "editor_pairs_ms", "fold_ms", "witness_ms"):
        m[f"editor.{key}"] = probe[key] * speed(probe)
    m["editor.fold_calls_per_editor"] = probe["fold_calls_per_editor"]
    m["patches.action_ms"] = probe["action_ms"] * speed(probe)
    if wl.oracle:  # the stream's own fold, witnesses and replay
        m["editor.fold_ms"] = traced["fold_ms"] * speed(traced)
        m["editor.witness_ms"] = traced["witness_ms"] * speed(traced)
        m["patches.action_ms"] = traced["action_ms"] * speed(traced)

    roadmap = spawn("roadmap", {"words": round(ROADMAP_WORDS * c / CONFIDENCE)}, spans=spans)
    m["generators.words_32768_ms"] = roadmap["words_ms"] * speed(roadmap)
    m["editor.fold_32768_ms"] = roadmap["fold_ms"] * speed(roadmap)
    m["cli.list_ms"] = statistics.median(o["list_ms"] * speed(o) for o in (spawn("cli", {}) for _ in range(3)))

    print(f"{wl.name} traced: pass {plain['verdict_s']:.3f} s untraced, {traced['verdict_s']:.3f} s traced (wall); "
          f"ladder " + ", ".join(f"{r}: {o['verdict_s']:.3f} s" for r, o in rungs.items()) + " (wall); "
          f"editor enumeration {m['check.editor_enumerate_share']:.1%} of the top rung")
    print("wall times for comparison with ROADMAP.md: "
          f"editors.generate({c}) cold {probe['editors_cold_ms']:.0f} ms, warm {probe['editors_warm_ms']:.0f} ms; "
          f"words.generate({round(ROADMAP_WORDS * c / CONFIDENCE)}) {roadmap['words_ms']:.0f} ms, "
          f"uncached fold {roadmap['fold_ms']:.0f} ms; reference slice {probe['ref_ms']:.2f} ms")
    return m


# ---------------------------------------------------------------------------


def result_line(tally: Tally, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--confidence", type=int, default=CONFIDENCE, help="smaller for a quick self-test")
    parser.add_argument("--pairs", type=int, default=STREAM_PAIRS, help="word-problem stream length")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "purecheck" / "__init__.py").is_file():
        print(f"no purecheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        wl = Workload(args.workload, args.seed, args.confidence, args.pairs)
        tally = Tally()
        if args.trace:
            spans: list = []
            metrics = trace(wl, tally, spans)
            from purecheck import default_suite

            units = per_layer_units(e.name for e in default_suite().entries())
            out_dir = ROOT / ".bench_trace"
            out_dir.mkdir(exist_ok=True)
            (out_dir / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
        else:
            metrics = measure(wl, args.seconds, tally)
            units = END_TO_END
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    attempted = max(tally.attempted, 1)
    print(f"{args.workload}: {tally.attempted} attempted, {len(tally.wrong)} wrong, "
          f"{tally.failed - len(tally.wrong)} raised, error_share {tally.failed / attempted:.4f}")
    tally.print_failures()
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(result_line(tally, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
