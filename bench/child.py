"""One fresh interpreter's share of a benchmark run.

    python3 bench/child.py TASK ARGS_JSON < STDIN

``run_bench.py`` starts one of these per timed pass, so module-level caches
(``editor.semantics``'s ``lru_cache`` among them) start cold, as they do for
a ``purecheck run`` user.  ARGS_JSON carries ``spawn_ns``, the parent's
``time.monotonic_ns()`` just before the start; set-up time runs from there
to the end of building the suite or parsing the words.  The last line of
standard output is one JSON object.

Every task also reports ``ref_ms``, the mean time of a fixed reference
slice (pure Python, independent of purecheck) that :class:`SpeedSampler`
times every 0.2 s through the timed work; the sampling time is taken out
of the timings.  ``run_bench.py`` divides by it to take the machine's
momentary speed out of the timings.

Tasks: ``setup``, ``cli`` (``purecheck list``), ``verdict`` (one suite
pass), ``stream`` (one pass over the word pairs given on stdin),
``enumerate`` (each default-suite entry's bound, in entry order),
``probe`` (generator, fold, witness and action timings at one confidence)
and ``roadmap`` (``words.generate(n)`` and the uncached fold of those
words).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _import_purecheck():
    """Import the package from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import purecheck

    if Path(purecheck.__file__).resolve().parent != (ROOT / "src" / "purecheck").resolve():
        raise SystemExit(f"purecheck imported from {purecheck.__file__}, not from this checkout")
    return purecheck


def _since_spawn_s(args: dict) -> float:
    return (time.monotonic_ns() - args["spawn_ns"]) / 1e9


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass(frozen=True)
class _Node:
    head: str
    tail: object


def reference_slice() -> int:
    """Nanoseconds for a fixed piece of interpreter work shaped like the
    fold: chains of frozen dataclasses, a dict insert, string splicing."""
    start = time.perf_counter_ns()
    for k in range(50):
        node = None
        for i in range(30):
            node = _Node("ab"[i % 2] * (i % 5), node)
        keep = {(k % 7, node.head): node}
        s = "abcdefghij" * 4
        s = s[: k % 40] + "x" + s[k % 40 :]
    del keep
    return time.perf_counter_ns() - start


class SpeedSampler:
    """Times a reference slice every ``INTERVAL_S`` of a timed region, from
    a SIGALRM handler, so the samples follow the machine's speed through
    the region whatever code runs in it.  Timings taken with :meth:`mark`
    and :meth:`ms` leave out the time spent in the handler.  Spans around
    the region's calls (``span``) are kept in memory when ``trace`` is on."""

    INTERVAL_S = 0.2
    EDGE_SLICES = 5  # taken before and after the region as well

    def __init__(self, trace: bool = False):
        self.slices: list = []
        self.spent_ns = 0
        self.trace = trace
        self.spans: list = []
        self._open: list = []

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter_ns()
        gc.disable()  # a collection here would be the program's, not the slice's
        try:
            self.slices.append(reference_slice())
        except RecursionError:  # fired deep inside the program's recursion
            pass
        finally:
            gc.enable()
        self.spent_ns += time.perf_counter_ns() - start

    def __enter__(self):
        self.slices += [reference_slice() for _ in range(self.EDGE_SLICES)]
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.slices += [reference_slice() for _ in range(self.EDGE_SLICES)]

    def mark(self) -> tuple:
        return time.perf_counter_ns(), self.spent_ns

    def ms(self, mark: tuple) -> float:
        """Milliseconds since ``mark``, without the handler's time."""
        start, spent = mark
        return (time.perf_counter_ns() - start - (self.spent_ns - spent)) / 1e6

    @contextlib.contextmanager
    def span(self, name: str):
        """Name, start, end and enclosing span of one call, when tracing."""
        if not self.trace:
            yield
            return
        rec = {"id": len(self.spans), "name": name, "parent": self._open[-1] if self._open else None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start_ns"] = time.monotonic_ns()
        try:
            yield
        finally:
            rec["end_ns"] = time.monotonic_ns()
            self._open.pop()

    def span_ms(self, name: str) -> float:
        return sum(s["end_ns"] - s["start_ns"] for s in self.spans if s["name"] == name) / 1e6

    def result(self, **fields) -> dict:
        cut = len(self.slices) // 10  # the slowest and fastest tenth are interruptions
        kept = sorted(self.slices)[cut : len(self.slices) - cut]
        return {**fields, "ref_ms": statistics.fmean(kept) / 1e6, "spans": self.spans}


def _cache(pc) -> dict:
    return pc.editor.semantics.cache_info()._asdict()


def setup(args: dict):
    """Import purecheck and build what the workload runs; return the pieces
    and the set-up time."""
    pc = _import_purecheck()
    if args["workload"] == "word-problem":
        pairs = json.loads(sys.stdin.read())
        built = [(pc.parse_word(x), pc.parse_word(y)) for x, y in pairs]
    else:
        import workloads

        built = workloads.build_suite(args["workload"])
    return pc, built, _since_spawn_s(args)


def task_setup(args: dict) -> dict:
    setup_s = setup(args)[2]
    with SpeedSampler() as speed:
        pass
    return speed.result(setup_s=setup_s)


def task_cli(args: dict) -> dict:
    """The ``purecheck list`` start-up path, from spawn to the last line."""
    _import_purecheck()
    from purecheck.cli import main

    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["list"])
    list_s = _since_spawn_s(args)
    if code != 0 or len(out.getvalue().splitlines()) < 20:
        raise SystemExit(f"purecheck list exited {code} with {out.getvalue()!r}")
    with SpeedSampler() as speed:
        pass
    return speed.result(list_ms=list_s * 1000.0)


def task_verdict(args: dict) -> dict:
    pc, suite, setup_s = setup(args)
    with SpeedSampler(args.get("trace", False)) as speed:
        start = speed.mark()
        with speed.span("runner.run_suite"):
            report = pc.runner.run_suite(suite, args["confidence"])
        report_start = speed.mark()
        with speed.span("runner.report_json"):
            text = pc.runner.report_json(report)
        verdict_ms, report_ms = speed.ms(start), speed.ms(report_start)
    return speed.result(
        setup_s=setup_s,
        verdict_s=verdict_ms / 1000.0,
        report=text,
        report_ms=report_ms,
        rss_mb=_rss_mb(),
        cache=_cache(pc),
    )


def task_stream(args: dict) -> dict:
    """Decide each pair with ``word_equiv``; on pairs judged different, ask
    ``witness_diff`` for a separating input.  An exception ends that pair's
    decision and is reported, never raised."""
    pc, pairs, setup_s = setup(args)
    semantics = pc.editor.semantics
    results = []
    with SpeedSampler(args.get("trace", False)) as speed:
        for x, y in pairs:
            mark = speed.mark()
            try:
                with speed.span("editor.word_equiv"):
                    equal = pc.word_equiv(x, y)
                witness = None
                if not equal:
                    with speed.span("editor.witness_diff"):
                        witness = pc.witness_diff(semantics(x), semantics(y))
                outcome = [equal, witness, None]
            except Exception as e:  # noqa: BLE001 — a failed decision is reported per pair
                outcome = [None, None, f"{type(e).__name__}: {e}"]
            results.append(outcome + [speed.ms(mark)])
        out = {"verdict_s": sum(r[3] for r in results) / 1000.0, "rss_mb": _rss_mb(), "cache": _cache(pc)}
        if speed.trace:
            mark = speed.mark()
            for x, y in pairs:
                semantics.__wrapped__(x)
                semantics.__wrapped__(y)
            out["fold_ms"] = speed.ms(mark)
            mark = speed.mark()
            for (x, y), (_equal, witness, _error, _ms) in zip(pairs, results):
                if witness is not None:
                    pc.action(witness, x)
                    pc.action(witness, y)
            out["action_ms"] = speed.ms(mark)
            out["witness_ms"] = speed.span_ms("editor.witness_diff")
    return speed.result(setup_s=setup_s, results=results, **out)


def task_enumerate(args: dict) -> dict:
    """Each default-suite entry's bound generated at the confidence, in entry
    order, from a cold cache: the enumeration share of a suite run."""
    pc = _import_purecheck()
    import workloads

    bounds = workloads.suite_bounds()
    names = [e.name for e in pc.runner.default_suite().entries()]
    if sorted(names) != sorted(bounds):
        raise SystemExit(f"bound table does not match the default suite: {sorted(set(names) ^ set(bounds))}")
    out = {}
    with SpeedSampler() as speed:
        for name in names:
            mark = speed.mark()
            bounds[name].generate(args["confidence"])
            out[name] = speed.ms(mark)
    return speed.result(enumerate_ms=out)


def task_probe(args: dict) -> dict:
    """Layer timings at confidence C, cold cache first."""
    pc = _import_purecheck()
    from purecheck import editor, generators, patches

    c = args["confidence"]
    out = {}
    with SpeedSampler() as speed:
        mark = speed.mark()
        eds = editor.editors.generate(c)
        out["editors_cold_ms"] = speed.ms(mark)
        info = editor.semantics.cache_info()
        out["fold_calls_per_editor"] = (info.hits + info.misses) / len(eds)
        mark = speed.mark()
        editor.editors.generate(c)
        out["editors_warm_ms"] = speed.ms(mark)
        mark = speed.mark()
        pairs = generators.gpair(editor.editors, editor.editors).generate(c)
        out["editor_pairs_ms"] = speed.ms(mark)
        mark = speed.mark()
        for e in eds:
            editor.witness_def(e)
            editor.witness_undef(e)
        for x, y in pairs:
            editor.witness_def_undef(x, y)
            editor.witness_diff(x, y)
        out["witness_ms"] = speed.ms(mark)
        mark = speed.mark()
        generators.lists_of(generators.integers()).generate(c)
        out["lists_of_ms"] = speed.ms(mark)
        mark = speed.mark()
        ws = patches.words.generate(c)
        out["words_ms"] = speed.ms(mark)
        mark = speed.mark()
        for w in ws:
            editor.semantics.__wrapped__(w)
        out["fold_ms"] = speed.ms(mark)
        applications = generators.gpair(patches.words, generators.strings()).generate(c)
        mark = speed.mark()
        for w, s in applications:
            pc.action(s, w)
        out["action_ms"] = speed.ms(mark)
    return speed.result(**out)


def task_roadmap(args: dict) -> dict:
    """``words.generate(n)`` and the uncached fold of those words."""
    pc = _import_purecheck()
    with SpeedSampler() as speed:
        mark = speed.mark()
        ws = pc.words.generate(args["words"])
        words_ms = speed.ms(mark)
        mark = speed.mark()
        for w in ws:
            pc.editor.semantics.__wrapped__(w)
        fold_ms = speed.ms(mark)
    return speed.result(words_ms=words_ms, fold_ms=fold_ms)


TASKS = {
    "setup": task_setup,
    "cli": task_cli,
    "verdict": task_verdict,
    "stream": task_stream,
    "enumerate": task_enumerate,
    "probe": task_probe,
    "roadmap": task_roadmap,
}


if __name__ == "__main__":
    result = TASKS[sys.argv[1]](json.loads(sys.argv[2]))
    print(json.dumps(result))
