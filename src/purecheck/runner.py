"""Suite registry, four-valued reporting, and the brute-force word oracle.

A suite is an ordered collection of uniquely named checks.  Running it
evaluates every entry at one confidence and produces a :class:`Report`
whose entries keep registration order; nothing an entry does — including
crashing — aborts the rest of the run.

Exit-code convention (used by the CLI): 0 when every entry holds, 1 when
anything was falsified, 2 when there were only logical/tactical errors.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, Iterable, List, Optional, Tuple

from . import axioms, editor, generators, patches
from .check import Check, Falsified, Holds, LogicalError, Meta, TacticalError, _raised, _Value, check

# ---------------------------------------------------------------------------
# registry


class SuiteEntry(_Value):
    name: str
    check: Check
    tags: Tuple[str, ...] = ()


class Suite:
    """An append-only, duplicate-rejecting registry of named checks."""

    def __init__(self) -> None:
        self._entries: Dict[str, SuiteEntry] = {}  # in registration order

    def register(self, name: str, chk: Check, tags: Iterable[str] = ()) -> None:
        if name in self._entries:
            raise ValueError(f"duplicate suite entry: {name!r}")
        # a `str` is one tag, not the tags of its characters
        tags = (tags,) if isinstance(tags, str) else tuple(tags)
        self._entries[name] = SuiteEntry(name, chk, tags)

    def entries(self) -> List[SuiteEntry]:
        return list(self._entries.values())


# ---------------------------------------------------------------------------
# reports


class EntryResult(_Value):
    name: str
    verdict: object
    counterexample: str  # diagnostic text for the error verdicts
    samples: int
    ms: float


class Report(_Value):
    entries: Tuple[EntryResult, ...]

    def counts(self) -> dict:
        summary = dict.fromkeys(_VERDICTS.values(), 0)
        for e in self.entries:
            summary[verdict_name(e.verdict)] += 1
        return summary


#: each verdict type and its report name, in report order
_VERDICTS = {
    Holds: "holds",
    Falsified: "falsified",
    LogicalError: "logical_error",
    TacticalError: "tactical_error",
}


def verdict_name(v: object) -> str:
    for kind, name in _VERDICTS.items():
        if isinstance(v, kind):
            return name
    raise TypeError(f"not a verdict: {type(v).__name__}")


def _detail(v: object) -> str:
    if isinstance(v, Falsified):
        return v.counterexample or ""
    if isinstance(v, (LogicalError, TacticalError)):
        return v.diagnostic
    return ""


def run_suite(suite: Suite, confidence: int, name_filter: Optional[str] = None) -> Report:
    """Evaluate each (matching) entry at the given confidence.

    ``name_filter`` is a plain substring match on entry names.  The report
    is deterministic for fixed inputs, durations aside.
    """
    results: List[EntryResult] = []
    for entry in suite.entries():
        if name_filter and name_filter not in entry.name:
            continue
        start = time.perf_counter()
        try:
            verdict = entry.check.perform(confidence)
        except Exception as e:  # noqa: BLE001 — a crashing check must not kill the run
            verdict = TacticalError(f"check evaluation raised: {_raised(e)}")
        if not isinstance(verdict, tuple(_VERDICTS)):
            verdict = TacticalError(f"check returned {type(verdict).__name__}, not a verdict")
        ms = (time.perf_counter() - start) * 1000.0
        results.append(EntryResult(entry.name, verdict, _detail(verdict), confidence, ms))
    return Report(tuple(results))


def exit_code(report: Report) -> int:
    counts = report.counts()
    if counts["falsified"]:
        return 1
    if counts["logical_error"] or counts["tactical_error"]:
        return 2
    return 0


def report_json(report: Report) -> str:
    import json  # here, not at the top: the package's import does not load it

    payload = {
        "entries": [
            {
                "name": e.name,
                "verdict": verdict_name(e.verdict),
                "counterexample": e.counterexample,
                "samples": e.samples,
                "ms": round(e.ms, 3),
            }
            for e in report.entries
        ],
        "summary": report.counts(),
    }
    return json.dumps(payload, indent=2)


def report_text(report: Report) -> str:
    lines = []
    for e in report.entries:
        label = verdict_name(e.verdict).upper()
        line = f"{label:<15} {e.name}"
        if e.counterexample:
            line += f"  -- {e.counterexample}"
        line += f"  [{e.samples} samples, {e.ms:.1f} ms]"
        lines.append(line)
    c = report.counts()
    lines.append(
        f"{len(report.entries)} entries: {c['holds']} holds, {c['falsified']} falsified, "
        f"{c['logical_error']} logical errors, {c['tactical_error']} tactical errors"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# shipped suites


def default_suite() -> Suite:
    """Everything the library claims about itself and its instances."""
    suite = Suite()
    for m in (axioms.LIST_INT, axioms.STRING, axioms.UNIT):
        for name, chk in axioms.monoid_laws(m):
            suite.register(name, chk, ("axiom", "monoid"))

    def append(s: str, a: str) -> str:
        return s + a

    suite.register(
        "raction.unit<string-append>",
        check(axioms.axiomatic(axioms.RActionUnit(append, axioms.STRING.elements, axioms.STRING))),
        ("axiom", "raction"),
    )
    suite.register(
        "raction.compose<string-append>",
        check(axioms.axiomatic(axioms.RActionCompose(append, axioms.STRING.elements, axioms.STRING))),
        ("axiom", "raction"),
    )

    for domain, label in (
        (patches.edits, "Edit"),
        (patches.literals, "Literal<Edit>"),
        (patches.words, "Word<Edit>"),
    ):
        suite.register(
            f"patch.invert<string,{label}>",
            check(axioms.axiomatic(axioms.PatchInvert(axioms.STRING.elements, domain, f"string,{label}"))),
            ("axiom", "patch"),
        )

    for name, chk in editor.adequacy_suite():
        suite.register(name, chk, ("editor", "adequacy"))
    return suite


def negative_suite() -> Suite:
    """Deliberately broken laws; every entry is expected to be falsified.

    Useful as a control: a runner that cannot see these fail cannot be
    trusted to see anything fail.
    """
    suite = Suite()
    suite.register(
        "negative.monoid.commute<string>",
        check(axioms.axiomatic(axioms.MonoidCommute(axioms.STRING))),
        ("negative",),
    )
    subtraction = axioms.Monoid("int-subtraction", 0, lambda x, y: x - y, generators.integers())
    name, chk = axioms.monoid_laws(subtraction)[2]  # associativity
    suite.register(f"negative.{name}", chk, ("negative",))
    return suite


def full_suite() -> Suite:
    suite = default_suite()
    for entry in negative_suite().entries():
        suite.register(entry.name, entry.check, entry.tags)
    return suite


# ---------------------------------------------------------------------------
# the brute-force oracle


def brute_force_equiv(x, y, alphabet: Iterable[str], max_len: int) -> bool:
    """Decide patch equivalence by exhaustive application.

    True iff ``action(s, x) == action(s, y)`` for every string ``s`` over
    ``alphabet`` of length at most ``max_len``.  Independent of the
    automaton model — this is the oracle the model is tested against.
    """
    alpha = list(alphabet)
    for length in range(max_len + 1):
        for tup in itertools.product(alpha, repeat=length):
            s = "".join(tup)
            if patches.action(s, x) != patches.action(s, y):
                return False
    return True
