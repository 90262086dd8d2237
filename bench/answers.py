"""Known answers, and the checks that compare a run's outputs against them.

Every check returns its problems (none when the output is right) as a dict
from the decision that failed to one line about it, so ``run_bench.py`` can
count and list them instead of stopping at the first.
"""

from __future__ import annotations

import hashlib
import json

#: sha256 of the default suite's JSON report with every ``ms`` removed.
EXPECTED_DIGESTS = {
    100: "fc414742c08d2761f36505673fafe1c1bcd8811e2367d99f574a3574ad786333",
    1000: "3540e3988e84dfc3a3217746cff64486cfa99861a2b8a77388b54ac967d3dc95",
    3000: "2eab542ab7178328339eadb97196635fbd2b19cbfff33d1f5c90166a8e072377",
}

#: falsify-early: entry -> (verdict, exact counterexample or diagnostic).
#: Each counterexample is the first in enumeration order, so the answer is
#: the same at every confidence above its index.
FALSIFY_ANSWERS = {
    "negative.monoid.commute<string>": ("falsified", "('a', 'b')"),
    "negative.monoid.assoc<int-subtraction>": ("falsified", "(0, 0, 1)"),
    "broken.editors_total": ("falsified", "Try[Ins \"\"; Del 'a'; Ins \"\"; Return]"),
    "broken.editor_pairs_equal": ("falsified", '(Try[Ins ""; Return], Try[Ins "a"; Return])'),
    "broken.words_self_inverse": ("falsified", "+0:a"),
    "broken.lists_palindromes": ("falsified", "[0, 1]"),
    "broken.last_literal_inserts": (
        "logical_error",
        "body raised on : IndexError('tuple index out of range')",
    ),
    "broken.unannotated_predicate": (
        "tactical_error",
        "cannot infer a sample domain: first parameter lacks a type annotation",
    ),
}

#: Alphabet and length of the brute-force universe that decides short pairs.
SHORT_ORACLE = ("abc", 6)


def report_digest(report_text: str) -> str:
    """sha256 of a JSON report with timings removed, in canonical form."""
    doc = json.loads(report_text)
    for entry in doc["entries"]:
        entry.pop("ms", None)
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def check_suite_report(workload: str, confidence: int, report_text: str) -> dict:
    """Problems with one suite pass's JSON report, by entry name; a problem
    with the report as a whole (its digest, its list of entries) is under
    ``"report"``."""
    doc = json.loads(report_text)
    if workload == "suite-holds":
        problems = {
            e["name"]: f"{e['name']}: {e['verdict']} {e['counterexample']!r}, expected holds"
            for e in doc["entries"]
            if e["verdict"] != "holds"
        }
        expected = EXPECTED_DIGESTS.get(confidence)
        digest = report_digest(report_text)
        if expected is not None and digest != expected:
            problems["report"] = f"report digest {digest} != expected {expected} at confidence {confidence}"
        return problems
    got = [e["name"] for e in doc["entries"]]
    if got != list(FALSIFY_ANSWERS):
        return {"report": f"entries {got} != expected {list(FALSIFY_ANSWERS)}"}
    return {
        e["name"]: f"{e['name']}: {e['verdict']} {e['counterexample']!r}, expected {verdict} {text!r}"
        for e in doc["entries"]
        for verdict, text in [FALSIFY_ANSWERS[e["name"]]]
        if (e["verdict"], e["counterexample"]) != (verdict, text)
    }


class StreamOracle:
    """Known answers for a word-problem stream.

    Built pairs carry their answer; short pairs are decided by
    ``runner.brute_force_equiv`` once per distinct pair.
    """

    def __init__(self, pairs: list):
        from purecheck import parse_word

        self.pairs = pairs
        self.words = [(parse_word(p["x"]), parse_word(p["y"])) for p in pairs]
        self._brute: dict = {}

    def equal(self, i: int) -> bool:
        known = self.pairs[i]["equal"]
        if known is not None:
            return known
        key = (self.pairs[i]["x"], self.pairs[i]["y"])
        if key not in self._brute:
            from purecheck import brute_force_equiv

            alphabet, max_len = SHORT_ORACLE
            self._brute[key] = brute_force_equiv(*self.words[i], alphabet, max_len)
        return self._brute[key]

    def check(self, results: list) -> tuple:
        """``(wrong, raised)``: pair index -> problem, one line per pair.

        ``results[i]`` is ``[equal, witness, error, ms]`` from the stream
        child.  A wrong verdict or a witness that does not separate the two
        words on replay through ``patches.action`` is wrong; an exception is
        a failed decision.
        """
        from purecheck import action

        wrong, raised = {}, {}
        for i, (equal, witness, error, _ms) in enumerate(results):
            p = self.pairs[i]
            label = f"pair {i} ({p['kind']}) {p['x']} | {p['y']}"
            if error is not None:
                raised[i] = f"{label}: {error}"
                continue
            if equal != self.equal(i):
                wrong[i] = f"{label}: judged {'equal' if equal else 'different'}"
                continue
            if not equal:
                x, y = self.words[i]
                if witness is None or action(witness, x) == action(witness, y):
                    wrong[i] = f"{label}: witness {witness!r} does not separate the words"
        return wrong, raised
