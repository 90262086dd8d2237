"""Inputs of the benchmark workloads.

* :func:`falsify_suite` — the shipped negative suite plus deliberately
  broken laws whose first counterexample sits within the first few samples.
* :func:`word_stream` — a seeded stream of word pairs with a known answer
  for every pair that is built rather than looked up.
* :func:`suite_bounds` — the sample bound of every suite entry, so that
  enumeration can be timed apart from the property bodies.

Long words are built as *effective edits* ``(op, pos, char)`` on a concrete
base string.  :func:`simulate` applies them with plain string slicing,
independently of :mod:`purecheck`, so the answer for a built pair never
comes from the code under test.
"""

from __future__ import annotations

import random
import string

LONG_ALPHABET = string.ascii_lowercase
MAX_POS = 200
SHORT_POOL = 40  # short pairs are drawn from the first SHORT_POOL generated words

# stream mix: kind -> share of pairs
MIX = (("short", 0.25), ("long", 0.30), ("commuted", 0.25), ("near-miss", 0.20))


# ---------------------------------------------------------------------------
# effective edits


def simulate(s, edits):
    """Apply effective edits to ``s``; ``None`` when one does not apply."""
    for op, pos, ch in edits:
        if op == "+":
            if not 0 <= pos <= len(s):
                return None
            s = s[:pos] + ch + s[pos:]
        else:
            if not (0 <= pos < len(s) and s[pos] == ch):
                return None
            s = s[:pos] + s[pos + 1 :]
    return s


def _edit_on(rng, s):
    """One edit that applies to ``s``: an insertion, or a deletion of the
    character actually present."""
    if s and rng.random() < 0.4:
        pos = rng.randint(0, min(len(s) - 1, MAX_POS))
        return ("-", pos, s[pos])
    return ("+", rng.randint(0, min(len(s), MAX_POS)), rng.choice(LONG_ALPHABET))


def trajectory(rng, base, length):
    """``length`` edits, each applicable to the result of the ones before,
    so the word is defined on ``base``."""
    edits, s = [], base
    for _ in range(length):
        e = _edit_on(rng, s)
        edits.append(e)
        s = simulate(s, [e])
    return edits


def commute(a, b):
    """``(b2, a2)`` with ``a`` then ``b`` equal to ``b2`` then ``a2`` on every
    string, or ``None`` when ``b`` deletes the character ``a`` inserted."""
    (op1, i, c1), (op2, j, c2) = a, b
    if op1 == "+" and op2 == "+":
        return ((op2, j - 1, c2), a) if j > i else (b, (op1, i + 1, c1))
    if op1 == "-" and op2 == "-":
        return ((op2, j + 1, c2), a) if j >= i else (b, (op1, i - 1, c1))
    if op1 == "+":
        if j == i:
            return None
        return (b, (op1, i - 1, c1)) if j < i else ((op2, j - 1, c2), a)
    return (b, (op1, i + 1, c1)) if j <= i else ((op2, j + 1, c2), a)


def shuffle_commuting(rng, edits, swaps):
    """Apply up to ``swaps`` random adjacent commutations."""
    out = list(edits)
    for _ in range(swaps):
        k = rng.randrange(len(out) - 1)
        swapped = commute(out[k], out[k + 1])
        if swapped is not None:
            out[k], out[k + 1] = swapped
    return out


def render(rng, edits):
    """Text form of effective edits, each written with a random polarity:
    ``~-p:c`` inserts like ``+p:c`` and ``~+p:c`` deletes like ``-p:c``."""
    parts = []
    for op, pos, ch in edits:
        if rng.random() < 0.5:
            parts.append(f"{op}{pos}:{ch}")
        else:
            parts.append(f"~{'-' if op == '+' else '+'}{pos}:{ch}")
    return ",".join(parts)


# ---------------------------------------------------------------------------
# the word-problem stream


def _shuffled(rng, values):
    values = list(values)
    rng.shuffle(values)
    return iter(values)


def word_stream(seed, n_pairs, pool):
    """``n_pairs`` dicts ``{kind, x, y, equal}``; ``equal`` is ``None`` for
    short pairs, whose answer comes from brute force.

    Kinds come in the exact shares of ``MIX`` and word lengths cycle
    evenly through 8..32, both in seeded order, so that streams of
    different seeds cost about the same to decide.
    """
    rng = random.Random(seed)
    counts = [round(share * n_pairs) for _, share in MIX]
    counts[0] += n_pairs - sum(counts)
    kinds = _shuffled(rng, (kind for (kind, _), n in zip(MIX, counts) for _ in range(n)))
    lengths = _shuffled(rng, (8 + i % 25 for i in range(2 * n_pairs)))
    pairs = []
    for kind in kinds:
        if kind == "short":
            pairs.append({"kind": kind, "x": rng.choice(pool), "y": rng.choice(pool), "equal": None})
            continue
        base = "".join(rng.choice(LONG_ALPHABET) for _ in range(rng.randint(100, MAX_POS)))
        x = trajectory(rng, base, next(lengths))
        if kind == "long":
            # independent word on the same base; different outputs on base
            # prove the words different
            while True:
                y = trajectory(rng, base, next(lengths))
                if simulate(base, y) != simulate(base, x):
                    break
            equal = False
        elif kind == "commuted":
            y = shuffle_commuting(rng, x, 2 * len(x))
            assert simulate(base, y) == simulate(base, x)
            equal = True
        else:
            # one extra insertion somewhere: on base, y is undefined or one
            # character longer than x, which is defined there
            k = rng.randint(0, len(x))
            at = simulate(base, x[:k])
            y = x[:k] + [("+", rng.randint(0, min(len(at), MAX_POS)), rng.choice(LONG_ALPHABET))] + x[k:]
            equal = False
        pairs.append({"kind": kind, "x": render(rng, x), "y": render(rng, y), "equal": equal})
    return pairs


# ---------------------------------------------------------------------------
# suites


def falsify_suite():
    """The shipped negative suite plus broken laws over the suite's heavy
    generators, one body that raises and one predicate without a domain."""
    from purecheck import EditOp, For, Meta, check, editor, gpair, integers, lists_of, patches, runner

    suite = runner.negative_suite()
    pairs = gpair(editor.editors, editor.editors)
    broken = (
        ("broken.editors_total", For(editor.editors, editor.is_total)),
        ("broken.editor_pairs_equal", For(pairs, lambda xy: xy[0] == xy[1])),
        ("broken.words_self_inverse", For(patches.words, lambda w: editor.word_equiv(w, patches.inv(w)))),
        ("broken.lists_palindromes", For(lists_of(integers()), lambda xs: xs == xs[::-1])),
        # raises IndexError on the empty word: a LogicalError
        ("broken.last_literal_inserts", For(patches.words, lambda w: w.literals[-1].atom.op is EditOp.INSERT)),
    )
    for name, prop in broken:
        suite.register(name, check(Meta(prop)), ("broken",))

    def total_word(w):  # no annotation, so no sample domain: a TacticalError
        return editor.is_total(editor.semantics(w))

    suite.register("broken.unannotated_predicate", check(Meta(total_word)), ("broken",))
    return suite


def build_suite(workload):
    from purecheck import runner

    return runner.default_suite() if workload == "suite-holds" else falsify_suite()


def suite_bounds():
    """Entry name -> the generator its check enumerates, for the default suite."""
    from purecheck import axioms, editor, generators, gpair, gtriple, patches

    bounds = {}
    for m in (axioms.LIST_INT, axioms.STRING, axioms.UNIT):
        bounds[f"monoid.left_unit<{m.name}>"] = m.elements
        bounds[f"monoid.right_unit<{m.name}>"] = m.elements
        bounds[f"monoid.assoc<{m.name}>"] = gtriple(m.elements, m.elements, m.elements)
    strings = generators.strings()
    bounds["raction.unit<string-append>"] = strings
    bounds["raction.compose<string-append>"] = gtriple(strings, axioms.STRING.elements, axioms.STRING.elements)
    for domain, label in ((patches.edits, "Edit"), (patches.literals, "Literal<Edit>"), (patches.words, "Word<Edit>")):
        bounds[f"patch.invert<string,{label}>"] = gpair(strings, domain)
    pairs = gpair(editor.editors, editor.editors)
    bounds["editor.semantics_sound"] = gpair(patches.words, strings)
    bounds["editor.semantics_abstract"] = pairs
    bounds["editor.def_sound_complete"] = editor.editors
    bounds["editor.undef_sound_complete"] = editor.editors
    bounds["editor.def_undef_sound"] = pairs
    bounds["editor.diff_sound_complete"] = pairs
    return bounds
