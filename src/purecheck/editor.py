"""Normal-form string transducers: a fully abstract model of edit words.

An :data:`Editor` is a tiny one-pass automaton over an input string.  It
alternates *insertion* nodes (emit a fixed prefix) with *consumption*
steps (copy one input character, or require-and-drop a specific one),
and ends by echoing whatever input remains.  Written as a nested chain,
as `render` prints it:

* ``Fail`` — defined on no input;
* ``Try[Ins "p"; …]`` — emit ``p``, then run the rest of the chain;
* ``Skip`` — copy one input character;
* ``Del 'c'`` — consume one input character, which must equal ``c``,
  and emit nothing;
* ``Return`` — echo the rest of the input.

An :class:`Ins` stores that chain flat and run-length encoded, and
``Ins(prefixes, steps)`` is its one constructor: ``prefixes``, one string
per insertion node, and ``steps``, the consumption after each node but
the last — the required character of a ``Del``, or a positive count ``n``
for a run of ``n`` ``Skip``s whose ``n - 1`` inner prefixes are empty,
written ``Skip*n``.  ``Return`` is implied after the last prefix.  So an
automaton's size tracks the edits folded into it, not the positions they
reach.

The *normal form* demands that no nonempty insertion directly follows a
deletion: text inserted right after a ``Del`` is indistinguishable from
the same text inserted right before it, so the representation commits to
"before".  Restoring it is one local loop: while the step in front of a
nonempty prefix is a ``Del``, move the prefix to the node before it.  The
encoding is canonical too: no empty prefix separates two runs, which are
merged instead.  So structural equality of the tuples is equality of the
nested chains.

Single edits splice into automata through one call,
``splice(a, insert, i, c)``, a walk over the chain.  Folding a whole word
of edits over the identity automaton gives its :func:`semantics`; the fold
keeps the output as a list indexed by position, so each edit is one list
insertion or removal, and reads the normal form off that list once at the
end.  Two words denote the same partial string function
exactly when their automata are structurally equal — which turns an
undecidable-looking question about group words into an equality test
(:func:`word_equiv`).  Conversely, :func:`reify` spells any automaton as a
word, and :data:`editors` enumerates every normal form directly, lightest
first, without folding a word.  The witness constructions
at the bottom make the model self-describing: for any automaton (or pair)
they produce concrete inputs demonstrating definedness, undefinedness,
or disagreement, and the :func:`adequacy_suite` checks those claims with
the machinery of :mod:`purecheck.check`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from . import generators, patches
from .check import Check, For, Meta, NestedFor, _Value, check, qmerge, render
from .existentials import exists, exists_or_vacuous, exists_some
from .generators import Generator, gpair, register_default
from .patches import INSERT, POSITIVE, Edit, EditOp, Word, action, from_list, splice

# ---------------------------------------------------------------------------
# the automaton


#: A ``Del``'s required character, or the length of a run of ``Skip``s.
Step = Union[str, int]


def _length(steps: Sequence[Step]) -> int:
    """The number of input characters the steps consume.  A step that is
    neither one character nor an int of at least 1 raises `ValueError`."""
    n = 0
    for c in steps:
        if type(c) is str and len(c) == 1:
            n += 1
        elif type(c) is int and c > 0:
            n += c
        else:
            raise ValueError(f"a step is one character or an int of at least 1, not {c!r}")
    return n


class Ins(_Value):
    """An insertion chain: ``prefixes[k]`` is emitted before ``steps[k]``,
    and the last prefix before the rest of the input is echoed.  ``length``
    is the number of input characters the steps consume, the length of the
    pattern; it is fixed by ``steps``, so it is not a field: it takes no
    part in equality, `hash`, `repr` or a copy.

    There is one prefix more than there are steps, each prefix is a `str`,
    and each step is one character or an int of at least 1; any other shape
    raises `ValueError`.  Whether the chain is in normal form is
    `is_normal`'s question."""

    __slots__ = ("prefixes", "steps", "length")
    prefixes: Tuple[str, ...]
    steps: Tuple[Step, ...]

    def __init__(self, prefixes: Sequence[str], steps: Sequence[Step]) -> None:
        prefixes, steps = tuple(prefixes), tuple(steps)
        if len(prefixes) != len(steps) + 1:
            raise ValueError(
                f"an automaton has one prefix more than steps, not {len(prefixes)} prefixes and {len(steps)} steps"
            )
        try:  # one C-level pass over the prefixes, not one type check each
            "".join(prefixes)
        except TypeError:
            bad = next(p for p in prefixes if not isinstance(p, str))
            raise ValueError(f"a prefix is a str, not {bad!r}") from None
        object.__setattr__(self, "prefixes", prefixes)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "length", _length(steps))


class Fail(_Value):
    pass


class Try(_Value):
    insertion: Ins

    # built for every enumerated editor and every fold: one field, stored
    # without the general argument binding
    def __init__(self, insertion: Ins) -> None:
        object.__setattr__(self, "insertion", insertion)

    def __eq__(self, other: object) -> bool:
        # the class check of `_Value.__eq__`, then the fields of two `Ins`
        # in this frame rather than in `Ins.__eq__`; `_Value.__hash__`,
        # over the `Ins` hash of the same fields, agrees with it
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self.insertion, other.insertion
        if a.__class__ is Ins is b.__class__:
            return a.steps == b.steps and a.prefixes == b.prefixes
        return a == b

    __hash__ = _Value.__hash__


Editor = Union[Try, Fail]

#: The identity automaton: insert nothing, echo the input.
DONE = Ins(("",), ())


def is_normal(a: Union[Editor, Ins]) -> bool:
    """Structural scan for both invariants: no insertion after a deletion,
    and no empty prefix between two runs."""
    if isinstance(a, Fail):
        return True
    a = a.insertion if isinstance(a, Try) else a
    return all(
        not p if type(c) is str else c > 0 and (p or type(d) is not int)
        for c, p, d in zip(a.steps, a.prefixes[1:], (*a.steps[1:], ""))
    )


# ---------------------------------------------------------------------------
# running an automaton


def editor_action(s: str, a: Union[Editor, Ins]) -> Optional[str]:
    """Apply an automaton to an input string; ``None`` when it rejects."""
    # the exact type first: a `Try` is what the suite samples
    if type(a) is Try or isinstance(a, Try):
        a = a.insertion
    elif isinstance(a, Fail):
        return None
    elif not isinstance(a, Ins):
        raise TypeError(f"not an automaton: {type(a).__name__}")
    if not a.steps:  # a total automaton: its prefix, then the input
        return a.prefixes[0] + s
    out: List[str] = []
    j = 0
    for p, c in zip(a.prefixes, a.steps):
        if type(c) is str:
            if s[j : j + 1] != c:
                return None
            out.append(p)
            j += 1
        else:
            if len(s) < j + c:
                return None
            out += (p, s[j : j + c])
            j += c
    out += (a.prefixes[-1], s[j:])
    return "".join(out)


# ---------------------------------------------------------------------------
# splicing single edits
#
# One walk, `_edit`, splices an insertion or a deletion into a pair of
# lists, the automaton's prefixes and steps, in place.  It is the splice of
# `splice(a, insert, i, c)` on an `Ins`, and it finishes the fold of a
# word whose positions reach past the fold's token list (see `_TOKENS`).
# It walks the nodes by index, tracking how much *output* the nodes passed
# so far produce, and splices at the node owning the target position.  A
# position inside a run splits the run there.  Positions beyond all
# structure fall into the echoed-input region and append a run of Skips,
# growing a trailing run that ends in an empty prefix.  Two edits can break
# a form: a deletion that empties the prefix between two runs (the runs
# merge), and a deletion that turns a Skip into a Del in front of a
# nonempty prefix; `_hoist` then moves that prefix left across every Del
# in front of it.  (An insertion never lands right after a Del: it passes
# a node only when at least one more output character precedes the spot,
# and the prefix after a Del is empty.  A hoist empties only prefixes that
# follow a Del, so it never leaves two runs to merge.)  Correctness is not
# argued here — the test suite pins it against exhaustive application to
# concrete strings, and against the fold.


def _hoist(ps: List[str], ss: List[Step], k: int) -> None:
    """Restore the normal form in front of node ``k``."""
    while k and type(ss[k - 1]) is str and ps[k]:
        ps[k - 1] += ps[k]
        ps[k] = ""
        k -= 1


def _edit(ps: List[str], ss: List[Step], insert: bool, i: int, c: str) -> bool:
    """Insert or delete ``c`` at output position ``i``; false when the composite is empty."""
    if i < 0:
        return False
    last = len(ss)
    reach = 1 if insert else 0  # an insertion may land at a prefix's end
    k = 0
    while True:
        p = ps[k]
        if i < len(p) + reach:
            if insert:
                ps[k] = p[:i] + c + p[i:]
                return True
            if p[i] != c:
                return False  # that output position is fixed to a different character
            ps[k] = p = p[:i] + p[i + 1 :]
            if not p and 0 < k < last and type(ss[k - 1]) is type(ss[k]) is int:
                ss[k - 1 : k + 1] = [ss[k - 1] + ss[k]]
                del ps[k]
            return True
        i -= len(p)  # an insertion has i >= 1 characters of later output before its spot
        if k == last:  # Return: copy i input characters, then splice
            if i and ss and not p and type(ss[-1]) is int:
                ss[-1] += i
            elif i:
                ss.append(i)
                ps.append("")
            if insert:
                ps[-1] = c
            else:
                ss.append(c)
                ps.append("")
            return True
        n = ss[k]
        if type(n) is int:
            if i < n:
                if insert:  # the spot is the empty prefix after the run's i-th Skip
                    ss[k : k + 1] = [i, n - i]
                    ps.insert(k + 1, c)
                    return True
                # deleting the run's i-th copied character pins the input
                # there to c: the run splits into i Skips, a Del and the
                # n - i - 1 Skips after it, with empty prefixes between
                r = n - i - 1
                if i:
                    if r:
                        ss[k : k + 1] = (i, c, r)
                        ps[k + 1 : k + 1] = ("", "")
                    else:
                        ss[k : k + 1] = (i, c)
                        ps.insert(k + 1, "")
                    k += 1
                elif r:
                    ss[k : k + 1] = (c, r)
                    ps.insert(k + 1, "")
                else:
                    ss[k] = c
                _hoist(ps, ss, k + 1)  # the prefix after the Del
                return True
            i -= n
        k += 1


@splice.register(Ins)
def _splice(a: Ins, insert: bool, i: int, c: str) -> Optional[Ins]:
    """Splice one edit into an automaton, as ``splice(a, insert, i, c)``:
    insert ``c`` at output position ``i`` when ``insert``, else delete it.

    The result, run on any input, equals running ``a`` first and then
    editing its output, and a normal automaton splices to a normal one.
    ``None`` when the composite is empty: a negative position, or deleting
    a character the automaton provably never produces there.  A ``c``
    that is not one character raises ``ValueError``, as `Edit` does.
    """
    if not isinstance(c, str) or len(c) != 1:
        raise ValueError(f"an edit's argument is one character, not {c!r}")
    ps, ss = list(a.prefixes), list(a.steps)
    return Ins(ps, ss) if _edit(ps, ss, insert, i, c) else None


# ---------------------------------------------------------------------------
# the word problem
#
# The fold does not splice into the chain.  It keeps the output the
# automaton built so far produces, as a token list indexed by output
# position, in the way a piece table keeps a text: ``out[k]`` is an
# inserted character (a `str`) or the input position ``j`` whose character
# is copied there (an `int`).  A parallel `bytearray` marks the inserted
# characters, the deleted input positions are kept with the character each
# requires, and the output ends by echoing the input from ``j``, the first
# position not yet in the list.  So an edit is one `list.insert` or
# `list.pop` at its position: past the end, the echoed positions from ``j``
# are appended first; popping an input position records a ``Del``, and
# popping an inserted character checks it.
#
# `_chain` then reads the normal form off once, per event and not per
# position.  The copied positions stay in increasing order, every input
# position below ``j`` is copied or deleted, and each group of inserted
# characters is anchored after the copied position in front of it (or at
# the start): it becomes the prefix of the node after that position, so it
# lands before the ``Del``s that follow, as the normal form demands.  The
# ``Del``s, sorted once, and the groups are the chain's events; the runs of
# ``Skip``s between them are differences of positions.  The conversion and
# `_hoist`, behind the walk, are what decide a normal form.

#: The most entries the fold's token list holds.  The list spells every
#: output position up to the furthest edit, one entry each, so a word that
#: would grow it past this many (an edit at position 10**18, say) is handed
#: over to the walk: the fold converts what it has and splices the rest of
#: the word into the run-length chain, whose size tracks the edits, not the
#: positions.  Edit words that act on text a few hundred characters long
#: stay well under it.
_TOKENS = 4096


def _chain(out: list, kinds: bytearray, dels: List[Tuple[int, str]], end: int) -> Tuple[List[str], List[Step]]:
    """The normal form's prefixes and steps for the fold's token list
    ``out``, its kinds, its deleted positions and the first echoed input
    position ``end``.  It sorts ``dels`` and appends to it."""
    ps: List[str] = []
    ss: List[Step] = []
    p, at = "", 0  # the open prefix, and the input positions consumed before it
    k = kinds.find(1)  # the start of the next group of inserted characters
    dels.sort()
    dels.append((end, ""))  # the end of the pattern, after every group
    for d, c in dels:
        while k >= 0:
            m = out[k - 1] + 1 if k else 0  # the group follows input position m - 1
            if m > d:
                break
            if m > at:
                ps.append(p)
                ss.append(m - at)
                at = m
            stop = kinds.find(0, k)
            if stop < 0:
                stop = len(out)
            p = "".join(out[k:stop])
            k = kinds.find(1, stop)
        if d > at:
            ps.append(p)
            ss.append(d - at)
            p, at = "", d
        if c:
            ps.append(p)
            ss.append(c)
            p, at = "", d + 1
    ps.append(p)
    return ps, ss


@lru_cache(maxsize=4096)
def semantics(w: Word) -> Editor:
    """Fold a word's edits over the identity automaton.

    Each literal is one edit of the fold's token list, a negative literal
    the inverse edit, and `_chain` converts the list to the normal form
    once, at the end.  An edit with an empty composite (a negative
    position, or the deletion of an inserted character with a different
    argument) collapses the whole word to ``Fail``.  A word whose token
    list would grow past ``_TOKENS`` entries is converted there, and the
    rest of its literals splice into the chain through `_edit`.  Any other
    entry that `action` accepts (a bare `Edit`, a nested `Word`) sends the
    whole word through `action` on the identity automaton.  The cache keeps
    the 4096 most recently used words.
    """
    out: list = []  # an inserted character, or the input position copied there
    kinds = bytearray()  # 1 where `out` holds an inserted character
    dels: List[Tuple[int, str]] = []  # each deleted input position and its character
    j = 0  # the first input position not in `out` or `dels`: the echo starts there
    insert, positive, cap = INSERT, POSITIVE, _TOKENS  # one global read per fold, not per literal
    literals = iter(w.literals)
    try:
        for lit in literals:
            e = lit.atom
            i, n = e.pos, len(out)
            ins = (e.op is insert) is (lit.polarity is positive)
            grow = i + 1 - ins - n  # an insertion needs i entries before it, a deletion i + 1
            if grow > 0:  # past the end: the echoed input positions from j come first
                if i >= cap:
                    break
                out += range(j, j + grow)
                kinds += bytes(grow)
                j += grow
            elif i < 0:
                return Fail()
            elif n >= cap:
                break
            if ins:
                out.insert(i, e.arg)
                kinds.insert(i, 1)
            elif not kinds.pop(i):
                dels.append((out.pop(i), e.arg))
            elif out.pop(i) != e.arg:
                return Fail()  # that output position is fixed to a different character
        else:
            return Try(Ins(*_chain(out, kinds, dels, j)))
        # the literal that broke out would grow the list past the cap
        ps, ss = _chain(out, kinds, dels, j)
        for lit in itertools.chain((lit,), literals):
            e = lit.atom
            if not _edit(ps, ss, (e.op is insert) is (lit.polarity is positive), e.pos, e.arg):
                return Fail()
    except AttributeError:  # an entry that is not a literal over an `Edit`
        a = action(DONE, w)
        return Fail() if a is None else Try(a)
    return Try(Ins(ps, ss))


def reify(a: Editor) -> Word:
    """A word whose `semantics` is ``a``: a right inverse of the fold.

    Every literal is positive.  Each prefix is inserted at the running
    output position, each ``Del`` deletes its character there, and each
    run moves the position past the characters it copies.  A trailing run
    behind an empty last prefix is kept by inserting and then deleting one
    character after it.  ``Fail`` is an insertion followed by a deletion
    of a different character at the same place.
    """
    if isinstance(a, Fail):
        return from_list([Edit(EditOp.INSERT, 0, "a"), Edit(EditOp.DELETE, 0, "b")])
    node = a.insertion
    edits: List[Edit] = []
    j = 0
    for p, c in zip(node.prefixes, (*node.steps, 0)):  # no step after the last prefix
        edits += (Edit(EditOp.INSERT, j + k, ch) for k, ch in enumerate(p))
        j += len(p)
        if type(c) is str:
            edits.append(Edit(EditOp.DELETE, j, c))
        else:
            j += c
    if node.steps and type(node.steps[-1]) is int and not node.prefixes[-1]:
        edits += (Edit(EditOp.INSERT, j, "a"), Edit(EditOp.DELETE, j, "a"))
    return from_list(edits)


def word_equiv(x: Word, y: Word) -> bool:
    """Decide whether two words denote the same partial string function."""
    return semantics(x) == semantics(y)


def is_total(a: Editor) -> bool:
    """An automaton is total iff it consumes nothing: prefix-then-echo."""
    return isinstance(a, Try) and not a.insertion.steps


# ---------------------------------------------------------------------------
# acceptance structure
#
# A Try-automaton accepts exactly the strings that are long enough and
# match its per-position constraints, its *pattern*: the steps read one
# input character each, where a Skip constrains nothing and a Del pins the
# character.  The input past the pattern is irrelevant to acceptance —
# everything left over is echoed.  The witnesses read the run-length steps
# as they are, so their cost is per step plus the string they return.


_FILLER = "a"


def _fill(steps: Sequence[Step]) -> str:
    """The shortest input the steps accept, with every Skip reading ``_FILLER``."""
    return "".join([c if type(c) is str else _FILLER * c for c in steps])


def _other_char(c: str) -> str:
    return "a" if c != "a" else "b"


# ---------------------------------------------------------------------------
# witnesses


def witness_def(a: Editor) -> Optional[str]:
    """A shortest input the automaton accepts; ``None`` only for ``Fail``."""
    if isinstance(a, Fail):
        return None
    return _fill(a.insertion.steps)


def witness_undef(a: Editor) -> Optional[str]:
    """An input the automaton rejects; ``None`` exactly when it is total.

    ``Fail`` rejects every input, and any automaton that consumes at least
    one character already rejects the empty string.
    """
    return None if is_total(a) else ""


def witness_def_undef(x: Editor, y: Editor) -> Optional[str]:
    """An input accepted by ``x`` but rejected by ``y``, or ``None`` when no
    such input exists.

    Decided on the steps, without expanding a run: ``x`` separates from
    ``y`` iff its pattern is shorter, or some ``Del`` of ``y`` pins a
    position where ``x`` skips or pins a different character.  One cursor
    walks ``y``'s steps, the other the step of ``x`` covering the same
    input position.
    """
    if isinstance(x, Fail):
        return None
    if isinstance(y, Fail):
        return witness_def(x)
    sx, sy = x.insertion.steps, y.insertion.steps
    if x.insertion.length < y.insertion.length:
        return _fill(sx)  # too short for y
    j = 0  # the input position of y's step
    k, end = -1, 0  # x's step k covers the input positions just before end
    for cy in sy:
        if type(cy) is int:
            j += cy
            continue
        while end <= j:
            k += 1
            cx = sx[k]
            end += 1 if type(cx) is str else cx
        if type(cx) is int:  # x skips position j, so it allows a character y forbids
            s = _fill(sx)
            return s[:j] + _other_char(cy) + s[j + 1 :]
        if cx != cy:
            return _fill(sx)
        j += 1
    return None


def witness_diff(x: Editor, y: Editor) -> Optional[str]:
    """An input on which the two automata disagree (including defined vs
    undefined); ``None`` exactly for structurally equal automata.

    When neither accepts an input the other rejects, both are ``Try``
    with equal patterns.  Spelled out as nested chains, one node per
    pattern entry, being different they first differ in some prefix
    ``k``.  The probe fills every Skip position with a character absent
    from both automata.  Let ``m`` be the first Skip at or after node
    ``k``.  Steps ``k`` to ``m - 1`` are Dels, so in normal form prefixes
    ``k + 1`` to ``m`` are empty: past their common output, ``x`` emits
    its prefix ``k`` and then probe character ``m``, and ``y`` its own
    prefix ``k`` and then the same character.  As that character occurs in
    neither prefix, equal outputs would need equal prefixes ``k``.  (With
    no Skip at or after ``k``, both outputs end right after prefix ``k``.)
    So only that one character must be fresh, not pairwise distinct from
    the others.  Fresh characters come from ``CHARACTER_ORDER`` first and
    then from the printable code points past U+007F, pairwise distinct
    while they last and then cycled.
    """
    if x == y:
        return None
    d = witness_def_undef(x, y)
    if d is not None:
        return d
    d = witness_def_undef(y, x)
    if d is not None:
        return d
    # both Try, with equal patterns
    a, b = x.insertion, y.insertion
    used = {*"".join(a.prefixes + b.prefixes), *(c for c in a.steps if type(c) is str)}
    beyond_ascii = filter(str.isprintable, map(chr, range(0x80, 0x110000)))
    fresh = (ch for ch in itertools.chain(generators.CHARACTER_ORDER, beyond_ascii) if ch not in used)
    # the Skips read the fresh characters cycled: the first n of them,
    # repeated to n characters, and each run slices its share of that
    n = sum([c for c in a.steps if type(c) is int])
    head = "".join(itertools.islice(fresh, n))
    filler = head * -(-n // len(head)) if n else ""
    ends = itertools.accumulate([0 if type(c) is str else c for c in a.steps])
    probe = "".join([c if type(c) is str else filler[j - c : j] for c, j in zip(a.steps, ends)])
    if editor_action(probe, x) != editor_action(probe, y):
        return probe
    return None


# witness sources for the existential quantifiers; each `__init__` writes
# the instance `__dict__` directly, past the frozen `__setattr__`, not
# through one call of it per field


class Def(_Value):
    """Claim: the automaton accepts some input."""

    editor: Editor

    def __init__(self, editor: Editor) -> None:
        self.__dict__["editor"] = editor

    def witness(self) -> Optional[str]:
        return witness_def(self.editor)


class Undef(_Value):
    """Claim: the automaton rejects some input."""

    editor: Editor

    def __init__(self, editor: Editor) -> None:
        self.__dict__["editor"] = editor

    def witness(self) -> Optional[str]:
        return witness_undef(self.editor)


class DefUndef(_Value):
    """Claim: some input is accepted by ``left`` and rejected by ``right``."""

    left: Editor
    right: Editor

    def __init__(self, left: Editor, right: Editor) -> None:
        fields = self.__dict__
        fields["left"], fields["right"] = left, right

    def witness(self) -> Optional[str]:
        return witness_def_undef(self.left, self.right)


class Diff(_Value):
    """Claim: some input distinguishes the two automata."""

    left: Editor
    right: Editor

    def __init__(self, left: Editor, right: Editor) -> None:
        fields = self.__dict__
        fields["left"], fields["right"] = left, right

    def witness(self) -> Optional[str]:
        return witness_diff(self.left, self.right)


# ---------------------------------------------------------------------------
# equivalence propositions


def cons_eq(x: Editor, y: Editor) -> Meta:
    """Marked proposition: the pair is either structurally equal or
    constructively distinguishable.  Holding on all pairs is exactly what
    makes structural equality a faithful stand-in for semantic equality."""
    return Meta(x == y or exists_some(Diff(x, y)))


# ---------------------------------------------------------------------------
# rendering


@render.register(Try)
@render.register(Fail)
@render.register(Ins)
def render_editor(a: Union[Editor, Ins]) -> str:
    """Stable text form, e.g. ``Try[Ins "ab"; Skip*2; Ins "c"; Skip; Ins ""; Return]``.

    Every insertion is shown, empty ones included, except the empty ones
    inside a run of ``n >= 2`` Skips, which is written once as ``Skip*n``;
    it is also how counterexample reports `render` automata.
    """
    if isinstance(a, Fail):
        return "Fail"
    node = a.insertion if isinstance(a, Try) else a
    parts = [
        f'Ins "{p}"; ' + (f"Del '{c}'" if type(c) is str else "Skip" if c == 1 else f"Skip*{c}")
        for p, c in zip(node.prefixes, node.steps)
    ]
    body = "; ".join([*parts, f'Ins "{node.prefixes[-1]}"; Return'])
    return f"Try[{body}]" if isinstance(a, Try) else body


# ---------------------------------------------------------------------------
# generated automata
#
# `editors` enumerates `Fail` and every normal-form chain directly, by
# total weight, SmallCheck-style: a character weighs its position in
# `CHARACTER_ORDER` plus one ('a' 1, 'b' 2, ...), a prefix the sum of its
# characters, a ``Del`` its character and a run of ``n`` ``Skip``s ``n``.
# Each weight holds finitely many chains, so every normal form has a
# finite index.  Within one weight the heavier first prefix comes first,
# then ``Del`` steps before runs; the two normal-form rules are built in
# (the prefix after a ``Del`` is empty; an empty prefix after a run is
# never followed by another run), so no candidate is built and then
# dropped, and distinctness holds because every chain is spelled once.
# A chain after its first prefix is a step and a *tail*, the chain that
# may follow a ``Del`` or a run; as in Feat's memoised size classes, each
# weight class of tails, and of the steps with their tails, is built once
# per enumeration as a list, when first read.  The root weight class is
# yielded as it is built, sharing each steps tuple with the memo.

#: A chain's ``(prefixes, steps)``.
_Chain = Tuple[Tuple[str, ...], Tuple[Step, ...]]


def _strings_of_weight(w: int) -> Iterator[str]:
    """The strings over ``CHARACTER_ORDER`` whose characters weigh ``w``
    in total, by first character."""
    if not w:
        yield ""
        return
    for k, c in enumerate(generators.CHARACTER_ORDER[:w], 1):
        for rest in _strings_of_weight(w - k):
            yield c + rest


def _chains(w: int, after: Optional[str], memo: dict) -> Iterator[_Chain]:
    """The normal-form chains of total weight ``w`` that may follow a step
    of kind ``after``, ``"del"`` or ``"run"`` (``None`` at the root): a
    first prefix and, unless it weighs ``w``, one of the `_moves` of the
    rest."""
    for pw in range(0 if after == "del" else w, -1, -1):
        r = w - pw
        for p in _strings_of_weight(pw):
            if not r:
                yield (p,), ()
                continue
            for ps, ss in _moves(r, p != "" or after != "run", memo):
                yield (p, *ps), ss


def _moves(r: int, runs: bool, memo: dict) -> List[_Chain]:
    """The ways to spend weight ``r > 0`` after a prefix: a first step and
    the tail after it, as the tail's prefixes and all the steps; ``Del``
    steps first, then runs when ``runs``.  ``memo`` keeps every list of
    moves, keyed ``(r, runs)``, and every weight class of tails, keyed
    ``(w, kind)``."""
    if (r, runs) not in memo:
        dels = memo[r, False] = [
            (ps, (c, *ss))
            for k, c in enumerate(generators.CHARACTER_ORDER[:r], 1)
            for ps, ss in _tails(r - k, "del", memo)
        ]
        memo[r, True] = dels + [(ps, (n, *ss)) for n in range(1, r + 1) for ps, ss in _tails(r - n, "run", memo)]
    return memo[r, runs]


def _tails(w: int, kind: str, memo: dict) -> List[_Chain]:
    """The chains of weight ``w`` that may follow a step of ``kind``."""
    if (w, kind) not in memo:
        memo[w, kind] = list(_chains(w, kind, memo))
    return memo[w, kind]


def _editors() -> Iterator[Editor]:
    """Every normal-form automaton once, lightest first; ``Fail`` right
    after the weight-1 chains."""
    memo: dict = {}
    for w in itertools.count():
        for ps, ss in _chains(w, None, memo):
            yield Try(Ins(ps, ss))
        if w == 1:
            yield Fail()


editors = Generator(_editors)

register_default(Editor, editors)
register_default(Try, editors)


# ---------------------------------------------------------------------------
# the adequacy suite: the model checking its own witnesses


def adequacy_suite() -> List[Tuple[str, Check]]:
    """Six checks tying the automaton model to the patch action it mirrors.

    * ``semantics_sound`` — folding a word and running the automaton agree
      with applying the word directly, on every sampled (word, string);
    * ``semantics_abstract`` — sampled automaton pairs are structurally
      equal or constructively distinguishable (full abstraction);
    * ``def_sound_complete`` — every automaton is ``Fail`` or accepts its
      definedness witness;
    * ``undef_sound_complete`` — every automaton is total or rejects its
      undefinedness witness;
    * ``def_undef_sound`` — a separation witness, when produced, really
      separates;
    * ``diff_sound_complete`` — every pair is equal or has a working
      difference witness.
    """
    words_g = patches.words
    strings_g = generators.strings()
    pairs_g = gpair(editors, editors)

    sound = qmerge(
        NestedFor(
            words_g,
            strings_g,
            lambda w, s: action(s, w) == editor_action(s, semantics(w)),
        )
    )
    abstract = For(pairs_g, lambda xy: cons_eq(xy[0], xy[1]).reflect)
    def_sc = For(
        editors,
        lambda x: isinstance(x, Fail) or exists(Def(x), lambda s: editor_action(s, x) is not None),
    )
    undef_sc = For(
        editors,
        lambda x: is_total(x) or exists(Undef(x), lambda s: editor_action(s, x) is None),
    )
    du_sound = For(
        pairs_g,
        lambda xy: exists_or_vacuous(
            DefUndef(xy[0], xy[1]),
            lambda s: editor_action(s, xy[0]) is not None and editor_action(s, xy[1]) is None,
        ),
    )
    diff_sc = For(
        pairs_g,
        lambda xy: xy[0] == xy[1]
        or exists(
            Diff(xy[0], xy[1]),
            lambda s: editor_action(s, xy[0]) != editor_action(s, xy[1]),
        ),
    )

    return [
        ("editor.semantics_sound", check(Meta(sound))),
        ("editor.semantics_abstract", check(Meta(abstract))),
        ("editor.def_sound_complete", check(Meta(def_sc))),
        ("editor.undef_sound_complete", check(Meta(undef_sc))),
        ("editor.def_undef_sound", check(Meta(du_sound))),
        ("editor.diff_sound_complete", check(Meta(diff_sc))),
    ]
