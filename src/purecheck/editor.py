"""Normal-form string transducers: a fully abstract model of edit words.

An :data:`Editor` is a tiny one-pass automaton over an input string.  It
alternates *insertion* nodes (emit a fixed prefix) with *consumption*
steps (copy one input character, or require-and-drop a specific one),
and ends by echoing whatever input remains:

* ``Fail`` — defined on no input;
* ``Try(Ins(prefix, k))`` — emit ``prefix``, then run ``k``;
* ``Skip(a)`` — copy one input character, then run ``a``;
* ``Del(c, a)`` — consume one input character, which must equal ``c``,
  emit nothing, then run ``a``;
* ``Return`` — echo the rest of the input.

The *normal form* demands that no nonempty insertion directly follows a
deletion: text inserted right after a ``Del`` is indistinguishable from
the same text inserted right before it, so the representation commits to
"before".  The :func:`ins` constructor restores this form locally.

Single edits splice into automata (:func:`editor_insert` /
:func:`editor_delete`), and folding a whole word of edits over the
identity automaton gives its :func:`semantics`.  Two words denote the
same partial string function exactly when their automata are structurally
equal — which turns an undecidable-looking question about group words
into an equality test (:func:`word_equiv`).  The witness constructions
at the bottom make the model self-describing: for any automaton (or pair)
they produce concrete inputs demonstrating definedness, undefinedness,
or disagreement, and the :func:`adequacy_suite` checks those claims with
the machinery of :mod:`purecheck.check`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Optional, Tuple, Union

from . import generators, patches
from .check import Check, For, Meta, NestedFor, check, qmerge, render
from .existentials import exists, exists_or_vacuous, exists_some
from .generators import Generator, gpair, register_default
from .patches import Edit, EditOp, Word, act, action, splice

# ---------------------------------------------------------------------------
# the automaton


@dataclass(frozen=True)
class Return:
    pass


@dataclass(frozen=True)
class Skip:
    next: "Ins"


@dataclass(frozen=True)
class Del:
    char: str
    next: "Ins"


Consumption = Union[Skip, Del, Return]


@dataclass(frozen=True, eq=False, repr=False)
class Ins:
    prefix: str
    next: Consumption

    # Equality, hashing and repr read the spine in one loop; the generated
    # methods would recurse once per position and overflow the stack on
    # automata a few hundred positions deep.

    def _flat(self) -> tuple:
        """The spine as one flat tuple: each prefix, then the deleted
        character for a ``Del``, or the class of a ``Skip`` or ``Return``."""
        out: list = []
        node = self
        while True:
            step = node.next
            out.append(node.prefix)
            out.append(step.char if isinstance(step, Del) else type(step))
            if isinstance(step, Return):
                return tuple(out)
            node = step.next

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ins):
            return NotImplemented
        return self is other or self._flat() == other._flat()

    def __hash__(self) -> int:
        return hash(self._flat())

    def __repr__(self) -> str:
        """The text the generated ``__repr__`` would give, built in one loop."""
        parts: list = []
        node = self
        while True:
            parts.append(f"Ins(prefix={node.prefix!r}, next=")
            step = node.next
            if isinstance(step, Return):
                parts.append(repr(step))
                return "".join(parts) + ")" * (len(parts) - 1)
            if isinstance(step, Del):
                parts.append(f"Del(char={step.char!r}, next=")
            else:
                parts.append("Skip(next=")
            node = step.next


@dataclass(frozen=True)
class Fail:
    pass


@dataclass(frozen=True)
class Try:
    insertion: Ins


Editor = Union[Try, Fail]

#: The identity automaton: insert nothing, echo the input.
DONE = Ins("", Return())


def ins(prefix: str, next: Consumption) -> Ins:
    """Insertion constructor that restores the normal form at its root.

    An insertion sitting directly behind a deletion is hoisted in front
    of it — the two automata are operationally indistinguishable, and the
    normal form keeps only the hoisted one.
    """
    if isinstance(next, Del):
        inner = next.next
        return Ins(prefix + inner.prefix, Del(next.char, Ins("", inner.next)))
    return Ins(prefix, next)


def is_normal(a: Union[Editor, Ins]) -> bool:
    """Structural scan for the no-insertion-after-deletion invariant."""
    if isinstance(a, Fail):
        return True
    node = a.insertion if isinstance(a, Try) else a
    while True:
        step = node.next
        if isinstance(step, Return):
            return True
        if isinstance(step, Del) and step.next.prefix:
            return False
        node = step.next


# ---------------------------------------------------------------------------
# running an automaton


def editor_action(s: str, a: Union[Editor, Ins, Consumption]) -> Optional[str]:
    """Apply an automaton to an input string; ``None`` when it rejects."""
    if isinstance(a, Fail):
        return None
    node = a.insertion if isinstance(a, Try) else a
    out: List[str] = []
    i = 0
    while True:
        if isinstance(node, Ins):
            out.append(node.prefix)
            node = node.next
        elif isinstance(node, Return):
            out.append(s[i:])
            return "".join(out)
        elif isinstance(node, Skip):
            if i >= len(s):
                return None
            out.append(s[i])
            i += 1
            node = node.next
        elif isinstance(node, Del):
            if i >= len(s) or s[i] != node.char:
                return None
            i += 1
            node = node.next
        else:
            raise TypeError(f"not an automaton node: {type(node).__name__}")


def _lift(a: Optional[Ins]) -> Editor:
    return Fail() if a is None else Try(a)


@act.register(Try)
@act.register(Fail)
@act.register(Ins)
def _(a: Union[Editor, Ins], s: str) -> Optional[str]:
    return editor_action(s, a)


# ---------------------------------------------------------------------------
# splicing single edits
#
# Both splicers walk the automaton tracking how much *output* the nodes
# passed so far produce, remember the path for rebuilding, and splice at
# the node owning the target position.  Positions beyond all structure
# fall into the echoed-input region and turn into chains of Skips.  Every
# rebuild goes through `ins`, so prefixes created next to a deletion are
# hoisted back into normal form.  Correctness is not argued here — the
# test suite pins it against exhaustive application to concrete strings.


def _rebuild(path: list, node: Ins) -> Ins:
    cons: Consumption = Return()  # overwritten before use; path alternates strictly
    for entry in reversed(path):
        kind = entry[0]
        if kind == "skip":
            cons = Skip(node)
        elif kind == "del":
            cons = Del(entry[1], node)
        else:  # "ins"
            node = ins(entry[1], cons)
    return node


def editor_insert(a: Ins, i: int, c: str) -> Optional[Ins]:
    """Splice "insert ``c`` at output position ``i``" into an automaton.

    The result, run on any input, equals running ``a`` first and then
    inserting into its output.  A negative position never applies.
    """
    if i < 0:
        return None
    path: list = []
    node = a
    while True:
        p, nxt = node.prefix, node.next
        if i <= len(p):
            return _rebuild(path, ins(p[:i] + c + p[i:], nxt))
        j = i - len(p)  # j >= 1 characters of later output precede the spot
        if isinstance(nxt, Skip):
            path += [("ins", p), ("skip",)]
            node, i = nxt.next, j - 1
        elif isinstance(nxt, Del):
            path += [("ins", p), ("del", nxt.char)]
            node, i = nxt.next, j
        else:  # Return: j input characters must be copied before inserting
            tail: Consumption = Skip(Ins(c, Return()))
            for _ in range(j - 1):
                tail = Skip(Ins("", tail))
            return _rebuild(path, ins(p, tail))


def editor_delete(a: Ins, i: int, c: str) -> Optional[Ins]:
    """Splice "delete ``c`` at output position ``i``" into an automaton.

    ``None`` when the composite is empty: deleting a character the
    automaton provably never produces there.
    """
    if i < 0:
        return None
    path: list = []
    node = a
    while True:
        p, nxt = node.prefix, node.next
        if i < len(p):
            if p[i] != c:
                return None  # that output position is fixed to a different character
            return _rebuild(path, ins(p[:i] + p[i + 1 :], nxt))
        j = i - len(p)
        if isinstance(nxt, Skip):
            if j == 0:
                # deleting the copied character pins the input there to c
                return _rebuild(path, ins(p, Del(c, nxt.next)))
            path += [("ins", p), ("skip",)]
            node, i = nxt.next, j - 1
        elif isinstance(nxt, Del):
            path += [("ins", p), ("del", nxt.char)]
            node, i = nxt.next, j
        else:  # Return: delete lands in the echoed input region
            tail: Consumption = Del(c, Ins("", Return()))
            for _ in range(j):
                tail = Skip(Ins("", tail))
            return _rebuild(path, ins(p, tail))


@splice.register
def _(a: Ins, e: Edit) -> Optional[Ins]:
    fn = editor_insert if e.op is EditOp.INSERT else editor_delete
    return fn(a, e.pos, e.arg)


# ---------------------------------------------------------------------------
# the word problem


@lru_cache(maxsize=4096)
def semantics(w: Word) -> Editor:
    """Fold a word's edits over the identity automaton.

    An intermediate edit with an empty composite collapses the whole word
    to ``Fail``.  The cache keeps the 4096 most recently used words; the
    distinct automata that `editors` enumerates stay in its memo.
    """
    return _lift(act(w, DONE))


def word_equiv(x: Word, y: Word) -> bool:
    """Decide whether two words denote the same partial string function."""
    return semantics(x) == semantics(y)


def is_total(a: Editor) -> bool:
    """An automaton is total iff it consumes nothing: prefix-then-echo."""
    return isinstance(a, Try) and isinstance(a.insertion.next, Return)


# ---------------------------------------------------------------------------
# acceptance structure
#
# A Try-automaton accepts exactly the strings that are long enough and
# match its per-position constraints: a Skip constrains nothing (any
# character), a Del pins the input character.  The spine below Return is
# irrelevant to acceptance — everything left over is echoed.


def _spine(a: Ins) -> Iterator[Tuple[str, Optional[Consumption]]]:
    """Yield (prefix, step) pairs along the automaton; step None at the end."""
    node = a
    while True:
        nxt = node.next
        if isinstance(nxt, Return):
            yield node.prefix, None
            return
        yield node.prefix, nxt
        node = nxt.next


def _pattern(a: Ins) -> List[Optional[str]]:
    """Per-position input constraints: None for Skip, the character for Del."""
    out: List[Optional[str]] = []
    for _prefix, step in _spine(a):
        if step is None:
            break
        out.append(step.char if isinstance(step, Del) else None)
    return out


_FILLER = "a"


def _fill(pattern: List[Optional[str]], overrides: Optional[dict] = None) -> str:
    chars = []
    for idx, c in enumerate(pattern):
        if overrides and idx in overrides:
            chars.append(overrides[idx])
        else:
            chars.append(c if c is not None else _FILLER)
    return "".join(chars)


def _other_char(c: str) -> str:
    return "a" if c != "a" else "b"


# ---------------------------------------------------------------------------
# witnesses


def witness_def(a: Editor) -> Optional[str]:
    """A shortest input the automaton accepts; ``None`` only for ``Fail``."""
    if isinstance(a, Fail):
        return None
    return _fill(_pattern(a.insertion))


def witness_undef(a: Editor) -> Optional[str]:
    """An input the automaton rejects; ``None`` exactly when it is total.

    Any automaton that consumes at least one character already rejects
    the empty string.
    """
    if isinstance(a, Fail):
        return ""
    return None if is_total(a) else ""


def witness_def_undef(x: Editor, y: Editor) -> Optional[str]:
    """An input accepted by ``x`` but rejected by ``y``, or ``None`` when no
    such input exists.

    Decided on acceptance patterns: ``x`` separates from ``y`` iff its
    pattern is shorter, or some position admits a character that ``x``
    allows and ``y`` forbids.
    """
    if isinstance(x, Fail):
        return None
    if isinstance(y, Fail):
        return witness_def(x)
    px, py = _pattern(x.insertion), _pattern(y.insertion)
    if len(px) < len(py):
        return _fill(px)  # too short for y
    for j in range(len(py)):
        cx, cy = px[j], py[j]
        if cy is None:
            continue
        if cx is None:
            return _fill(px, {j: _other_char(cy)})
        if cx != cy:
            return _fill(px)
    return None


def witness_diff(x: Editor, y: Editor) -> Optional[str]:
    """An input on which the two automata disagree (including defined vs
    undefined); ``None`` exactly for structurally equal automata.

    When both accept the same pattern language, the probe fills every
    unconstrained position with a fresh character — pairwise distinct and
    absent from both automata — so that equal outputs cannot arise from a
    lucky coincidence between copied and inserted text.  Fresh characters
    come from ``CHARACTER_ORDER`` first and then from the printable code
    points past U+007F, so the pool never runs dry.
    """
    if x == y:
        return None
    d = witness_def_undef(x, y)
    if d is not None:
        return d
    d = witness_def_undef(y, x)
    if d is not None:
        return d
    # both Try, with identical acceptance patterns
    pattern = _pattern(x.insertion)
    used = _chars_of(x) | _chars_of(y)
    beyond_ascii = filter(str.isprintable, map(chr, itertools.count(0x80)))
    pool = (ch for ch in itertools.chain(generators.CHARACTER_ORDER, beyond_ascii) if ch not in used)
    probe = "".join(c if c is not None else next(pool) for c in pattern)
    if editor_action(probe, x) != editor_action(probe, y):
        return probe
    return None


def _chars_of(a: Editor) -> set:
    if isinstance(a, Fail):
        return set()
    seen: set = set()
    for prefix, step in _spine(a.insertion):
        seen.update(prefix)
        if isinstance(step, Del):
            seen.add(step.char)
    return seen


# witness sources for the existential quantifiers


@dataclass(frozen=True)
class Def:
    """Claim: the automaton accepts some input."""

    editor: Editor

    def witness(self) -> Optional[str]:
        return witness_def(self.editor)


@dataclass(frozen=True)
class Undef:
    """Claim: the automaton rejects some input."""

    editor: Editor

    def witness(self) -> Optional[str]:
        return witness_undef(self.editor)


@dataclass(frozen=True)
class DefUndef:
    """Claim: some input is accepted by ``left`` and rejected by ``right``."""

    left: Editor
    right: Editor

    def witness(self) -> Optional[str]:
        return witness_def_undef(self.left, self.right)


@dataclass(frozen=True)
class Diff:
    """Claim: some input distinguishes the two automata."""

    left: Editor
    right: Editor

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
    """Stable text form, e.g. ``Try[Ins "ab"; Skip; Ins ""; Return]``.

    Every node is shown, including empty insertions; it is also how
    counterexample reports `render` automata.
    """
    if isinstance(a, Fail):
        return "Fail"
    node = a.insertion if isinstance(a, Try) else a
    parts: List[str] = []
    for prefix, step in _spine(node):
        parts.append(f'Ins "{prefix}"')
        if step is None:
            parts.append("Return")
        elif isinstance(step, Skip):
            parts.append("Skip")
        else:
            parts.append(f"Del '{step.char}'")
    body = "; ".join(parts)
    return f"Try[{body}]" if isinstance(a, Try) else body


# ---------------------------------------------------------------------------
# generated automata

def _editors() -> Iterator[Editor]:
    """Distinct images of generated words under `semantics`.

    Sampling through the fold guarantees every sample is a reachable,
    normal-form automaton; deduplication keeps the distinctness guarantee
    that raw images would lose (many words share one automaton).
    """
    seen: set = set()
    for w in patches.words:
        e = semantics(w)
        if e not in seen:
            seen.add(e)
            yield e


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
        lambda x: x == Fail() or exists(Def(x), lambda s: editor_action(s, x) is not None),
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
