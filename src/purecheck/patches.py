"""Polarized edit patches acting partially on strings.

A patch is anything with a partial right action on some state type:
``action(state, patch)`` either produces the edited state or ``None``
when the patch does not apply.  Invertible patches also support ``undo``,
which is just the action of the inverse.

The concrete patches here are single-character string edits
(:class:`Edit`), their polarized form (:class:`Literal`), and free group
words of literals (:class:`Word`).  Words form a monoid under
concatenation; no cancellation is performed at the word level — deciding
when two words denote the same action is the business of
:mod:`purecheck.editor`.
"""

from __future__ import annotations

import functools
import re
from enum import Enum
from typing import Any, Iterable, List, Optional, Tuple

from . import generators
from .check import _Value, render
from .generators import gmap, gpair, lists_of, register_default


# Enum members are singletons that compare by identity, so they may hash by
# it: `object.__hash__` is a C slot, where `Enum.__hash__` is a Python frame
# inside every literal's hash.
class Polarity(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"

    __hash__ = object.__hash__


class EditOp(Enum):
    INSERT = "+"
    DELETE = "-"

    __hash__ = object.__hash__


# Reading a member through its class is an attribute lookup on the enum's
# metaclass; hot paths read these names instead.
INSERT, DELETE = EditOp.INSERT, EditOp.DELETE
POSITIVE, NEGATIVE = Polarity.POSITIVE, Polarity.NEGATIVE

# A literal over an edit is spelled as its polarity's mark, its op's value,
# its position, ":" and its argument.  `render_literal` reads the mark here
# and `render_edit` the op's value; `Word.__hash__` reads both at once from
# `_PREFIX`, which is built from them.
_MARK = {POSITIVE: "", NEGATIVE: "~"}
_PREFIX = {polarity: {op: _MARK[polarity] + op.value for op in EditOp} for polarity in Polarity}


# `Edit`, `Literal` and `Word` check their fields in a hand-written
# `__init__`: one frame per object, where the general argument binding of
# `_Value` takes more.  `__replace__`, copies and pickles call it by keyword
# or by position.


class Edit(_Value):
    """Insert or delete one character at a 0-based position."""

    __slots__ = ("op", "pos", "arg")
    op: EditOp
    pos: int
    arg: str

    def __init__(self, op: EditOp, pos: int, arg: str):
        # the action tells the ops apart by identity and the fold compares
        # positions as ints, so any other op or position (a bool among
        # them) would act, fold or render as something else
        if type(op) is not EditOp or type(pos) is not int:
            raise ValueError(f"an edit is an EditOp at an int position, not {op!r} at {pos!r}")
        # the automaton model splices one character per edit; an empty or
        # longer argument would make it disagree with the string action
        if not isinstance(arg, str) or len(arg) != 1:
            raise ValueError(f"an edit's argument is one character, not {arg!r}")
        # a subclass of `str` is kept as the plain string it holds: its own
        # `__str__` or `__format__` would make `render`, and so the hash of
        # a word, spell another text than the one `==` compares
        if type(arg) is not str:
            arg = str.__str__(arg)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "arg", arg)


class Literal(_Value):
    """A patch with a direction: positive applies, negative un-applies."""

    __slots__ = ("polarity", "atom")
    polarity: Polarity
    atom: Any

    def __init__(self, polarity: Polarity, atom: Any):
        # the action and the renderer tell the polarities apart by identity,
        # so any other value would act and render as a negative literal
        if type(polarity) is not Polarity:
            raise ValueError(f"a literal's polarity is a Polarity, not {polarity!r}")
        object.__setattr__(self, "polarity", polarity)
        object.__setattr__(self, "atom", atom)


class Word(_Value):
    """A sequence of polarized literals, applied left to right."""

    # `_hash` is not a field: it is filled by `parse_word` or by the first
    # `__hash__`, and hash values depend on the process's hash seed, so
    # pickled and copied state, which is the fields, leaves it out
    __slots__ = ("literals", "_hash")
    literals: Tuple[Literal, ...]

    def __init__(self, literals: Iterable[Any] = ()):
        object.__setattr__(self, "literals", tuple(literals))
        object.__setattr__(self, "_hash", None)

    def __hash__(self) -> int:
        # a word of literals over edits hashes as its text, spelled as
        # `render_word` spells it: `parse_word` stores that hash from the
        # text it read.  Any other entry leaves a `None` that `join`
        # refuses, and such a word hashes its entries.
        h = self._hash
        if h is None:
            try:
                h = hash(
                    ",".join(
                        [
                            f"{_PREFIX[lit.polarity][e.op]}{e.pos}:{e.arg}"
                            if type(lit) is Literal and type(e := lit.atom) is Edit
                            else None
                            for lit in self.literals
                        ]
                    )
                )
            except TypeError:
                h = hash(self.literals)
            object.__setattr__(self, "_hash", h)
        return h


# ---------------------------------------------------------------------------
# inversion


@functools.singledispatch
def inv(x: Any):
    raise TypeError(f"no inverse defined for {type(x).__name__}")


@inv.register(Polarity)
def _(x: Polarity) -> Polarity:
    return Polarity.NEGATIVE if x is Polarity.POSITIVE else Polarity.POSITIVE


@inv.register(EditOp)
def _(x: EditOp) -> EditOp:
    return EditOp.DELETE if x is EditOp.INSERT else EditOp.INSERT


@inv.register(Edit)
def _(x: Edit) -> Edit:
    return Edit(inv(x.op), x.pos, x.arg)


@inv.register(Literal)
def _(x: Literal) -> Literal:
    return Literal(inv(x.polarity), x.atom)


@inv.register(Word)
def _(x: Word) -> Word:
    # undoing a sequence undoes each step in reverse order
    return Word(tuple(inv(lit) for lit in reversed(x.literals)))


# ---------------------------------------------------------------------------
# the string instance of single edits


def string_insert(s: str, i: int, c: str) -> Optional[str]:
    """Insert ``c`` before position ``i``; defined iff 0 <= i <= len(s)."""
    return splice.registry[str](s, True, i, c)


def string_delete(s: str, i: int, c: str) -> Optional[str]:
    """Delete the character at ``i``, which must be ``c``; defined iff
    0 <= i < len(s) and s[i] == c.  Requiring the expected character makes
    deletion invertible."""
    return splice.registry[str](s, False, i, c)


# ---------------------------------------------------------------------------
# actions

# Patch kind and state type are independent extension axes, so each has
# its own dispatcher: a new patch representation registers with `act`
# (keyed on the patch), a new editable state with `splice` (keyed on the
# state).  `splice` takes the effective edit, polarity already folded in:
# ``splice(s, insert, i, c)`` inserts (``insert``) or deletes character
# ``c`` at position ``i``.  purecheck.editor adds its automata as a state
# only: they are what a word denotes, not patches.  The hot paths look an
# implementation up by exact type in the dispatcher's `registry` and call
# `dispatch`, which also walks the type's bases, only when that misses;
# `dispatch` answers ``registry[cls]`` for every registered ``cls``, so the
# two agree.


@functools.singledispatch
def splice(s: Any, insert: bool, i: int, c: str) -> Optional[Any]:
    """Insert or delete ``c`` at ``i`` in state ``s``; ``None`` when it does not apply."""
    raise TypeError(f"states of type {type(s).__name__} do not support edits")


@splice.register(str)
def _(s: str, insert: bool, i: int, c: str) -> Optional[str]:
    # the one string splice: `string_insert` and `string_delete` call it
    if insert:
        return s[:i] + c + s[i:] if 0 <= i <= len(s) else None
    return s[:i] + s[i + 1 :] if 0 <= i < len(s) and s[i] == c else None


@functools.singledispatch
def act(p: Any, s: Any) -> Optional[Any]:
    """The action of patch ``p`` on state ``s``, dispatched on the patch type."""
    raise TypeError(f"not a patch: {type(p).__name__}")


def _fold(s: Any, entries: Tuple[Any, ...], forward: bool) -> Optional[Any]:
    """Apply each entry in turn, forward (``action``) or backward (``undo``).

    A literal is unwrapped, its polarity folded into the direction.  An
    `Edit`, bare or unwrapped, goes straight to the splicer of the state's
    type, resolved once; any other entry goes to `action` or `undo`, after
    which the splicer is resolved again for the state it left.
    """
    splicers = splice.registry
    splicer = splicers.get(type(s)) or splice.dispatch(type(s))
    insert, positive = INSERT, POSITIVE  # one global read per fold, not per literal
    for p in entries:
        direction = forward
        if type(p) is Literal:
            direction = (p.polarity is positive) is forward
            p = p.atom
        if type(p) is Edit:
            s = splicer(s, (p.op is insert) is direction, p.pos, p.arg)
        else:
            s = action(s, p) if direction else undo(s, p)
            splicer = splicers.get(type(s)) or splice.dispatch(type(s))
        if s is None:
            return None
    return s


@act.register(Edit)
@act.register(Literal)
@act.register(Word)
def _(p: Any, s: Any) -> Optional[Any]:
    return _fold(s, p.literals if type(p) is Word else (p,), True)


def action(s: Any, p: Any) -> Optional[Any]:
    """Apply patch ``p`` to state ``s``; ``None`` when it does not apply."""
    return (act.registry.get(type(p)) or act.dispatch(type(p)))(p, s)


def undo(s: Any, p: Any) -> Optional[Any]:
    """Revert ``p`` on ``s``: the action of the inverse patch.  An edit, a
    literal or a word is undone without building its inverse."""
    if type(p) is Word or type(p) is Edit or type(p) is Literal:
        return _fold(s, p.literals[::-1] if type(p) is Word else (p,), False)
    return action(s, inv(p))


# ---------------------------------------------------------------------------
# words


def from_list(edits: Iterable[Edit]) -> Word:
    """Wrap plain edits as an all-positive word."""
    return Word(tuple(Literal(Polarity.POSITIVE, e) for e in edits))


# ---------------------------------------------------------------------------
# text rendering ("+2:a" inserts 'a' at 2; "-3:b" deletes 'b' at 3;
# a "~" prefix marks a negative-polarity literal).  The argument is the one
# character after ':', whatever it is, so "+0: " inserts a space and
# "+0:," a comma.  A word joins its literals with ","; parsing also allows
# whitespace around each ",", so a rendered word of literals over edits at
# non-negative positions parses back to an equal word.  Nothing else does:
# a negative position renders as "+-3:a", which the parser rejects, a
# nested word's parentheses make `parse_word` raise `ValueError`, and a
# bare `Edit` parses back as its positive literal.

# A position is `0` or ASCII digits without a leading zero, as `render`
# writes it: `int` reads "٣" as 3 (in a `str` pattern `\d` matches every
# Unicode decimal digit) and "03" as 3, so "+٣:a" or "+03:a" would parse
# as "+3:a" and not render back.  The one group is the whole literal, so
# that a split keeps it.
_LITERAL = re.compile(r"(~?[+-](?:0|[1-9][0-9]*):.)", re.DOTALL)


@render.register(Edit)
def render_edit(e: Edit) -> str:
    return f"{e.op.value}{e.pos}:{e.arg}"


def _render_entry(x: Any) -> str:
    """A literal's atom or a word's entry; a nested word in parentheses."""
    return f"({render_word(x)})" if type(x) is Word else render(x)


@render.register(Literal)
def render_literal(lit: Literal) -> str:
    return _MARK[lit.polarity] + _render_entry(lit.atom)


@render.register(Word)
def render_word(w: Word) -> str:
    return ",".join(map(_render_entry, w.literals))


def _tokens(text: str) -> Optional[List[str]]:
    """The literal texts of a word, or ``None`` when ``text`` is not one."""
    # split alternates separators and literals: sep, lit, sep, ..., lit, sep
    parts = _LITERAL.split(text)
    seps = list(map(str.strip, parts[::2]))
    inner = seps[1:-1]
    if seps[0] or seps[-1] or inner.count(",") != len(inner):
        return None
    return parts[1::2]


# 2**16 distinct texts at about 270 bytes each, key and literal: 18 MB at
# most (tracemalloc, texts like the benchmark stream's, positions below 2001)
@functools.lru_cache(maxsize=1 << 16)
def _literal(text: str) -> Literal:
    """The literal ``text`` spells, built once per distinct text while it
    stays in the cache; equal texts share one object.  A text that is not
    exactly one literal raises `ValueError`, so only literals are cached."""
    if _LITERAL.fullmatch(text) is None:
        raise ValueError(f"not a literal: {text!r}")
    # the mark and the op lead; the argument is the last character, and the
    # position ends at the ':' before it
    if text[0] == "~":
        return Literal(NEGATIVE, Edit(INSERT if text[1] == "+" else DELETE, int(text[2:-2]), text[-1]))
    return Literal(POSITIVE, Edit(INSERT if text[0] == "+" else DELETE, int(text[1:-2]), text[-1]))


# A word whose pieces between commas are each one literal, which is every
# word `render_word` writes unless an argument is ",", parses with one split
# and one pass over the cache.  Any other text, whitespace around a
# separator or a "," argument among them, goes through `_tokens`, and so
# does anything that is not a `str`, which its pattern refuses with
# `TypeError`.


def parse_word(text: str) -> Word:
    if type(text) is str:
        try:
            w = Word(map(_literal, text.split(",")))
        except ValueError:
            pass
        else:
            # `_literal` admits only a literal spelled as `render` spells it,
            # so `text` is the word's rendering and its hash the word's hash
            object.__setattr__(w, "_hash", hash(text))
            return w
    tokens = _tokens(text)
    if tokens is None:
        raise ValueError(f"not a word: {text!r}")
    return Word(map(_literal, tokens))


def parse_literal(text: str) -> Literal:
    tokens = _tokens(text)
    if tokens is None or len(tokens) != 1:
        raise ValueError(f"not a literal: {text!r}")
    return _literal(tokens[0])


# ---------------------------------------------------------------------------
# default generators

edit_ops = generators.from_values([EditOp.INSERT, EditOp.DELETE])
polarities = generators.from_values([Polarity.POSITIVE, Polarity.NEGATIVE])

#: (op, position) paired with the character: a pair of a pair, so the
#: character runs ahead of the position (the first 3000 cover positions
#: 0–27 and 55 characters)
edits = gmap(
    lambda t: Edit(t[0][0], t[0][1], t[1]),
    gpair(gpair(edit_ops, generators.naturals()), generators.characters()),
)

literals = gmap(lambda t: Literal(t[0], t[1]), gpair(polarities, edits))

words = gmap(lambda ls: Word(tuple(ls)), lists_of(literals))

register_default(Edit, edits)
register_default(Literal, literals)
register_default(Word, words)
