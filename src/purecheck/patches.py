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
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, List, Optional, Tuple

from . import generators
from .check import render
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


@dataclass(frozen=True, slots=True)
class Edit:
    """Insert or delete one character at a 0-based position."""

    op: EditOp
    pos: int
    arg: str

    def __post_init__(self):
        # the action tells the ops apart by identity and the fold compares
        # positions as ints, so any other op or position (a bool among
        # them) would act, fold or render as something else
        if type(self.op) is not EditOp or type(self.pos) is not int:
            raise ValueError(f"an edit is an EditOp at an int position, not {self.op!r} at {self.pos!r}")
        # the automaton model splices one character per edit; an empty or
        # longer argument would make it disagree with the string action
        if not isinstance(self.arg, str) or len(self.arg) != 1:
            raise ValueError(f"an edit's argument is one character, not {self.arg!r}")


@dataclass(frozen=True, slots=True)
class Literal:
    """A patch with a direction: positive applies, negative un-applies."""

    polarity: Polarity
    atom: Any

    def __post_init__(self):
        # the action and the renderer tell the polarities apart by identity,
        # so any other value would act and render as a negative literal
        if type(self.polarity) is not Polarity:
            raise ValueError(f"a literal's polarity is a Polarity, not {self.polarity!r}")


@dataclass(frozen=True, slots=True)
class Word:
    """A sequence of polarized literals, applied left to right."""

    literals: Tuple[Literal, ...] = ()
    # filled by the first `__hash__`; hash values depend on the process's
    # hash seed, so `__reduce__` leaves it out of pickled and copied state
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "literals", tuple(self.literals))

    def __hash__(self) -> int:
        # one flat tuple: a literal over an edit contributes its four fields,
        # not its own and its edit's generated hashes, two frames per literal;
        # any other entry hashes as itself
        h = self._hash
        if h is None:
            h = hash(
                tuple(
                    [
                        (lit.polarity, e.op, e.pos, e.arg)
                        if type(lit) is Literal and type(e := lit.atom) is Edit
                        else lit
                        for lit in self.literals
                    ]
                )
            )
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return (Word, (self.literals,))


# ---------------------------------------------------------------------------
# inversion


@functools.singledispatch
def inv(x: Any):
    raise TypeError(f"no inverse defined for {type(x).__name__}")


@inv.register
def _(x: Polarity) -> Polarity:
    return Polarity.NEGATIVE if x is Polarity.POSITIVE else Polarity.POSITIVE


@inv.register
def _(x: EditOp) -> EditOp:
    return EditOp.DELETE if x is EditOp.INSERT else EditOp.INSERT


@inv.register
def _(x: Edit) -> Edit:
    return Edit(inv(x.op), x.pos, x.arg)


@inv.register
def _(x: Literal) -> Literal:
    return Literal(inv(x.polarity), x.atom)


@inv.register
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


@splice.register
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
# whitespace around each ",", so a rendered word of literals over edits
# parses back to an equal word.  Other entries do not: a nested word's
# parentheses make `parse_word` raise `ValueError`, and a bare `Edit`
# parses back as its positive literal.

# A position is `0` or ASCII digits without a leading zero, as `render`
# writes it: `int` reads "٣" as 3 (in a `str` pattern `\d` matches every
# Unicode decimal digit) and "03" as 3, so "+٣:a" or "+03:a" would parse
# as "+3:a" and not render back
_LITERAL = re.compile(r"(~?[+-](?:0|[1-9][0-9]*):.)", re.DOTALL)


@render.register
def render_edit(e: Edit) -> str:
    return f"{e.op.value}{e.pos}:{e.arg}"


def _render_entry(x: Any) -> str:
    """A literal's atom or a word's entry; a nested word in parentheses."""
    return f"({render_word(x)})" if type(x) is Word else render(x)


@render.register
def render_literal(lit: Literal) -> str:
    mark = "" if lit.polarity is Polarity.POSITIVE else "~"
    return mark + _render_entry(lit.atom)


@render.register
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


# 2**16 distinct texts at about 260 bytes each: 17 MB at most
@functools.lru_cache(maxsize=1 << 16)
def _literal(token: str) -> Literal:
    """The literal a token of `_LITERAL` spells, built once per distinct
    text while it stays in the cache; equal texts share one object."""
    negative = token[0] == "~"
    body = token[1:] if negative else token
    op = INSERT if body[0] == "+" else DELETE
    edit = Edit(op, int(body[1:-2]), body[-1])
    return Literal(NEGATIVE if negative else POSITIVE, edit)


def parse_word(text: str) -> Word:
    tokens = _tokens(text)
    if tokens is None:
        raise ValueError(f"not a word: {text!r}")
    return Word(tuple(map(_literal, tokens)))


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
