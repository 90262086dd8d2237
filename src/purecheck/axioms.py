"""Named algebraic laws as first-class values.

An *axiom value* is a small record naming a law and carrying everything
needed to state it: the operations it constrains and the sample domains
to quantify over.  :func:`axiomatic` maps each axiom value to its marked
proposition — one fixed shape per axiom family — so laws can live in
registries, be checked by name, and be transformed by tactics that are
explicitly scoped to the families that opted in.

The one tactic shipped is non-negative lifting: an integer-indexed law
that only makes sense for k >= 0 can be extended to all integers through
``abs``, but only for axiom families that declare themselves eligible —
the extension is generally unsound, so it is never inferred.
"""

from __future__ import annotations

from functools import singledispatch
from typing import Any, Callable, List, Tuple

from . import patches
from .check import Check, For, Meta, _Value, check
from .generators import Generator, from_values, gpair, gtriple, integers, lists_of, strings


class Monoid(_Value):
    """An associative operation with unit, plus a sample domain."""

    name: str
    unit: Any
    combine: Callable[[Any, Any], Any]
    elements: Generator


#: Shipped instances.  The names become part of registry keys.
LIST_INT = Monoid("list<int>", [], lambda x, y: x + y, lists_of(integers()))
STRING = Monoid("string", "", lambda x, y: x + y, strings())
UNIT = Monoid("unit", None, lambda x, y: None, from_values([None]))
INT_ADD = Monoid("int-addition", 0, lambda x, y: x + y, integers())


# ---------------------------------------------------------------------------
# axiom values


class MonoidCommute(_Value):
    """The (optional) law that a monoid's operation commutes."""

    monoid: Monoid


class RActionUnit(_Value):
    """Acting with the monoid unit changes nothing."""

    act: Callable[[Any, Any], Any]
    states: Generator
    monoid: Monoid


class RActionCompose(_Value):
    """Acting with a product equals acting with its factors in turn."""

    act: Callable[[Any, Any], Any]
    states: Generator
    monoid: Monoid


class PatchInvert(_Value):
    """Wherever a patch applies, undoing it restores the original state."""

    states: Generator
    patch_domain: Generator
    name: str


class RepeatLength(_Value):
    """Repeating a string k times scales its length by k (for k >= 0)."""

    sample: str


# ---------------------------------------------------------------------------
# the axiom-to-proposition mapping


@singledispatch
def axiomatic(a: Any) -> Meta:
    """Map an axiom value to its marked proposition."""
    raise TypeError(f"not an axiom value: {type(a).__name__}")


@axiomatic.register(MonoidCommute)
def _(a: MonoidCommute) -> Meta:
    m = a.monoid
    return Meta(
        For(
            gpair(m.elements, m.elements),
            lambda xy: m.combine(xy[0], xy[1]) == m.combine(xy[1], xy[0]),
        )
    )


@axiomatic.register(RActionUnit)
def _(a: RActionUnit) -> Meta:
    return Meta(For(a.states, lambda s: a.act(s, a.monoid.unit) == s))


@axiomatic.register(RActionCompose)
def _(a: RActionCompose) -> Meta:
    m = a.monoid
    bound = gtriple(a.states, m.elements, m.elements)
    return Meta(
        For(
            bound,
            lambda t: a.act(t[0], m.combine(t[1], t[2])) == a.act(a.act(t[0], t[1]), t[2]),
        )
    )


@axiomatic.register(PatchInvert)
def _(a: PatchInvert) -> Meta:
    def law(sp) -> bool:
        s, p = sp
        after = patches.action(s, p)
        if after is None:
            return True  # nothing happened, nothing to revert
        return patches.undo(after, p) == s

    return Meta(For(gpair(a.states, a.patch_domain), law))


@axiomatic.register(RepeatLength)
def _(a: RepeatLength) -> Meta:
    x = a.sample

    def scaled(k: int) -> bool:
        return len(x * k) == len(x) * k

    return Meta(scaled)


# ---------------------------------------------------------------------------
# law bundles


def monoid_laws(m: Monoid) -> List[Tuple[str, Check]]:
    """The three defining laws, as named checks.

    Associativity is quantified over one `gtriple` generator rather than
    three nested quantifiers.  One max-index shell product of three
    columns, it gives every variable about as many distinct values (over
    an endless element stream, 14, 15 and 15 at budget 3000; 31, 32 and
    32 at 30000).
    """
    left = For(m.elements, lambda x: m.combine(m.unit, x) == x)
    right = For(m.elements, lambda x: m.combine(x, m.unit) == x)
    assoc = For(
        gtriple(m.elements, m.elements, m.elements),
        lambda t: m.combine(m.combine(t[0], t[1]), t[2])
        == m.combine(t[0], m.combine(t[1], t[2])),
    )
    return [
        (f"monoid.left_unit<{m.name}>", check(Meta(left))),
        (f"monoid.right_unit<{m.name}>", check(Meta(right))),
        (f"monoid.assoc<{m.name}>", check(Meta(assoc))),
    ]


# ---------------------------------------------------------------------------
# the non-negative lifting tactic

_NONNEG_ELIGIBLE: set = set()


def declare_nonneg(axiom_family: type) -> None:
    """Opt an axiom family into non-negative lifting.

    Eligibility is always an explicit declaration, never inferred: lifting
    through ``abs`` is only meaningful for laws that are genuinely about
    magnitudes.
    """
    _NONNEG_ELIGIBLE.add(axiom_family)


def is_nonneg_eligible(a: Any) -> bool:
    return type(a) in _NONNEG_ELIGIBLE


declare_nonneg(RepeatLength)


def nonneg_lift(a: Any) -> Meta:
    """Extend an integer-indexed axiom to all integers via absolute value.

    Accepts an eligible axiom value, or an already-lifted marked
    proposition (lifting twice changes nothing: |x| is idempotent).
    """
    if isinstance(a, Meta):
        base = a.reflect
    elif is_nonneg_eligible(a):
        base = axiomatic(a).reflect
    else:
        raise TypeError(
            f"{type(a).__name__} is not declared eligible for non-negative lifting"
        )
    if not callable(base):
        raise TypeError("non-negative lifting needs an integer-indexed proposition")

    def lifted(k: int) -> bool:
        return base(abs(k))

    return Meta(lifted)
