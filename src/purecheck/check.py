"""Checks, four-valued verdicts, and the Meta marking layer.

The unit of testable obligation is a :class:`Check`: a pure function from
an integer *confidence* (a sample budget) to a :data:`Verdict`.  Raising
the confidence may expose counterexamples that a smaller budget missed,
but can never un-falsify anything — checks built from the enumeration
rules in :mod:`purecheck.generators` are monotone in this sense.

Propositions are *marked* before they are checked: wrapping a value in
:class:`Meta` declares it meta-logical, i.e. about the program rather
than part of it.  The wrapper is inert — it computes nothing — but it
stratifies a code base cleanly: operational code never touches marked
values, assertions build them, tactics (like quantifier merging) rewrite
them, and the most abstract layer reasons about the tactics themselves.

Checking a marked proposition yields one of four verdicts:

=====================  =====================================================
``Holds``              the proposition evaluated to true on every sample
``Falsified``          a sample refuted it (a genuine logical falsehood)
``LogicalError``       the proposition exists but cannot be decided
                       (its body crashed, or produced a non-boolean)
``TacticalError``      the proposition could not even be stated
                       (no sample domain, malformed shape)
=====================  =====================================================

The distinction matters: a ``Falsified`` law is news about the subject
under test, while either error verdict is news about the test itself.
"""

from __future__ import annotations

import functools
import inspect
import typing
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

from .generators import Generator, default_generator, gpair

# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class Holds:
    pass


@dataclass(frozen=True)
class Falsified:
    counterexample: Optional[str] = None


@dataclass(frozen=True)
class LogicalError:
    diagnostic: str


@dataclass(frozen=True)
class TacticalError:
    diagnostic: str


Verdict = Union[Holds, Falsified, LogicalError, TacticalError]


# ---------------------------------------------------------------------------
# rendering of counterexamples


@functools.singledispatch
def render(value: Any) -> str:
    """Stable text rendering used in counterexample reports.

    Other modules register their own cases (edits, words, automata).
    """
    return repr(value)


@render.register(tuple)
@render.register(list)
def _render_sequence(value: Union[tuple, list]) -> str:
    opening, closing = "()" if isinstance(value, tuple) else "[]"
    return opening + ", ".join(render(v) for v in value) + closing


def _clip(text: str) -> str:
    return text if len(text) <= 200 else text[:197] + "..."


def _shown(x: Any) -> str:
    """A sample's clipped rendering in a verdict.  A sample whose rendering
    raises is shown by a fixed text, so the verdict stays the one the body
    earned."""
    try:
        text = render(x)
    except Exception as e:  # noqa: BLE001 — the sample's own failure, not the check's
        text = f"<unrenderable {type(x).__name__}: {e!r}>"
    return _clip(text)


# ---------------------------------------------------------------------------
# marking


@dataclass(frozen=True)
class Meta:
    """Inert marker separating meta-logical values from operational ones.

    ``Meta(x).reflect`` is ``x``: wrapping then reflecting is the identity.
    """

    reflect: Any


def foreach(f: Callable[[Any], Any]) -> Meta:
    """Explicit universal quantifier: turn ``A -> Meta[B]`` into ``Meta[A -> B]``.

    The returned marked function satisfies
    ``foreach(f).reflect(x) == f(x).reflect`` for every ``x``.  Parameter
    annotations survive the wrapping, so the default sample domain of the
    quantified variable is still discoverable.
    """

    @functools.wraps(f)
    def body(x):
        r = f(x)
        return r.reflect if isinstance(r, Meta) else r

    return Meta(body)


# ---------------------------------------------------------------------------
# checks


@dataclass(frozen=True)
class Check:
    """A confidence-parameterized heuristic decision of a proposition."""

    perform: Callable[[int], Verdict]

    def __and__(self, other: "Check") -> "Check":
        return conjoin(self, other)


class _Clauses(tuple):
    """The flat clause tuple of a conjunction, performed as one loop."""

    def __call__(self, n: int) -> Verdict:
        for clause in self:
            v = clause.perform(n)
            if not isinstance(v, Holds):
                return v
        return Holds()


def conjoin(*checks: Check) -> Check:
    """Conjunction of checks; the confidence is passed to each clause.

    The first clause (left to right) that does not hold determines the
    verdict, so reports are deterministic.  Conjunctions among the
    arguments are spliced in flat, so however a conjunction was built
    its evaluation does not nest: stack depth stays constant in the
    number of clauses.  ``conjoin()``, the unit of the conjunction, holds
    at every confidence.
    """
    clauses: list = []
    for c in checks:
        clauses.extend(c.perform if isinstance(c.perform, _Clauses) else (c,))
    return Check(_Clauses(clauses))


def check_with(g: Generator, p: Union[Meta, Callable]) -> Check:
    """Check a predicate on the first ``n`` samples of ``g``, ``n`` the budget.

    Samples are enumerated one at a time and the check stops at the first
    one that does not hold, so a counterexample costs only the samples
    before it.  The first thing that goes wrong in enumeration order
    decides: a counterexample before a sample whose enumeration raises is
    ``Falsified``, the raise itself a ``TacticalError``.  A budget of zero
    (or less) produces no samples and therefore holds vacuously — "no
    evidence" is not a failure.
    """
    fn = p.reflect if isinstance(p, Meta) else p
    # any other iterable is read as the stream of a generator
    stream = g if isinstance(g, Generator) else Generator(lambda: g)

    def perform(n: int) -> Verdict:
        # read the memo by index, pulling one sample only at its frontier
        memo = stream._upto(0)
        i = 0
        while i < n:
            if i == len(memo):
                try:
                    if not stream._pull():
                        break
                except Exception as e:  # noqa: BLE001 — sampling failure is a verdict, not a crash
                    return TacticalError(f"sample enumeration failed: {e!r}")
            x = memo[i]
            i += 1
            try:
                result = fn(x)
            except Exception as e:  # noqa: BLE001
                return LogicalError(f"body raised on {_shown(x)}: {e!r}")
            if result is True:
                continue
            if result is False:
                return Falsified(_shown(x))
            return LogicalError(
                f"body returned {type(result).__name__}, not bool, on {_shown(x)}"
            )
        return Holds()

    return Check(perform)


# ---------------------------------------------------------------------------
# bounded quantification


@dataclass(frozen=True)
class For:
    """A universally quantified proposition with an explicit sample bound."""

    bound: Generator
    body: Callable[[Any], Any]


@dataclass(frozen=True)
class NestedFor:
    """Two nested bounded quantifiers whose inner bound does not depend on
    the outer variable.  Storing the inner generator separately makes that
    independence structural, which is what licenses merging."""

    outer_bound: Generator
    inner_bound: Generator
    body: Callable[[Any, Any], Any]


def qmerge(q: NestedFor) -> For:
    """Merge nested quantifiers into one over the product of their bounds.

    The merged bound is ``gpair(outer, inner)``, so a budget of ``n``
    explores roughly sqrt(n) samples of each variable instead of spending
    the whole budget on the outer one.
    """
    body = q.body
    return For(gpair(q.outer_bound, q.inner_bound), lambda xy: body(xy[0], xy[1]))


# ---------------------------------------------------------------------------
# turning marked propositions into checks


def check(p: Meta) -> Check:
    """Decide a marked proposition.

    The proposition's shape selects the reading:

    * ``bool`` — constant verdict, confidence ignored;
    * ``None`` — the trivially true proposition;
    * ``tuple``/``list`` — conjunction of the components, in order
      (the empty collection holds);
    * :class:`For` — bounded universal quantification over its generator;
    * a callable — universal quantification over the default generator of
      the first parameter's annotated type; that parameter must be
      positional, and every other one needs a default or be variadic.

    Anything else cannot be stated as a proposition and yields a
    ``TacticalError`` when performed.
    """
    if not isinstance(p, Meta):
        return Check(lambda n: TacticalError("proposition is not marked with Meta"))
    value = p.reflect
    if isinstance(value, bool):
        return Check(lambda n: Holds() if value else Falsified())
    if value is None:
        return conjoin()
    if isinstance(value, (tuple, list)):
        # depth first, left to right, on a stack of iterators: nesting
        # costs no recursion
        clauses = []
        stack = [iter(value)]
        while stack:
            for c in stack[-1]:
                c = c.reflect if isinstance(c, Meta) else c
                if isinstance(c, (tuple, list)):
                    stack.append(iter(c))
                    break
                clauses.append(check(Meta(c)))
            else:
                stack.pop()
        return conjoin(*clauses)
    if isinstance(value, For):
        return check_with(value.bound, Meta(value.body))
    if callable(value):
        try:
            g = _domain_of(value)
        except Exception as e:  # noqa: BLE001
            diagnostic = f"cannot infer a sample domain: {e}"
            return Check(lambda n: TacticalError(diagnostic))
        return check_with(g, value)
    bad = type(value).__name__
    return Check(lambda n: TacticalError(f"no checkable reading for {bad}"))


def _domain_of(fn: Callable) -> Generator:
    sig = inspect.signature(fn)
    params = list(sig.parameters.values())
    if not params:
        raise ValueError("predicate takes no argument")
    first, *rest = params
    if first.kind not in (first.POSITIONAL_ONLY, first.POSITIONAL_OR_KEYWORD):
        kind = first.kind.description
        raise ValueError(f"first parameter {first.name!r} is {kind}, not positional")
    for p in rest:
        if p.default is p.empty and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
            raise ValueError(f"parameter {p.name!r} has no default; only the first parameter is sampled")
    try:
        hints = typing.get_type_hints(fn)
    except Exception:  # noqa: BLE001 — unresolvable forward references etc.
        hints = {}
    ann = hints.get(first.name, first.annotation)
    if ann is inspect.Parameter.empty:
        raise ValueError("first parameter lacks a type annotation")
    return default_generator(ann)
