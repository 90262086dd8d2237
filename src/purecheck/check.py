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
import operator
import types
import typing
from typing import Any, Callable, Optional, Union

from .generators import Generator, default_generator, gpair

# ---------------------------------------------------------------------------
# frozen values


class FrozenInstanceError(AttributeError):
    """Raised on assigning or deleting an attribute of a frozen value."""


class _Value:
    """A frozen record whose fields are its bases' fields followed by its
    class's own annotations, in order: the behaviour of
    ``@dataclass(frozen=True)`` without generating and compiling methods
    for each class.

    Fields are given by position or keyword, and a class attribute of a
    field's name is its default.  ``==`` compares the field tuples of two
    instances of one class (against any other class it returns
    `NotImplemented`), `hash` is the field tuple's, and `repr` and
    ``__match_args__`` are the dataclass ones.  Assigning or deleting an
    attribute raises `FrozenInstanceError`.  `copy`, `pickle` and
    ``__replace__`` (which `copy.replace` calls on 3.13+) build a new
    instance through the class's constructor, so a class that checks its
    fields checks them there too.

    A class may declare ``__slots__`` for its fields.  A slot with no
    annotation holds state that is not a field: it takes no part in
    ``==``, `hash`, `repr`, ``__match_args__`` or a copy.
    """

    __slots__ = ()
    __match_args__: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        # the bases' fields first, then the new ones; a slot's descriptor in
        # the class dict is where a field lives, not its default
        names, defaults, own = cls.__match_args__, dict(cls._defaults), cls.__dict__
        for name in own.get("__annotations__", ()):
            if name not in names:
                names += (name,)
            if name in own and type(own[name]) is not types.MemberDescriptorType:
                defaults[name] = own[name]
        cls.__match_args__ = names
        cls._defaults = defaults
        # `_values(x)` is the field tuple of `x`; `attrgetter` gives a tuple
        # only for two names or more
        if len(names) > 1:
            cls._values = staticmethod(operator.attrgetter(*names))
        elif names:
            get = operator.attrgetter(*names)
            cls._values = staticmethod(lambda x: (get(x),))

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        names = self.__match_args__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        # past the frozen `__setattr__` field by field: a write to `__dict__`
        # would give each instance a dict of its own, and reading a field
        # from it costs more than from the compact inline values this keeps
        # (the axiom values' fields are read once per sample)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values of a call that does not give every field by position."""
        names = cls.__match_args__
        given = dict(zip(names, args))
        values = {**cls._defaults, **given, **kwargs}
        if len(args) > len(names) or not given.keys().isdisjoint(kwargs) or values.keys() != set(names):
            shown = ", ".join(names) or "no fields"
            raise TypeError(f"{cls.__name__}() takes {shown}, each once, by position or keyword")
        return tuple(map(values.__getitem__, names))

    @staticmethod
    def _values(x: Any) -> tuple:
        return ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return (self.__class__, self._values(self))

    def __replace__(self, **changes: Any) -> _Value:
        """A copy with the ``changes`` fields given new values, built by the
        class's constructor; the name `copy.replace` calls on 3.13+."""
        return self.__class__(**dict(zip(self.__match_args__, self._values(self)), **changes))


# ---------------------------------------------------------------------------
# verdicts


class Holds(_Value):
    pass


class Falsified(_Value):
    counterexample: Optional[str] = None


class LogicalError(_Value):
    diagnostic: str


class TacticalError(_Value):
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
    body = ", ".join(render(v) for v in value)
    if not isinstance(value, tuple):
        return f"[{body}]"
    # a one-element tuple keeps its trailing comma, as `repr` writes it
    return f"({body},)" if len(value) == 1 else f"({body})"


def _clip(text: str) -> str:
    return text if len(text) <= 200 else text[:197] + "..."


def _shown(x: Any) -> str:
    """A sample's clipped rendering in a verdict.  A sample whose rendering
    raises is shown by a fixed text, so the verdict stays the one the body
    earned."""
    try:
        text = render(x)
    except Exception as e:  # noqa: BLE001 — the sample's own failure, not the check's
        text = f"<unrenderable {type(x).__name__}: {_raised(e)}>"
    return _clip(text)


def _raised(e: BaseException) -> str:
    """An exception's clipped ``repr`` in a verdict.  An exception whose
    ``repr`` raises is shown by a fixed text naming its type, so the
    verdict it decides is still returned."""
    try:
        text = repr(e)
    except Exception:  # noqa: BLE001 — the exception's own failure, not the check's
        text = f"<unrepresentable {type(e).__name__}>"
    return _clip(text)


# ---------------------------------------------------------------------------
# marking


class Meta(_Value):
    """Inert marker separating meta-logical values from operational ones.

    ``Meta(x).reflect`` is ``x``: wrapping then reflecting is the identity.
    """

    reflect: Any

    def __init__(self, reflect: Any) -> None:
        # one write past the frozen `__setattr__`
        self.__dict__["reflect"] = reflect


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


class Check(_Value):
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

    Each perform reads the samples one at a time from a new iterator over
    ``g`` and stops at the first one that does not hold, so a
    counterexample costs only the samples before it.  A memoised generator
    replays its memo and enumerates only past it; a product rebuilds its
    tuples from its marginals' memos on every perform.  The first thing
    that goes wrong in enumeration order decides: a counterexample before
    a sample whose enumeration raises is ``Falsified``, the raise itself a
    ``TacticalError``.  A budget of zero (or less) produces no samples and
    therefore holds vacuously — "no evidence" is not a failure.
    """
    fn = p.reflect if isinstance(p, Meta) else p
    # any other iterable is read as the stream of a generator
    stream = g if isinstance(g, Generator) else Generator(lambda: g)

    def perform(n: int) -> Verdict:
        # the range comes first, so the stream is not pulled past the budget
        samples = zip(range(n), stream)
        # the body's exceptions are caught inside the loop, so what reaches
        # the outer handler was raised by the enumeration
        try:
            for _, x in samples:
                try:
                    result = fn(x)
                except Exception as e:  # noqa: BLE001
                    return LogicalError(f"body raised on {_shown(x)}: {_raised(e)}")
                if result is True:
                    continue
                if result is False:
                    return Falsified(_shown(x))
                return LogicalError(
                    f"body returned {type(result).__name__}, not bool, on {_shown(x)}"
                )
        except Exception as e:  # noqa: BLE001 — sampling failure is a verdict, not a crash
            return TacticalError(f"sample enumeration failed: {_raised(e)}")
        return Holds()

    return Check(perform)


# ---------------------------------------------------------------------------
# bounded quantification


class For(_Value):
    """A universally quantified proposition with an explicit sample bound."""

    bound: Generator
    body: Callable[[Any], Any]


class NestedFor(_Value):
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
    import inspect  # here, not at the top: the package's import does not load it

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
