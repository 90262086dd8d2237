"""Deterministic, size-bounded sample enumeration.

A :class:`Generator` is a memoised, restartable stream of samples, built
from a factory of iterators.  Iterating it replays the samples already
enumerated and extends them from one live iterator, so each sample is
enumerated at most once per generator per process; ``generate(n)`` is the
first ``n`` samples as a list.  Every generator exported here upholds four
guarantees:

* **size bound** — ``generate(n)`` has at most ``n`` elements;
* **determinism** — two calls with the same budget return the same list;
* **prefix monotonicity** — ``generate(m)`` is a prefix of
  ``generate(n)`` whenever ``m <= n``;
* **distinctness** — no list contains duplicates.

The first three hold by construction: every budget reads a prefix of one
fixed stream.  Together they make quantified checks reproducible and
monotone: raising the budget can only expose new counterexamples, never
hide one that a smaller budget already found.  The price is memory: a
generator keeps every sample it has enumerated, so a process holds as many
samples as the highest budget it has asked of each generator.

Products are enumerated in *square shells* rather than by nesting loops:
shell ``k`` holds the pairs whose larger marginal index is exactly ``k``,
so the first ``k*k`` pairs of a product cover the full ``k`` x ``k`` grid
of marginal prefixes.  This keeps both sides of a product growing at the
same ~sqrt(n) rate, which is what makes multi-argument properties worth
testing at small budgets, and it means a product pulls only ~sqrt(n)
samples from each marginal.
"""

from __future__ import annotations

import itertools
import string as _string
import typing
from types import TracebackType
from typing import Any, Callable, Iterable, Iterator, Optional


def _resume(make: Callable[[], Iterable], start: int) -> Iterator:
    # A generator, so that ``make`` is first called on the first pull.
    yield from itertools.islice(make(), start, None)


class Generator:
    """A deterministic enumerator: a memoised stream over ``make()``.

    ``make`` is a zero-argument factory of iterables that must produce the
    same sequence every time it is called.  It is called once, lazily, and
    again only to resume after an interruption (see ``__iter__``).
    """

    def __init__(self, make: Callable[[], Iterable]):
        self._make = make
        self._memo: list = []
        self._live: Iterator = _resume(make, 0)
        self._error: Optional[Exception] = None
        self._error_tb: Optional[TracebackType] = None

    def __iter__(self) -> Iterator:
        """Replay the memo, then extend it from the live iterator.

        An exception raised while enumerating is stored and raised again at
        the same index on every later pull, so a stream that failed never
        looks shorter than it is.  An interrupt (``KeyboardInterrupt`` and
        the like) is not stored: the next pull resumes after the memo.
        """
        memo = self._memo
        i = 0
        while True:
            if i == len(memo):
                if self._error is not None:
                    # the original traceback, so that re-raising does not grow it
                    raise self._error.with_traceback(self._error_tb)
                try:
                    memo.append(next(self._live))
                except StopIteration:
                    return
                except Exception as e:
                    self._error, self._error_tb = e, e.__traceback__
                    raise
                except BaseException:
                    self._live = _resume(self._make, len(memo))
                    raise
            yield memo[i]
            i += 1

    def generate(self, n: int) -> list:
        """The first ``n`` samples (none for ``n <= 0``)."""
        return list(itertools.islice(self, max(n, 0)))


def from_values(values: Iterable) -> Generator:
    """Enumerate a fixed finite sequence of (distinct) values."""
    return Generator(tuple(values).__iter__)


# ---------------------------------------------------------------------------
# primitive enumerations


def booleans() -> Generator:
    return from_values([False, True])


def integers() -> Generator:
    """All integers, zig-zagging outward from zero: 0, 1, -1, 2, -2, ..."""

    def stream() -> Iterator[int]:
        yield 0
        k = 1
        while True:
            yield k
            yield -k
            k += 1

    return Generator(stream)


def naturals() -> Generator:
    """0, 1, 2, ... — used wherever a position or count is sampled."""
    return Generator(itertools.count)


def _character_order() -> str:
    seen = dict.fromkeys(_string.ascii_lowercase + _string.digits)
    for code in range(0x20, 0x7F):
        seen.setdefault(chr(code))
    return "".join(seen)


#: Lowercase letters first, then digits, then the remaining printable ASCII
#: in code order — counterexamples should be readable before they are exotic.
CHARACTER_ORDER = _character_order()


class Char:
    """Marker type for single-character samples (length-1 host strings)."""


def characters() -> Generator:
    return from_values(CHARACTER_ORDER)


#: Alphabet used by the default string enumeration.  Short strings over a
#: tiny alphabet collide and overlap in useful ways; character variety is
#: exercised separately via `characters`.
STRING_ALPHABET = "abc"


def strings() -> Generator:
    """All strings over STRING_ALPHABET in length-lexicographic order."""

    def stream() -> Iterator[str]:
        length = 0
        while True:
            for tup in itertools.product(STRING_ALPHABET, repeat=length):
                yield "".join(tup)
            length += 1

    return Generator(stream)


# ---------------------------------------------------------------------------
# combinators


def gpair(g: Generator, h: Generator) -> Generator:
    """Cartesian product in square-shell order.

    Shell ``k`` contributes first the column ``(x_i, y_k)`` for ``i < k``,
    then the row ``(x_k, y_j)`` for ``j < k``, then the corner
    ``(x_k, y_k)``.  ``x_k`` and ``y_k`` are pulled when shell ``k``
    begins; indices past the end of a finite marginal are skipped, and the
    product ends when both marginals have run dry (at once, if either is
    empty).
    """

    def stream() -> Iterator[tuple]:
        xs: list = []
        ys: list = []
        x_source, y_source = iter(g), iter(h)
        for k in itertools.count():
            if len(xs) == k:
                xs.extend(itertools.islice(x_source, 1))
            if len(ys) == k:
                ys.extend(itertools.islice(y_source, 1))
            if not xs or not ys or (len(xs) <= k and len(ys) <= k):
                return
            if k < len(ys):
                y = ys[k]
                for x in xs[:k]:
                    yield (x, y)
            if k < len(xs):
                x = xs[k]
                for y in ys[:k]:
                    yield (x, y)
                if k < len(ys):
                    yield (x, ys[k])

    return Generator(stream)


def gmap(f: Callable[[Any], Any], g: Generator) -> Generator:
    """Elementwise image of ``g`` under ``f``.

    ``f`` must be injective on the enumerated range, otherwise the image
    would contain duplicates and the distinctness guarantee would break.
    """
    return Generator(lambda: map(f, g))


def gtriple(g: Generator, h: Generator, k: Generator) -> Generator:
    """Balanced triple product (a pair of a pair, flattened)."""
    return gmap(lambda t: (t[0][0], t[0][1], t[1]), gpair(gpair(g, h), k))


_EXHAUSTED = object()


def _shell(elems: list, m: int, k: int) -> Iterator[tuple]:
    """The length-``k`` tuples over ``elems[:m+1]`` that contain ``elems[m]``,
    in lexicographic order of their indices (``k >= 1``)."""
    if k > 1:
        for x in elems[:m]:
            for rest in _shell(elems, m, k - 1):
                yield (x,) + rest
    head = (elems[m],)
    for rest in itertools.product(elems[: m + 1], repeat=k - 1):
        yield head + rest


def lists_of(g: Generator, max_len: int = 4) -> Generator:
    """Short lists over ``g``: lengths 0..max_len, interleaved fairly.

    Each length-``k`` stream enumerates index tuples over the marginal in
    max-index shells (the same balancing idea as `gpair`); one item is
    then taken from each live stream per round.  The streams share one
    element list, pulled from ``g`` only when a shell first needs it.  A
    stream that runs dry is dropped from later rounds, which can only
    happen once its element universe is exhausted — so the interleaving is
    the same at every budget.
    """

    def stream() -> Iterator[list]:
        elems: list = []
        source = iter(g)

        def tuples_of(k: int) -> Iterator[tuple]:
            for m in itertools.count():
                if len(elems) == m:
                    elems.extend(itertools.islice(source, 1))
                if len(elems) == m:
                    return
                yield from _shell(elems, m, k)

        streams = [iter([()])] + [tuples_of(k) for k in range(1, max_len + 1)]
        while streams:
            survivors = []
            for s in streams:
                item = next(s, _EXHAUSTED)
                if item is _EXHAUSTED:
                    continue
                survivors.append(s)
                yield list(item)
            streams = survivors

    return Generator(stream)


# ---------------------------------------------------------------------------
# default generators per type

_DEFAULTS: dict = {}


def register_default(key: Any, gen: Generator) -> None:
    """Associate a type (or type-like marker) with its canonical generator."""
    _DEFAULTS[key] = gen


def default_generator(t: Any) -> Generator:
    """Resolve the canonical generator for a type expression.

    Understands registered concrete types plus ``tuple[A, B]``,
    ``tuple[A, B, C]`` and ``list[A]`` built from registered components.
    """
    origin = typing.get_origin(t)
    if origin is tuple:
        args = typing.get_args(t)
        parts = [default_generator(a) for a in args]
        if len(parts) == 2:
            return gpair(parts[0], parts[1])
        if len(parts) == 3:
            return gtriple(parts[0], parts[1], parts[2])
        raise KeyError(f"no default generator for {len(parts)}-tuples")
    if origin is list:
        (elem,) = typing.get_args(t)
        return lists_of(default_generator(elem))
    try:
        return _DEFAULTS[t]
    except (KeyError, TypeError):
        raise KeyError(f"no default generator for {t!r}") from None


register_default(bool, booleans())
register_default(int, integers())
register_default(str, strings())
register_default(Char, characters())
