"""Deterministic, size-bounded sample enumeration.

A :class:`Generator` is a pure function from a non-negative size budget
``n`` to a list of samples.  Every generator exported here upholds four
guarantees:

* **size bound** — ``generate(n)`` has at most ``n`` elements;
* **determinism** — two calls with the same budget return the same list;
* **prefix monotonicity** — ``generate(m)`` is a prefix of
  ``generate(n)`` whenever ``m <= n``;
* **distinctness** — no list contains duplicates.

Together these make quantified checks reproducible and monotone: raising
the budget can only expose new counterexamples, never hide one that a
smaller budget already found.

Products are enumerated in *square shells* rather than by nesting loops:
shell ``k`` holds the pairs whose larger marginal index is exactly ``k``,
so the first ``k*k`` pairs of a product cover the full ``k`` x ``k`` grid
of marginal prefixes.  This keeps both sides of a product growing at the
same ~sqrt(n) rate, which is what makes multi-argument properties worth
testing at small budgets.
"""

from __future__ import annotations

import itertools
import string as _string
import typing
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class Generator:
    """A deterministic enumerator; ``generate(n)`` yields at most ``n`` samples."""

    generate: Callable[[int], list]


def from_factory(make: Callable[[], Iterator]) -> Generator:
    """Wrap a factory of restartable iterators as a generator.

    The factory is invoked afresh on every call, so determinism and prefix
    monotonicity follow directly from the factory producing a fixed stream.
    """

    def gen(n: int) -> list:
        if n <= 0:
            return []
        return list(itertools.islice(make(), n))

    return Generator(gen)


def from_values(values: Iterable) -> Generator:
    """Enumerate a fixed finite sequence of (distinct) values."""
    vals = list(values)

    def gen(n: int) -> list:
        if n <= 0:
            return []
        return vals[:n]

    return Generator(gen)


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

    return from_factory(stream)


def naturals() -> Generator:
    """0, 1, 2, ... — used wherever a position or count is sampled."""
    return from_factory(itertools.count)


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

    return from_factory(stream)


# ---------------------------------------------------------------------------
# combinators


def gpair(g: Generator, h: Generator) -> Generator:
    """Cartesian product in square-shell order.

    Shell ``k`` contributes first the column ``(x_i, y_k)`` for ``i < k``,
    then the row ``(x_k, y_j)`` for ``j < k``, then the corner
    ``(x_k, y_k)``.  Marginals are queried at the full budget; indices that
    fall outside a (finite) marginal are skipped.
    """

    def gen(n: int) -> list:
        if n <= 0:
            return []
        xs = g.generate(n)
        ys = h.generate(n)
        if not xs or not ys:
            return []
        out: list = []
        for k in range(max(len(xs), len(ys))):
            if len(out) >= n:
                break
            if k < len(ys):
                for i in range(min(k, len(xs))):
                    out.append((xs[i], ys[k]))
            if k < len(xs):
                for j in range(min(k, len(ys))):
                    out.append((xs[k], ys[j]))
            if k < len(xs) and k < len(ys):
                out.append((xs[k], ys[k]))
        return out[:n]

    return Generator(gen)


def gmap(f: Callable[[Any], Any], g: Generator) -> Generator:
    """Elementwise image of ``g`` under ``f``.

    ``f`` must be injective on the enumerated range, otherwise the image
    would contain duplicates and the distinctness guarantee would break.
    """
    return Generator(lambda n: [f(x) for x in g.generate(n)])


def gtriple(g: Generator, h: Generator, k: Generator) -> Generator:
    """Balanced triple product (a pair of a pair, flattened)."""
    return gmap(lambda t: (t[0][0], t[0][1], t[1]), gpair(gpair(g, h), k))


_EXHAUSTED = object()


def lists_of(g: Generator, max_len: int = 4) -> Generator:
    """Short lists over ``g``: lengths 0..max_len, interleaved fairly.

    Each length-``k`` stream enumerates index tuples over the marginal
    prefix in max-index shells (the same balancing idea as `gpair`); one
    item is then taken from each live stream per round.  A stream that
    runs dry is dropped from later rounds, which can only happen once its
    element universe is exhausted — so the interleaving is stable as the
    budget grows.
    """

    def tuples_of(elems: list, k: int) -> Iterator[tuple]:
        if k == 0:
            yield ()
            return
        for m in range(len(elems)):
            for idxs in itertools.product(range(m + 1), repeat=k):
                if max(idxs) == m:
                    yield tuple(elems[i] for i in idxs)

    def gen(n: int) -> list:
        if n <= 0:
            return []
        elems = g.generate(n)
        streams = [tuples_of(elems, k) for k in range(max_len + 1)]
        out: list = []
        while streams and len(out) < n:
            survivors = []
            for s in streams:
                item = next(s, _EXHAUSTED)
                if item is _EXHAUSTED:
                    continue
                survivors.append(s)
                out.append(list(item))
                if len(out) == n:
                    return out
            streams = survivors
        return out

    return Generator(gen)


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
