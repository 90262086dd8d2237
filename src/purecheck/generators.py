"""Deterministic, size-bounded sample enumeration.

A :class:`Generator` is a memoised, restartable stream of samples, built
from a factory of iterators.  One method, ``_pull``, appends one sample
to the memo from one live iterator; iterating replays the memo and pulls
at its frontier, so a memoised generator enumerates each sample at most
once per process, and ``generate(n)`` is the memo's first ``n`` samples.
The factory is called on the first pull, which installs its iterator as
the live one, so every later pull is one ``next`` on the factory's own
iterator.
Every generator exported here upholds four guarantees:

* **size bound** — ``generate(n)`` has at most ``n`` elements;
* **determinism** — two calls with the same budget return the same list;
* **prefix monotonicity** — ``generate(m)`` is a prefix of
  ``generate(n)`` whenever ``m <= n``;
* **distinctness** — no list contains duplicates.

The first three hold by construction: every budget reads a prefix of one
fixed stream.  Together they make quantified checks reproducible and
monotone: raising the budget can only expose new counterexamples, never
hide one that a smaller budget already found.  The price of a memo is
memory: a memoised generator keeps every sample it has enumerated, so a
process holds as many samples as the highest budget it has asked of
each one.

Products are enumerated in *max-index shells* rather than by nesting
loops: shell ``m`` holds the tuples whose largest marginal index is
exactly ``m``, so the first ``m*m`` pairs of a product cover the full
``m`` x ``m`` grid of marginal prefixes.  This keeps every side of a
product growing at the same rate, which is what makes multi-argument
properties worth testing at small budgets, and it means a product pulls
only ~sqrt(n) samples from each marginal.  One enumerator, `_shells`,
serves `gpair`, `gtriple` (one shell product of three columns, not a
pair of pairs), the ``tuple[...]`` defaults of any arity and the
fixed-length streams of `lists_of`; it reads each marginal by index from
the marginal's own memo.  A shell is a few blocks of column slices
(`_shell`), and a product is a C-level chain
(``itertools.chain.from_iterable``) of each block's
``itertools.product``: no Python frame runs per tuple, only one per
block.

So a product keeps no memo of its own: every tuple is rebuilt from its
marginals' memos, and iterating a product or asking it for
``generate(n)`` runs `_shells` afresh.  A product shared by several
checks is enumerated once per check (``pairs_g`` in
`purecheck.editor.adequacy_suite`, once for each of its three entries).
Only a reader that takes a product by index, as an enclosing product
does, fills the product's memo, and only with the prefix it reads.
"""

from __future__ import annotations

import itertools
import operator
import typing
from types import TracebackType
from typing import Any, Callable, Iterable, Iterator, Optional


def _resume(make: Callable[[], Iterable], start: int) -> Iterator:
    """The trampoline that starts or resumes a stream: a generator, so that
    ``make`` is first called on the first pull, which yields no sample but
    returns the factory's own iterator advanced past ``start`` samples
    (the value of its ``StopIteration``), for `Generator._pull` to install
    as the live iterator."""
    live = iter(make())
    next(itertools.islice(live, start, start), None)
    return live
    yield  # never reached: it makes this function a generator


class Generator:
    """A deterministic enumerator: a memoised stream over ``make()``.

    ``make`` is a zero-argument factory of iterables that must produce the
    same sequence every time it is called.  It is called once, on the
    first pull, and again only to resume after an interruption (see
    ``_pull``).
    """

    def __init__(self, make: Callable[[], Iterable]):
        self._make = make
        self._memo: list = []
        self._live: Iterator = _resume(make, 0)
        self._error: Optional[Exception] = None
        self._error_tb: Optional[TracebackType] = None

    def _pull(self) -> bool:
        """Append one sample to the memo; false if the stream has ended.

        An exception raised while enumerating is stored and raised again at
        the same index on every later pull, so a stream that failed never
        looks shorter than it is.  An interrupt (``KeyboardInterrupt`` and
        the like) is not stored: the next pull resumes after the memo.  A
        `_resume` trampoline that ends hands over the factory's iterator,
        which is then pulled in its place.
        """
        if self._error is not None:
            # the original traceback, so that re-raising does not grow it
            raise self._error.with_traceback(self._error_tb)
        while True:
            try:
                self._memo.append(next(self._live))
                return True
            except StopIteration as stop:
                if getattr(self._live, "gi_code", None) is not _resume.__code__:
                    return False
                # the trampoline has returned the factory's own iterator
                self._live = stop.value
            except Exception as e:
                self._error, self._error_tb = e, e.__traceback__
                raise
            except BaseException:
                self._live = _resume(self._make, len(self._memo))
                raise

    def _upto(self, n: int) -> list:
        """Extend the memo to at least ``n`` samples, one `_pull` at a
        time, and return it; it comes back shorter only if the stream has
        ended."""
        memo = self._memo
        while len(memo) < n and self._pull():
            pass
        return memo

    def __iter__(self) -> Iterator:
        """Replay the memo, pulling one sample at a time at its frontier."""
        memo = self._memo
        i = 0
        while i < len(memo) or self._pull():
            yield memo[i]
            i += 1

    def generate(self, n: int) -> list:
        """The first ``n`` samples (none for ``n <= 0``)."""
        return self._upto(n)[: max(n, 0)]


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
    seen = dict.fromkeys("abcdefghijklmnopqrstuvwxyz0123456789")
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
    """All strings over STRING_ALPHABET in length-lexicographic order,
    joined in C from one chain of per-length products."""

    def stream() -> Iterator[str]:
        by_length = (itertools.product(STRING_ALPHABET, repeat=n) for n in itertools.count())
        return map("".join, itertools.chain.from_iterable(by_length))

    return Generator(stream)


# ---------------------------------------------------------------------------
# combinators


def _shell(memos: tuple, m: int) -> list:
    """The tuples over ``memos`` whose largest index is ``m`` (at least one
    column), as a list of blocks: a block is a tuple of column slices, and
    the products of the blocks, one after another, list those tuples in
    lexicographic order of their indices.

    First come the heads below ``m`` with the tails that reach ``m``: one
    block when the tails are one block, as they are for a pair, else a
    block per head and tail block.  Last comes the row block: head ``m``
    with every tail whose indices are at most ``m``.
    """
    first, rest = memos[0], memos[1:]
    blocks = []
    if rest:
        # the tails that reach index m are the same for every head below m
        tails = _shell(rest, m)
        if len(tails) == 1:
            blocks.append((first[:m], *tails[0]))
        else:
            blocks += [((x,), *tail) for x in first[:m] for tail in tails]
    if m < len(first):
        blocks.append(((first[m],), *(xs[: m + 1] for xs in rest)))
    return blocks


def _shells(cols: tuple) -> Iterator[tuple]:
    """The product of the marginals ``cols`` in max-index shells.

    Shell ``m`` holds the tuples whose largest index is ``m``, in
    lexicographic index order; it reads the marginals' memos by index,
    pulling sample ``m`` of each when the shell begins.  Indices past the
    end of a finite marginal are skipped, and the product ends when every
    marginal has run dry (at once, if any is empty).
    """

    def blocks() -> Iterator[Iterator[tuple]]:
        for m in itertools.count():
            memos = tuple(g._upto(m + 1) for g in cols)
            if not all(memos) or all(len(xs) <= m for xs in memos):
                return
            for block in _shell(memos, m):
                yield itertools.product(*block)

    # a C-level chain: no Python frame resumes per tuple, only per block
    return itertools.chain.from_iterable(blocks())


class _Product(Generator):
    """The product of the marginals ``cols`` in max-index shells, with no
    memo of its own: iterating it and ``generate(n)`` run `_shells`
    afresh over the marginals' memos and store nothing.  Only `_upto`,
    through which an enclosing product reads it by index, fills its memo."""

    def __init__(self, cols: tuple):
        super().__init__(lambda: _shells(cols))

    def __iter__(self) -> Iterator[tuple]:
        return self._make()

    def generate(self, n: int) -> list:
        # the range comes first, so the shells are not pulled past the budget
        return list(map(operator.itemgetter(1), zip(range(n), self._make())))


def gpair(g: Generator, h: Generator) -> Generator:
    """Cartesian product in square-shell order.

    Shell ``k`` contributes first the column ``(x_i, y_k)`` for ``i < k``,
    then the row ``(x_k, y_j)`` for ``j < k``, then the corner
    ``(x_k, y_k)``: the index pairs whose larger index is ``k``, in
    lexicographic order (see `_shells`).
    """
    return _Product((g, h))


def gmap(f: Callable[[Any], Any], g: Generator) -> Generator:
    """Elementwise image of ``g`` under ``f``.

    ``f`` must be injective on the enumerated range, otherwise the image
    would contain duplicates and the distinctness guarantee would break.
    """
    return Generator(lambda: map(f, g))


def gtriple(g: Generator, h: Generator, k: Generator) -> Generator:
    """Triple product in max-index shells, the three-column case of
    `gpair`'s order.

    Balanced: at budget ``n`` each component takes about ``n ** (1/3)``
    distinct values (14, 15 and 15 over three ``integers()`` at 3000;
    31, 32 and 32 at 30000).
    """
    return _Product((g, h, k))


_EXHAUSTED = object()


def lists_of(g: Generator) -> Generator:
    """Short lists over ``g``: every length from 0 to 4, interleaved fairly.

    The length-``k`` lists are the ``k``-fold product of ``g`` with itself
    in max-index shells, the same enumerator as `gpair`, reading ``g``'s
    memo by index; one item is then taken from each live stream per round.
    A stream that runs dry is dropped from later rounds, which can only
    happen once its element universe is exhausted — so the interleaving is
    the same at every budget.  The bound is fixed, so every list generator
    over ``g``, the ``list[A]`` default included, enumerates one stream.
    """

    def stream() -> Iterator[list]:
        streams = [iter([()])] + [_shells((g,) * k) for k in range(1, 5)]
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

    Understands registered concrete types plus ``tuple[A1, ..., Ak]`` for
    any fixed ``k >= 1``, one max-index shell product of its parts, and
    ``list[A]``, built from registered components.
    """
    origin = typing.get_origin(t)
    if origin is tuple:
        args = typing.get_args(t)
        # `tuple[()]` (whose arguments read ``((),)`` on Python 3.10) and
        # the variable-length `tuple[A, ...]` have no columns to enumerate
        if not args or args == ((),) or args[-1] is Ellipsis:
            raise KeyError(f"no default generator for {t!r}")
        parts = tuple(default_generator(a) for a in args)
        return _Product(parts)
    if origin is list:
        args = typing.get_args(t)
        if len(args) != 1:
            raise KeyError(f"no default generator for {t!r}")
        return lists_of(default_generator(args[0]))
    try:
        return _DEFAULTS[t]
    except (KeyError, TypeError):
        raise KeyError(f"no default generator for {t!r}") from None


register_default(bool, booleans())
register_default(int, integers())
register_default(str, strings())
register_default(Char, characters())
