import hashlib
import itertools
import math
import re
import typing

import pytest

from hypothesis import given
from hypothesis import strategies as st

from purecheck import (
    Generator,
    booleans,
    characters,
    default_generator,
    from_values,
    gmap,
    gpair,
    gtriple,
    integers,
    lists_of,
    naturals,
    strings,
)
from purecheck import editor, generators, patches
from purecheck.generators import CHARACTER_ORDER, Char


def test_bool_enumeration():
    g = booleans()
    assert g.generate(1) == [False]
    assert g.generate(5) == [False, True]


def test_int_enumeration_zigzag():
    assert integers().generate(5) == [0, 1, -1, 2, -2]
    # deterministic: a second call yields the identical list
    assert integers().generate(5) == [0, 1, -1, 2, -2]


def test_char_enumeration_letters_first():
    assert characters().generate(3) == ["a", "b", "c"]
    assert CHARACTER_ORDER[:26] == "abcdefghijklmnopqrstuvwxyz"
    assert CHARACTER_ORDER[26:36] == "0123456789"
    # the whole printable range appears exactly once
    assert len(CHARACTER_ORDER) == len(set(CHARACTER_ORDER)) == 95


def test_string_enumeration_length_lex():
    g = strings()
    assert g.generate(1) == [""]
    assert g.generate(5) == ["", "a", "b", "c", "aa"]


def test_naturals():
    assert naturals().generate(4) == [0, 1, 2, 3]


def test_gpair_bool_bool_order():
    got = gpair(booleans(), booleans()).generate(4)
    assert got == [(False, False), (False, True), (True, False), (True, True)]


def test_gpair_with_empty_marginal():
    assert gpair(booleans(), from_values([])).generate(10) == []


def test_gpair_size_bound():
    g = gpair(integers(), integers())
    for n in range(1, 33):
        assert len(g.generate(n)) <= n


def test_gpair_square_prefix_covers_box():
    # the first k*k pairs are exactly the k x k grid of marginal prefixes
    g = gpair(integers(), naturals())
    for k in (1, 2, 3, 5):
        got = set(g.generate(k * k))
        xs = integers().generate(k)
        ys = naturals().generate(k)
        assert got == {(x, y) for x in xs for y in ys}


def test_gpair_balance():
    # neither marginal races ahead: max index used is O(sqrt(n))
    for n in (16, 64, 256):
        pairs = gpair(naturals(), naturals()).generate(n)
        bound = math.isqrt(2 * n) + 1
        assert max(max(i, j) for i, j in pairs) <= bound


def test_make_is_called_on_the_first_pull_and_only_once():
    calls = []

    def make():
        calls.append(None)
        return iter(range(3))

    g = Generator(make)
    assert calls == []
    assert g.generate(2) == [0, 1] and len(calls) == 1
    assert g.generate(5) == [0, 1, 2] and g.generate(5) == [0, 1, 2]
    assert len(calls) == 1


def test_an_empty_stream_ends_cleanly():
    def returns_a_value():
        # a generator's return value is not a sample, nor a stream to follow
        return iter([1, 2])
        yield

    for make in (tuple, returns_a_value):
        g = Generator(make)
        assert g.generate(3) == [] and list(g) == [] and not g._pull()


def test_a_stream_raising_on_its_first_pull_raises_again_at_index_0():
    def make_raises():
        raise RuntimeError("no factory")

    def first_raises():
        raise RuntimeError("no sample 0")
        yield

    for make in (make_raises, first_raises):
        g = Generator(make)
        raised = []
        for _ in range(3):
            with pytest.raises(RuntimeError) as e:
                g.generate(1)
            raised.append(e.value)
        assert raised[0] is raised[1] is raised[2] and g._memo == []


def test_an_interrupted_first_pull_resumes_to_the_uninterrupted_memo():
    def interrupted(before_make):
        calls = []

        def make():
            calls.append(None)
            if before_make and len(calls) == 1:
                raise KeyboardInterrupt
            for x in range(4):
                if not before_make and len(calls) == 1:
                    raise KeyboardInterrupt
                yield x

        return make

    for before_make in (True, False):
        g = Generator(interrupted(before_make))
        with pytest.raises(KeyboardInterrupt):
            g.generate(3)
        assert g.generate(3) == [0, 1, 2] and g.generate(9) == [0, 1, 2, 3]


def _counting(pulls):
    """A naturals-like stream that records each sample it enumerates."""

    def make():
        for x in itertools.count():
            pulls.append(x)
            yield x

    return Generator(make)


def test_gpair_pulls_about_sqrt_n_from_each_marginal():
    for n in (1, 2, 4, 5, 10, 100, 1000):
        left, right = [], []
        assert len(gpair(_counting(left), _counting(right)).generate(n)) == n
        assert len(left) <= math.isqrt(n) + 1
        assert len(right) <= math.isqrt(n) + 1


def test_gpair_matches_the_full_square_shell_order():
    # the shell order written out over whole marginal prefixes
    def shells(xs, ys):
        out = []
        for k in range(max(len(xs), len(ys))):
            if k < len(ys):
                out += [(x, ys[k]) for x in xs[:k]]
            if k < len(xs):
                out += [(xs[k], y) for y in ys[:k]]
            if k < len(xs) and k < len(ys):
                out.append((xs[k], ys[k]))
        return out

    marginals = [
        ([0, 1, 2], list(range(50))),
        (list(range(50)), [0]),
        ([], [0, 1]),
        (list(range(30)), list(range(30))),
    ]
    for xs, ys in marginals:
        got = gpair(from_values(xs), from_values(ys)).generate(1000)
        assert got == (shells(xs, ys) if xs and ys else [])


def _shell_order(lengths, n):
    """The first ``n`` index tuples under ``lengths`` (``None`` unbounded),
    sorted by largest index, then lexicographically."""
    out = []
    for m in itertools.count():
        if len(out) >= n or 0 in lengths or all(k is not None and k <= m for k in lengths):
            return out[:n]
        ranges = [range(m + 1 if k is None else min(k, m + 1)) for k in lengths]
        out += [t for t in itertools.product(*ranges) if max(t) == m]


def test_shells_follow_max_index_then_lexicographic_order():
    # each marginal's samples are its own indices
    for columns in range(1, 5):
        for lengths in itertools.product((0, 1, 2, 3, 5, None), repeat=columns):
            cols = tuple(naturals() if k is None else from_values(range(k)) for k in lengths)
            got = list(itertools.islice(generators._shells(cols), 60))
            assert got == _shell_order(lengths, 60), lengths


def test_gmap_image():
    assert gmap(lambda x: 2 * x, integers()).generate(3) == [0, 2, -2]


def test_gmap_identity():
    g = gmap(lambda x: x, strings())
    assert g.generate(10) == strings().generate(10)


def test_gmap_distinct_under_injection():
    got = gmap(lambda x: (x, x), integers()).generate(16)
    assert len(set(got)) == 16


def test_gtriple_flattens():
    got = gtriple(booleans(), booleans(), booleans()).generate(8)
    assert all(isinstance(t, tuple) and len(t) == 3 for t in got)
    assert got[0] == (False, False, False)
    assert len(set(got)) == len(got)


def test_lists_short_and_varied():
    got = lists_of(integers()).generate(12)
    assert got[0] == []
    assert all(len(xs) <= 4 for xs in got)
    lengths = {len(xs) for xs in got}
    assert {0, 1, 2} <= lengths


def _filtered_lists_of(elems, n):
    """Reference: the first ``n`` lists of `lists_of` over a finite prefix
    of its marginal, each shell found by filtering the whole index cube."""

    def tuples_of(k):
        if k == 0:
            yield ()
            return
        for m in range(len(elems)):
            for idxs in itertools.product(range(m + 1), repeat=k):
                if max(idxs) == m:
                    yield tuple(elems[i] for i in idxs)

    streams = [tuples_of(k) for k in range(5)]
    out = []
    while streams and len(out) < n:
        survivors = []
        for s in streams:
            item = next(s, None)
            if item is None:
                continue
            survivors.append(s)
            out.append(list(item))
            if len(out) == n:
                return out
        streams = survivors
    return out


def test_lists_of_matches_the_filtered_shell_enumeration():
    assert lists_of(integers()).generate(2000) == _filtered_lists_of(integers().generate(2000), 2000)
    # over two values the streams run dry: 1 + 2 + 4 + 8 + 16 lists in all
    got = lists_of(booleans()).generate(100)
    assert len(got) == 31 and got == _filtered_lists_of([False, True], 100)
    assert lists_of(from_values([])).generate(5) == [[]]


def test_lists_of_pulls_its_marginal_on_demand():
    # the length-1 lists use a new element every round of five lists
    for n in (1, 2, 6, 100, 2000):
        pulls = []
        lists_of(_counting(pulls)).generate(n)
        assert len(pulls) <= n // 4 + 1


def _digest(samples):
    return hashlib.sha256(repr(samples).encode()).hexdigest()


def test_enumeration_order_is_pinned():
    # every default-suite entry holds, so its report cannot see a reordered
    # product; these digests pin the samples themselves, in order
    assert _digest(patches.words.generate(3000)) == (
        "dbf332a52dce4fb8b598a671e1bb7f31bf271f0af79c1fa8018ed6a2f1566b1a"
    )
    assert _digest(editor.editors.generate(3000)) == (
        "d8908dbd450ecada6619a380eba5da5f91060d18bb6714b0b3645605de165df7"
    )
    assert _digest(gpair(editor.editors, editor.editors).generate(1500)) == (
        "12f0462cfb726254735c9db61893b226afb1eb23d4ee4b6847a9b513ca9bd853"
    )
    assert _digest(lists_of(integers()).generate(2000)) == (
        "4c8c5a49d7c787e2f170aadeeef6abf2ebc365bf63817c7898dcd7fd2faf347a"
    )


def test_editors_order_is_pinned_at_30000():
    # past the 3000 of the pin above: weight classes 8 and 9, whose chains
    # reuse the memoised tails of every lighter class
    assert _digest(editor.editors.generate(30000)) == (
        "4f74eaa71eeb0c41ff363069d0bc0b87f3f82625100b713b25edaf19354ada0e"
    )


def test_default_generator_resolution():
    assert default_generator(bool).generate(2) == [False, True]
    assert default_generator(int).generate(3) == [0, 1, -1]
    assert default_generator(str).generate(2) == ["", "a"]
    assert default_generator(Char).generate(2) == ["a", "b"]
    assert default_generator(tuple[bool, bool]).generate(1) == [(False, False)]
    assert default_generator(list[int]).generate(1) == [[]]


def test_default_generator_unknown_type():
    class Mystery:
        pass

    try:
        default_generator(Mystery)
    except KeyError:
        pass
    else:
        raise AssertionError("expected a KeyError for an unregistered type")


def test_default_generator_rejects_a_list_of_several_types():
    # like its siblings, a malformed `list[...]` is a KeyError naming the type
    for t in (list[int, str], typing.List):
        with pytest.raises(KeyError, match=re.escape(f"no default generator for {t!r}")):
            default_generator(t)


def test_default_generator_of_triples():
    triples = default_generator(tuple[bool, bool, bool]).generate(8)
    assert triples == gtriple(booleans(), booleans(), booleans()).generate(8)
    assert sorted(triples) == sorted(itertools.product([False, True], repeat=3))
    with pytest.raises(KeyError, match="no default generator for 4-tuples"):
        default_generator(tuple[int, int, int, int])


# ---------------------------------------------------------------------------
# the four generator guarantees, across every exported generator


def exported_generators():
    return {
        "bool": booleans(),
        "int": integers(),
        "nat": naturals(),
        "char": characters(),
        "string": strings(),
        "pair<bool,int>": gpair(booleans(), integers()),
        "pair<int,int>": gpair(integers(), integers()),
        "triple<int>": gtriple(integers(), integers(), integers()),
        "list<int>": lists_of(integers()),
    }


def _key(x):
    return repr(x)


def test_generator_contract_at_fixed_budgets():
    for name, g in exported_generators().items():
        previous = None
        for n in (0, 1, 2, 7, 32):
            got = g.generate(n)
            again = g.generate(n)
            assert got == again, f"{name}: nondeterministic at n={n}"
            assert len(got) <= n, f"{name}: size bound broken at n={n}"
            keys = [_key(x) for x in got]
            assert len(set(keys)) == len(keys), f"{name}: duplicates at n={n}"
            if previous is not None:
                assert got[: len(previous)] == previous, f"{name}: not prefix-monotone"
            previous = got


@given(st.integers(min_value=0, max_value=48), st.integers(min_value=0, max_value=48))
def test_prefix_monotonicity_random_budgets(m, n):
    if m > n:
        m, n = n, m
    for g in (integers(), strings(), gpair(booleans(), integers()), lists_of(booleans())):
        small = g.generate(m)
        large = g.generate(n)
        assert large[: len(small)] == small
