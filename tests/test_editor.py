"""The transducer model: evaluation, splicing, normal forms, the decision
procedure for word equivalence, and constructive witnesses.

Frozen expected structures in this file were derived by hand-running the
splicing rules and cross-checked against `brute_force_equiv`, which compares
behaviour pointwise over a finite string universe.
"""
import copy
import hashlib
import itertools
import pickle
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purecheck import (
    DONE,
    Def,
    DefUndef,
    Diff,
    Edit,
    EditOp,
    Fail,
    Holds,
    Ins,
    Literal,
    Polarity,
    Try,
    Undef,
    Word,
    action,
    brute_force_equiv,
    check,
    cons_eq,
    editor,
    editor_action,
    editors,
    exists,
    exists_or_vacuous,
    is_normal,
    is_total,
    parse_word,
    reify,
    render,
    render_editor,
    semantics,
    splice,
    witness_def,
    witness_def_undef,
    witness_diff,
    witness_undef,
    word_equiv,
    words,
)
from purecheck.check import FrozenInstanceError
from purecheck.generators import CHARACTER_ORDER, Generator, gpair

# two different spellings of "insert an a at 2, then remove the b after it"
LEFT = parse_word("+2:a,-3:b")
RIGHT = parse_word("-2:b,+2:a")


def all_strings(alphabet="ab", max_len=6):
    from itertools import product

    out = [""]
    for k in range(1, max_len + 1):
        out.extend("".join(t) for t in product(alphabet, repeat=k))
    return out


# -- evaluation ---------------------------------------------------------------


def test_editor_action_rejects_what_is_not_an_automaton():
    # the fields of an `Ins` are not an automaton without it
    for value in ((("",), ()), "abc", None):
        with pytest.raises(TypeError, match="not an automaton"):
            editor_action("abc", value)


def test_done_echoes_input():
    for s in ("", "a", "xyz"):
        assert editor_action(s, DONE) == s


def test_fail_rejects_everything():
    assert editor_action("", Fail()) is None
    assert editor_action("abc", Fail()) is None


def test_skip_requires_a_character():
    e = Try(Ins(("", ""), (1,)))
    assert editor_action("", e) is None
    assert editor_action("a", e) == "a"
    assert editor_action("ab", e) == "ab"


def test_del_requires_the_exact_character():
    e = Try(Ins(("", ""), ("b",)))
    assert editor_action("bcd", e) == "cd"
    assert editor_action("acd", e) is None
    assert editor_action("", e) is None


def test_return_echoes_unread_suffix():
    e = Try(Ins(("x",), ()))
    assert editor_action("abc", e) == "xabc"


# -- splicing keeps the normal form --------------------------------------------


def test_ins_of_return_is_plain():
    # an automaton without steps has nothing to hoist across
    assert splice(Ins(("a",), ()), True, 1, "b") == Ins(("ab",), ())


def test_ins_hoisting_preserves_behaviour():
    # deleting "y" at output 1 pins the Skip to Del 'y' in front of "z"
    raw = Ins(("x", "z"), ("y",))
    fixed = splice(Ins(("x", "z"), (1,)), False, 1, "y")
    assert not is_normal(raw) and is_normal(fixed)
    for s in ("", "y", "ya", "ay", "yy"):
        assert editor_action(s, raw) == editor_action(s, fixed)


def test_ins_hoists_across_deletion():
    got = splice(Ins(("x", "z"), (1,)), False, 1, "y")
    assert got == Ins(("xz", ""), ("y",))


def test_ins_leaves_skip_alone():
    # an insertion behind a Skip stays there, and so does a prefix behind
    # the Skip that follows a new Del
    node = splice(Ins(("x", ""), (1,)), True, 2, "z")
    assert node == Ins(("x", "z"), (1,))
    pinned = splice(Ins(("x", "z"), (2,)), False, 1, "y")
    assert pinned == Ins(("x", "", "z"), ("y", 1))


def test_is_normal():
    assert is_normal(DONE)
    assert is_normal(Fail())
    assert not is_normal(Ins(("a", "c"), ("b",)))
    assert is_normal(Ins(("ac", ""), ("b",)))


# -- splicing: words denote editors -------------------------------------------


def test_semantics_of_empty_word():
    assert semantics(Word(())) == Try(DONE)


def test_semantics_of_single_insert():
    got = semantics(parse_word("+0:a"))
    assert got == Try(Ins(("a",), ()))


def test_semantics_of_deep_insert():
    got = semantics(parse_word("+2:a"))
    assert got == Try(Ins(("", "a"), (2,)))


def test_semantics_of_single_delete():
    got = semantics(parse_word("-0:b"))
    assert got == Try(Ins(("", ""), ("b",)))


def test_semantics_of_impossible_word():
    # delete 'x' at 0 then delete 'y' at the same spot where 'x' just was
    w = parse_word("-0:x,+0:x,-0:y")
    # x reappears at 0, so deleting y there can never succeed... unless the
    # automaton still accepts strings starting xy? work it out by behaviour:
    for s in all_strings("xy", 4):
        assert editor_action(s, semantics(w)) == action(s, w)


def test_the_two_spellings_coincide():
    assert semantics(LEFT) == semantics(RIGHT)
    assert word_equiv(LEFT, RIGHT)
    expected = Try(Ins(("", "a", ""), (2, "b")))
    assert semantics(LEFT) == expected


def test_negative_literal_undoes():
    w = Word((Literal(Polarity.NEGATIVE, parse_word("+0:a").literals[0].atom),))
    # removing a leading 'a': defined exactly on strings starting with 'a'
    assert editor_action("abc", semantics(w)) == "bc"
    assert editor_action("bc", semantics(w)) is None


def test_semantics_always_normal():
    for w in words.generate(400):
        e = semantics(w)
        assert is_normal(e)


def test_semantics_matches_action_pointwise():
    universe = all_strings("ab", 5)
    for w in words.generate(250):
        e = semantics(w)
        for s in universe:
            assert editor_action(s, e) == action(s, w), (render(w), s)


def test_word_equiv_agrees_with_brute_force():
    # generated words at this budget only mention characters a, b, c, so
    # strings over those three letters form a complete behavioural probe
    ws = words.generate(30)
    for i, x in enumerate(ws):
        for y in ws[i + 1 :]:
            assert word_equiv(x, y) == brute_force_equiv(x, y, "abc", 6), (
                render(x),
                render(y),
            )


# -- splicing editors directly -------------------------------------------------


def test_a_negative_position_never_applies():
    from purecheck.patches import from_list

    assert splice(DONE, True, -1, "a") is None
    assert splice(DONE, False, -1, "a") is None
    assert action("ab", Edit(EditOp.INSERT, -1, "a")) is None
    w = from_list([Edit(EditOp.INSERT, -1, "a")])
    assert semantics(w) == Fail()
    never = parse_word("+0:a,-0:b")
    assert word_equiv(w, never)
    assert brute_force_equiv(w, never, "ab", 3)


def test_editor_insert_at_front():
    assert splice(Ins(("",), ()), True, 0, "a") == Ins(("a",), ())


def test_editor_insert_beyond_prefix():
    got = splice(Ins(("",), ()), True, 2, "a")
    assert got == Ins(("", "a"), (2,))


def test_editor_delete_forces_mismatch_to_nothing():
    assert splice(Ins(("x",), ()), False, 0, "y") is None
    assert splice(Ins(("x",), ()), False, 0, "x") == Ins(("",), ())


def test_editor_delete_skip_becomes_del():
    start = Ins(("", ""), (1,))
    assert splice(start, False, 0, "c") == Ins(("", ""), ("c",))


def test_splices_agree_with_string_edits_on_enumerated_automata():
    # every splice position of the first automata, Del chains, long runs
    # and trailing runs included, against the edit applied to the output
    from purecheck.patches import string_delete, string_insert

    inputs = all_strings(max_len=5)
    for x in editors.generate(250):
        if not isinstance(x, Try):
            continue
        a = x.insertion
        outputs = [editor_action(s, a) for s in inputs]
        width = sum(map(len, a.prefixes)) + sum(c if type(c) is int else 1 for c in a.steps)
        for i, c in itertools.product(range(width + 3), "ab"):
            for insert, edit in ((True, string_insert), (False, string_delete)):
                got = splice(a, insert, i, c)
                assert got is None or is_normal(got)
                for s, out in zip(inputs, outputs):
                    want = None if out is None else edit(out, i, c)
                    assert (None if got is None else editor_action(s, got)) == want, (x, i, c, s)


def test_splice_on_an_automaton_takes_one_character():
    # a longer argument built a `Del 'ab'` step whose definedness witness
    # the automaton rejects, and an empty one raised from deep in the split
    a = Ins(["", ""], [3])
    for insert, c in itertools.product((True, False), ("ab", "", None)):
        with pytest.raises(ValueError, match="an edit's argument is one character"):
            splice(a, insert, 1, c)
    assert splice(a, False, 1, "b") == Ins(["", "", "", ""], [1, "b", 1])


def _reference_run_delete(ps, ss, k, i, c):
    """Delete ``c`` at the ``i``-th copied character of the run at step
    ``k``, as the run split was first written: a list of the nonzero parts."""
    n = ss[k]
    split = [m for m in (i, c, n - i - 1) if m]
    ss[k : k + 1] = split
    ps[k + 1 : k + 1] = [""] * (len(split) - 1)
    editor._hoist(ps, ss, k + split.index(c) + 1)


def test_a_run_splits_as_the_reference_does():
    # every copied character of every run, in enumerated automata and in
    # ones whose run is followed by a nonempty prefix behind Dels, so that
    # `_hoist` moves text across the new Del and the ones before it
    chains = [(x.insertion.prefixes, x.insertion.steps) for x in editors.generate(3000) if x != Fail()]
    chains += [
        (("p", "", "q"), ("a", 2)),
        (("", "", "", "xy"), ("a", "b", 1)),
        (("z", "", "w", ""), ("c", 4, 3)),
        (("", "r", "", "s"), (5, "a", 2)),
    ]
    cases = hoisted = 0
    for prefixes, steps in chains:
        out = 0  # output characters before prefix k
        for k, n in enumerate(steps):
            out += len(prefixes[k])
            if type(n) is int:
                for i, c in itertools.product(range(n), "ab" + prefixes[k + 1][:1]):
                    want = (list(prefixes), list(steps))
                    _reference_run_delete(*want, k, i, c)
                    got = (list(prefixes), list(steps))
                    assert editor._edit(*got, False, out + i, c)
                    assert got == want, (prefixes, steps, i, c)
                    assert is_normal(Ins(*got))
                    cases += 1
                    hoisted += i == n - 1 and prefixes[k + 1] != ""
            out += n if type(n) is int else 0  # a Del emits nothing
    assert cases > 1000 and hoisted > 100


def test_an_automaton_from_its_lists_stays_frozen():
    a = Ins(["x", ""], [2])
    with pytest.raises(FrozenInstanceError):
        a.prefixes = ("y", "")
    assert (a.prefixes, a.steps, a.length) == (("x", ""), (2,), 2)
    assert a == Ins(("x", ""), (2,)) and hash(a) == hash(Ins(("x", ""), (2,)))


@pytest.mark.parametrize(
    "prefixes, steps, fault",
    [
        # unchecked, a prefix too few would run "ab" to 'aaab' and render a
        # prefix the chain lacks, and no prefix at all would index past it
        (["a"], [1], "one prefix more than steps, not 1 prefixes and 1 steps"),
        ([], [], "one prefix more than steps, not 0 prefixes and 0 steps"),
        (["", "", ""], [1], "one prefix more than steps, not 3 prefixes and 1 steps"),
        # unchecked, a longer Del would count as one input character
        (["", ""], ["xy"], "a step is one character or an int of at least 1, not 'xy'"),
        (["", ""], [""], "a step is one character or an int of at least 1, not ''"),
        (["", "", ""], [1, 0], "a step is one character or an int of at least 1, not 0"),
        (["", ""], [-2], "a step is one character or an int of at least 1, not -2"),
        (["", ""], [True], "a step is one character or an int of at least 1, not True"),
        (["", ""], [1.0], "a step is one character or an int of at least 1, not 1.0"),
        (["", ""], [None], "a step is one character or an int of at least 1, not None"),
        (["", ""], [("a",)], "a step is one character or an int of at least 1, not ('a',)"),
        # unchecked, a prefix that is not a string is built and then makes
        # `editor_action` raise `TypeError` from `str.join`
        ([None, ""], [1], "a prefix is a str, not None"),
        (["ab", 5], [1], "a prefix is a str, not 5"),
        ([b"x"], [], "a prefix is a str, not b'x'"),
    ],
)
def test_an_automaton_rejects_a_malformed_shape(prefixes, steps, fault):
    with pytest.raises(ValueError, match=re.escape(fault)):
        Ins(prefixes, steps)


def test_replacing_a_field_goes_through_the_constructor():
    a = Ins(("x", ""), (2,))
    replaces = [lambda x, **changes: x.__replace__(**changes)]
    if sys.version_info >= (3, 13):
        replaces.append(copy.replace)
    for replace in replaces:
        b = replace(a, steps=[3])
        assert b == Ins(("x", ""), (3,)) and b.steps == (3,) and b.length == 3
        with pytest.raises(ValueError, match="one prefix more than steps"):
            replace(a, prefixes=("x",))


def _fields(a):
    """What `Try` equality means: a chain's prefixes and steps; `Fail` as itself."""
    return (a.insertion.prefixes, a.insertion.steps) if isinstance(a, Try) else a


def _agree(x, y):
    same = _fields(x) == _fields(y)
    assert (x == y) is same and (x != y) is not same
    if same:
        assert hash(x) == hash(y)
    return same


def test_try_equality_and_hash_agree_with_the_fields():
    # sampled editor pairs: the diagonal is the only equal pair, one object
    pairs = gpair(editors, editors).generate(3000)
    assert sum(_agree(x, y) for x, y in pairs) == 54
    # the same automaton rebuilt from its fields: equal, a different object
    for x in editors.generate(3000):
        if isinstance(x, Try):
            twin = Try(Ins(list(x.insertion.prefixes), list(x.insertion.steps)))
            assert twin is not x and _agree(x, twin)
    # folded word pairs: 32 more equal pairs of two different words
    folded = [(semantics(v), semantics(w)) for v, w in gpair(words, words).generate(3000)]
    assert sum(_agree(x, y) for x, y in folded) == 86
    assert sum(x is not y and x == y for x, y in folded) == 32


def test_try_equality_against_what_is_not_a_try():
    a = Try(DONE)
    assert a != Fail() and Fail() != a and not a == Fail()
    assert a.__eq__(Fail()) is NotImplemented
    # a chain is not the automaton that tries it, nor is any other value
    for other in (DONE, ("",), "", None, 0):
        assert a != other and other != a and not a == other
    # an insertion that is not an `Ins` compares by its own equality
    assert Try(("",)) == Try(("",)) and hash(Try(("",))) == hash(Try(("",)))
    assert Try(("",)) != a and a != Try(("",))


@pytest.mark.parametrize(
    "claim, args",
    [
        (Def, {"editor": Try(DONE)}),
        (Undef, {"editor": Fail()}),
        (DefUndef, {"left": Try(DONE), "right": Fail()}),
        (Diff, {"left": Fail(), "right": Try(DONE)}),
    ],
)
def test_claims_are_frozen_values(claim, args):
    c = claim(*args.values())
    assert c == claim(**args) and hash(c) == hash(claim(**args))
    assert vars(c) == args
    shown = ", ".join(f"{k}={v!r}" for k, v in args.items())
    assert repr(c) == f"{claim.__name__}({shown})"
    for name in args:
        with pytest.raises(FrozenInstanceError):
            setattr(c, name, Fail())
        other = claim(**{**args, name: semantics(LEFT)})
        assert c != other


# -- totality and the defined/undefined boundary --------------------------------


def test_is_total():
    assert is_total(Try(DONE))
    assert is_total(Try(Ins(("xyz",), ())))
    assert not is_total(Fail())
    assert not is_total(Try(Ins(("", ""), (1,))))


def test_witness_def_finds_an_accepted_string():
    e = semantics(LEFT)
    s = witness_def(e)
    assert s is not None
    assert editor_action(s, e) is not None


def test_witness_def_on_empty_editor():
    assert witness_def(Fail()) is None


def test_witness_undef():
    assert witness_undef(Fail()) == ""
    assert witness_undef(Try(DONE)) is None
    e = semantics(parse_word("-0:b"))
    s = witness_undef(e)
    assert s is not None
    assert editor_action(s, e) is None


def test_witness_def_undef_separates():
    x = Try(DONE)  # total
    y = semantics(parse_word("-0:b"))  # needs a leading b
    s = witness_def_undef(x, y)
    assert s is not None
    assert editor_action(s, x) is not None
    assert editor_action(s, y) is None


def test_witness_def_undef_when_x_never_exceeds_y():
    # x undefined everywhere: no string is defined for x and not y
    assert witness_def_undef(Fail(), Try(DONE)) is None


def test_witness_diff_on_equal_editors():
    assert witness_diff(semantics(LEFT), semantics(RIGHT)) is None


def test_witness_diff_on_behavioural_difference():
    x = semantics(parse_word("+0:a"))
    y = semantics(parse_word("+0:b"))
    s = witness_diff(x, y)
    assert s is not None
    assert editor_action(s, x) != editor_action(s, y)


def test_witness_diff_on_domain_difference():
    x = Try(DONE)
    y = Fail()
    s = witness_diff(x, y)
    assert s is not None
    assert (editor_action(s, x) is None) != (editor_action(s, y) is None)


def test_witness_sources_wrap_the_search():
    e = semantics(LEFT)
    assert exists(Def(e), lambda s: editor_action(s, e) is not None)
    assert exists_or_vacuous(
        DefUndef(Try(DONE), Try(DONE)), lambda s: False
    )  # no separating witness exists, vacuously fine
    assert not exists(Diff(semantics(LEFT), semantics(RIGHT)), lambda s: True)


def test_witness_undef_exhaustive_small():
    # soundness and completeness over generated editors
    for e in editors.generate(120):
        s = witness_undef(e)
        if s is None:
            assert is_total(e)
        else:
            assert editor_action(s, e) is None


def test_witness_def_exhaustive_small():
    for e in editors.generate(120):
        s = witness_def(e)
        if s is None:
            assert e == Fail()
        else:
            assert editor_action(s, e) is not None


def test_witness_diff_exhaustive_small():
    es = editors.generate(60)
    universe = all_strings("ab", 6)
    for i, x in enumerate(es):
        for y in es[i + 1 :]:
            s = witness_diff(x, y)
            if s is None:
                for t in universe:
                    assert editor_action(t, x) == editor_action(t, y), (x, y, t)
            else:
                assert editor_action(s, x) != editor_action(s, y)


# -- rendering -------------------------------------------------------------------


def test_render_editor():
    assert render(Fail()) == "Fail"
    assert render(DONE) == 'Ins ""; Return'
    assert render(semantics(LEFT)) == 'Try[Ins ""; Skip*2; Ins "a"; Del \'b\'; Ins ""; Return]'
    # a run of one stays one Skip, and a run is written once however long
    assert render(Ins(("x", "y", ""), (1, 1))) == 'Ins "x"; Skip; Ins "y"; Skip; Ins ""; Return'
    far = semantics(parse_word("+1000000000000000000:a"))
    assert render(far) == 'Try[Ins ""; Skip*1000000000000000000; Ins "a"; Return]'


# -- generated editors -------------------------------------------------------------


def test_editors_are_normal_and_distinct():
    es = editors.generate(30000)
    assert len(set(es)) == len(es)
    for e in es:
        assert e == Fail() or is_normal(e.insertion if isinstance(e, Try) else e)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=120), st.integers(min_value=0, max_value=120))
def test_editors_generator_is_prefix_monotone(m, n):
    if m > n:
        m, n = n, m
    assert editors.generate(n)[:m] == editors.generate(m)


def test_editors_never_fold_a_word():
    # a cold enumeration builds its automata directly
    info = semantics.cache_info()
    assert len(Generator(editor._editors).generate(3000)) == 3000
    assert semantics.cache_info() == info


def test_editors_head_is_pinned():
    # the negative controls name these samples as their first counterexamples
    assert [render_editor(e) for e in editors.generate(2)] == ['Try[Ins ""; Return]', 'Try[Ins "a"; Return]']
    first_partial = next(e for e in editors.generate(100) if not is_total(e))
    assert render_editor(first_partial) == 'Try[Ins ""; Del \'a\'; Ins ""; Return]'


def _weight(e):
    """The enumeration's weight: a character weighs its position in
    `CHARACTER_ORDER` plus one, a run of n Skips n; `Fail` weighs 1."""
    if e == Fail():
        return 1
    a = e.insertion
    chars = "".join(a.prefixes) + "".join(c for c in a.steps if type(c) is str)
    return sum(CHARACTER_ORDER.index(ch) + 1 for ch in chars) + sum(c for c in a.steps if type(c) is int)


def test_editors_cover_every_small_normal_form_once():
    # all normal forms with at most two steps (Dels over ab, runs of at most
    # two) and prefixes of at most two characters over ab, up to weight 8
    n = 17461  # the number of automata of weight 8 or less
    es = editors.generate(n + 1)
    weights = [_weight(e) for e in es]
    assert weights == sorted(weights) and weights[n - 1] == 8 < weights[n]
    index = {e: i for i, e in enumerate(es[:n])}
    assert len(index) == n
    texts = ["", "a", "b", "aa", "ab", "ba", "bb"]
    universe = [Fail()]
    for k in range(3):
        for ps in itertools.product(texts, repeat=k + 1):
            for ss in itertools.product(["a", "b", 1, 2], repeat=k):
                a = Try(Ins(ps, ss))
                if is_normal(a) and _weight(a) <= 8:
                    universe.append(a)
    assert len(universe) == 747
    assert all(a in index for a in universe)


def _reference_strings_of_weight(w):
    if not w:
        yield ""
        return
    for k, c in enumerate(CHARACTER_ORDER[:w], 1):
        for rest in _reference_strings_of_weight(w - k):
            yield c + rest


def _reference_chains(w, after):
    # the enumeration before its tails were memoised: every chain recurses
    # through the generators of its tails, afresh for every head prefix
    for pw in range(0 if type(after) is str else w, -1, -1):
        r = w - pw
        for p in _reference_strings_of_weight(pw):
            if not r:
                yield (p,), ()
                continue
            for k, c in enumerate(CHARACTER_ORDER[:r], 1):
                for ps, ss in _reference_chains(r - k, c):
                    yield (p, *ps), (c, *ss)
            if p or type(after) is not int:
                for n in range(1, r + 1):
                    for ps, ss in _reference_chains(r - n, n):
                        yield (p, *ps), (n, *ss)


def _reference_editors():
    for w in itertools.count():
        for ps, ss in _reference_chains(w, None):
            yield Try(Ins(ps, ss))
        if w == 1:
            yield Fail()


def test_memoised_tails_enumerate_the_reference_order():
    assert editors.generate(30000) == list(itertools.islice(_reference_editors(), 30000))


def test_a_fresh_enumeration_builds_its_own_tails():
    assert Generator(editor._editors).generate(3000) == editors.generate(3000)


def test_reify_is_a_right_inverse_of_semantics():
    # every enumerated automaton is the normal form of some word
    for e in editors.generate(30000):
        assert semantics.__wrapped__(reify(e)) == e, render_editor(e)
    assert render(reify(Fail())) == "+0:a,-0:b"
    assert render(reify(semantics(RIGHT))) == "+2:a,-3:b"
    assert render(reify(semantics(parse_word("+3:a,-3:a")))) == "+3:a,-3:a"


def test_semantics_keeps_its_cache_counters_and_the_uncached_fold():
    # the benchmark's per-layer probe reads both
    info = semantics.cache_info()
    assert {"hits", "misses", "maxsize", "currsize"} <= set(info._asdict())
    for w in (LEFT, RIGHT, parse_word("+200:a,-3:b,~+0:c"), Word(())):
        assert semantics.__wrapped__(w) == semantics(w)


def test_semantics_cache_is_bounded():
    assert semantics.cache_info().maxsize == 4096


def test_repr_of_deep_automata():
    # the repr is as long as the steps, not as the positions they reach
    assert repr(semantics(parse_word("+400:a"))) == "Try(insertion=Ins(prefixes=('', 'a'), steps=(400,)))"
    far = semantics(parse_word("+1000000000000000000:a"))
    assert repr(far) == "Try(insertion=Ins(prefixes=('', 'a'), steps=(1000000000000000000,)))"
    assert repr(Try(Ins(("x", "", ""), ("a", 1)))) == (
        "Try(insertion=Ins(prefixes=('x', '', ''), steps=('a', 1)))"
    )


def test_word_equiv_on_deep_automata():
    # equality and hashing of automata hundreds of positions deep
    x, y = parse_word("+200:a,+0:b"), parse_word("+0:b,+201:a")
    assert word_equiv(x, y)
    assert hash(semantics(x)) == hash(semantics(y))
    assert not word_equiv(x, parse_word("+0:b,+200:a"))
    assert check(cons_eq(semantics(x), semantics(y))).perform(1) == Holds()


def test_witness_diff_past_the_printable_pool():
    # 100 unconstrained positions need more fresh probe characters than
    # printable ASCII has
    x, y = parse_word("+100:a"), parse_word("+100:b")
    s = witness_diff(semantics(x), semantics(y))
    assert s is not None and s.isprintable()
    assert action(s, x) != action(s, y)
    assert check(cons_eq(semantics(x), semantics(y))).perform(1) == Holds()


@pytest.mark.parametrize(
    "left, right", [("+300000:a", "+300000:b"), ("+200001:a", "+200000:a,+200002:a")]
)
def test_witness_diff_past_every_code_point(left, right):
    # more unconstrained positions than there are printable code points
    x, y = parse_word(left), parse_word(right)
    s = witness_diff(semantics(x), semantics(y))
    assert s is not None
    assert action(s, x) != action(s, y)


# -- differential: the model against direct application ---------------------------


def _random_word(rng, alphabet="abcxyz", max_pos=200):
    return Word(
        tuple(
            Literal(
                rng.choice(list(Polarity)),
                Edit(rng.choice(list(EditOp)), rng.randint(0, max_pos), rng.choice(alphabet)),
            )
            for _ in range(rng.randint(0, 5))
        )
    )


def _long_word_pairs():
    """Six seeded probe strings, then 400 random words, each paired with
    another random word, with itself reversed and with itself."""
    rng = random.Random(7)
    probes = [
        "".join(rng.choice("abcxyz") for _ in range(rng.randint(0, 210))) for _ in range(6)
    ]
    pairs = []
    for _ in range(400):
        x = _random_word(rng)
        pairs += ((x, y) for y in (_random_word(rng), Word(x.literals[::-1]), x))
    return probes, pairs


def test_model_agrees_with_action_on_long_words():
    # words with positions up to 200 over a six-letter alphabet, far past
    # what the brute-force universe reaches: random, reversed and identical
    # pairs; a witness must separate different automata, and equal automata
    # must agree on their defining input and on long probe strings
    probes, pairs = _long_word_pairs()
    for x, y in pairs:
        ex, ey = semantics(x), semantics(y)
        if ex != ey:
            s = witness_diff(ex, ey)
            assert s is not None and action(s, x) != action(s, y), (x, y)
            continue
        for s in [witness_def(ex)] + probes:
            if s is not None:
                assert action(s, x) == action(s, y), (x, y, s)


def _clustered_word(rng):
    # three runs of up to five literals, each run within nine positions of
    # a base up to 192, so that edits land close enough to interact
    literals = []
    for _ in range(3):
        base = rng.randint(0, 192)
        literals += [
            Literal(
                rng.choice(list(Polarity)),
                Edit(rng.choice(list(EditOp)), base + rng.randint(0, 8), rng.choice("abcxyz")),
            )
            for _ in range(rng.randint(0, 5))
        ]
    return Word(tuple(literals))


def test_normal_forms_of_long_words_are_pinned():
    # sha256 of the normal forms of 3000 seeded words of up to 15 literals,
    # both polarities, positions up to 200: long enough for hoisting to
    # cascade across several deletions
    rng = random.Random(11)
    ws = [_clustered_word(rng) for _ in range(3000)]
    text = "\n".join(repr(semantics(w)) for w in ws)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5b25dacbd1e1aceec309b9070c7a6fb17dd309b1e8b846a20ab2adc05eaa6dc3"
    )


# -- runs: the fold's size tracks the number of edits, not the positions ----------


def test_witness_text_is_pinned():
    # every witness construction may change how it reads the steps, not a
    # byte of what it returns: sha256 over the witnesses of the first 3000
    # editors, of the first 1500 editor pairs (both separation directions)
    # and of the seeded long-word pairs
    pairs = gpair(editors, editors).generate(1500)
    pairs += [(semantics(x), semantics(y)) for x, y in _long_word_pairs()[1]]
    witnesses = [(witness_def(a), witness_undef(a)) for a in editors.generate(3000)]
    witnesses += [
        (witness_def(x), witness_def_undef(x, y), witness_def_undef(y, x), witness_diff(x, y))
        for x, y in pairs
    ]
    assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == (
        "e4b11aa88f2bac4544c4a320b5e8bf39d022eaa73e8718924f7ad9fe864c6cb8"
    )


def test_witnesses_of_long_runs_cost_per_step():
    # a run of a million Skips is one step, and so is its witness work: two
    # such runs ending in different insertions accept the same inputs,
    # which takes no per-position list to decide, and a witness costs
    # about the string it returns
    x, y = semantics(parse_word("+1000000:a")), semantics(parse_word("+1000000:b"))
    z = semantics(parse_word("-1000000:a"))
    tracemalloc.start()
    try:
        assert witness_def_undef(x, y) is None and witness_def_undef(y, x) is None
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
        tracemalloc.reset_peak()
        s = witness_def(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s == "a" * 1000001
    assert peak < 3 * len(s)


def _cycled_probe(x, y):
    """The difference probe built one Skip at a time from the cycled
    fresh characters: the reference for `witness_diff`'s sliced filler."""
    a, b = x.insertion, y.insertion
    used = {*"".join(a.prefixes + b.prefixes), *(c for c in a.steps if type(c) is str)}
    beyond_ascii = filter(str.isprintable, map(chr, range(0x80, 0x110000)))
    fresh = (ch for ch in itertools.chain(CHARACTER_ORDER, beyond_ascii) if ch not in used)
    pool = itertools.cycle(fresh)
    return "".join([c if type(c) is str else "".join(itertools.islice(pool, c)) for c in a.steps])


def test_witness_diff_probe_matches_the_cycled_construction():
    # 300,000 Skips outnumber the fresh characters, so the filler wraps,
    # inside the second run of the second pair
    for left, right in (("+300000:a", "+300000:b"), ("+300000:a,-100:c", "+300000:b,-100:c")):
        x, y = semantics(parse_word(left)), semantics(parse_word(right))
        s = witness_diff(x, y)
        assert s == _cycled_probe(x, y)
        assert editor_action(s, x) != editor_action(s, y)


def test_fold_size_tracks_the_number_of_edits():
    # a run of a million Skips is one step; no timing gate, only the size
    assert len(semantics(parse_word("+1000000:a")).insertion.steps) == 1
    assert word_equiv(parse_word("+1000000:a,+0:b"), parse_word("+0:b,+1000001:a"))


def _consumes(a):
    """The input characters ``a`` consumes, read off its behaviour: the
    length of an input it accepts but rejects without the last character.
    That prefix meets every constraint the input met, so it is too short."""
    w = witness_def(Try(a))
    assert editor_action(w, a) is not None
    assert not w or editor_action(w[:-1], a) is None
    return len(w)


def test_an_automaton_carries_the_length_of_its_pattern():
    built = [x.insertion for x in editors.generate(3000) if x != Fail()]
    built += [x.insertion for x in map(semantics, words.generate(3000)) if x != Fail()]
    spelled = [
        DONE,
        Ins(("x", ""), (2,)),
        Ins(("", "b", ""), ("a", 2)),
        Ins(("", "y", ""), (1, "c")),
        Ins(("b", "", "d"), ("a", "c")),
        Ins(("z", "", "b", ""), (1, "a", 1)),
    ]
    spliced = [
        r
        for a in built[:300] + spelled
        for i in range(4)
        for r in (splice(a, True, i, "a"), splice(a, False, i, "a"), splice(a, False, i, "b"))
        if r is not None
    ]
    assert len(spliced) > 1000
    for a in built + spelled + spliced:
        assert a.length == _consumes(a), repr(a)


def test_the_length_of_a_pattern_takes_no_part_in_equality():
    flat = Ins(["", "", ""], [2, "a"])
    folded = semantics(parse_word("+0:a,-0:a,-2:a")).insertion
    assert flat == folded and len({flat, folded}) == 1
    assert flat.length == folded.length == 3
    for a in (flat, DONE, Ins(("x", "", ""), (1, "a"))):
        for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert b == a and hash(b) == hash(a) and b.length == a.length


def test_is_normal_rejects_unmerged_runs():
    # two runs of Skips with an empty prefix between them are one run
    assert not is_normal(Ins(["", "", ""], [1, 1]))
    assert is_normal(Ins(["", "x", ""], [1, 1]))


def _literal_for(rng, op, pos, c):
    """The effective edit ``op`` at ``pos`` as a literal of either polarity:
    a negative literal spells it with the inverse op."""
    if rng.random() < 0.5:
        return Literal(Polarity.POSITIVE, Edit(op, pos, c))
    inverse = EditOp.DELETE if op is EditOp.INSERT else EditOp.INSERT
    return Literal(Polarity.NEGATIVE, Edit(inverse, pos, c))


def _stream_word(rng):
    """8 to 32 edits that apply in turn to a base of 100 to 200 letters, at
    positions up to 200, each in either polarity; one word in four has a
    near miss among them: a deletion of a character one off from the one
    present, one position past the string, or an extra insertion."""
    s = "".join(rng.choice("abcdef") for _ in range(rng.randint(100, 200)))
    miss = rng.randint(0, 31) if rng.random() < 0.25 else -1
    literals = []
    for k in range(rng.randint(8, 32)):
        if k == miss:
            kind = rng.randrange(3)
            if kind == 0 and s:
                pos = rng.randint(0, min(len(s) - 1, 200))
                literals.append(_literal_for(rng, EditOp.DELETE, pos, chr(ord(s[pos]) + 1)))
            elif kind == 1:
                literals.append(_literal_for(rng, EditOp.DELETE, len(s), "a"))
            else:
                literals.append(_literal_for(rng, EditOp.INSERT, rng.randint(0, 200), "z"))
            continue
        if s and rng.random() < 0.4:
            pos = rng.randint(0, min(len(s) - 1, 200))
            op, c = EditOp.DELETE, s[pos]
            s = s[:pos] + s[pos + 1 :]
        else:
            pos, op, c = rng.randint(0, min(len(s), 200)), EditOp.INSERT, rng.choice("abcdef")
            s = s[:pos] + c + s[pos:]
        literals.append(_literal_for(rng, op, pos, c))
    return Word(tuple(literals))


def _far_word(rng):
    """Up to 12 literals over ``ab``, mostly at positions below 40, some
    around 4096 and some up to 10**18, so that a word can reach far and then
    go on editing near the front; about one in nine positions is negative."""
    literals = []
    for _ in range(rng.randint(1, 12)):
        where = rng.random()
        if where < 0.55:
            pos = rng.randint(0, 40)
        elif where < 0.75:
            pos = rng.randint(4090, 4100)
        elif where < 0.9:
            pos = 10 ** rng.randint(4, 18) + rng.randint(-3, 3)
        else:
            pos = -rng.randint(1, 3)
        literals.append(Literal(rng.choice(list(Polarity)), Edit(rng.choice(list(EditOp)), pos, rng.choice("ab"))))
    return Word(tuple(literals))


def _wrong_deletion_word(rng):
    """Insertions near the front, then a deletion at one of the inserted
    characters, asking for a different character: the composite is empty."""
    c, other = rng.sample("abc", 2)
    pos = rng.randint(0, 30)
    before = [_literal_for(rng, EditOp.INSERT, rng.randint(0, 30), rng.choice("abc")) for _ in range(rng.randint(0, 4))]
    return Word((*before, _literal_for(rng, EditOp.INSERT, pos, c), _literal_for(rng, EditOp.DELETE, pos, other)))


def test_direct_fold_agrees_with_the_dispatch_path():
    # the fold works on its own representation; the `act` path splices one
    # edit at a time through the `Ins` splicer, `splice(a, insert, i, c)`,
    # whose walk and `_hoist` decide the normal form there
    rng = random.Random(11)
    ws = [*words.generate(3000), *(_clustered_word(rng) for _ in range(3000))]
    ws += [_stream_word(rng) for _ in range(1500)]
    ws += [_far_word(rng) for _ in range(3000)]
    ws += [_wrong_deletion_word(rng) for _ in range(300)]
    ws += [
        parse_word("+0:a,+4096:b,-1:x,+2:c,-0:a"),
        parse_word("+4095:a,+0:b,-4096:a,+3:c"),
        parse_word("+1000000000000000000:a,+0:b,-1:x,+2:c,-0:b"),
        parse_word("-5:a,+0:b,-1:a,+9223372036854775807:c,+3:d,~+4:a,-4:a"),
        parse_word("+0:a,+1:b,-1:c"),
        parse_word("+3:a,~+3:b"),
        parse_word("+0:a,-1:b,+4:c,-0:a,~+4:a"),
        # 4100 insertions at the front outgrow the cap without a far position
        parse_word(",".join(["+0:a"] * 4100 + ["-4099:a", "+2:b", "-4100:x", "-0:a"])),
    ]
    failed = negative = far = below_zero = 0
    for w in ws:
        r = action(DONE, w)
        folded = semantics.__wrapped__(w)
        assert folded == (Fail() if r is None else Try(r)), render(w)
        assert is_normal(folded), render(w)
        failed += r is None
        negative += any(lit.polarity is Polarity.NEGATIVE for lit in w.literals)
        far += r is not None and r.length > 4096
        below_zero += any(lit.atom.pos < 0 for lit in w.literals)
    assert failed > 1000 and negative > 3000 and far > 300 and below_zero > 500


def test_the_fold_agrees_with_the_action_on_adversarial_words():
    # seeded words of up to 9 literals, dense at positions 0-6 over `ab`,
    # against the action on every string over `abc` up to length 6
    rng = random.Random(5)
    universe = all_strings("abc", 6)
    for _ in range(150):
        w = Word(
            tuple(
                Literal(rng.choice(list(Polarity)), Edit(rng.choice(list(EditOp)), rng.randint(0, 6), rng.choice("ab")))
                for _ in range(rng.randint(1, 9))
            )
        )
        folded = semantics(w)
        for s in universe:
            assert editor_action(s, folded) == action(s, w), (render(w), s)


# -- words with entries other than literals over edits -------------------------


def _mixed_words():
    """Pairs of a word that `action` accepts but whose entries are not all
    literals over edits, and an all-literal word with the same action."""
    from purecheck import from_list

    e, f, g = Edit(EditOp.INSERT, 1, "a"), Edit(EditOp.DELETE, 0, "b"), Edit(EditOp.INSERT, 0, "b")
    inner = from_list([e, f])
    undone = Word((Literal(Polarity.NEGATIVE, f), Literal(Polarity.NEGATIVE, e)))
    return [
        (Word((e,)), from_list([e])),
        (Word((g, Literal(Polarity.POSITIVE, f))), Word()),
        (Word((inner,)), inner),
        (Word((Literal(Polarity.NEGATIVE, inner),)), undone),
        (Word((from_list([e]), Literal(Polarity.POSITIVE, f), e)), from_list([e, f, e])),
        (Word((Literal(Polarity.POSITIVE, g), Literal(Polarity.NEGATIVE, g), Word((f,)))), from_list([f])),
    ]


def test_semantics_of_mixed_words_falls_back_to_the_action():
    for mixed, flat in _mixed_words():
        assert semantics(mixed) == semantics(flat)
        assert word_equiv(mixed, flat)
        for n in range(5):
            for s in map("".join, itertools.product("ab", repeat=n)):
                assert editor_action(s, semantics(mixed)) == action(s, mixed), s


def test_word_equiv_agrees_with_brute_force_on_mixed_words():
    ws = [w for pair in _mixed_words() for w in pair]
    for i, x in enumerate(ws):
        for y in ws[i + 1 :]:
            assert word_equiv(x, y) == brute_force_equiv(x, y, "abc", 5), (x, y)
