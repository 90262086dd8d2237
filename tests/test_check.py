"""Verdict semantics, the budget-indexed Check wrapper, and the generic
dispatcher that turns marked values into runnable checks.
"""
import importlib
import itertools

import pytest

from purecheck import (
    Check,
    Falsified,
    For,
    Generator,
    Holds,
    LogicalError,
    Meta,
    NestedFor,
    Suite,
    TacticalError,
    booleans,
    check,
    check_with,
    conjoin,
    foreach,
    from_values,
    gpair,
    integers,
    naturals,
    qmerge,
    run_suite,
    strings,
)
from purecheck.check import FrozenInstanceError
from purecheck.generators import Char


def test_check_true_always_holds():
    # the empty conjunction is the true check, the unit of `&`
    c = conjoin()
    assert c.perform(0) == Holds()
    assert c.perform(1000) == Holds()


def test_check_with_holds_on_true_property():
    c = check_with(integers(), lambda x: x * 0 == 0)
    assert c.perform(50) == Holds()


def test_check_with_falsifies_and_reports_first_counterexample():
    c = check_with(integers(), lambda x: x >= 0)
    v = c.perform(50)
    assert isinstance(v, Falsified)
    # enumeration order is 0, 1, -1, ... so -1 is the first failure
    assert v.counterexample == "-1"


def test_zero_budget_is_vacuous():
    c = check_with(integers(), lambda x: False)
    assert c.perform(0) == Holds()


def test_any_integer_budget_reads_a_prefix():
    # a negative budget reads nothing, and one past `sys.maxsize` reads a
    # finite bound, a product among them, to its end
    assert check_with(integers(), lambda x: False).perform(-(2**70)) == Holds()
    assert check_with(from_values([1, 2]), lambda x: x != 2).perform(2**70) == Falsified("2")
    pairs = gpair(from_values([1, 2]), from_values([3]))
    assert check_with(pairs, lambda xy: True).perform(2**70) == Holds()


def test_budget_too_small_to_reach_counterexample():
    c = check_with(integers(), lambda x: x >= 0)
    assert c.perform(2) == Holds()  # sees only 0, 1
    assert isinstance(c.perform(3), Falsified)


def test_body_exception_is_logical_error():
    c = check_with(integers(), lambda x: 1 // x == 1)  # raises at x=0
    v = c.perform(10)
    assert isinstance(v, LogicalError)
    assert "0" in v.diagnostic


def test_non_bool_body_is_logical_error():
    c = check_with(integers(), lambda x: x)  # returns int, not bool
    v = c.perform(5)
    assert isinstance(v, LogicalError)


def test_generator_exception_is_tactical_error():
    def explode():
        raise RuntimeError("no samples here")

    c = check_with(Generator(explode), lambda x: True)
    v = c.perform(5)
    assert isinstance(v, TacticalError)


def _raising_after(k):
    """A stream of 0..k-1 whose enumeration raises at index k."""

    def make():
        yield from range(k)
        raise RuntimeError(f"no sample {k}")

    return Generator(make)


def test_counterexample_before_a_raising_sample_is_falsified():
    # the first thing that goes wrong in enumeration order decides
    g = _raising_after(3)
    for n in (3, 4, 10**9):
        assert check_with(g, lambda x: x != 2).perform(n) == Falsified("2")
    assert check_with(g, lambda x: True).perform(3) == Holds()
    assert isinstance(check_with(g, lambda x: True).perform(4), TacticalError)


def test_raising_stream_raises_again_on_every_later_pull():
    g = _raising_after(2)
    c = check_with(g, lambda x: True)
    first = c.perform(5)
    assert isinstance(first, TacticalError) and "no sample 2" in first.diagnostic
    assert c.perform(5) == first
    assert check_with(g, lambda x: True).perform(5) == first
    assert g.generate(2) == [0, 1]
    depths = []
    for _ in range(3):
        with pytest.raises(RuntimeError, match="no sample 2") as raised:
            g.generate(3)
        depths.append(len(raised.traceback))
    assert depths[1] == depths[2]  # re-raising does not grow the stored traceback


def test_interrupted_stream_resumes_after_its_memo():
    interrupted = []

    def make():
        for x in itertools.count():
            if x == 2 and not interrupted:
                interrupted.append(x)
                raise KeyboardInterrupt
            yield x

    g = Generator(make)
    with pytest.raises(KeyboardInterrupt):
        g.generate(5)
    assert g.generate(5) == [0, 1, 2, 3, 4]


def test_check_with_stops_at_the_first_counterexample():
    pulls = []

    def make():
        for x in itertools.count():
            pulls.append(x)
            yield x

    assert check_with(Generator(make), lambda x: x < 2).perform(10**9) == Falsified("2")
    assert pulls == [0, 1, 2]


def test_performs_share_one_enumeration_with_generate():
    pulls = []

    def make():
        for x in itertools.count():
            pulls.append(x)
            yield x

    g = Generator(make)
    c = check_with(g, lambda x: True)
    assert c.perform(5) == Holds()
    assert c.perform(5) == Holds()
    assert pulls == [0, 1, 2, 3, 4]
    assert g.generate(5) == [0, 1, 2, 3, 4]
    assert g.generate(7) == list(range(7))
    assert c.perform(8) == Holds()
    assert pulls == list(range(8))


def test_a_body_that_extends_its_own_generator_sees_the_generate_order():
    g = integers()
    seen = []

    def body(x):
        seen.append(x)
        g.generate(len(seen) + 10)
        return True

    assert check_with(g, body).perform(30) == Holds()
    assert seen == integers().generate(30)


def test_an_interrupt_in_perform_propagates_and_the_next_perform_resumes():
    interrupted = []

    def make():
        for x in itertools.count():
            if x == 3 and not interrupted:
                interrupted.append(x)
                raise KeyboardInterrupt
            yield x

    g = Generator(make)
    seen = []

    def body(x):
        seen.append(x)
        return x != 4

    c = check_with(g, body)
    with pytest.raises(KeyboardInterrupt):
        c.perform(10)
    assert seen == [0, 1, 2]
    assert c.perform(10) == Falsified("4")
    assert seen == [0, 1, 2, 0, 1, 2, 3, 4]
    assert g.generate(5) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("value, name", [(1, "int"), (0, "int"), (None, "NoneType")])
def test_a_non_bool_body_keeps_its_logical_error_text(value, name):
    c = check_with(integers(), lambda x: value if x == -1 else True)
    assert c.perform(5) == LogicalError(f"body returned {name}, not bool, on -1")


def test_an_iterable_bound_is_read_as_a_stream():
    assert check(Meta(For([1, 2, 3], lambda x: x > 1))).perform(5) == Falsified("1")
    c = check_with(range(4), lambda x: x < 3)
    assert c.perform(3) == Holds()
    assert c.perform(9) == Falsified("3")


def test_conjunction_all_hold():
    c = conjoin() & check_with(booleans(), lambda b: b or not b)
    assert c.perform(10) == Holds()


def test_conjunction_first_failure_wins():
    bad_left = check_with(integers(), lambda x: x < 1)
    bad_right = check_with(integers(), lambda x: x < 0)
    v = (bad_left & bad_right).perform(10)
    assert isinstance(v, Falsified)
    assert v.counterexample == "1"  # left clause decided first


def test_conjunction_shares_budget_clause_wise():
    # each clause receives the full budget, not a split of it
    seen = []

    def spy(x):
        seen.append(x)
        return True

    c = check_with(naturals(), spy) & check_with(naturals(), spy)
    assert c.perform(3) == Holds()
    assert seen == [0, 1, 2, 0, 1, 2]


def test_check_of_plain_bool():
    assert check(Meta(True)).perform(7) == Holds()
    v = check(Meta(False)).perform(7)
    assert isinstance(v, Falsified)


def test_check_of_none_is_trivial():
    assert check(Meta(None)).perform(0) == Holds()


def test_check_of_tuple_is_conjunction():
    p = Meta((True, True, True))
    assert check(p).perform(3) == Holds()
    q = Meta((True, False))
    assert isinstance(check(q).perform(3), Falsified)


def test_check_of_empty_tuple_holds():
    assert check(Meta(())).perform(1) == Holds()


def test_check_of_for():
    p = Meta(For(strings(), lambda s: len(s) <= 2))
    v = check(p).perform(50)
    assert isinstance(v, Falsified)
    assert v.counterexample == "'aaa'"


def test_check_of_annotated_predicate():
    @foreach
    def all_ints_small(x: int):
        return abs(x) < 2

    v = check(all_ints_small).perform(20)
    assert isinstance(v, Falsified)
    assert v.counterexample == "2"


def test_check_of_char_annotation():
    @foreach
    def chars_are_lowercase(c: Char):
        return c.islower()

    v = check(chars_are_lowercase).perform(30)
    assert isinstance(v, Falsified)
    assert v.counterexample == "'0'"  # digits arrive after the 26 letters


def test_check_of_pair_annotation():
    @foreach
    def ordered(t: tuple[bool, bool]):
        return t[0] <= t[1]

    v = check(ordered).perform(16)
    assert isinstance(v, Falsified)
    assert v.counterexample == "(True, False)"


def test_check_of_unannotated_predicate_is_tactical_error():
    v = check(Meta(lambda x: True)).perform(5)
    assert isinstance(v, TacticalError)
    assert "domain" in v.diagnostic


def test_check_of_unmarked_value_is_tactical_error():
    assert check(True).perform(5) == TacticalError("proposition is not marked with Meta")


def test_check_of_predicate_without_argument_is_tactical_error():
    v = check(Meta(lambda: True)).perform(5)
    assert v == TacticalError("cannot infer a sample domain: predicate takes no argument")


def test_check_of_predicate_with_a_second_required_parameter_is_tactical_error():
    # only the first parameter is sampled, so a second one without a
    # default could never be supplied: the proposition was never stated
    def f(x: int, y: int) -> bool:
        return x + y == y + x

    def g(x: int, *, y: int) -> bool:
        return True

    for p in (f, g):
        assert check(Meta(p)).perform(5) == TacticalError(
            "cannot infer a sample domain: parameter 'y' has no default; "
            "only the first parameter is sampled"
        )


def test_check_of_predicate_whose_first_parameter_is_not_positional_is_tactical_error():
    def k(*, x: int) -> bool:
        return True

    def v(*xs: int) -> bool:
        return True

    assert check(Meta(k)).perform(5) == TacticalError(
        "cannot infer a sample domain: first parameter 'x' is keyword-only, not positional"
    )
    assert check(Meta(v)).perform(5) == TacticalError(
        "cannot infer a sample domain: first parameter 'xs' is variadic positional, not positional"
    )


def test_check_samples_the_first_parameter_beside_defaults_and_variadics():
    def f(x: int, y: int = 1, *rest: int, scale: int = 2, **options: int) -> bool:
        return x + y != x

    def bad(x: int, y: int = 0, *rest: int, **options: int) -> bool:
        return x + y != x

    assert check(Meta(f)).perform(100) == Holds()
    assert check(Meta(bad)).perform(100) == Falsified("0")


def test_check_names_an_unresolvable_annotation():
    def p(x: "Undefined") -> bool:  # noqa: F821
        return True

    v = check(Meta(p)).perform(5)
    assert isinstance(v, TacticalError)
    assert "Undefined" in v.diagnostic


def test_check_names_a_list_annotation_it_cannot_enumerate():
    def p(xs: list[int, str]) -> bool:
        return True

    v = check(Meta(p)).perform(5)
    assert isinstance(v, TacticalError)
    assert v.diagnostic == "cannot infer a sample domain: 'no default generator for list[int, str]'"


def test_predicate_domain_is_resolved_once(monkeypatch):
    # the package's `check` attribute is the function, not the module
    module = importlib.import_module("purecheck.check")
    calls = []
    resolve = module.default_generator

    def counting(t):
        calls.append(t)
        return resolve(t)

    monkeypatch.setattr(module, "default_generator", counting)

    def p(xs: list[int]) -> bool:
        return len(xs) <= 4

    c = check(Meta(p))
    assert isinstance(c.perform(50), Holds)
    assert isinstance(c.perform(50), Holds)
    assert calls == [list[int]]


def test_check_of_opaque_value_is_tactical_error():
    assert isinstance(check(Meta(3.14)).perform(5), TacticalError)


def test_foreach_keeps_annotations():
    @foreach
    def p(x: int):
        return x == x

    import typing

    hints = typing.get_type_hints(p.reflect)
    assert hints["x"] is int


def test_qmerge_structure():
    nested = NestedFor(booleans(), booleans(), lambda x, y: x or not y)
    merged = qmerge(nested)
    assert isinstance(merged, For)
    v = check(Meta(merged)).perform(4)
    assert isinstance(v, Falsified)
    assert v.counterexample == "(False, True)"


def test_qmerge_agrees_with_nested_on_square_budgets():
    body = lambda x, y: x + y < 5  # noqa: E731

    def nested_verdict(n):
        k = int(n**0.5)
        xs = naturals().generate(k)
        ys = naturals().generate(k)
        for x in xs:
            for y in ys:
                if not body(x, y):
                    return ("falsified", (x, y))
        return ("holds", None)

    merged = qmerge(NestedFor(naturals(), naturals(), body))
    for n in (1, 4, 9, 16, 25):
        got = check(Meta(merged)).perform(n)
        kind, _ = nested_verdict(n)
        if kind == "holds":
            assert got == Holds(), f"n={n}"
        else:
            assert isinstance(got, Falsified), f"n={n}"


def test_dispatcher_reads_each_proposition_shape():
    assert check(Meta(True)).perform(0) == Holds()
    assert check(Meta(1 + 1 == 2)).perform(1) == Holds()
    assert isinstance(check(Meta(False)).perform(100), Falsified)

    assert check(Meta(None)).perform(3) == Holds()

    assert check(Meta([])).perform(3) == Holds()
    assert isinstance(check(Meta([True, False, True])).perform(3), Falsified)
    assert check(Meta((True, True))).perform(3) == Holds()

    assert conjoin(conjoin(), conjoin()).perform(5) == Holds()
    v = conjoin(check(Meta(True)), check(Meta(False))).perform(5)
    assert isinstance(v, Falsified)
    # conjoining with the unit changes nothing, verdict by verdict
    sample = check_with(integers(), lambda x: x < 3)
    padded = conjoin(sample, conjoin())
    for n in range(1, 11):
        assert padded.perform(n) == sample.perform(n)

    def tautology(x: bool):
        return x or not x

    def doubled_even(x: int):
        return (2 * x) % 2 == 0

    def short(s: str):
        return len(s) < 3

    assert check(Meta(tautology)).perform(2) == Holds()
    assert check(Meta(doubled_even)).perform(100) == Holds()
    assert isinstance(check(Meta(short)).perform(100), Falsified)

    assert check(Meta(For(from_values([]), lambda x: False))).perform(5) == Holds()
    v = check(Meta(For(booleans(), lambda x: x))).perform(1)
    assert isinstance(v, Falsified)
    assert check(Meta(For(booleans(), lambda x: True))).perform(9) == Holds()


def test_conjoin_is_n_ary_and_flat():
    assert conjoin().perform(7) == Holds()
    clauses = [check_with(from_values([k]), lambda x, k=k: x != 2) for k in range(4)]
    v = conjoin(*clauses).perform(1)
    assert v == Falsified("2")
    assert conjoin(*clauses[:2]).perform(1) == Holds()
    # however it is grouped, a conjunction is one flat clause tuple
    left = (clauses[0] & clauses[1]) & (clauses[2] & clauses[3])
    assert left.perform == conjoin(*clauses).perform


def test_deep_conjunction_does_not_recurse():
    assert check(Meta([True] * 2000)).perform(1) == Holds()
    assert isinstance(check(Meta([True] * 5000 + [False])).perform(1), Falsified)
    chained = conjoin()
    for _ in range(5000):
        chained = chained & check(Meta(True))
    assert chained.perform(1) == Holds()
    assert isinstance((chained & check(Meta(False))).perform(1), Falsified)


def test_deeply_nested_proposition_holds():
    holds = True
    for _ in range(5000):
        holds = (holds, Meta([True]))
    assert check(Meta(holds)).perform(1) == Holds()


def test_deeply_nested_proposition_is_falsified():
    falsified = [False]
    for _ in range(5000):
        falsified = [True, falsified, True]
    assert check(Meta(falsified)).perform(1) == Falsified()


def test_confidence_indexes_the_whole_conjunction():
    # a compound property: both clauses get n samples each
    left = check_with(from_values(list(range(100))), lambda x: x < 99)
    right = conjoin()
    c = left & right
    assert c.perform(99) == Holds()
    assert isinstance(c.perform(100), Falsified)


def test_counterexample_text_is_clipped_past_200_characters():
    from purecheck.check import _clip

    assert _clip("x" * 200) == "x" * 200
    assert _clip("x" * 201) == "x" * 197 + "..."
    # through a check: a rendered string carries its two quotes
    whole = check_with(from_values(["a" * 198]), lambda s: False).perform(1)
    assert whole == Falsified("'" + "a" * 198 + "'")
    clipped = check_with(from_values(["a" * 199]), lambda s: False).perform(1)
    assert clipped == Falsified("'" + "a" * 196 + "...")


def test_a_one_element_tuple_renders_with_its_trailing_comma():
    from purecheck.check import render

    # as `repr` writes it, so `(2,)` does not read as the int 2
    assert render((2,)) == "(2,)" and render(("a",)) == "('a',)"
    assert render(((),)) == "((),)" and render([(1,)]) == "[(1,)]"
    assert render(()) == "()" and render((1, 2)) == "(1, 2)" and render([1]) == "[1]"

    def f(t: tuple[int]) -> bool:
        return t[0] < 2

    assert check(Meta(f)).perform(100) == Falsified(counterexample="(2,)")


def test_logical_error_texts_clip_the_sample():
    # like a counterexample, the sample in a logical error is clipped
    raised = check_with(from_values(["a" * 5000]), lambda s: 1 / 0).perform(1)
    assert raised == LogicalError(f"body raised on '{'a' * 196}...: ZeroDivisionError('division by zero')")
    returned = check_with(from_values(["a" * 5000]), lambda s: 1).perform(1)
    assert returned == LogicalError(f"body returned int, not bool, on '{'a' * 196}...")


class _Unrenderable:
    def __repr__(self):
        raise RuntimeError("no repr")


def test_a_sample_that_cannot_be_rendered_keeps_its_verdict():
    shown = "<unrenderable _Unrenderable: RuntimeError('no repr')>"
    g = from_values([_Unrenderable()])
    assert check_with(g, lambda x: False).perform(1) == Falsified(shown)
    assert check_with(g, lambda x: 1 / 0).perform(1) == LogicalError(
        f"body raised on {shown}: ZeroDivisionError('division by zero')"
    )
    assert check_with(g, lambda x: None).perform(1) == LogicalError(f"body returned NoneType, not bool, on {shown}")
    assert check_with(g, lambda x: True).perform(1) == Holds()
    # in a suite the falsification stays a falsification
    suite = Suite()
    suite.register("unrenderable", check_with(g, lambda x: False))
    assert run_suite(suite, 1).entries[0].verdict == Falsified(shown)


class _Unrepresentable(Exception):
    def __repr__(self):
        raise RuntimeError("no repr")


def _raise(e):
    raise e


def test_exception_texts_are_clipped():
    # the exception's repr is clipped like a sample, wherever a verdict shows it
    long = ValueError("x" * 5000)
    shown = "ValueError('" + "x" * 185 + "..."
    assert check_with(from_values([1]), lambda x: _raise(long)).perform(1) == LogicalError(
        f"body raised on 1: {shown}"
    )
    assert check_with(Generator(lambda: _raise(long)), lambda x: True).perform(1) == TacticalError(
        f"sample enumeration failed: {shown}"
    )
    suite = Suite()
    suite.register("crashes", Check(lambda n: _raise(long)))
    assert run_suite(suite, 1).entries[0].verdict == TacticalError(f"check evaluation raised: {shown}")


def test_an_exception_that_cannot_be_represented_keeps_its_verdict():
    # a fixed text naming the type, not a raise out of `perform` or the run
    shown = "<unrepresentable _Unrepresentable>"
    bad = _Unrepresentable()
    assert check_with(from_values([1]), lambda x: _raise(bad)).perform(1) == LogicalError(
        f"body raised on 1: {shown}"
    )
    assert check_with(Generator(lambda: _raise(bad)), lambda x: True).perform(1) == TacticalError(
        f"sample enumeration failed: {shown}"
    )
    suite = Suite()
    suite.register("crashes", Check(lambda n: _raise(bad)))
    assert run_suite(suite, 1).entries[0].verdict == TacticalError(f"check evaluation raised: {shown}")


class _UnrenderableRaisingUnrepresentable:
    def __repr__(self):
        raise _Unrepresentable()


def test_a_sample_whose_render_raises_an_unrepresentable_exception_keeps_its_verdict():
    shown = "<unrenderable _UnrenderableRaisingUnrepresentable: <unrepresentable _Unrepresentable>>"
    g = from_values([_UnrenderableRaisingUnrepresentable()])
    assert check_with(g, lambda x: False).perform(1) == Falsified(shown)


def test_meta_is_a_frozen_value():
    m = Meta([1])
    with pytest.raises(FrozenInstanceError):
        m.reflect = 2
    assert m == Meta([1]) == Meta(reflect=[1]) and m != Meta([2]) and m != [1]
    assert hash(Meta((1,))) == hash(Meta((1,)))
    assert repr(m) == "Meta(reflect=[1])" and vars(m) == {"reflect": [1]}
