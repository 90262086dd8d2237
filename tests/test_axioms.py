import pytest

from purecheck import (
    INT_ADD,
    LIST_INT,
    STRING,
    UNIT,
    Falsified,
    Holds,
    Monoid,
    MonoidCommute,
    PatchInvert,
    RActionCompose,
    RActionUnit,
    RepeatLength,
    action,
    axiomatic,
    check,
    declare_nonneg,
    from_values,
    inv,
    is_nonneg_eligible,
    monoid_laws,
    nonneg_lift,
    strings,
    words,
)
from purecheck.check import Meta
from purecheck.patches import act


def run(name_checks, confidence=60):
    return {name: c.perform(confidence) for name, c in name_checks}


def test_monoid_laws_hold_for_lists():
    results = run(monoid_laws(LIST_INT))
    assert set(results) == {
        "monoid.left_unit<list<int>>",
        "monoid.right_unit<list<int>>",
        "monoid.assoc<list<int>>",
    }
    assert all(v == Holds() for v in results.values())


def test_monoid_laws_hold_for_strings_and_ints():
    for m in (STRING, INT_ADD, UNIT):
        assert all(v == Holds() for v in run(monoid_laws(m)).values())


def test_monoid_laws_catch_a_broken_unit():
    wrong = Monoid("wrong", 0, lambda a, b: a + b + 1, INT_ADD.elements)
    results = run(monoid_laws(wrong), confidence=30)
    assert isinstance(results["monoid.left_unit<wrong>"], Falsified)
    assert isinstance(results["monoid.right_unit<wrong>"], Falsified)
    # the shifted operation happens to stay associative
    assert results["monoid.assoc<wrong>"] == Holds()


def test_commutativity_axiom():
    assert check(axiomatic(MonoidCommute(INT_ADD))).perform(60) == Holds()
    v = check(axiomatic(MonoidCommute(STRING))).perform(60)
    assert isinstance(v, Falsified)
    assert v.counterexample == "('a', 'b')"


def test_subtraction_fails_associativity():
    sub = Monoid("int-sub", 0, lambda a, b: a - b, INT_ADD.elements)
    results = run(monoid_laws(sub), confidence=40)
    assert isinstance(results["monoid.assoc<int-sub>"], Falsified)
    # 0 is still a right unit for subtraction, but not a left unit
    assert results["monoid.right_unit<int-sub>"] == Holds()
    assert isinstance(results["monoid.left_unit<int-sub>"], Falsified)


def test_right_action_laws_for_string_append():
    def append(s, a):
        return s + a

    unit = check(axiomatic(RActionUnit(append, strings(), STRING)))
    compose = check(axiomatic(RActionCompose(append, strings(), STRING)))
    assert unit.perform(60) == Holds()
    assert compose.perform(60) == Holds()


def test_right_action_laws_catch_a_left_action():
    # prepending is a *left* action of the free monoid; composition flips
    def prepend(s, a):
        return a + s

    assert check(axiomatic(RActionUnit(prepend, strings(), STRING))).perform(40) == Holds()
    v = check(axiomatic(RActionCompose(prepend, strings(), STRING))).perform(40)
    assert isinstance(v, Falsified)


def test_patch_invert_axiom_for_words_on_strings():
    ax = PatchInvert(strings(), words, "string,Word<Edit>")
    assert check(axiomatic(ax)).perform(80) == Holds()


class _Chop:
    """A lossy test patch: drop the last character.  Its declared inverse
    is itself, which is wrong — exactly what the invert law must catch."""

    def __hash__(self):
        return 7

    def __eq__(self, other):
        return isinstance(other, _Chop)


@act.register
def _(p: _Chop, s: str):
    return s[:-1] if s else None


@inv.register
def _(p: _Chop) -> _Chop:
    return p


def test_patch_invert_detects_a_wrong_inverse():
    bad = PatchInvert(strings(), from_values([_Chop()]), "string,chop")
    v = check(axiomatic(bad)).perform(40)
    assert isinstance(v, Falsified)
    # sanity: the action itself behaves as declared
    assert action("ab", _Chop()) == "a"
    assert action("", _Chop()) is None


def test_repeat_length_axiom_shape():
    law = axiomatic(RepeatLength("ab"))
    assert isinstance(law, Meta)
    # the law is about a single int index; negative indices break it
    v = check(law).perform(10)
    assert isinstance(v, Falsified)
    assert v.counterexample == "-1"


def test_repeat_length_vacuous_for_empty_sample():
    # an empty string scales trivially for every k, negative or not
    assert check(axiomatic(RepeatLength(""))).perform(50) == Holds()


def test_nonneg_lift_restores_the_law():
    lifted = nonneg_lift(RepeatLength("ab"))
    assert check(lifted).perform(200) == Holds()


def test_nonneg_lift_is_idempotent():
    once = nonneg_lift(RepeatLength("xy"))
    twice = nonneg_lift(once)
    assert check(twice).perform(120) == Holds()


def test_nonneg_lift_rejects_ineligible_axioms():
    with pytest.raises(TypeError):
        nonneg_lift(MonoidCommute(INT_ADD))


def test_nonneg_lift_rejects_a_constant_proposition():
    with pytest.raises(TypeError, match="^non-negative lifting needs an integer-indexed proposition$"):
        nonneg_lift(Meta(True))


def test_nonneg_eligibility_registry():
    assert is_nonneg_eligible(RepeatLength("a"))
    assert not is_nonneg_eligible(MonoidCommute(INT_ADD))

    class Custom:
        pass

    assert not is_nonneg_eligible(Custom())
    declare_nonneg(Custom)
    assert is_nonneg_eligible(Custom())


def test_axiomatic_rejects_unknown_values():
    with pytest.raises(TypeError):
        axiomatic(object())
