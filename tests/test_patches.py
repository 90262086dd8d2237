"""String edits, polarized literals, words, inversion, and the group action
on ordinary strings.
"""
import copy
import os
import pickle
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import purecheck
from purecheck import (
    Edit,
    EditOp,
    Falsified,
    For,
    Literal,
    Meta,
    Polarity,
    Word,
    action,
    check,
    edits,
    from_list,
    from_values,
    gpair,
    inv,
    literals,
    parse_literal,
    parse_word,
    render,
    render_word,
    string_delete,
    string_insert,
    strings,
    undo,
    words,
)
from purecheck.check import FrozenInstanceError
from purecheck.editor import DONE, Ins, editor_action
from purecheck.patches import _LITERAL, _literal, act, splice

#: each way to replace a value's fields: its `__replace__`, and on 3.13+
#: `copy.replace`, which calls it
REPLACES = [lambda x, **changes: x.__replace__(**changes)]
if sys.version_info >= (3, 13):
    REPLACES.append(copy.replace)

# -- handy strategies -------------------------------------------------------

_chars = st.sampled_from("abcxyz")
_edits = st.builds(
    Edit,
    st.sampled_from([EditOp.INSERT, EditOp.DELETE]),
    st.integers(min_value=0, max_value=6),
    _chars,
)
_literals = st.builds(
    Literal, st.sampled_from([Polarity.POSITIVE, Polarity.NEGATIVE]), _edits
)
_words = st.lists(_literals, max_size=6).map(lambda ls: Word(tuple(ls)))
_strings = st.text(alphabet="abc", max_size=6)


def lit(op, pos, ch, *, neg=False):
    e = Edit(op, pos, ch)
    return Literal(Polarity.NEGATIVE if neg else Polarity.POSITIVE, e)


# -- partial edit functions --------------------------------------------------


def test_string_insert_cases():
    assert string_insert("", 0, "x") == "x"
    assert string_insert("ab", 2, "x") == "abx"
    assert string_insert("ab", 1, "x") == "axb"
    assert string_insert("ab", 5, "x") is None
    assert string_insert("ab", -1, "x") is None


def test_string_delete_cases():
    assert string_delete("abc", 0, "a") == "bc"
    assert string_delete("abc", 0, "b") is None
    assert string_delete("abc", 3, "c") is None
    assert string_delete("abc", 2, "c") == "ab"


def test_string_edits_are_the_str_splice():
    for s in ("", "a", "ab", "abc", "aba"):
        for i in range(-1, len(s) + 2):
            for c in "abx":
                assert string_insert(s, i, c) == splice(s, True, i, c)
                assert string_delete(s, i, c) == splice(s, False, i, c)


@given(_strings, st.integers(min_value=0, max_value=8), _chars)
def test_insert_then_delete_round_trips(s, i, c):
    t = string_insert(s, i, c)
    if t is not None:
        assert string_delete(t, i, c) == s


@given(_strings, st.integers(min_value=0, max_value=8), _chars)
def test_delete_then_insert_round_trips(s, i, c):
    t = string_delete(s, i, c)
    if t is not None:
        assert string_insert(t, i, c) == s


# -- inversion ---------------------------------------------------------------


def test_inv_flips_op_on_edits():
    assert inv(Edit(EditOp.INSERT, 3, "a")) == Edit(EditOp.DELETE, 3, "a")
    assert inv(Edit(EditOp.DELETE, 0, "z")) == Edit(EditOp.INSERT, 0, "z")


def test_inv_flips_polarity_on_literals():
    l = lit(EditOp.INSERT, 1, "b")
    assert inv(l).polarity == Polarity.NEGATIVE
    assert inv(l).atom == l.atom
    assert inv(inv(l)) == l


def test_from_list_wraps_edits_positively():
    w = from_list([Edit(EditOp.INSERT, 2, "a"), Edit(EditOp.DELETE, 3, "b")])
    assert all(l.polarity is Polarity.POSITIVE for l in w.literals)
    assert w.literals == (
        Literal(Polarity.POSITIVE, Edit(EditOp.INSERT, 2, "a")),
        Literal(Polarity.POSITIVE, Edit(EditOp.DELETE, 3, "b")),
    )
    assert render(w) == "+2:a,-3:b"


def test_inv_reverses_words():
    w = Word((lit(EditOp.INSERT, 0, "a"), lit(EditOp.DELETE, 0, "b")))
    got = inv(w)
    assert list(got.literals) == [inv(w.literals[1]), inv(w.literals[0])]


@given(_words)
def test_inv_is_an_involution(w):
    assert inv(inv(w)) == w


@pytest.mark.parametrize("arg", ["", "ab", None])
def test_edit_argument_is_one_character(arg):
    # "-0:" once folded to an automaton that maps "" to "", while the
    # string action of the same word is undefined there
    with pytest.raises(ValueError, match="one character"):
        Edit(EditOp.DELETE, 0, arg)
    with pytest.raises(ValueError, match="one character"):
        for replace in REPLACES:
            replace(Edit(EditOp.DELETE, 0, "a"), arg=arg)


def test_an_edit_keeps_a_str_subclass_argument_as_plain_text():
    # rendered through the subclass's `__str__`, the word below spelled
    # "+1:zz", and hashed apart from the equal word over "a"
    class Shown(str):
        def __str__(self):
            return "zz"

    e = Edit(EditOp.INSERT, 1, Shown("a"))
    assert type(e.arg) is str and e == Edit(EditOp.INSERT, 1, "a")
    w = Word((Literal(Polarity.POSITIVE, e),))
    assert render(w) == "+1:a" and hash(w) == hash(parse_word("+1:a"))


@pytest.mark.parametrize(
    "op, pos",
    [
        ("+", 0),  # acted as a deletion and failed to render
        (EditOp.INSERT, "0"),  # made word_equiv compare a str with an int
        (EditOp.INSERT, 1.5),  # folded to a float run that failed to render
        (EditOp.INSERT, True),  # rendered as "+True:x", which does not parse
    ],
)
def test_edit_op_and_position_have_the_model_types(op, pos):
    with pytest.raises(ValueError, match="an EditOp at an int position"):
        Edit(op, pos, "x")
    with pytest.raises(ValueError, match="an EditOp at an int position"):
        for replace in REPLACES:
            replace(Edit(EditOp.INSERT, 0, "x"), op=op, pos=pos)


@pytest.mark.parametrize(
    "polarity",
    [
        "positive",  # acted as a negative literal, rendered "~+0:b", and had no inverse
        True,
        None,
    ],
)
def test_literal_polarity_is_a_polarity(polarity):
    with pytest.raises(ValueError, match="polarity is a Polarity"):
        Literal(polarity, Edit(EditOp.INSERT, 0, "b"))
    with pytest.raises(ValueError, match="polarity is a Polarity"):
        for replace in REPLACES:
            replace(lit(EditOp.INSERT, 0, "b"), polarity=polarity)


def test_fields_are_checked_and_frozen_however_built():
    e = Edit(op=EditOp.INSERT, pos=2, arg="a")
    with pytest.raises(FrozenInstanceError):
        e.pos = 3
    # a word stores its entries as a tuple, whatever iterable it is given
    ls = [Literal(Polarity.POSITIVE, e), e]
    for spelling in (ls, iter(ls), (x for x in ls), dict.fromkeys(ls)):
        built = Word(spelling)
        assert type(built.literals) is tuple and built == Word(tuple(ls))
    assert Word().literals == ()
    for replace in REPLACES:
        assert replace(e, pos=3) == Edit(EditOp.INSERT, 3, "a")
        assert replace(Literal(Polarity.POSITIVE, e), atom=Word()) == Literal(Polarity.POSITIVE, Word(()))
        assert type(replace(Word(), literals=ls).literals) is tuple
        w = Word(ls)
        hash(w)  # the cached hash is not carried over
        shorter = replace(w, literals=ls[:1])
        assert shorter == Word(ls[:1]) and hash(shorter) == hash(Word(ls[:1]))


# -- the action on strings ---------------------------------------------------


def test_action_of_single_literals():
    assert action("bc", lit(EditOp.INSERT, 0, "a")) == "abc"
    assert action("abc", lit(EditOp.DELETE, 1, "b")) == "ac"
    # a negative literal runs the opposite edit
    assert action("abc", lit(EditOp.INSERT, 0, "a", neg=True)) == "bc"
    assert action("bc", lit(EditOp.DELETE, 0, "a", neg=True)) == "abc"


def test_action_is_partial():
    assert action("", lit(EditOp.DELETE, 0, "a")) is None
    assert action("x", lit(EditOp.INSERT, 9, "a")) is None


def test_word_action_folds_left():
    w = Word(
        (
            lit(EditOp.INSERT, 0, "x"),
            lit(EditOp.INSERT, 1, "y"),
            lit(EditOp.DELETE, 2, "a"),
        )
    )
    assert action("ab", w) == "xyb"


def test_word_action_absorbs_failure():
    w = Word((lit(EditOp.DELETE, 0, "z"), lit(EditOp.INSERT, 0, "a")))
    assert action("abc", w) is None


def test_empty_word_is_identity():
    assert action("anything", Word(())) == "anything"


@given(_strings, _words)
def test_undo_inverts_action(s, w):
    t = action(s, w)
    if t is not None:
        assert undo(t, w) == s


@given(_strings, _words)
def test_undo_is_action_of_inverse(s, w):
    assert undo(s, w) == action(s, inv(w))


# -- one fold per word, pinned to the per-entry action --------------------------


@dataclass(frozen=True)
class _Swap:
    """A test patch that changes the state's type: a string ``s`` becomes
    the automaton that prints ``s + tag`` before its input, and an
    automaton becomes its output on the input ``tag``.  Its declared
    inverse is the swap with the other tag."""

    tag: str


@act.register
def _(p: _Swap, s):
    return Ins((s + p.tag,), ()) if type(s) is str else editor_action(p.tag, s)


@inv.register
def _(p: _Swap) -> _Swap:
    return _Swap("b" if p.tag == "a" else "a")


def _per_entry(s, w):
    """The reference fold: one `action` call per entry of ``w``, with a
    negative literal applying the inverse of its atom."""
    for e in w.literals:
        if type(e) is Literal and e.polarity is Polarity.NEGATIVE:
            e = inv(e.atom)
        s = action(s, e)
        if s is None:
            return None
    return s


def _mixed(rng, w):
    """``w`` with some literals spelled as bare edits, `_Swap` literals of
    either polarity in between, and up to two slices nested as words."""
    entries = []
    for lit in w.literals:
        if rng.random() < 0.25:
            entries.append(lit.atom if lit.polarity is Polarity.POSITIVE else inv(lit.atom))
        else:
            entries.append(lit)
        if rng.random() < 0.2:
            entries.append(Literal(rng.choice([Polarity.POSITIVE, Polarity.NEGATIVE]), _Swap(rng.choice("ab"))))
    for _ in range(2):
        if len(entries) > 1 and rng.random() < 0.5:
            i = rng.randrange(len(entries))
            j = rng.randrange(i, len(entries)) + 1
            entries[i:j] = [Word(tuple(entries[i:j]))]
    return Word(tuple(entries))


def test_word_fold_agrees_with_the_per_entry_action():
    rng = random.Random(5)
    seen = set()
    kinds = set()
    for w, s in gpair(words, strings()).generate(3000):
        mixed = _mixed(rng, w)
        kinds.update(map(type, mixed.literals))
        for word in (w, mixed):
            for state in (s, DONE):
                got = action(state, word)
                assert got == _per_entry(state, word), (state, word)
                assert undo(state, word) == action(state, inv(word)), (state, word)
                seen.add((type(state), type(got)))
    assert kinds == {Literal, Edit, Word}
    # every outcome on both state types, and `_Swap` moving states across
    assert seen == {(a, b) for a in (str, Ins) for b in (str, Ins, type(None))}


def test_fold_keeps_the_errors_of_the_dispatchers():
    for apply in (action, undo):
        with pytest.raises(TypeError, match="^states of type int do not support edits$"):
            apply(5, parse_word("+0:a"))
        assert apply(5, Word(())) == 5
    with pytest.raises(TypeError, match="^not a patch: int$"):
        action("a", Word((1,)))
    with pytest.raises(TypeError, match="^no inverse defined for int$"):
        inv(Word((1, 2)))


def test_exact_type_resolution_agrees_with_dispatch():
    # `action` and the fold read `registry[type(x)]` first; `dispatch`
    # answers the same for every registered type
    for dispatcher in (act, splice):
        for cls, impl in dispatcher.registry.items():
            assert dispatcher.registry.get(cls) is dispatcher.dispatch(cls) is impl, cls
    assert {Edit, Literal, Word} <= set(act.registry) and {str, Ins} <= set(splice.registry)

    # a subclass of `str` is not registered: its splicer comes from `dispatch`
    class Text(str):
        pass

    assert splice.registry.get(Text) is None and splice.dispatch(Text) is splice.registry[str]
    w = parse_word("+1:x,~-0:a")
    assert action(Text("ab"), w) == action("ab", w) == "aaxb"
    assert undo(Text("aaxb"), w) == "ab"

    # a type that is not a patch still falls through to the default
    class Unregistered:
        pass

    for p in (Unregistered(), Word((Unregistered(),))):
        with pytest.raises(TypeError, match="^not a patch: Unregistered$"):
            action("a", p)


def test_kinds_registered_after_the_first_call_are_honoured():
    class Bang:
        pass

    class Tape:
        def __init__(self, text):
            self.text = text

    with pytest.raises(TypeError, match="^not a patch: Bang$"):
        action("a", Bang())
    with pytest.raises(TypeError, match="^states of type Tape do not support edits$"):
        action(Tape("a"), parse_word("+0:b"))

    @splice.register(Tape)
    def _(s, insert, i, c):
        t = string_insert(s.text, i, c) if insert else string_delete(s.text, i, c)
        return None if t is None else Tape(t)

    act.register(Bang)(lambda p, s: s + "!")
    assert action("a", Bang()) == "a!"
    assert action("a", Word((parse_literal("+0:b"), Bang()))) == "ba!"
    assert action(Tape("a"), parse_word("+0:b,-1:a,+1:c")).text == "bc"
    assert action(Tape("a"), parse_word("-0:b")) is None


def test_automata_are_states_not_patches():
    # an automaton is what a word denotes: it is edited, it does not act
    with pytest.raises(TypeError, match="not a patch: Ins"):
        action("ab", DONE)
    assert action(DONE, parse_word("+0:a")) == Ins(("a",), ())


# -- text form ----------------------------------------------------------------


def test_render_edit_and_literal():
    assert render(Edit(EditOp.INSERT, 2, "a")) == "+2:a"
    assert render(Edit(EditOp.DELETE, 3, "b")) == "-3:b"
    assert render(lit(EditOp.DELETE, 3, "b")) == "-3:b"
    assert render(lit(EditOp.INSERT, 2, "a", neg=True)) == "~+2:a"


def test_render_word():
    w = Word((lit(EditOp.INSERT, 0, "a"), lit(EditOp.DELETE, 1, "b", neg=True)))
    assert render(w) == "+0:a,~-1:b"
    assert render(Word(())) == ""


def test_render_reads_every_entry_action_accepts():
    # a bare edit, a nested word and a literal over a word render as what
    # they are; a nested word stands in parentheses
    e = Edit(EditOp.INSERT, 1, "a")
    f = Edit(EditOp.DELETE, 0, "b")
    w = Word((e, from_list([e, f]), Literal(Polarity.NEGATIVE, from_list([f]))))
    assert render(w) == "+1:a,(+1:a,-0:b),~(-0:b)"
    assert render(Word((Literal(Polarity.NEGATIVE, from_list([e])),))) == "~(+1:a)"
    # so a check over such words reports a counterexample instead of raising
    failing = check(Meta(For(from_values([Word((e,))]), lambda w: False)))
    assert failing.perform(1) == Falsified("+1:a")


def test_parse_word_round_trip_examples():
    for text in ("+0:a", "-2:b,+0:c", "~+1:x,~-0:y,+3:z", ""):
        assert render(parse_word(text)) == text


@given(_words)
def test_parse_render_round_trip(w):
    assert parse_word(render(w)) == w


def test_every_rendered_word_parses_back():
    # the argument is the one character after ':', so ' ' and ',' are
    # arguments like any other
    assert parse_word("+0:,") == Word((lit(EditOp.INSERT, 0, ","),))
    assert parse_word("+0: ,~-1:,,+2:a") == Word(
        (
            lit(EditOp.INSERT, 0, " "),
            lit(EditOp.DELETE, 1, ",", neg=True),
            lit(EditOp.INSERT, 2, "a"),
        )
    )
    assert parse_word(" +0:a , ~-1:b ") == parse_word("+0:a,~-1:b")
    assert render_word(parse_word("+3:٣")) == "+3:٣"
    for w in words.generate(20000):
        assert parse_word(render_word(w)) == w, render_word(w)


def test_only_words_of_literals_over_edits_parse_back():
    e = Edit(EditOp.INSERT, 1, "a")
    f = Edit(EditOp.DELETE, 0, "b")
    w = Word((lit(EditOp.INSERT, 1, "a"), lit(EditOp.DELETE, 0, "b", neg=True)))
    assert parse_word(render(w)) == w
    # a nested word renders in parentheses, which the parser does not read
    for nested in (Word((Literal(Polarity.NEGATIVE, from_list([e])),)), Word((e, from_list([e, f])))):
        with pytest.raises(ValueError):
            parse_word(render(nested))
    # a bare edit renders as its positive literal, and parses back as one
    bare = Word((e, f))
    assert parse_word(render(bare)) == from_list([e, f]) != bare
    # a negative position renders, but a position is digits, so the text
    # does not parse
    with pytest.raises(ValueError):
        parse_word(render(Word((lit(EditOp.INSERT, -3, "a"),))))


# positions are ASCII digits without a leading zero: `int` reads any Unicode
# decimal digit and skips leading zeros, so "+٣:a" and "+03:a" would parse as
# "+3:a" and not render back
_GARBAGE = (
    "+:a", "1:a", "+1:", "+1:ab", "*1:a", "+-1:a", "+٣:a", "+２:a", "~-１:b", "+1٣:a", "+0:a,+٣:a",
    "+03:a", "-00:a", "~+01:b",
)


def _reject_garbage():
    for bad in _GARBAGE:
        for parse in (parse_word, parse_literal):
            try:
                parse(bad)
            except ValueError:
                continue
            raise AssertionError(f"expected {parse.__name__} to fail on {bad!r}")


def test_parse_rejects_garbage():
    _reject_garbage()
    # a text that is not exactly one literal is never a key of the cache:
    # the cache's function refuses it, and a second pass, which finds the
    # literal pieces of the garbage ("+0:a" of "+0:a,+٣:a") cached by the
    # first, adds no entry (the size check alone would hold on a full cache)
    for bad in _GARBAGE:
        with pytest.raises(ValueError, match="^not a literal: "):
            _literal(bad)
    cached = _literal.cache_info().currsize
    _reject_garbage()
    assert _literal.cache_info().currsize == cached


@pytest.mark.parametrize("text", [None, 5, b"+0:a", ["+0:a"]])
def test_parse_takes_only_text(text):
    for parse in (parse_word, parse_literal):
        with pytest.raises(TypeError):
            parse(text)


# the regex-only parse that the split-then-cache parse stands in for: one
# regex split, each literal built afresh; `parse_word` and `parse_literal`
# must agree with it on every text
_REFERENCE_LITERAL = re.compile(r"(~?[+-](?:0|[1-9][0-9]*):.)", re.DOTALL)


def _reference_tokens(text):
    parts = _REFERENCE_LITERAL.split(text)
    seps = list(map(str.strip, parts[::2]))
    inner = seps[1:-1]
    if seps[0] or seps[-1] or inner.count(",") != len(inner):
        return None
    return parts[1::2]


def _reference_literal(token):
    negative = token[0] == "~"
    body = token[1:] if negative else token
    op = EditOp.INSERT if body[0] == "+" else EditOp.DELETE
    return Literal(Polarity.NEGATIVE if negative else Polarity.POSITIVE, Edit(op, int(body[1:-2]), body[-1]))


def _reference_parse_word(text):
    tokens = _reference_tokens(text)
    if tokens is None:
        raise ValueError(f"not a word: {text!r}")
    return Word(tuple(map(_reference_literal, tokens)))


def _reference_parse_literal(text):
    tokens = _reference_tokens(text)
    if tokens is None or len(tokens) != 1:
        raise ValueError(f"not a literal: {text!r}")
    return _reference_literal(tokens[0])


def _parsed(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


def _spaced(rng, literal_texts):
    """A word's literal texts joined by commas, with random whitespace
    around each separator and at either end."""
    pad = lambda: rng.choice(("", "", " ", "\t", "\n", " \n "))
    return pad() + ",".join(pad() + t + pad() for t in literal_texts) + pad()


def test_parse_agrees_with_the_regex_parse():
    rng = random.Random(29)
    # arguments the separators, the whitespace and the marks are made of
    odd = [
        Word(tuple(lit(rng.choice(list(EditOp)), rng.randint(0, 30), rng.choice(",: ~\na"), neg=rng.random() < 0.5)
                   for _ in range(rng.randint(1, 6))))
        for _ in range(3000)
    ]
    texts = list(_GARBAGE)
    for bad in ("+0:a,", ",+0:a", "+0:a,,+1:b", ",", ",,", " , ", "+0:a, ,+1:b", "+0:,,", "+1" + "0" * 5000 + ":a"):
        texts += [bad, " " + bad + " "]
    for k, w in enumerate([*words.generate(20000), *odd]):
        literal_texts = list(map(render, w.literals))
        texts += [render_word(w), _spaced(rng, literal_texts)]
        if k % 5 == 0:
            texts += [*literal_texts, _spaced(rng, literal_texts[:1])]
    # and text made of what literals are made of
    texts += ["".join(rng.choice("+-~:, \n0123a") for _ in range(rng.randint(0, 12))) for _ in range(5000)]
    words_by_path = [0, 0]  # through the regex split, through one split on ","
    for text in texts:
        word = _parsed(parse_word, text)
        assert word == _parsed(_reference_parse_word, text), text
        assert _parsed(parse_literal, text) == _parsed(_reference_parse_literal, text), text
        if word is not ValueError:
            words_by_path[all(map(_LITERAL.fullmatch, text.split(",")))] += 1
    assert min(words_by_path) > 10000, words_by_path


def test_repeated_literal_texts_parse_to_one_object():
    one = parse_word("+3:a").literals[0]
    assert parse_word("-1:b,+3:a").literals[1] is one
    # whitespace around a separator takes the regex split, which reads the
    # same cache
    assert parse_word(" +3:a , -1:b").literals[0] is one
    assert parse_literal("+3:a") is one
    assert parse_literal(" +3:a ") is one


class _CountedHash:
    def __init__(self):
        self.calls = 0

    def __hash__(self):
        self.calls += 1
        return 7


def test_a_word_hashes_its_literals_once():
    atom = _CountedHash()
    w = Word((Literal(Polarity.POSITIVE, atom),))
    assert hash(w) == hash(w)
    assert atom.calls == 1


@dataclass(frozen=True)
class _Foreign:
    """A hashable atom of no patch kind `patches` knows."""

    name: str


def _stream_like_words(rng, n):
    """Words like the benchmark's stream: 8–32 literals of either polarity
    at positions up to 200, parsed from text."""
    out = []
    for _ in range(n):
        parts = [
            f"{rng.choice(['', '~'])}{rng.choice('+-')}{rng.randint(0, 200)}:{rng.choice('abcxyz')}"
            for _ in range(rng.randint(8, 32))
        ]
        out.append(parse_word(",".join(parts)))
    return out


def _respelled(w):
    """``w`` built again every way its entries allow, from fresh objects."""
    flat = all(type(x) is Literal and type(x.atom) is Edit for x in w.literals)
    fresh = tuple(
        Literal(x.polarity, Edit(x.atom.op, x.atom.pos, x.atom.arg)) if flat else x for x in w.literals
    )
    out = [Word(fresh), Word(tuple(w.literals)), pickle.loads(pickle.dumps(w))]
    if flat and all(x.atom.pos >= 0 for x in w.literals):
        # one split on "," unless an argument is ","; with whitespace around
        # the separators, always the regex split
        out.append(parse_word(render_word(w)))
        out.append(parse_word(" " + " , ".join(map(render, w.literals)) + "\n"))
        if all(x.polarity is Polarity.POSITIVE for x in w.literals):
            out.append(from_list(x.atom for x in w.literals))
    return out


def test_a_word_hashes_as_it_compares_in_every_spelling():
    a, b = Edit(EditOp.INSERT, 2, "a"), Edit(EditOp.DELETE, 0, "b")
    mixed = [
        Word((a,)),
        Word((lit(EditOp.INSERT, 0, "x"), b, a)),
        Word((Word((Literal(Polarity.NEGATIVE, a),)),)),
        Word((Literal(Polarity.POSITIVE, Word((Literal(Polarity.POSITIVE, b),))), a)),
        Word((Literal(Polarity.NEGATIVE, _Foreign("f")), lit(EditOp.DELETE, 3, "c"))),
        Word((_Foreign("g"),)),
    ]
    # arguments that are the separator or whitespace, and a negative
    # position, which renders but does not parse
    odd = [
        parse_word("+1:,,~-0:a"),
        parse_word("+0: ,~+2:,"),
        parse_word("-3:\n,+1: ,+1:,"),
        Word((lit(EditOp.INSERT, -3, "a"), lit(EditOp.DELETE, 1, ",", neg=True))),
    ]
    ws = [*words.generate(3000), *_stream_like_words(random.Random(5), 500), *mixed, *odd]
    for w in ws:
        for other in _respelled(w):
            assert other == w and hash(other) == hash(w), render_word(w)
    # the text hash still tells apart what compares different
    assert len(set(ws)) == len(set(map(repr, ws))) > 3000
    assert Word((a,)) != Word((Literal(Polarity.POSITIVE, a),))


def test_only_the_one_split_parse_hands_over_its_hash():
    # a text whose pieces between commas are each one literal is the word's
    # rendering, so the parse stores its hash; the regex split, taken for
    # whitespace around a separator or a "," argument, leaves it to the
    # first `hash`
    text = "+0:a,~-1:b,+2: "
    w = parse_word(text)
    assert w._hash == hash(text) == hash(Word(w.literals))
    for other in (" +0:a , ~-1:b,+2: ", "+1:,,+0:a", "+1:,", ""):
        assert parse_word(other)._hash is None, other
    assert hash(parse_word("+1:,,+0:a")) == hash("+1:,,+0:a")


def _in_python(code, seed, stdin=b""):
    src = str(Path(purecheck.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, input=stdin, capture_output=True, timeout=60
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_a_pickled_word_hashes_afresh_under_another_hash_seed():
    # hash values depend on the hash seed, so a hash cached in one process
    # is stale in the next: it must not be part of the pickled state
    text = "+2:a,~-3:b,+0: "
    dumped = _in_python(
        "import pickle, sys\n"
        "from purecheck import parse_word\n"
        f"w = parse_word({text!r})\n"
        "hash(w)\n"
        "sys.stdout.buffer.write(pickle.dumps(w))\n",
        seed=1,
    )
    out = _in_python(
        "import pickle, sys\n"
        "from purecheck import parse_word, word_equiv\n"
        "w = pickle.loads(sys.stdin.buffer.read())\n"
        f"fresh = parse_word({text!r})\n"
        "assert hash(w) == hash(fresh), 'a hash from another process'\n"
        "assert word_equiv(w, fresh)\n"
        "print(repr(w))\n",
        seed=2,
        stdin=dumped,
    )
    assert out.decode().strip() == repr(parse_word(text))


# -- generators over the algebra ----------------------------------------------


def test_edit_generator_is_well_typed():
    for e in edits.generate(40):
        assert isinstance(e, Edit)
        assert e.pos >= 0
        assert isinstance(e.arg, str) and len(e.arg) == 1


def test_literal_generator_covers_both_polarities():
    pol = {l.polarity for l in literals.generate(40)}
    assert pol == {Polarity.POSITIVE, Polarity.NEGATIVE}


def test_word_generator_starts_empty_and_grows():
    ws = words.generate(30)
    assert ws[0] == Word(())
    assert any(len(w.literals) >= 2 for w in ws)
    assert len(set(ws)) == len(ws)
