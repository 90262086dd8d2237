"""The frozen value classes: construction, equality, hashing, repr,
copying and replacing, field by field, as a frozen dataclass gives them."""
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import purecheck
from purecheck import (
    DONE,
    Check,
    Def,
    DefUndef,
    Diff,
    Edit,
    EditOp,
    EntryResult,
    Fail,
    Falsified,
    For,
    Holds,
    Ins,
    Literal,
    LogicalError,
    Meta,
    Monoid,
    MonoidCommute,
    NestedFor,
    PatchInvert,
    Polarity,
    RActionCompose,
    RActionUnit,
    RepeatLength,
    Report,
    SuiteEntry,
    TacticalError,
    Try,
    Undef,
    Word,
)
from purecheck.check import FrozenInstanceError, _Value

_MONOID = Monoid("m", 0, max, (1, 2))
_ENTRY = EntryResult("e", Holds(), "", 3, 1.5)
_EDIT = Edit(EditOp.INSERT, 2, "a")
_LITERAL = Literal(Polarity.POSITIVE, _EDIT)

# each class, its fields in order with a value for each, and the fields
# that have a default with that default; the values stand in for what the
# fields hold in use (generators, bodies, editors) and all pickle
VALUES = [
    (Holds, {}, {}),
    (Falsified, {"counterexample": "7"}, {"counterexample": None}),
    (LogicalError, {"diagnostic": "crashed"}, {}),
    (TacticalError, {"diagnostic": "unstated"}, {}),
    (Meta, {"reflect": (1, 2)}, {}),
    (Check, {"perform": abs}, {}),
    (For, {"bound": (1, 2), "body": abs}, {}),
    (NestedFor, {"outer_bound": (1,), "inner_bound": (2,), "body": max}, {}),
    (Fail, {}, {}),
    (Try, {"insertion": DONE}, {}),
    (Def, {"editor": Try(DONE)}, {}),
    (Undef, {"editor": Fail()}, {}),
    (DefUndef, {"left": Try(DONE), "right": Fail()}, {}),
    (Diff, {"left": Fail(), "right": Try(DONE)}, {}),
    (Monoid, {"name": "m", "unit": 0, "combine": max, "elements": (1, 2)}, {}),
    (MonoidCommute, {"monoid": _MONOID}, {}),
    (RActionUnit, {"act": max, "states": ("", "a"), "monoid": _MONOID}, {}),
    (RActionCompose, {"act": max, "states": ("", "a"), "monoid": _MONOID}, {}),
    (PatchInvert, {"states": ("",), "patch_domain": (1,), "name": "p"}, {}),
    (RepeatLength, {"sample": "ab"}, {}),
    (SuiteEntry, {"name": "s", "check": Check(abs), "tags": ("t",)}, {"tags": ()}),
    (EntryResult, {"name": "e", "verdict": Holds(), "counterexample": "", "samples": 3, "ms": 1.5}, {}),
    (Report, {"entries": (_ENTRY,)}, {}),
    (Edit, {"op": EditOp.INSERT, "pos": 2, "arg": "a"}, {}),
    (Literal, {"polarity": Polarity.POSITIVE, "atom": _EDIT}, {}),
    (Word, {"literals": (_LITERAL, _EDIT)}, {"literals": ()}),
    (Ins, {"prefixes": ("x", ""), "steps": (2,)}, {}),
]

# a changed value for each field of the classes that check their fields;
# a field of any other class changes to "changed"
CHANGED = {
    Edit: {"op": EditOp.DELETE, "pos": 3, "arg": "b"},
    Literal: {"polarity": Polarity.NEGATIVE, "atom": Word()},
    Word: {"literals": (_LITERAL,)},
    Ins: {"prefixes": ("y", ""), "steps": (3,)},
}

#: each way to replace a value's fields: its `__replace__`, and on 3.13+
#: `copy.replace`, which calls it
REPLACES = [lambda x, **changes: x.__replace__(**changes)]
if sys.version_info >= (3, 13):
    REPLACES.append(copy.replace)


@pytest.mark.parametrize("cls, fields, defaults", VALUES, ids=[c.__name__ for c, _, _ in VALUES])
def test_a_value_class_behaves_as_a_frozen_dataclass(cls, fields, defaults):
    names, values = tuple(fields), tuple(fields.values())
    x = cls(*values)
    assert cls.__match_args__ == names
    assert tuple(getattr(x, n) for n in names) == values
    # by keyword, and with each default left out
    assert cls(**fields) == x
    required = {n: v for n, v in fields.items() if n not in defaults}
    assert tuple(getattr(cls(**required), n) for n in defaults) == tuple(defaults.values())
    assert cls(*required.values()) == cls(**required, **defaults)

    # equality and hashing over the field tuple, and only within the class;
    # a word hashes as its text, not as its field tuple
    twin = cls(*values)
    assert x == twin and not x != twin and hash(x) == hash(twin)
    if cls.__hash__ is _Value.__hash__:
        assert hash(x) == hash(values)
    for n in names:
        new = CHANGED.get(cls, {}).get(n, "changed")
        changed = cls(**{**fields, n: new})
        assert x != changed and not x == changed
        # replacing a field builds the value anew through the constructor
        for replace in REPLACES:
            assert replace(x, **{n: new}) == changed
    for replace in REPLACES:
        y = replace(x)
        assert type(y) is cls and y == x and y is not x
        with pytest.raises(TypeError):
            replace(x, unknown="changed")
    other = object()
    assert x.__eq__(other) is NotImplemented and x != other and not x == other
    for kind, *_ in VALUES:
        if kind is not cls:
            assert x.__eq__(kind.__new__(kind)) is NotImplemented

    shown = ", ".join(f"{n}={v!r}" for n, v in fields.items())
    assert repr(x) == f"{cls.__name__}({shown})"

    for n in (*names, "unknown"):
        with pytest.raises(FrozenInstanceError):
            setattr(x, n, "changed")
        with pytest.raises(FrozenInstanceError):
            delattr(x, n)
    assert tuple(getattr(x, n) for n in names) == values

    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is cls and y == x and hash(y) == hash(x) and repr(y) == repr(x)


def test_a_subclass_of_a_value_class_keeps_its_fields():
    # the bases' fields come first, with their defaults, then the class's own
    class F(Falsified):
        pass

    class G(Falsified):
        line: int = 0

    class L(Literal):
        pass

    assert F.__match_args__ == ("counterexample",) and F("x").counterexample == "x"
    assert F() == F(None) != Falsified() and repr(F("x")).endswith(".F(counterexample='x')")
    assert G.__match_args__ == ("counterexample", "line") and G("x", 3).line == 3
    assert G() == G(None, 0) and G(line=2).counterexample is None
    assert L.__match_args__ == ("polarity", "atom") and L._defaults == {}
    lit = L(Polarity.POSITIVE, Edit(EditOp.INSERT, 0, "a"))
    assert repr(lit).endswith(".L" + repr(Literal(lit.polarity, lit.atom)).removeprefix("Literal"))
    assert hash(lit) == hash((lit.polarity, lit.atom)) and lit != Literal(lit.polarity, lit.atom)
    for y in (copy.copy(lit), lit.__replace__()):
        assert type(y) is L and y == lit


def test_a_slot_is_no_default():
    # `__slots__` puts a descriptor for each slot in the class dict; the
    # field it stores still has no default
    class P(_Value):
        __slots__ = ("a",)
        a: int

    assert P._defaults == {} and P(1).a == 1 and not hasattr(P(1), "__dict__")
    with pytest.raises(TypeError):
        P()


def test_a_value_class_takes_each_field_once():
    with pytest.raises(TypeError):
        SuiteEntry("s", Check(abs), (), ())
    with pytest.raises(TypeError):
        SuiteEntry("s", name="s", check=Check(abs))
    with pytest.raises(TypeError):
        SuiteEntry("s", check=Check(abs), tag=())
    with pytest.raises(TypeError):
        SuiteEntry("s")
    with pytest.raises(TypeError):
        Holds(None)


def test_importing_the_package_generates_no_dataclass_code():
    # every value class is built without generated methods, no
    # `singledispatch` case reads its annotations, the character order is
    # spelled out rather than read from `string`, and `dataclasses`,
    # `inspect` and `json` are left to the code that uses them
    code = (
        "import sys, typing\n"
        "calls = []\n"
        "hints = typing.get_type_hints\n"
        "typing.get_type_hints = lambda *a, **k: calls.append(a) or hints(*a, **k)\n"
        "import purecheck\n"
        "loaded = [m for m in ('dataclasses', 'inspect', 'json') if m in sys.modules]\n"
        "import dataclasses\n"
        "found = sorted(\n"
        "    name\n"
        "    for module, m in list(sys.modules.items())\n"
        "    if module == 'purecheck' or module.startswith('purecheck.')\n"
        "    for name, v in vars(m).items()\n"
        "    if isinstance(v, type) and v.__module__ == module and dataclasses.is_dataclass(v)\n"
        ")\n"
        "print(found, len(calls), 'string' in sys.modules, loaded)\n"
    )
    src = str(Path(purecheck.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[] 0 False []\n"
