"""The frozen value classes: construction, equality, hashing, repr and
copying, field by field, as a frozen dataclass gives them."""
import copy
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

import purecheck
from purecheck import (
    DONE,
    Check,
    Def,
    DefUndef,
    Diff,
    EntryResult,
    Fail,
    Falsified,
    For,
    Holds,
    LogicalError,
    Meta,
    Monoid,
    MonoidCommute,
    NestedFor,
    PatchInvert,
    RActionCompose,
    RActionUnit,
    RepeatLength,
    Report,
    SuiteEntry,
    TacticalError,
    Try,
    Undef,
)

_MONOID = Monoid("m", 0, max, (1, 2))
_ENTRY = EntryResult("e", Holds(), "", 3, 1.5)

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
]


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

    # equality and hashing over the field tuple, and only within the class
    twin = cls(*values)
    assert x == twin and not x != twin and hash(x) == hash(twin) == hash(values)
    for n in names:
        changed = cls(**{**fields, n: "changed"})
        assert x != changed and not x == changed
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
    # the four dataclasses are the ones whose `dataclasses.replace` is
    # documented; every other value class is built without generated
    # methods, no `singledispatch` case reads its annotations, and the
    # character order is spelled out rather than read from `string`
    code = (
        "import sys, typing, dataclasses\n"
        "calls = []\n"
        "hints = typing.get_type_hints\n"
        "typing.get_type_hints = lambda *a, **k: calls.append(a) or hints(*a, **k)\n"
        "import purecheck\n"
        "found = sorted(\n"
        "    name\n"
        "    for module, m in list(sys.modules.items())\n"
        "    if module == 'purecheck' or module.startswith('purecheck.')\n"
        "    for name, v in vars(m).items()\n"
        "    if isinstance(v, type) and v.__module__ == module and dataclasses.is_dataclass(v)\n"
        ")\n"
        "print(found, len(calls), 'string' in sys.modules)\n"
    )
    src = str(Path(purecheck.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['Edit', 'Ins', 'Literal', 'Word'] 0 False\n"
