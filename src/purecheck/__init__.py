"""purecheck — deterministic property checking, demonstrated on a patch model.

The library has three public layers:

* checking: `Meta`, `Check`, four-valued verdicts, bounded quantifiers
  (`For`, `NestedFor`, `qmerge`), deterministic `Generator` enumeration;
* laws: named axiom values (`axiomatic`, `monoid_laws`, ...) and
  constructive existentials (`exists`, `exists_some`, `exists_or_vacuous`);
* the model: polarized string edits, group words, and the normal-form
  automata (`semantics`, `word_equiv`) that decide their word problem.
"""

from .check import (
    Check,
    Falsified,
    For,
    Holds,
    LogicalError,
    Meta,
    NestedFor,
    TacticalError,
    Verdict,
    check,
    check_with,
    conjoin,
    foreach,
    qmerge,
    render,
)
from .generators import (
    Char,
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
    register_default,
    strings,
)
from .existentials import WitnessSource, exists, exists_or_vacuous, exists_some
from .patches import (
    Edit,
    EditOp,
    Literal,
    Polarity,
    Word,
    action,
    edits,
    from_list,
    inv,
    literals,
    parse_literal,
    parse_word,
    render_edit,
    render_literal,
    render_word,
    splice,
    string_delete,
    string_insert,
    undo,
    words,
)
from .editor import (
    DONE,
    Def,
    DefUndef,
    Del,
    Diff,
    Editor,
    Fail,
    Ins,
    Return,
    Skip,
    Try,
    Undef,
    adequacy_suite,
    cons_eq,
    editor_action,
    editors,
    is_normal,
    is_total,
    reify,
    render_editor,
    semantics,
    witness_def,
    witness_def_undef,
    witness_diff,
    witness_undef,
    word_equiv,
)
from .axioms import (
    INT_ADD,
    LIST_INT,
    STRING,
    UNIT,
    Monoid,
    MonoidCommute,
    PatchInvert,
    RActionCompose,
    RActionUnit,
    RepeatLength,
    axiomatic,
    declare_nonneg,
    is_nonneg_eligible,
    monoid_laws,
    nonneg_lift,
)
from .runner import (
    EntryResult,
    Report,
    Suite,
    SuiteEntry,
    brute_force_equiv,
    default_suite,
    exit_code,
    full_suite,
    negative_suite,
    report_json,
    report_text,
    run_suite,
    verdict_name,
)

__version__ = "0.1.0"
