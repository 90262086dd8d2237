"""The public names of `purecheck`: one spelling per operation."""
import types

import purecheck

PUBLIC = [
    "Char", "Check", "DONE", "Def", "DefUndef", "Diff", "Edit", "EditOp", "Editor",
    "EntryResult", "Fail", "Falsified", "For", "Generator", "Holds", "INT_ADD", "Ins",
    "LIST_INT", "Literal", "LogicalError", "Meta", "Monoid", "MonoidCommute", "NestedFor",
    "PatchInvert", "Polarity", "RActionCompose", "RActionUnit", "RepeatLength", "Report",
    "STRING", "Suite", "SuiteEntry", "TacticalError", "Try", "UNIT",
    "Undef", "Verdict", "WitnessSource", "Word", "action", "adequacy_suite", "axiomatic",
    "booleans", "brute_force_equiv", "characters", "check", "check_with", "conjoin",
    "cons_eq", "declare_nonneg", "default_generator", "default_suite", "editor_action",
    "editors", "edits", "exists", "exists_or_vacuous", "exists_some", "exit_code",
    "foreach", "from_list", "from_values", "full_suite", "gmap", "gpair", "gtriple",
    "integers", "inv", "is_nonneg_eligible", "is_normal", "is_total", "lists_of",
    "literals", "monoid_laws", "naturals", "negative_suite", "nonneg_lift", "parse_literal",
    "parse_word", "qmerge", "register_default", "reify", "render", "render_edit",
    "render_editor", "render_literal", "render_word", "report_json", "report_text",
    "run_suite", "semantics", "splice", "string_delete", "string_insert", "strings", "undo",
    "verdict_name", "witness_def", "witness_def_undef", "witness_diff", "witness_undef",
    "word_equiv", "words",
]


def test_public_names_are_pinned():
    # an entry point that only re-spells another one cannot come back
    # unnoticed.  Submodules are left out: importing one, such as
    # `purecheck.cli`, makes it an attribute of the package
    names = sorted(
        n
        for n, v in vars(purecheck).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    )
    assert names == PUBLIC
