"""Acceptance gate: nine end-to-end criteria, one printed line each.

Run as part of the ordinary pytest suite; each test prints
``[ACCEPTANCE k] PASS/FAIL — summary`` on the real stdout so the gate is
visible even with capture enabled.

Heavy sweeps are reformulated for speed only in ways that preserve
exactness (behaviour vectors over the same string universe the oracle
uses, identity maps for structural equality), and every reformulation is
re-validated against the plain functions on a sizeable subset inside the
same test.
"""
import itertools
import json
import math
import time

from purecheck import (
    DONE,
    Edit,
    EditOp,
    Falsified,
    For,
    Holds,
    Ins,
    Literal,
    Meta,
    NestedFor,
    Polarity,
    Try,
    Word,
    action,
    booleans,
    brute_force_equiv,
    characters,
    check,
    edits,
    editor_action,
    editors,
    from_list,
    from_values,
    gmap,
    gpair,
    gtriple,
    integers,
    is_normal,
    lists_of,
    literals,
    naturals,
    qmerge,
    semantics,
    strings,
    witness_def,
    witness_def_undef,
    witness_diff,
    witness_undef,
    word_equiv,
    words,
)
from purecheck.cli import main


def _outcome(capsys, num, desc, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        tail = f"  ({detail})" if detail else ""
        print(f"[ACCEPTANCE {num}] {status} — {desc}{tail}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


def _universe(alphabet, max_len):
    out = [""]
    for k in range(1, max_len + 1):
        out.extend("".join(t) for t in itertools.product(alphabet, repeat=k))
    return out


def _all_words(max_edits, max_pos, chars):
    """Every word with at most `max_edits` literals over the given edit space."""
    atoms = [
        Edit(op, pos, c)
        for op in (EditOp.INSERT, EditOp.DELETE)
        for pos in range(max_pos + 1)
        for c in chars
    ]
    lits = [Literal(p, a) for p in (Polarity.POSITIVE, Polarity.NEGATIVE) for a in atoms]
    out = [Word(())]
    for k in range(1, max_edits + 1):
        out.extend(Word(t) for t in itertools.product(lits, repeat=k))
    return out


def test_criterion_1_shipped_suite_green(capsys):
    start = time.perf_counter()
    code = main(["run", "--confidence", "200", "--format", "json"])
    elapsed = time.perf_counter() - start
    doc = json.loads(capsys.readouterr().out)
    bad = [e["name"] for e in doc["entries"] if e["verdict"] != "holds"]
    ok = code == 0 and not bad and len(doc["entries"]) >= 20 and elapsed < 60.0
    _outcome(
        capsys,
        1,
        "shipped suite all-holds at confidence 200, exit 0",
        ok,
        f"{len(doc['entries'])} entries, {elapsed:.1f}s" + (f", bad={bad}" if bad else ""),
    )


def test_criterion_2_negative_controls(capsys):
    code = main(["run", "--suite", "negative", "--confidence", "10", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    entries = doc["entries"]
    ok = (
        code == 1
        and len(entries) == 2
        and all(e["verdict"] == "falsified" for e in entries)
        and all(e["counterexample"] for e in entries)
    )
    _outcome(
        capsys,
        2,
        "negative controls falsified at confidence 10 with counterexamples, exit 1",
        ok,
        "; ".join(f"{e['name']}: {e['counterexample']}" for e in entries),
    )


def test_criterion_3_word_problem_example(capsys):
    start = time.perf_counter()
    x = from_list([Edit(EditOp.INSERT, 2, "a"), Edit(EditOp.DELETE, 3, "b")])
    y = from_list([Edit(EditOp.DELETE, 2, "b"), Edit(EditOp.INSERT, 2, "a")])
    by_model = word_equiv(x, y)
    by_force = brute_force_equiv(x, y, "ab", 6)
    elapsed = time.perf_counter() - start
    ok = by_model is True and by_force is True and elapsed < 1.0
    _outcome(
        capsys,
        3,
        "insert-then-delete equals delete-then-insert, model and brute force",
        ok,
        f"model={by_model}, brute={by_force}, {elapsed * 1000:.0f}ms",
    )


def test_criterion_4_oracle_equivalence_sweep(capsys):
    start = time.perf_counter()
    universe = _universe("ab", 6)
    ws = _all_words(max_edits=2, max_pos=2, chars="ab")
    assert len(ws) == 1 + 24 + 24 * 24

    # identity maps: equal behaviour vectors <-> equal ids, likewise for
    # normal forms.  Dict lookup is by equality, so this is exact.
    vec_ids: dict = {}
    sem_ids: dict = {}
    vec_of = []
    sem_of = []
    for w in ws:
        vec = tuple(action(s, w) for s in universe)
        vec_of.append(vec_ids.setdefault(vec, len(vec_ids)))
        nf = semantics(w)
        sem_of.append(sem_ids.setdefault(nf, len(sem_ids)))

    # the two partitions agree iff the id-to-id correspondence is a bijection
    forward: dict = {}
    backward: dict = {}
    conflicts = 0
    for v, m in zip(vec_of, sem_of):
        if forward.setdefault(v, m) != m or backward.setdefault(m, v) != v:
            conflicts += 1

    # re-validate the reformulation against the plain functions
    spot = 0
    for i, x in enumerate(ws[:40]):
        for j in range(i, 40):
            y = ws[j]
            direct_model = word_equiv(x, y)
            direct_force = brute_force_equiv(x, y, "ab", 6)
            assert direct_model == (sem_of[i] == sem_of[j])
            assert direct_force == (vec_of[i] == vec_of[j])
            spot += 1

    elapsed = time.perf_counter() - start
    ok = conflicts == 0 and elapsed < 300.0
    _outcome(
        capsys,
        4,
        f"word_equiv vs brute force over all {len(ws)} x {len(ws)} word pairs",
        ok,
        f"{len(vec_ids)} behaviour classes, {spot} pairs cross-called directly, "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_homomorphism_exhaustive(capsys):
    start = time.perf_counter()
    universe = _universe("ab", 5)
    ws = [w for w in _all_words(max_edits=2, max_pos=3, chars="ab") if w.literals]
    assert len(ws) == 32 + 32 * 32
    violations = []
    for w in ws:
        e = semantics(w)
        for s in universe:
            if editor_action(s, e) != action(s, w):
                violations.append((w, s))
    elapsed = time.perf_counter() - start
    ok = not violations
    _outcome(
        capsys,
        5,
        f"semantics is action-preserving on {len(ws)} words x {len(universe)} strings",
        ok,
        f"{len(violations)} violations, {elapsed:.1f}s",
    )


def test_criterion_6_witness_laws(capsys):
    start = time.perf_counter()
    universe = _universe("ab", 6)
    es = editors.generate(500)
    pairs = gpair(editors, editors).generate(500)
    assert len(es) == 500 and len(pairs) == 500
    violations = []

    for e in es:
        s = witness_def(e)
        if s is None:
            if any(editor_action(t, e) is not None for t in universe):
                violations.append(("def none", e))
        elif editor_action(s, e) is None:
            violations.append(("def", e, s))

        s = witness_undef(e)
        if s is None:
            if any(editor_action(t, e) is None for t in universe):
                violations.append(("undef none", e))
        elif editor_action(s, e) is not None:
            violations.append(("undef", e, s))

    for x, y in pairs:
        s = witness_def_undef(x, y)
        if s is None:
            if any(
                editor_action(t, x) is not None and editor_action(t, y) is None
                for t in universe
            ):
                violations.append(("def_undef none", x, y))
        elif not (editor_action(s, x) is not None and editor_action(s, y) is None):
            violations.append(("def_undef", x, y, s))

        s = witness_diff(x, y)
        if s is None:
            if any(editor_action(t, x) != editor_action(t, y) for t in universe):
                violations.append(("diff none", x, y))
        elif editor_action(s, x) == editor_action(s, y):
            violations.append(("diff", x, y, s))

    elapsed = time.perf_counter() - start
    ok = not violations
    _outcome(
        capsys,
        6,
        "witnesses on 500 editors and 500 pairs all satisfy their predicates",
        ok,
        f"{len(violations)} violations, {elapsed:.1f}s",
    )


def test_criterion_7_generator_contract(capsys):
    instances = {
        "booleans": booleans(),
        "integers": integers(),
        "naturals": naturals(),
        "characters": characters(),
        "strings": strings(),
        "from_values": from_values([3, 1, 2]),
        "gmap": gmap(lambda x: x * 2, integers()),
        "gpair": gpair(booleans(), integers()),
        "gtriple": gtriple(integers(), integers(), integers()),
        "lists_of": lists_of(integers()),
        "edits": edits,
        "literals": literals,
        "words": words,
        "editors": editors,
    }
    budgets = (0, 1, 2, 7, 32)
    problems = []
    for name, g in instances.items():
        previous = None
        for n in budgets:
            got = g.generate(n)
            if g.generate(n) != got:
                problems.append((name, n, "nondeterministic"))
            if len(got) > n:
                problems.append((name, n, "size bound"))
            keys = [repr(x) for x in got]
            if len(set(keys)) != len(keys):
                problems.append((name, n, "duplicates"))
            if previous is not None and got[: len(previous)] != previous:
                problems.append((name, n, "prefix"))
            previous = got

    # check-level consequence: once falsified, falsified at every larger budget
    known_false = [
        For(integers(), lambda x: x % 2 == 0),
        For(strings(), lambda s: len(s) < 3),
        For(gpair(booleans(), booleans()), lambda t: t[0] == t[1]),
    ]
    for idx, prop in enumerate(known_false):
        c = check(Meta(prop))
        seen_false = False
        for n in range(1, 65):
            v = c.perform(n)
            if isinstance(v, Falsified):
                seen_false = True
            elif seen_false:
                problems.append(("monotone", idx, n))
        if not seen_false:
            problems.append(("never falsified", idx))

    ok = not problems
    _outcome(
        capsys,
        7,
        f"generator contract on {len(instances)} generators at n in {budgets}; "
        "falsification monotone to n=64",
        ok,
        f"problems={problems[:4]}" if problems else "0 problems",
    )


def test_criterion_8_qmerge_equivalence(capsys):
    cases = [
        # (outer, inner, body, budget) — budgets are perfect squares whose
        # root never exceeds either marginal's population, so the merged
        # prefix is exactly the square box the double loop walks.
        (integers(), integers(), lambda x, y: x + y >= 0, 25),
        (integers(), integers(), lambda x, y: x * y == y * x, 25),
        (integers(), integers(), lambda x, y: x <= y, 4),
        (naturals(), naturals(), lambda x, y: x + y < 9, 25),
        (naturals(), naturals(), lambda x, y: x + y < 8, 36),
        (naturals(), naturals(), lambda x, y: x * y != 6, 16),
        (strings(), strings(), lambda x, y: len(x + y) == len(x) + len(y), 16),
        (strings(), strings(), lambda x, y: x + y == y + x, 9),
        (strings(), strings(), lambda x, y: len(x) <= len(y), 9),
        (characters(), characters(), lambda x, y: x <= y or y <= x, 16),
        (characters(), characters(), lambda x, y: x != y, 1),
        (characters(), characters(), lambda x, y: ord(x) + ord(y) > 100, 25),
        (lists_of(integers()), lists_of(integers()), lambda x, y: len(x + y) >= len(x), 16),
        (lists_of(integers()), lists_of(integers()), lambda x, y: x + y == y + x, 49),
        (integers(), strings(), lambda x, y: len(y * 0) == 0, 9),
        (integers(), strings(), lambda x, y: x < len(y), 4),
        (naturals(), characters(), lambda x, y: x >= 0, 16),
        (booleans(), booleans(), lambda x, y: x or not x, 4),
        (booleans(), booleans(), lambda x, y: x == y, 4),
        (booleans(), integers(), lambda x, y: not x or y * y >= 0, 4),
    ]
    assert len(cases) == 20
    mismatches = []
    merged_kinds = []
    for i, (outer, inner, body, n) in enumerate(cases):
        merged = qmerge(NestedFor(outer, inner, body))
        got = check(Meta(merged)).perform(n)
        k = math.isqrt(n)
        assert k * k == n
        loop_falsified = any(
            not body(x, y) for x in outer.generate(k) for y in inner.generate(k)
        )
        merged_falsified = isinstance(got, Falsified)
        merged_kinds.append(merged_falsified)
        if merged_falsified != loop_falsified:
            mismatches.append((i, got, loop_falsified))
    spread_ok = 5 <= sum(merged_kinds) <= 15  # both outcomes well represented
    ok = not mismatches and spread_ok
    _outcome(
        capsys,
        8,
        "merged-quantifier verdicts match double-loop verdicts on 20 cases",
        ok,
        f"{sum(merged_kinds)} falsified / {len(cases)}, mismatches={mismatches}",
    )


def test_criterion_9_normal_form_preservation(capsys):
    ws = words.generate(1000)
    assert len(ws) == 1000
    bad = [w for w in ws if not is_normal(semantics(w))]

    genesis = semantics(from_list([Edit(EditOp.INSERT, 1, "a"), Edit(EditOp.DELETE, 1, "a")]))
    expected = Try(Ins(("", ""), (1,)))
    identity_ok = genesis == expected

    ok = not bad and identity_ok
    _outcome(
        capsys,
        9,
        "1000 generated words map to normal forms; skip-genesis identity exact",
        ok,
        f"{len(bad)} non-normal, genesis {'ok' if identity_ok else 'WRONG'}",
    )
