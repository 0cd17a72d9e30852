"""The acceptance suite: one test per criterion, each printing a final
PASS/FAIL line (run with -s to see them).

Criterion 5's literal projection identity is expected to fail and is
marked xfail: canonicalization fires B and M steps, which project to
beta/mu reduction steps rather than equalities, so the identity already
fails on the identity function applied to a variable.  The
reduction-compatible statement is asserted separately and holds."""

import random
import time
import zlib

import pytest

from lmtool.drivers import (
    TypedPairs,
    bisim_driver,
    confluence_check,
    permutation_case_repl,
    permutation_case_subs,
    sigma_correspondence_case,
    sigma_not_strong_bisimulation,
    sigma_pair,
    typed_step_cases,
)
from lmtool.equivalence import equiv
from lmtool.gen_random import random_object, random_pure_object, random_pure_stack, random_pure_term
from lmtool.generators import gen_equiv_pair, gen_typed
from lmtool.lmu import expand, project
from lmtool.meta import (
    commutation_repl_repl,
    commutation_repl_subs,
    commutation_subs_repl,
    commutation_subs_subs,
    replace,
    substitute,
)
from lmtool.ppn import simulation_check, soundness_check
from lmtool.reduction import (
    RuleTag,
    canon,
    canon_random,
    is_canonical,
    lm_redexes,
    reduce_to_nf,
)
from lmtool.syntax import alpha_eq, free_names, free_vars, parse, parse_type, print_object
from lmtool.typing import check_object, subject_reduction_check


def t(text):
    return parse(text, freshen=False)


def c(text):
    return parse(text, sort="command", freshen=False)


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {name}: {status}{' — ' + detail if detail else ''}")


AXIOMS = ("exs", "exr", "lin", "pp", "rho", "theta")


def test_criterion_1_strong_bisimulation():
    """>=500 one-axiom pairs, every axiom >=50 times, zero failures."""
    start = time.time()
    rng = random.Random(20240811)
    per = 84
    failures = []
    counts = {}
    matches = 0
    for ax in AXIOMS:
        for _ in range(per):
            o, p, axiom = gen_equiv_pair(
                seed=rng.randrange(10**9), axiom=ax, size=9
            )
            rep = bisim_driver(o, p, axiom)
            counts[ax] = counts.get(ax, 0) + 1
            matches += rep.checked
            if not rep.ok:
                failures.append((ax, rep.details[:1]))
    total = sum(counts.values())
    ok = total >= 500 and all(v >= 50 for v in counts.values()) and not failures
    report(
        "1 (strong bisimulation)",
        ok,
        f"{total} pairs, {matches} matched steps, {len(failures)} failures,"
        f" {time.time() - start:.0f}s",
    )
    assert total >= 500 and min(counts.values()) >= 50
    assert not failures, failures[:3]


def test_criterion_2_sigma_is_not_a_strong_bisimulation():
    """The introduction's counterexample with exact redex counts 1 vs 0."""
    res = sigma_not_strong_bisimulation()
    ok = (
        res["sigma_related"]
        and res["lhs_redexes"] == 1
        and res["rhs_redexes"] == 0
        and res["mismatch"]
    )
    report("2 (sigma not a strong bisimulation)", ok, str(res))
    assert ok


def test_criterion_3_sigma_correspondence():
    """canon(o) and canon(p) joinable with renaming for >=20 instances of
    each sigma equation."""
    start = time.time()
    failures = []
    for k in range(1, 9):
        ax = f"sigma{k}"
        for seed in range(20):
            o, p = sigma_pair(seed * 101 + k, ax)
            res = sigma_correspondence_case(o, p)
            if not res.equivalent:
                failures.append((ax, seed, print_object(o)))
    report(
        "3 (sigma correspondence)",
        not failures,
        f"160 instances, {len(failures)} failures, {time.time() - start:.0f}s",
    )
    assert not failures, failures[:3]


def test_criterion_4_confluence():
    """>=300 generated typed terms: all maximal plain sequences reach one
    normal form (exhaustive graphs, 10^4 state budget)."""
    start = time.time()
    rng = random.Random(44)
    failures = []
    for _ in range(300):
        o, _, _ = gen_typed(rng.randrange(10**9), size=12)
        ok, diag = confluence_check(o, max_states=10**4)
        if not ok:
            failures.append((print_object(o), diag))
    report(
        "4 (confluence)",
        not failures,
        f"300 terms, {len(failures)} failures, {time.time() - start:.0f}s",
    )
    assert not failures, failures[:3]


def test_criterion_5ab_canon_idempotent_and_strategy_independent():
    start = time.time()
    rng = random.Random(55)
    bad = 0
    for _ in range(1000):
        o = random_object(rng, 8)
        co = canon(o)
        if not (is_canonical(co) and alpha_eq(canon(co), co)):
            bad += 1
            continue
        if not alpha_eq(canon_random(o, rng), co):
            bad += 1
    report(
        "5a/5b (canon idempotent, strategy-independent)",
        bad == 0,
        f"1000 objects, {bad} failures, {time.time() - start:.0f}s",
    )
    assert bad == 0


@pytest.mark.xfail(
    strict=True,
    reason="documented expected failure: the literal identity is"
    " unsatisfiable because B and M canonicalization steps project to"
    " beta/mu reduction steps, not equalities (criterion 7's canonical-form"
    " example already witnesses this); the repaired statement below holds",
)
def test_criterion_5c_projection_literal():
    """The clause as stated: project(canon(o)) alpha-equal to project(o)."""
    rng = random.Random(56)
    failures = []
    for _ in range(1000):
        o = random_object(rng, 8)
        if not alpha_eq(project(canon(o)), project(o)):
            failures.append(print_object(o))
    report(
        "5c (projection clause, literal)",
        not failures,
        f"counterexample: {failures[0]}" if failures else "",
    )
    assert not failures, f"{len(failures)} counterexamples, e.g. {failures[0]}"


def test_criterion_5c_projection_repaired():
    """The reduction-compatible statement: the projection of the canonical
    form is a lambda-mu reduct of the projection, with exact equality
    whenever no B or M step fires."""
    rng = random.Random(57)
    bad = skipped = 0
    exact_checked = 0
    for _ in range(1000):
        o = random_object(rng, 8)
        co = canon(o)
        if not any(tag in (RuleTag.B, RuleTag.M) for tag, _ in lm_redexes(o)):
            exact_checked += 1
            if not alpha_eq(project(co), project(o)):
                bad += 1
            continue
        try:
            nf1, _ = reduce_to_nf(project(o), budget=600)
            nf2, _ = reduce_to_nf(project(co), budget=600)
        except Exception:
            skipped += 1
            continue
        if not alpha_eq(nf1, nf2):
            bad += 1
    report(
        "5c (projection clause, repaired)",
        bad == 0,
        f"1000 objects ({exact_checked} exact, {skipped} diverging skipped),"
        f" {bad} failures",
    )
    assert bad == 0


def test_criterion_6_subject_reduction():
    """1000 typed-term one-step cases; canonical steps keep the judgment
    exactly."""
    start = time.time()
    rng = random.Random(66)
    done = bad = 0
    while done < 1000:
        o, g, d = gen_typed(rng.randrange(10**9), size=12)
        rs = lm_redexes(o)
        if not rs:
            continue
        tag, p = rs[rng.randrange(len(rs))]
        ok, diag = subject_reduction_check(o, g, d, tag, p, exact=False)
        if not ok:
            bad += 1
        if tag in (RuleTag.B, RuleTag.M):
            ok, diag = subject_reduction_check(o, g, d, tag, p, exact=True)
            if not ok:
                bad += 1
        done += 1
    # canonical replacement steps, templated
    pairs = TypedPairs(606)
    for which in ("W", "C"):
        for _ in range(25):
            lhs, rhs, tag, g, d = pairs.build_cw_step(which)
            d1 = check_object(lhs, g, d)
            d2 = check_object(rhs, g, d)
            if (
                d1.judgment.gamma != d2.judgment.gamma
                or d1.judgment.delta != d2.judgment.delta
                or d1.judgment.type != d2.judgment.type
            ):
                bad += 1
            done += 1
    report(
        "6 (subject reduction)",
        bad == 0,
        f"{done} cases, {bad} failures, {time.time() - start:.0f}s",
    )
    assert bad == 0


def test_criterion_7_worked_examples():
    """The standard worked examples, exactly (up to alpha)."""
    checks = []

    # the three replacement examples
    got = replace(c("['a]x"), "'g", "'a", parse("y1 . y2 . #", sort="stack"))
    checks.append(alpha_eq(got, c("['g]x y1 y2")))
    got = replace(
        c("(['a]x)['a/'b\\z1 . #]"), "'g", "'a", parse("y1 . #", sort="stack")
    )
    checks.append(alpha_eq(got, c("(['g]x y1)['g/'b\\z1 . y1 . #]")))
    got = replace(
        c("(['a]x)['a/'b\\#]"), "'g", "'a", parse("y1 . y2 . #", sort="stack")
    )
    checks.append(
        alpha_eq(got, c("((['g]x y1 y2)['q/'b\\y1 . y2 . #])['g/'q\\#]"))
    )

    # substitution example
    got = substitute(t(r"(mu 'a. ['a]x) (\z. z x)"), "x", t(r"\z. z"))
    checks.append(alpha_eq(got, t(r"(mu 'a. ['a](\z. z)) (\z. z (\w. w))")))

    # implicit replacement example
    got = replace(
        c("['a]x (mu 'b. ['a]y)"), "'a2", "'a", parse(r"(\z. z) . #", sort="stack")
    )
    checks.append(alpha_eq(got, c(r"['a2](x (mu 'b. ['a2]y (\z. z))) (\z. z)")))

    # canonical form and expansion of the standard example
    o = t("(mu 'a. ['a]x) y z")
    co = canon(o)
    checks.append(alpha_eq(co, t("mu 'b. (['a]x)['b/'a\\y . z . #]")))
    checks.append(alpha_eq(expand(co), t("mu 'b. ['b](mu 'a. ['a]x) y z")))

    # call-cc types at Peirce's law
    cc = t(r"\x:(iA->iB)->iA. mu 'a:iA. ['a]x (\y:iA. mu 'd:iB. ['a]y)")
    der = check_object(cc)
    checks.append(der.judgment.type == parse_type("((iA->iB)->iA)->iA"))

    ok = all(checks)
    report("7 (worked examples)", ok, f"{sum(checks)}/{len(checks)} exact")
    assert ok, checks


def test_criterion_8_ppn_soundness():
    """>=10 typed instances of every equivalence axiom (renaming included):
    multiplicative normal forms of the two sides are equal nets.  Each right
    side is the engine's rewrite of the left, so the nets check the axioms
    that equiv runs."""
    start = time.time()
    failures = []
    for ax in AXIOMS + ("ren",):
        pairs = TypedPairs(seed=zlib.crc32(ax.encode()) % 10**6)
        for _ in range(10):
            lhs, rhs, g, d = pairs.build(ax)
            if not soundness_check(lhs, rhs, g, d):
                failures.append((ax, print_object(lhs)))
    report(
        "8 (net soundness of the equivalence)",
        not failures,
        f"70 instances, {len(failures)} failures, {time.time() - start:.0f}s",
    )
    assert not failures, failures[:3]


def test_criterion_9_ppn_simulation():
    """>=200 typed one-step reductions: full cut-elimination normal forms
    agree; canonical steps agree already multiplicatively."""
    start = time.time()
    failures = []
    cases = typed_step_cases(seed=99, count=200)
    for tag, o, o2, g, d in cases:
        ok, diag = simulation_check(o, o2, g, d, tag)
        if not ok:
            failures.append((tag.value, diag, print_object(o)))
    report(
        "9 (net simulation)",
        not failures,
        f"{len(cases)} steps, {len(failures)} failures, {time.time() - start:.0f}s",
    )
    assert not failures, failures[:3]


def test_criterion_10_commutations():
    """1000 random well-scoped instances of each of the five identities."""
    start = time.time()
    rng = random.Random(1010)
    runs = {k: 0 for k in range(1, 6)}
    bad = 0
    while min(runs.values()) < 1000:
        o = random_pure_object(rng, 6)
        u = random_pure_term(rng, 4)
        v = random_pure_term(rng, 4)
        st = random_pure_stack(rng, 3)
        st2 = random_pure_stack(rng, 3)
        if "y" not in free_vars(u) and runs[1] < 1000:
            runs[1] += 1
            bad += not commutation_subs_subs(o, "y", v, "x", u)
        if "'a" not in free_names(u) and runs[2] < 1000:
            runs[2] += 1
            bad += not commutation_subs_repl(o, "'b", "'a", st, "x", u)
        if "x" not in free_vars(st) and runs[3] < 1000:
            runs[3] += 1
            bad += not commutation_repl_subs(o, "'b", "'a", st, "x", u)
        if "'c" not in free_names(st) and runs[4] < 1000:
            runs[4] += 1
            bad += not commutation_repl_repl(o, "'b", "'a", st, "'d", "'c", st2)
        if "'c" not in free_names(st) and runs[5] < 1000:
            runs[5] += 1
            bad += not commutation_repl_repl(o, "'b", "'a", st, "'a", "'c", st2)
    report(
        "10 (meta-operation commutations)",
        bad == 0,
        f"5 x 1000 instances, {bad} failures, {time.time() - start:.0f}s",
    )
    assert bad == 0


def test_criterion_11_permutation_lemma():
    """>=100 instances each: substitution contexts permute with linear term
    contexts, replacement contexts with linear command contexts."""
    start = time.time()
    failures = []
    for seed in range(100):
        l, r = permutation_case_subs(seed)
        if not equiv(l, r, max_states=8000, max_depth=8).equivalent:
            failures.append(("subs", seed))
        l, r = permutation_case_repl(seed)
        if not equiv(l, r, max_states=8000, max_depth=8).equivalent:
            failures.append(("repl", seed))
    report(
        "11 (permutation lemma)",
        not failures,
        f"200 instances, {len(failures)} failures, {time.time() - start:.0f}s",
    )
    assert not failures, failures[:5]
