import random

import pytest

from lmtool.equivalence import (
    Axiom,
    Certificate,
    admissible_suite,
    apply_axiom,
    axiom_instances,
    check_certificate,
    equiv,
)
from lmtool.gen_random import random_object
from lmtool.reduction import NotCanonicalError, canon, is_canonical
from lmtool.syntax import ERepl, Named, alpha_eq, make_path, parse, print_object
from lmtool.typing import check_object
from lmtool.generators import gen_typed


def t(text):
    return parse(text, freshen=False)


def c(text):
    return parse(text, sort="command", freshen=False)


# --- instances ---------------------------------------------------------------


def test_certificate_step_at_a_negative_index_is_rejected():
    o = canon(t("mu 'b. (['a]x)['b/'a \\ y . #]"))
    p = canon(t("mu 'b. ['b]x y"))
    (step,) = equiv(o, p).certificate.steps
    assert step.path == (0,) and check_certificate(o, Certificate([step]), p)[0]
    # (-1,) would name the same child through Python's negative indexing
    neg = Axiom(step.name, step.orientation, (-1,), step.result_key)
    ok, diag = check_certificate(o, Certificate([neg]), p)
    assert not ok and "out of range" in diag


def test_lin_instance():
    o = c("(['a]x)['b/'a\\y . #]")
    insts = axiom_instances(o)
    assert any(ax.name == "lin" and alpha_eq(r, c("['b]x y")) for ax, r in insts)


def test_rho_instance_both_ways():
    o = c("['a]mu 'b. ['g]x")
    insts = axiom_instances(o)
    targets = [r for ax, r in insts if ax.name == "rho"]
    assert any(alpha_eq(r, c("(['g]x)['a/'b\\#]")) for r in targets)
    back = axiom_instances(c("(['g]x)['a/'b\\#]"))
    assert any(ax.name == "rho" and alpha_eq(r, o) for ax, r in back)


def test_theta_instance():
    o = t("mu 'a. ['a]x")
    insts = axiom_instances(o)
    assert any(ax.name == "theta" and alpha_eq(r, t("x")) for ax, r in insts)


def test_theta_requires_name_absent():
    o = t("mu 'a. ['a](mu 'b. ['a]y)")
    insts = axiom_instances(o)
    assert not any(
        ax.name == "theta" and ax.orientation == "LR" and ax.path == ()
        for ax, _ in insts
    )


def test_exs_instance():
    # (\y. v)[x\u]  <->  \y. (v[x\u])
    o = t(r"(\y. v)[x\u]")
    insts = axiom_instances(o)
    assert any(ax.name == "exs" and alpha_eq(r, t(r"\y. v[x\u]")) for ax, r in insts)
    back = axiom_instances(t(r"\y. v[x\u]"))
    assert any(ax.name == "exs" and alpha_eq(r, o) for ax, r in back)


def test_exr_instance():
    o = c("(['g]mu 'd. ['e]w)['b/'a\\u . #]")
    # push the replacement under [g]mu d
    insts = axiom_instances(o)
    expected = c("['g]mu 'd. (['e]w)['b/'a\\u . #]")
    assert any(ax.name == "exr" and alpha_eq(r, expected) for ax, r in insts)
    back = axiom_instances(expected)
    assert any(ax.name == "exr" and alpha_eq(r, o) for ax, r in back)


def test_pp_instance():
    o = c("['a2]\\x. mu 'a. ['b2]\\y. mu 'b. ['g]u")
    insts = axiom_instances(o)
    expected = c("['b2]\\y. mu 'b. ['a2]\\x. mu 'a. ['g]u")
    assert any(ax.name == "pp" and alpha_eq(r, expected) for ax, r in insts)


def test_instances_stay_canonical():
    rng = random.Random(13)
    for _ in range(80):
        o = canon(random_object(rng, 7))
        for ax, r in axiom_instances(o, include_ren=True):
            assert is_canonical(r), (ax.render(), print_object(o), print_object(r))


def test_instances_reject_non_canonical_input():
    with pytest.raises(NotCanonicalError):
        axiom_instances(t(r"(\x. x) y"))


# --- equiv -------------------------------------------------------------------


def test_equiv_reflexive():
    o = t("x y")
    res = equiv(o, t("x y"))
    assert res.equivalent and res.certificate.steps == []


def test_equiv_fig_theta_pair():
    lhs = t("mu 'b. (['a]x)['b/'a\\y . #]")
    rhs = t("mu 'b. ['b]x y")
    res = equiv(lhs, rhs)
    assert res.equivalent
    ok, diag = check_certificate(lhs, res.certificate, rhs)
    assert ok, diag


def test_equiv_negative_quickly():
    res = equiv(t("x"), t("y"), max_states=50, max_depth=4)
    assert not res.equivalent
    assert res.status == "not-within-bounds"


def test_equiv_ren_direction():
    # [a] mu b. c  ~rho  c[a/b\#]  ~ren  rename(c, a, b)
    lhs = c("['a]mu 'b. ['b]mu 'g. ['b]y")
    rhs = c("['a]mu 'g. ['a]y")
    assert not equiv(lhs, rhs, max_states=2000, max_depth=5).equivalent
    res = equiv(lhs, rhs, max_states=3000, max_depth=6, include_ren=True)
    assert res.equivalent
    ok, diag = check_certificate(lhs, res.certificate, rhs)
    assert ok, diag


def test_certificate_replay_detects_bad_step():
    lhs = t("mu 'b. (['a]x)['b/'a\\y . #]")
    cert = Certificate([Axiom("lin", "LR", (9,))])
    ok, diag = check_certificate(lhs, cert, t("mu 'b. ['b]x y"))
    assert not ok


def test_apply_axiom_roundtrip():
    o = c("(['a]x)['b/'a\\y . #]")
    insts = axiom_instances(o)
    ax, r = next((ax, r) for ax, r in insts if ax.name == "lin")
    assert alpha_eq(apply_axiom(o, ax), r)


# --- congruence and stability properties -------------------------------------


def test_congruence_under_canon_contexts():
    # one-axiom-related objects stay related when wrapped and canonicalized;
    # applying a theta pair whose subject is mu-headed is the known exception
    # (it needs the unrestricted lin equation, which breaks bisimulation)
    from lmtool.equivalence import _stack_inert
    from lmtool.syntax import Abs, App, Mu, Var, sort_of

    rng = random.Random(3)
    done = 0
    while done < 30:
        o = canon(random_object(rng, 6))
        insts = axiom_instances(o)
        if not insts:
            continue
        ax, r = insts[rng.randrange(len(insts))]
        if sort_of(o) == "term":
            if rng.random() < 0.5 and _stack_inert(o) and _stack_inert(r):
                wo, wr = canon(App(o, Var("zz"))), canon(App(r, Var("zz")))
            else:
                wo, wr = canon(Abs("wx", None, o)), canon(Abs("wx", None, r))
        else:
            wo, wr = canon(Mu("'wq", None, o)), canon(Mu("'wq", None, r))
        res = equiv(wo, wr, max_states=6000, max_depth=8)
        assert res.equivalent, (
            ax.render(),
            print_object(wo),
            print_object(wr),
        )
        done += 1


def test_certificates_replay_both_directions():
    from lmtool.generators import gen_equiv_pair

    rng = random.Random(8)
    for k in range(30):
        ax_name = ["exs", "exr", "lin", "pp", "rho", "theta"][k % 6]
        o, p, _ = gen_equiv_pair(seed=rng.randrange(10**9), axiom=ax_name)
        for a, b in ((o, p), (p, o)):
            res = equiv(a, b, max_states=4000, max_depth=8)
            assert res.equivalent
            ok, diag = check_certificate(a, res.certificate, b)
            assert ok, (ax_name, diag, res.certificate.render())


def test_stability_under_substitution_and_replacement():
    # related canonical objects stay related after substituting or replacing
    # with canonical material, up to canonicalization
    from lmtool.meta import replace, substitute
    from lmtool.gen_random import random_pure_stack, random_pure_term

    rng = random.Random(29)
    done = 0
    while done < 25:
        o, p, ax = __import__("lmtool.generators", fromlist=["gen_equiv_pair"]).gen_equiv_pair(
            seed=rng.randrange(10**9), size=7
        )
        u = canon(random_pure_term(rng, 3))
        s = canon(random_pure_stack(rng, 2))
        so, sp = canon(substitute(o, "x", u)), canon(substitute(p, "x", u))
        res = equiv(so, sp, max_states=4000, max_depth=8)
        assert res.equivalent, (ax.render(), print_object(so), print_object(sp))
        ro = canon(replace(o, "'fr", "'a", s))
        rp = canon(replace(p, "'fr", "'a", s))
        res = equiv(ro, rp, max_states=4000, max_depth=8)
        assert res.equivalent, (ax.render(), print_object(ro), print_object(rp))
        done += 1


def test_admissible_suite():
    report = admissible_suite(seed=2024, cases=12)
    assert not report["failures"], report["failures"]
    assert report["subs-swap"] == 12
    assert report["repl-swap"] == 12
    assert report["mu-swap"] == 12


def test_type_preservation_under_axioms():
    from lmtool.typing import AnnotationMissing

    rng = random.Random(41)
    done = 0
    while done < 40:
        o, gamma, delta = gen_typed(rng.randrange(10**9), size=10)
        co = canon(o)
        d = check_object(co, gamma, delta)
        for ax, r in axiom_instances(co)[:6]:
            try:
                d2 = check_object(r, gamma, delta)
            except AnnotationMissing:
                # orientations that synthesize binders leave them untyped
                continue
            assert d2.judgment.type == d.judgment.type
            assert d2.judgment.gamma == d.judgment.gamma
            assert d2.judgment.delta == d.judgment.delta
            done += 1


# --- fast paths against the reference walks they replace ----------------------


def _reference_linear_positions(o, want_sort):
    """Every position, filtered by is_linear_indices, with its binders read
    off by binders_along: the walk that _linear_positions replaces."""
    from lmtool.reduction import is_linear_indices
    from lmtool.syntax import binders_along, make_path, positions, sort_of

    for idxs, sub in positions(o):
        if idxs and sort_of(sub) == want_sort and is_linear_indices(o, idxs):
            p = make_path(o, idxs)
            vs, ns = binders_along(o, p)
            yield p, sub, vs, ns


@pytest.fixture(scope="module")
def seeded_objects():
    """Canonical objects of one-axiom pairs, their meaningful reducts, and
    the canonical sides of sigma pairs."""
    from lmtool.drivers import sigma_pair
    from lmtool.equivalence import AXIOMS
    from lmtool.generators import gen_equiv_pair
    from lmtool.lmu import SIGMA_AXIOMS
    from lmtool.reduction import meaningful_reducts

    objs = []
    for i, ax in enumerate(AXIOMS):
        for s in range(3):
            o, p, _ = gen_equiv_pair(seed=100 * i + s, axiom=ax, size=8)
            for side in (o, p):
                objs.append(side)
                objs += [r for _, _, r in meaningful_reducts(side)]
    for i, ax in enumerate(SIGMA_AXIOMS):
        for s in range(2):
            lhs, rhs = sigma_pair(seed=10 * i + s, axiom=ax, size=3)
            objs += [canon(lhs), canon(rhs)]
    return objs


def test_spine_walk_matches_reference_walk(seeded_objects):
    from lmtool.equivalence import _linear_positions
    from lmtool.syntax import positions

    compared = 0
    for o in seeded_objects:
        for _, sub in positions(o):
            for sort in ("term", "command"):
                fast = list(_linear_positions(sub, sort))
                ref = list(_reference_linear_positions(sub, sort))
                assert fast == ref, print_object(sub)
                compared += len(ref)
    assert compared > 1000


def test_cached_canonicity_of_instances_matches_reference_walk(seeded_objects):
    # every rewrite at every position, canonical or not, and every subobject
    # of it; the instances share untouched subtrees with their source, whose
    # caches are full after the first round
    from lmtool.equivalence import _rewrites
    from lmtool.reduction import _canon_tag
    from lmtool.syntax import positions

    def reference(o):
        return all(_canon_tag(sub) is None for _, sub in positions(o))

    seen = set()
    for _ in range(2):
        for o in seeded_objects:
            for *_, res in _rewrites(o, include_ren=True, expansive=True):
                full = reference(res)
                assert is_canonical(res) == full, print_object(res)
                seen.add(full)
                for _, sub in positions(res):
                    assert is_canonical(sub) == reference(sub)
    assert seen == {True, False}


def _rebuilt_renaming(o, frm, to, chosen):
    """rename_occurrences as a full rebuild of every node."""
    from lmtool.syntax import children, with_children

    def go(o, idxs):
        match o:
            case Named(a, b):
                a2 = to if (idxs in chosen and a == frm) else a
                return Named(a2, go(b, idxs + (0,)))
            case ERepl(b, nn, on, ann, s):
                nn2 = to if (idxs in chosen and nn == frm) else nn
                return ERepl(go(b, idxs + (0,)), nn2, on, ann, go(s, idxs + (1,)))
            case _:
                cs = children(o)
                if not cs:
                    return o
                return with_children(o, tuple(go(ch, idxs + (i,)) for i, ch in enumerate(cs)))

    return go(o, ())


def test_rename_occurrences_shares_untouched_subtrees(seeded_objects):
    from itertools import combinations

    from lmtool.syntax import (
        free_names, free_occurrences, positions, rename_occurrences, sort_of, subobject_at,
    )

    shared = 0
    for o in seeded_objects:
        for _, sub in positions(o):
            if sort_of(sub) != "command":
                continue
            for a in sorted(free_names(sub)):
                occs = [idxs for idxs, _ in free_occurrences(sub, a)][:4]
                for r in range(len(occs) + 1):
                    for chosen in map(set, combinations(occs, r)):
                        got = rename_occurrences(sub, a, "'fresh", chosen)
                        assert got == _rebuilt_renaming(sub, a, "'fresh", chosen)
                        for idxs, old in positions(sub):
                            if any(ch[: len(idxs)] == idxs for ch in chosen):
                                continue
                            # no chosen occurrence at or below: kept as is
                            new = subobject_at(got, make_path(got, idxs))
                            assert new is old
                            shared += 1
    assert shared > 1000


def test_result_keys_and_free_identifiers_of_instances(seeded_objects):
    from lmtool.syntax import canonical_key, free_names, free_vars

    for o in seeded_objects:
        fv, fn = free_vars(o), free_names(o)
        for ax, res in axiom_instances(o, include_ren=True):
            assert ax.result_key == canonical_key(res)
            if ax.name != "ren":
                # what makes the free-identifier prefilter of equiv sound
                assert (free_vars(res), free_names(res)) == (fv, fn), ax.render()


def test_ren_can_drop_a_free_name():
    # ren LR: c[a/b\#] -> c{b:=a}; with b absent from c the name a is gone,
    # so the free-identifier prefilter must stay off for ren searches
    from lmtool.syntax import free_names

    lhs = c("(['c]x)['a/'b\\#]")
    rhs = c("['c]x")
    assert free_names(lhs) == {"'a", "'c"} and free_names(rhs) == {"'c"}
    assert any(
        ax.name == "ren" and ax.orientation == "LR" and alpha_eq(r, rhs)
        for ax, r in axiom_instances(lhs, include_ren=True)
    )
    res = equiv(lhs, rhs, include_ren=True)
    assert res.equivalent and res.reason == "found"
    assert check_certificate(lhs, res.certificate, rhs)[0]
    res = equiv(lhs, rhs)
    assert not res.equivalent
    assert res.reason == "free identifiers differ" and res.states == 0


def test_equiv_stop_reasons():
    assert equiv(t("x y"), t("x y")).reason == "found"
    assert equiv(t("x"), c("['a]x")).reason == "sorts differ"
    assert equiv(t("x"), t("y")).reason == "free identifiers differ"
    bounded = dict(max_states=40, include_ren=True)
    assert equiv(t("x"), t("y"), max_depth=3, **bounded).reason == "depth bound"
    assert equiv(t("x"), t("y"), max_depth=12, **bounded).reason == "state bound"
    assert equiv(t("x y"), t("y x"), expansive=False).reason == "empty frontier"


# --- the streamed search against the eager loop it replaced -------------------


def ref_equiv(o, p, max_states=20000, max_depth=12, include_ren=False, expansive=True):
    """equiv before its rewrites were streamed: each expansion lists the
    canonical results of axiom_instances, and only then looks their keys up."""
    from lmtool.syntax import canonical_key, free_names, free_vars, sort_of

    if sort_of(o) != sort_of(p):
        return ("not-within-bounds", None, 0, "sorts differ")
    if not include_ren and (free_vars(o) != free_vars(p) or free_names(o) != free_names(p)):
        return ("not-within-bounds", None, 0, "free identifiers differ")
    ko, kp = canonical_key(o), canonical_key(p)
    if ko == kp:
        return ("equivalent", Certificate([]), 0, "found")
    fwd, bwd = {ko: (o, [])}, {kp: (p, [])}
    frontier_f, frontier_b = [ko], [kp]
    states, depth_f, depth_b = 2, 0, 0

    def splice(meet_key):
        steps = list(fwd[meet_key][1])
        for ax, prev_key in reversed(bwd[meet_key][1]):
            flipped = "RL" if ax.orientation == "LR" else "LR"
            steps.append(Axiom(ax.name, flipped, ax.path, prev_key))
        return Certificate(steps)

    while frontier_f or frontier_b:
        if depth_f + depth_b >= max_depth:
            return ("not-within-bounds", None, states, "depth bound")
        if states >= max_states:
            return ("not-within-bounds", None, states, "state bound")
        expand_fwd = (len(frontier_f) <= len(frontier_b) and frontier_f) or not frontier_b
        frontier = frontier_f if expand_fwd else frontier_b
        visited, other = (fwd, bwd) if expand_fwd else (bwd, fwd)
        new_frontier = []
        for key in frontier:
            obj, steps = visited[key]
            for ax, res in axiom_instances(obj, include_ren, expansive=expansive):
                rk = ax.result_key
                if rk in visited:
                    continue
                visited[rk] = (res, steps + ([ax] if expand_fwd else [(ax, key)]))
                states += 1
                new_frontier.append(rk)
                if rk in other:
                    return ("equivalent", splice(rk), states, "found")
                if states >= max_states:
                    return ("not-within-bounds", None, states, "state bound")
        if expand_fwd:
            frontier_f, depth_f = new_frontier, depth_f + 1
        else:
            frontier_b, depth_b = new_frontier, depth_b + 1
    return ("not-within-bounds", None, states, "empty frontier")


def _summary(status, cert, states, reason):
    steps = cert.steps if cert else []
    return (status, states, reason, cert.render() if cert else None,
            [(s.name, s.orientation, s.path, s.result_key) for s in steps])


def _streamed_matches_reference(o, p, **bounds):
    res = equiv(o, p, **bounds)
    want = _summary(*ref_equiv(o, p, **bounds))
    assert _summary(res.status, res.certificate, res.states, res.reason) == want
    return res


def test_streamed_search_matches_the_eager_loop_on_sigma_pairs():
    from lmtool.drivers import sigma_pair

    reasons = set()
    skipped = 0
    for seed in range(4):
        for k in range(1, 9):
            lhs, rhs = sigma_pair(seed, f"sigma{k}", size=3)
            o, p = canon(lhs), canon(rhs)
            for bounds in ({"max_states": 300}, {"max_depth": 3}, {}):
                if not bounds and k in (4, 5):
                    continue  # full-bound sigma4/5 searches take seconds
                res = _streamed_matches_reference(o, p, include_ren=True, **bounds)
                reasons.add(res.reason)
                # rewrites whose result was seen or not canonical
                skipped += res.built - (res.states - 2)
    assert reasons >= {"found", "state bound", "depth bound"} and skipped > 1000


def test_streamed_search_matches_the_eager_loop_on_reduct_pairs():
    from lmtool.generators import gen_equiv_pair
    from lmtool.reduction import meaningful_reducts

    reasons = set()
    for seed in range(24):
        ax = ("exs", "exr", "lin", "pp", "rho", "theta")[seed % 6]
        o, p, _ = gen_equiv_pair(seed, axiom=ax, size=9)
        _streamed_matches_reference(o, p, max_states=1500, max_depth=6)
        # the searches the bisimulation driver runs, found and failed
        for _, _, a2 in meaningful_reducts(o):
            for _, _, b2 in meaningful_reducts(p):
                res = _streamed_matches_reference(
                    a2, b2, max_states=1500, max_depth=6, expansive=False
                )
                reasons.add(res.reason)
    assert {"found", "empty frontier", "free identifiers differ"} <= reasons


def test_non_expansive_instances_that_issue_no_name_do_not_walk_the_object(monkeypatch):
    from lmtool import syntax

    walks = []
    all_idents = syntax.all_idents

    def spy(o):
        walks.append(o)
        return all_idents(o)

    monkeypatch.setattr(syntax, "all_idents", spy)
    o = c(r"['e](\x. mu 'a. ['b](\y. mu 'c. ['d]x y))")
    assert any(ax.name == "pp" for ax, _ in axiom_instances(o, expansive=False))
    assert walks == []
    # theta right-to-left issues a fresh name, which walks o once
    assert any(ax.name == "theta" for ax, _ in axiom_instances(o))
    assert walks == [o]
