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
from lmtool.syntax import ERepl, Named, alpha_eq, canonical_key, make_path, parse, print_object
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


@pytest.mark.parametrize(
    "text, moves",
    [
        (r"(\x. y)[x\u]", 0),
        (r"(\z. y)[x\u]", 1),
        (r"(['b](mu 'a. ['d]y))['c/'a\z . #]", 0),
        (r"(['b](mu 'e. ['d]y))['c/'a\z . #]", 1),
    ],
)
def test_explicit_operator_does_not_move_under_a_binder_of_its_own(text, moves):
    # exs/exr LR may not push t[x\u] or c['c/'a\s] under a binder of x or
    # 'a, even where nothing below holds it
    from lmtool.equivalence import _subtree_rewrites
    from lmtool.syntax import supply_for

    sub = parse(text, freshen=False)
    moved = [
        new for ax, orient, new in _subtree_rewrites(sub, supply_for(sub), False)
        if ax in ("exs", "exr") and orient == "LR"
    ]
    assert len(moved) == moves


def test_pp_instance():
    o = c("['a2]\\x. mu 'a. ['b2]\\y. mu 'b. ['g]u")
    insts = axiom_instances(o)
    expected = c("['b2]\\y. mu 'b. ['a2]\\x. mu 'a. ['g]u")
    assert any(ax.name == "pp" and alpha_eq(r, expected) for ax, r in insts)


# commands that each break one guard of pp: a == b2, a2 == b, a == b and
# x == y; none of them has a pp rewrite at its root
_PP_GUARD_BREAKERS = (
    r"['c](\x. mu 'a. ['a](\y. mu 'b. ['d]x))",
    r"['b](\x. mu 'a. ['c](\y. mu 'b. ['d]x))",
    r"['c](\x. mu 'a. ['d](\y. mu 'a. ['e]x))",
    r"['c](\x. mu 'a. ['d](\x. mu 'b. ['e]x))",
)


def test_pp_rewrites_are_the_sigma6_template_both_ways():
    # pp is sigma6, kept as a match statement on the search's hot path;
    # it must list what the sigma6 template lists, subobject by subobject
    from lmtool.equivalence import AXIOMS, _subtree_rewrites
    from lmtool.generators import gen_equiv_pair
    from lmtool.lmu import SIGMA_EQUATIONS
    from lmtool.syntax import positions, supply_for, template_rewrites

    sigma6 = [eq for eq in SIGMA_EQUATIONS if eq[0] == "sigma6"]
    objs = [c(text) for text in _PP_GUARD_BREAKERS]
    for seed in range(40):
        for ax in AXIOMS:
            o, p, _ = gen_equiv_pair(seed, axiom=ax)
            objs += [o, p] + [r for _, r in axiom_instances(o)]
    found = 0
    for o in objs:
        for _, sub in positions(o):
            pp = [
                (orient, new)
                for name, orient, new in _subtree_rewrites(sub, supply_for(sub), False, False)
                if name == "pp"
            ]
            assert pp == [(orient, new) for _, orient, new in template_rewrites(sub, sigma6)]
            found += len(pp)
    assert found > 500
    for text in _PP_GUARD_BREAKERS:
        sub = c(text)
        assert not any(name == "pp" for name, *_ in _subtree_rewrites(sub, supply_for(sub), False))


def test_instances_stay_canonical():
    rng = random.Random(13)
    for _ in range(80):
        o = canon(random_object(rng, 7))
        for ax, r in axiom_instances(o, include_ren=True):
            assert is_canonical(r), (ax.render(), print_object(o), print_object(r))


def test_instances_where_a_replacement_name_is_free_in_its_stack():
    # lin's stack-inertness test projects the subject of the replacement at
    # the root, whose inner 'e is also free in its own stack
    o = c(r"(['o](mu 'd. (['e]z)['f/'e\(mu 'g. ['e]w) . #]))['n/'o\v . #]")
    assert is_canonical(o)
    assert [(ax.name, ax.orientation) for ax, _ in axiom_instances(o)]


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


def _binders_along(root, idxs):
    """The variables and names bound on the spine from the root to the hole
    at idxs, spelled out per binder class: each binds in its child 0."""
    from lmtool.syntax import Abs, ERepl, ESub, Mu, children

    vs, ns = set(), set()
    o = root
    for i in idxs:
        match o:
            case Abs(x, _, _) | ESub(_, x, _) if i == 0:
                vs.add(x)
            case Mu(a, _, _) | ERepl(_, _, a, _, _) if i == 0:
                ns.add(a)
        o = children(o)[i]
    return vs, ns


def _reference_linear_positions(o, want_sort):
    """Every position, filtered by is_linear_indices, with its binders read
    off by _binders_along: the walk that _linear_positions replaces."""
    from lmtool.reduction import is_linear_indices
    from lmtool.syntax import positions, sort_of

    for idxs, sub in positions(o):
        if idxs and sort_of(sub) == want_sort and is_linear_indices(o, idxs):
            vs, ns = _binders_along(o, idxs)
            yield idxs, sub, vs, ns


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
    from lmtool.syntax import positions, sort_of

    compared = 0
    for o in seeded_objects:
        for _, sub in positions(o):
            for sort in ("term", "command"):
                # the walk keeps one set for both namespaces
                fast = [pos for pos in _linear_positions(sub) if sort_of(pos[1]) == sort]
                ref = [(idxs, node, vs | ns)
                       for idxs, node, vs, ns in _reference_linear_positions(sub, sort)]
                assert fast == ref, print_object(sub)
                compared += len(ref)
    assert compared > 1000


def test_cached_canonicity_of_instances_matches_reference_walk(seeded_objects):
    # every rewrite at every position, canonical or not, and every subobject
    # of it; the instances share untouched subtrees with their source, whose
    # caches are full after the first round
    from lmtool.equivalence import _NodeMemo, _rewrites
    from lmtool.reduction import _canon_tag
    from lmtool.syntax import positions, supply_for

    def reference(o):
        return all(_canon_tag(sub) is None for _, sub in positions(o))

    seen = set()
    for _ in range(2):
        for o in seeded_objects:
            for *_, res in _rewrites(o, True, True, supply_for(o), _NodeMemo()):
                full = reference(res)
                assert is_canonical(res) == full, print_object(res)
                seen.add(full)
                for _, sub in positions(res):
                    assert is_canonical(sub) == reference(sub)
    assert seen == {True, False}


def ref_rename_occurrences(o, old, new, chosen):
    """The renamer of ren right-to-left before rename_subsets: rename old to
    new at the chosen index paths, rebuilding every prefix of every chosen
    path and returning every other subtree as it is."""
    from lmtool.syntax import _FREE_AT, _RENAME_AT, children, with_children

    on_path = {c[:k] for c in chosen for k in range(len(c) + 1)}

    def go(o, idxs):
        if idxs not in on_path:
            return o
        cs = children(o)
        if cs:
            o = with_children(o, tuple(go(ch, idxs + (i,)) for i, ch in enumerate(cs)))
        if idxs in chosen:
            at = _FREE_AT[type(o)]
            if getattr(o, at) == old:
                o = _RENAME_AT[type(o)](o, new)
        return o

    return go(o, ())


def _ref_rename_subsets(o, new, occs):
    """rename_subsets by one ref_rename_occurrences call per subset."""
    from itertools import combinations

    from lmtool.syntax import _FREE_AT, subobject_at

    if not occs:
        return [o]
    first = subobject_at(o, occs[0])
    old = getattr(first, _FREE_AT[type(first)])
    return [ref_rename_occurrences(o, old, new, set(chosen))
            for r in range(len(occs) + 1) for chosen in combinations(occs, r)]


def test_rename_subsets_shares_untouched_subtrees(seeded_objects):
    from itertools import combinations

    from lmtool.syntax import (
        free_names, free_occurrences, positions, rename_subsets, same_object, sort_of,
        subobject_at,
    )

    shared = 0
    for o in seeded_objects:
        for _, sub in positions(o):
            if sort_of(sub) != "command":
                continue
            for a in sorted(free_names(sub)):
                occs = [idxs for idxs, _ in free_occurrences(sub, a)][:4]
                got = rename_subsets(sub, "'fresh", occs)
                subsets = [c for r in range(len(occs) + 1) for c in combinations(occs, r)]
                assert len(got) == len(subsets) and got[0] is sub
                for res, chosen in zip(got, subsets):
                    want = ref_rename_occurrences(sub, a, "'fresh", set(chosen))
                    assert same_object(res, want)
                    for idxs, old in positions(sub):
                        if any(ch[: len(idxs)] == idxs for ch in chosen):
                            continue
                        # no chosen occurrence at or below: kept as is
                        assert subobject_at(res, make_path(res, idxs)) is old
                        shared += 1
    assert shared > 1000


def test_ren_right_to_left_lists_match_the_path_renamer(seeded_objects, monkeypatch):
    # each command's whole rewrite list, once as built and once with every
    # chosen subset renamed by the path renamer, from equal fresh supplies
    from lmtool import equivalence
    from lmtool.equivalence import _subtree_rewrites
    from lmtool.syntax import count_free, positions, same_object, sort_of, supply_for

    def with_path_renamer(sub):
        with monkeypatch.context() as m:
            m.setattr(equivalence, "rename_subsets", _ref_rename_subsets)
            return _subtree_rewrites(sub, supply_for(sub), True)

    # the objects, and the ren rewrites of the 32 canonical sigma sides that
    # end them: renamed commands hold more occurrences of a name
    objs = list(seeded_objects)
    for o in seeded_objects[-32:]:
        objs += [r for ax, r in axiom_instances(o, include_ren=True) if ax.name == "ren"]
    ren_rl = chosen_two = 0
    seen = set()
    for o in objs:
        for _, sub in positions(o):
            if sort_of(sub) != "command" or id(sub) in seen:
                continue
            seen.add(id(sub))
            got = _subtree_rewrites(sub, supply_for(sub), True)
            want = with_path_renamer(sub)
            assert [rw[:2] for rw in got] == [rw[:2] for rw in want]
            for (name, orient, res), (_, _, ref) in zip(got, want):
                # every name compared, the fresh ones included
                assert same_object(res, ref), print_object(sub)
                if (name, orient) == ("ren", "RL"):
                    ren_rl += 1
                    chosen_two += count_free(res.old, res.body) >= 2
    assert ren_rl > 1000 and chosen_two > 100, (ren_rl, chosen_two)


def _ref_rewrite_everywhere(o, rewrites_of):
    """rewrite_everywhere before its one walk: every position, then the
    nodes above each position that has rewrites read again from the root."""
    from lmtool.syntax import descend, positions, splice

    for idxs, sub in positions(o):
        found = rewrites_of(sub)
        if found:
            nodes = descend(o, idxs)
            for rw in found:
                yield idxs, rw, splice(nodes, idxs, rw[-1])


def _same_rewrites(got, want):
    from lmtool.syntax import same_object

    assert len(got) == len(want)
    for (idxs, rw, res), (idxs2, rw2, res2) in zip(got, want):
        assert idxs == idxs2 and rw[:-1] == rw2[:-1]
        assert same_object(rw[-1], rw2[-1]) and same_object(res, res2)
    return len(got)


def test_one_walk_rewrite_everywhere_matches_the_descend_reference(seeded_objects, monkeypatch):
    from lmtool import equivalence, lmu
    from lmtool.drivers import sigma_pair
    from lmtool.equivalence import _NodeMemo, _rewrites
    from lmtool.syntax import same_object, supply_for

    def both(module, run):
        got = run()
        with monkeypatch.context() as m:
            m.setattr(module, "rewrite_everywhere", _ref_rewrite_everywhere)
            return got, run()

    compared = 0
    for o in seeded_objects:
        got, want = both(equivalence, lambda: list(
            _rewrites(o, True, True, supply_for(o), _NodeMemo())))
        compared += _same_rewrites(got, want)
    sigma = 0
    for k in range(1, 9):
        for seed in range(3):
            for side in sigma_pair(seed, f"sigma{k}", size=3):
                got, want = both(lmu, lambda: lmu.sigma_instances(side))
                assert [g[:3] for g in got] == [w[:3] for w in want]
                assert all(same_object(g[3], w[3]) for g, w in zip(got, want))
                sigma += len(got)
    assert compared > 2000 and sigma > 500, (compared, sigma)


def test_one_walk_rewrite_everywhere_on_a_deep_spine():
    # x y0 ... y4999, nested to the left: deeper than the recursion limit
    import sys

    from lmtool.syntax import App, Var, rewrite_everywhere

    depth = 5000
    assert depth > sys.getrecursionlimit()
    o = Var("x")
    for i in range(depth):
        o = App(o, Var(f"y{i}"))
    hit = {"x", "y0", "y2500", f"y{depth - 1}"}

    def rewrites_of(sub):
        if type(sub) is Var and sub.name in hit:
            return [("to z", Var("z")), ("to w", Var("w"))]
        return []

    got = list(rewrite_everywhere(o, rewrites_of))
    assert _same_rewrites(got, list(_ref_rewrite_everywhere(o, rewrites_of))) == 8
    # the head x is the deepest position; y4999 is the root's argument
    assert got[0][0] == (0,) * depth and got[-1][0] == (1,)
    assert got[-1][2].fun is o.fun


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
    # ren renames names only: free variables that differ still stop a
    # search at once, free names that differ do not
    assert equiv(t("x"), t("y"), include_ren=True).reason == "free identifiers differ"
    bounded = dict(max_states=40, include_ren=True)
    assert equiv(c("['a]x"), c("['b]x"), max_depth=3, **bounded).reason == "depth bound"
    assert equiv(t("x y"), t("y x"), max_depth=3, **bounded).reason == "depth bound"
    assert equiv(t("x y"), t("y x"), max_depth=12, **bounded).reason == "state bound"
    assert equiv(t("x y"), t("y x"), expansive=False).reason == "empty frontier"


# --- the streamed search against the eager loop it replaced -------------------


def ref_equiv(o, p, max_states=20000, max_depth=12, include_ren=False, expansive=True):
    """equiv before its rewrites were streamed: each expansion lists the
    canonical results of axiom_instances, and only then looks their keys up."""
    from lmtool.syntax import canonical_key, free_names, free_vars, sort_of

    if sort_of(o) != sort_of(p):
        return ("not-within-bounds", None, 0, "sorts differ")
    if free_vars(o) != free_vars(p) or not include_ren and free_names(o) != free_names(p):
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


@pytest.mark.parametrize(
    "lhs, rhs, steps",
    [
        # o's side reaches p's origin: round 1 gives o two reducts, p's
        # frontier is then smaller and has no non-expansive rewrite, and
        # round 3 meets p from the reduct with the theta left over
        ("mu 'a. ['a]y (mu 'b. ['b]x)", "y x", ["theta+ @ root", "theta+ @ 1"]),
        # o has no non-expansive rewrite, so its frontier empties first and
        # p's side alone reaches o
        ("x", "mu 'a. ['a]x", ["theta- @ root"]),
        ("y x", "mu 'a. ['a]y (mu 'b. ['b]x)", ["theta- @ 1", "theta- @ root"]),
        # each side takes one step and they meet at y x: o's side finds it
        # in round 1 and then empties, p's side reaches it in round 3
        ("y (mu 'a. ['a]x)", "mu 'b. ['b]y x", ["theta+ @ 1", "theta- @ root"]),
    ],
)
def test_certificates_read_from_parent_links(lhs, rhs, steps):
    o, p = t(lhs), t(rhs)
    res = _streamed_matches_reference(o, p, expansive=False)
    assert res.reason == "found" and res.certificate.render().splitlines() == steps
    ok, diag = check_certificate(o, res.certificate, p)
    assert ok, diag


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


# --- one name supply and one node memo per search ------------------------------


def _outcome(res):
    steps = res.certificate.steps if res.certificate else []
    return (res.status, res.states, res.expanded, res.built, res.reason,
            res.certificate.render() if res.certificate else None,
            [(s.name, s.orientation, s.path, s.result_key) for s in steps])


def _per_state_rewrites(o, include_ren, expansive, supply, memo):
    """The expansion before the memo: one supply_for per expanded state, and
    every node's rewrites computed afresh."""
    from lmtool.equivalence import _subtree_rewrites
    from lmtool.syntax import rewrite_everywhere, supply_for

    supply = supply_for(o)
    return rewrite_everywhere(
        o, lambda sub: _subtree_rewrites(sub, supply, include_ren, expansive)
    )


def _sigma_search_pairs(seeds):
    from lmtool.drivers import sigma_pair

    for seed in seeds:
        for k in range(1, 9):
            lhs, rhs = sigma_pair(seed, f"sigma{k}", size=3)
            yield canon(lhs), canon(rhs)


def test_node_memo_keeps_the_outcomes_of_the_per_state_loop(monkeypatch):
    from lmtool import equivalence

    rewrites = equivalence._rewrites
    served = 0
    for o, p in _sigma_search_pairs(range(8)):
        for bounds in ({"max_states": 300}, {"max_depth": 3}, {}):
            res = equiv(o, p, include_ren=True, **bounds)
            monkeypatch.setattr(equivalence, "_rewrites", _per_state_rewrites)
            want = equiv(o, p, include_ren=True, **bounds)
            monkeypatch.setattr(equivalence, "_rewrites", rewrites)
            assert _outcome(res) == _outcome(want)
            served += res.served
    assert served > 1000


def test_every_identifier_of_a_search_is_an_inputs_or_issued_once(monkeypatch):
    from collections import Counter

    from lmtool import equivalence
    from lmtool.syntax import NameSupply, all_idents

    issued, states = [], []
    fresh = NameSupply.fresh
    admit = equivalence.rewrite_is_canonical

    def issue(supply, base):
        issued.append(fresh(supply, base))
        return issued[-1]

    def seen(o, idxs):
        states.append(o)
        return admit(o, idxs)

    monkeypatch.setattr(NameSupply, "fresh", issue)
    monkeypatch.setattr(equivalence, "rewrite_is_canonical", seen)
    holding_issued = 0
    for o, p in _sigma_search_pairs(range(4)):
        issued.clear()
        states.clear()
        equiv(o, p, include_ren=True, max_states=300)
        assert not [n for n, k in Counter(issued).items() if k > 1]
        allowed = all_idents(o) | all_idents(p) | set(issued)
        # every state the search visited, and every other result it checked
        for q in states:
            idents = all_idents(q)
            assert idents <= allowed
            holding_issued += bool(idents & set(issued))
    assert holding_issued > 1000


def test_ren_left_to_right_takes_its_fresh_name_from_the_objects_supply():
    from lmtool.syntax import EmptyStack, Mu, Var, all_idents, subobject_at

    # the inner replacement binds 'a, the outer redex's new name, so renaming
    # 'b to 'a must rename the inner binder; 'a1 is taken outside the redex
    inner = ERepl(Named("'b", Var("y")), "'c", "'a", None, EmptyStack())
    o = Named("'a1", Mu("'e", None, ERepl(inner, "'a", "'b", None, EmptyStack())))
    res = apply_axiom(o, Axiom("ren", "LR", (0, 0)))
    renamed = subobject_at(res, (0, 0))
    assert type(renamed) is ERepl and renamed.body == Named("'a", Var("y"))
    assert renamed.old not in all_idents(o)


# --- results admitted by the nodes their rewrite rebuilt -----------------------


def _copy(o):
    """o rebuilt node for node: the copy shares no node, and so no cached
    answer, with o."""
    from lmtool.syntax import EmptyStack, Var, children, with_children

    cs = children(o)
    if cs:
        return with_children(o, tuple(map(_copy, cs)))
    return Var(o.name) if type(o) is Var else EmptyStack()


def _admission_states():
    """The canonical sides of criterion 3's pairs, of more sigma pairs, and
    of one-axiom pairs of every axiom, ren included."""
    from lmtool.drivers import sigma_pair
    from lmtool.equivalence import AXIOMS, REN_AXIOM
    from lmtool.generators import gen_equiv_pair

    for k in range(1, 9):
        for seed in range(20):
            yield from map(canon, sigma_pair(seed * 101 + k, f"sigma{k}"))
        for seed in range(3):
            yield from map(canon, sigma_pair(seed, f"sigma{k}", size=3))
    for i, ax in enumerate(AXIOMS + (REN_AXIOM,)):
        for seed in range(3):
            yield from gen_equiv_pair(seed=100 * i + seed, axiom=ax)[:2]


def test_admission_by_the_rebuilt_path_matches_is_canonical_of_a_copy():
    from collections import Counter

    from lmtool.equivalence import _NodeMemo, _rewrites
    from lmtool.reduction import RuleTag, _canon_tag, rewrite_is_canonical
    from lmtool.syntax import App, canonical_key, subobject_at, supply_for

    kinds = Counter()
    for o in _admission_states():
        assert is_canonical(o)
        want_instances = []
        for idxs, (name, orient, _), res in _rewrites(o, True, True, supply_for(o), _NodeMemo()):
            want = is_canonical(_copy(res))
            assert rewrite_is_canonical(res, idxs) == want, print_object(res)
            # every rebuilt node holds its own answer, and a second
            # admission reads the result's
            for k in range(len(idxs)):
                node = subobject_at(res, idxs[:k])
                assert node._cn == is_canonical(_copy(node)), print_object(node)
            assert rewrite_is_canonical(res, idxs) == want
            kinds[want] += 1
            if want:
                want_instances.append((Axiom(name, orient, idxs, canonical_key(res)), res))
                continue
            parent = subobject_at(res, idxs[:-1]) if idxs else None
            if (name, orient) == ("theta", "RL") and type(parent) is App and idxs[-1] == 0:
                kinds["theta RL at the function of an application"] += 1
            tag = _canon_tag(parent) if type(parent) is ERepl else None
            if (name, orient) == ("ren", "RL") and tag is RuleTag.W:
                kinds["ren RL makes the enclosing replacement a W redex"] += 1
            if (name, orient) == ("lin", "RL"):
                kinds["lin RL"] += 1
        # axiom_instances admits by the same path
        assert axiom_instances(o, include_ren=True) == want_instances
    assert kinds[True] > 5000 and kinds[False] > 500
    assert kinds["theta RL at the function of an application"] > 100
    assert kinds["ren RL makes the enclosing replacement a W redex"] > 0
    assert kinds["lin RL"] > 0


@pytest.mark.parametrize("state, path, new", [
    # a B redex, and an M redex below the new subobject's root
    ("f (x y)", (1,), r"(\z. z) y"),
    ("f (x y)", (1,), "w ((mu 'a. ['a]z) y)"),
    (r"\v. mu 'b. ['b]x y", (0, 0, 0), r"(\z. z) y"),
    # canonical in place
    (r"\v. mu 'b. ['b]x y", (0, 0, 0), "w y"),
])
def test_admission_reads_the_new_subobjects_own_canonicity(state, path, new):
    # no axiom rewrite of a canonical object in the corpora above makes a
    # new subobject that is not canonical itself, so these are written out
    from lmtool.reduction import rewrite_is_canonical
    from lmtool.syntax import descend, splice, subobject_at

    o = canon(t(state))
    res = splice(descend(o, path), path, t(new))
    want = is_canonical(_copy(res))
    assert want == is_canonical(t(new))
    assert rewrite_is_canonical(res, path) == want
    for k in range(len(path)):
        assert subobject_at(res, path[:k])._cn == want


def test_a_search_builds_an_axiom_for_each_certificate_step_only(monkeypatch):
    from lmtool import equivalence
    from lmtool.drivers import sigma_pair
    from lmtool.equivalence import ExpansionCache
    from lmtool.generators import gen_equiv_pair

    built = []
    real = equivalence.Axiom

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(equivalence, "Axiom", counted)
    searches = [(map(canon, sigma_pair(0, f"sigma{k}", size=3)), {"include_ren": True})
                for k in (4, 5, 7)]
    # a cached search two steps long: a rho pair's right side, one step on
    o, p, _ = gen_equiv_pair(seed=0, axiom="rho")
    q = next(r for _, r in axiom_instances(p, expansive=False) if not alpha_eq(r, o))
    searches.append(((o, q), {"expansive": False, "cache": ExpansionCache(o, q)}))
    for pair, setting in searches:
        built.clear()
        res = equiv(*pair, **setting)
        assert res.equivalent and len(res.certificate.steps) > 1
        assert len(built) == len(res.certificate.steps) and res.built > len(built)


def test_lin_left_to_right_is_the_r_step(monkeypatch):
    # lin LR fires R at the replacement; on every instance that the
    # searches of one-axiom and sigma pairs meet, that is the subject with
    # the stack applied, which is canonical already
    from lmtool import equivalence
    from lmtool.drivers import bisim_driver, sigma_correspondence_case, sigma_pair
    from lmtool.generators import gen_equiv_pair
    from lmtool.meta import apply_stack
    from lmtool.syntax import supply_for

    real = equivalence._subtree_rewrites
    checked = [0]

    def checking(sub, *args, **kwargs):
        out = real(sub, *args, **kwargs)
        for name, orient, res in out:
            if (name, orient) == ("lin", "LR"):
                u = apply_stack(sub.body.body, sub.stack)
                assert res == Named(sub.new, canon(u, supply_for(sub))), print_object(sub)
                checked[0] += 1
        return out

    monkeypatch.setattr(equivalence, "_subtree_rewrites", checking)
    for seed in range(60):
        bisim_driver(*gen_equiv_pair(seed=500 + seed, axiom="lin", size=9))
    for k in range(1, 9):
        for seed in range(3):
            sigma_correspondence_case(*sigma_pair(seed * 101 + k, f"sigma{k}", size=3))
    assert checked[0] > 80, checked


# --- several targets ---------------------------------------------------------


def test_equiv_stops_at_the_one_target_it_reaches_and_names_it():
    o = c(r"['c](\x. mu 'a. ['d](\y. mu 'b. ['e]mu 'f. ['g]x))")
    # same sort and free identifiers as o, but in another class
    apart = c(r"['d](\x. mu 'a. ['c](\y. mu 'b. ['e]mu 'f. ['g]x))")
    swapped = next(r for ax, r in axiom_instances(o, expansive=False) if ax.name == "pp")
    # a target two steps away: pp, then rho on the inner mu
    (far,) = [r for ax, r in axiom_instances(swapped, expansive=False) if ax.name == "rho"]
    assert not equiv(o, apart, expansive=False).equivalent
    # the search stops at the nearest target: swapped before far
    for targets, reached in (([apart, swapped], 1), ([swapped, apart], 0),
                             ([apart, far], 1), ([t("x"), apart, far, swapped], 3)):
        res = equiv(o, targets, expansive=False)
        assert res.equivalent and res.target == reached
        assert check_certificate(o, res.certificate, targets[reached]) == (True, "ok")
        for i, other in enumerate(targets):
            if i != reached:
                assert not check_certificate(o, res.certificate, other)[0]
        # keys given by the caller, one per target
        keys = (canonical_key(o), [canonical_key(q) for q in targets])
        assert equiv(o, targets, expansive=False, keys=keys) == res
    # one target is the one-target case of the same loop
    one = equiv(o, far, expansive=False)
    assert one.target == 0 and one.certificate == equiv(o, [far], expansive=False).certificate
    assert equiv(o, [apart, o]).target == 1
    # a target that cannot be joined is not searched for; with none left,
    # the first target's refusal is the reason
    assert equiv(o, [t("x"), c("['c]x")]).reason == "sorts differ"
    assert equiv(o, [c("['c]x"), t("x")]).reason == "free identifiers differ"
    with pytest.raises(ValueError):
        equiv(o, [])
