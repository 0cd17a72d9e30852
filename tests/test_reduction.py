import random

import pytest

from lmtool.gen_random import random_object, random_pure_term
from lmtool.generators import gen_typed
from lmtool.lmu import expand, is_pure, project
from lmtool.reduction import (
    PLAIN,
    BudgetExhausted,
    NotCanonicalError,
    RuleTag,
    _canon_tag,
    canon,
    classify_R,
    is_canonical,
    is_linear_path,
    linear_sort_pair,
    lm_redexes,
    lm_step,
    meaningful_redexes,
    meaningful_reducts,
    meaningful_step,
    plain_reducts,
    reduce_to_nf,
    reduction_graph,
)
from lmtool.syntax import (
    alpha_eq,
    canonical_key,
    is_barendregt,
    make_path,
    parse,
    positions,
    print_object,
    refresh,
    supply_for,
)


def t(text):
    return parse(text, freshen=False)


def c(text):
    return parse(text, sort="command", freshen=False)


def path_of(o, tag):
    rs = [p for tg, p in lm_redexes(o) if tg == tag]
    assert len(rs) == 1, f"expected a unique {tag} redex"
    return rs[0]


# --- redex search ------------------------------------------------------------


def test_b_redex_at_a_distance():
    o = t(r"((\x. q)[y\v]) u")
    rs = lm_redexes(o)
    assert [tag for tag, _ in rs if tag == RuleTag.B] == [RuleTag.B]
    # the substitution frame itself is an S redex
    assert RuleTag.S in [tag for tag, _ in rs]


def test_m_redex():
    o = t("(mu 'a. ['a]x) y")
    assert [tag for tag, _ in lm_redexes(o)] == [RuleTag.M]


def test_no_redexes():
    assert lm_redexes(t("x y")) == []


# --- stepping ----------------------------------------------------------------


def test_m_step_shape():
    o = t("(mu 'a. ['a]x) y")
    o2 = lm_step(o, RuleTag.M, path_of(o, RuleTag.M))
    assert alpha_eq(o2, t("mu 'b. (['a]x)['b/'a\\y . #]"))
    assert is_barendregt(o2)


def test_s_step():
    o = t(r"q[x\u]")
    assert alpha_eq(lm_step(o, RuleTag.S, path_of(o, RuleTag.S)), t("q"))


def test_r_step_on_named():
    o = c("(['a]x)['b/'a\\y . #]")
    p = path_of(o, RuleTag.R)
    assert alpha_eq(lm_step(o, RuleTag.R, p), c("['b]x y"))


def test_b_step_keeps_frames_outside():
    o = t(r"((\x. x)[y\v]) u")
    o2 = lm_step(o, RuleTag.B, path_of(o, RuleTag.B))
    assert alpha_eq(o2, t(r"(x[x\u])[y\v]"))


# --- classification ----------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("(['a]x)['b/'a\\y . #]", RuleTag.N_LIN),
        ("(['g](x (mu 'd. ['a]y)))['b/'a\\z . #]", RuleTag.N_NONLIN),
        ("((['g]x)['a/'g\\#])['b/'a\\z . #]", RuleTag.W),
        ("((['g]x)['a/'g\\w . #])['b/'a\\z . #]", RuleTag.C),
        ("(['a]x)['b/'a\\#]", RuleTag.R_EMPTY),
        ("(['a](mu 'd. ['a]y))['b/'a\\z . #]", RuleTag.R_NEQ1),
        ("(['g]x)['b/'a\\z . #]", RuleTag.R_NEQ1),
    ],
)
def test_classify(text, expected):
    o = c(text)
    assert classify_R(o, make_path(o, ())) == expected


def test_classify_nonlinear_swap_and_composition():
    # inner renaming in argument position: non-linear swap
    o = c("(['g]x (mu 'd. (['q]w)['a/'q\\#]))['b/'a\\v . #]")
    assert classify_R(o, make_path(o, ())) == RuleTag.W_NONLIN
    # inner stack replacement in argument position: non-linear composition
    o2 = c("(['g]x (mu 'd. (['q]w)['a/'q\\u . #]))['b/'a\\v . #]")
    assert classify_R(o2, make_path(o2, ())) == RuleTag.C_NONLIN


def test_classify_partition_random():
    rng = random.Random(5)
    tags = set()
    for _ in range(400):
        o = random_object(rng, 8)
        for tg, p in lm_redexes(o):
            if tg is RuleTag.R:
                tags.add(classify_R(o, p))
    # every classification is one of the refined tags
    allowed = {
        RuleTag.R_EMPTY,
        RuleTag.R_NEQ1,
        RuleTag.N_LIN,
        RuleTag.N_NONLIN,
        RuleTag.W,
        RuleTag.W_NONLIN,
        RuleTag.C,
        RuleTag.C_NONLIN,
    }
    assert tags <= allowed and len(tags) >= 4


# --- linear contexts ---------------------------------------------------------


def test_linear_paths():
    o = c("['a]x y")  # [a](x y): function position is linear
    root = make_path(o, ())
    assert is_linear_path(o, root, make_path(o, (0, 0)))
    assert not is_linear_path(o, root, make_path(o, (0, 1)))
    assert linear_sort_pair(o, root, make_path(o, (0, 0))) == "CT"


def test_linear_path_examples():
    # ([b](box v))['a2/'a\u.#] seen from the replacement body down to the
    # function position: command to term, linear
    o = c("(['b]x v)['a2/'a\\u . #]")
    assert is_linear_path(o, make_path(o, ()), make_path(o, (0, 0, 0)))
    # entering the stack of a replacement is never linear
    assert not is_linear_path(o, make_path(o, ()), make_path(o, (1, 0)))


# --- canonical forms ---------------------------------------------------------


def test_canon_bmc_example():
    o = t("(mu 'a. ['a]x) y z")
    got = canon(o)
    assert alpha_eq(got, t("mu 'b. (['a]x)['b/'a\\y . z . #]"))


def test_canon_identity_on_normal():
    o = t("x")
    assert canon(o) == o


def test_canon_w_example():
    o = c("((['g]x)['a/'g\\#])['b/'a\\z . #]")
    got = canon(o)
    expected = c("((['g]x)['a/'g\\z . #])['b/'a\\#]")
    assert alpha_eq(got, expected)
    # and projection is unchanged
    assert alpha_eq(project(got), project(o))


def test_canon_idempotent_random():
    rng = random.Random(99)
    for _ in range(200):
        o = random_object(rng, 8)
        co = canon(o)
        assert is_canonical(co)
        assert alpha_eq(canon(co), co)


def test_canon_projection_is_a_reduct():
    # canonicalization projects to a (possibly empty) lambda-mu reduction:
    # C and W steps preserve the projection exactly, B and M steps project
    # to beta/mu steps
    rng = random.Random(98)
    for _ in range(150):
        o = random_object(rng, 8)
        co = canon(o)
        try:
            nf1, _ = reduce_to_nf(project(o), budget=500)
            nf2, _ = reduce_to_nf(project(co), budget=500)
        except BudgetExhausted:
            continue
        assert alpha_eq(nf1, nf2)


def test_canon_projection_exact_without_bm():
    # when the object has no B or M redex, canon only reorganizes explicit
    # replacements and the projection is untouched
    rng = random.Random(97)
    checked = 0
    for _ in range(400):
        o = random_object(rng, 8)
        if any(tag in (RuleTag.B, RuleTag.M) for tag, _ in lm_redexes(o)):
            continue
        co = canon(o)
        assert alpha_eq(project(co), project(o))
        checked += 1
    assert checked > 100


# --- meaningful reduction ----------------------------------------------------


def test_meaningful_rejects_non_canonical():
    with pytest.raises(NotCanonicalError):
        meaningful_redexes(t(r"(\x. x) y"))


def test_meaningful_redexes_linear_named_is_equational():
    o = c("(['a]x)['b/'a\\y . #]")
    assert meaningful_redexes(o) == []


def test_meaningful_redexes_counts():
    o = c("(['a](x (mu 'b. ['a]y)))['a2/'a\\z . #]")
    rs = meaningful_redexes(o)
    assert [tag for tag, _ in rs] == [RuleTag.R_NEQ1]


def test_meaningful_step_replacement_example():
    o = c("(['a](x (mu 'b. ['a]y)))['a2/'a\\(\\z. z) . #]")
    rs = meaningful_redexes(o)
    assert len(rs) == 1
    got = meaningful_step(o, *rs[0])
    expected = c("['a2](x (mu 'b. ['a2]y (\\z. z))) (\\z. z)")
    assert alpha_eq(got, expected)


def test_meaningful_step_nonlinear_named():
    o = c("(['b](x (mu 'g. ['a]y)))['a2/'a\\z . #]")
    rs = meaningful_redexes(o)
    assert [tag for tag, _ in rs] == [RuleTag.N_NONLIN]
    got = meaningful_step(o, *rs[0])
    assert alpha_eq(got, c("['b]x (mu 'g. ['a2]y z)"))


def test_meaningful_step_s_vacuous():
    o = t(r"y[x\u]")
    rs = meaningful_redexes(o)
    assert [tag for tag, _ in rs] == [RuleTag.S]
    assert alpha_eq(meaningful_step(o, *rs[0]), t("y"))


# --- reduction driver --------------------------------------------------------


def test_reduce_identity():
    o = t(r"(\x. x) y")
    nf, trace = reduce_to_nf(o, budget=10)
    assert alpha_eq(nf, t("y"))
    assert [tag for tag, _, _ in trace.steps] == [RuleTag.B, RuleTag.S]


def test_reduce_omega_exhausts():
    omega = t(r"(\x. x x) (\x. x x)")
    with pytest.raises(BudgetExhausted):
        reduce_to_nf(omega, budget=120)


def test_reduce_callcc_applied():
    callcc = r"\x. mu 'a. ['a]x (\y. mu 'd. ['a]y)"
    o = t(rf"({callcc}) (\k. z)")
    nf, _ = reduce_to_nf(o, budget=200)
    assert is_pure(nf)
    assert alpha_eq(nf, t("mu 'a. ['a]z"))
    # the whole reduction graph reaches the same normal form
    _, nfs = reduction_graph(o, max_states=500)
    assert nfs and all(alpha_eq(nfs[0], other) for other in nfs)


def test_refined_mode_leaves_renamings():
    o = c("['a]mu 'b. ['b]x")
    # plain mode executes everything
    nf, _ = reduce_to_nf(c("(['b]x)['a/'b\\#]"), budget=50, mode="plain")
    assert alpha_eq(nf, c("['a]x"))
    nf2, _ = reduce_to_nf(c("(['b]x)['a/'b\\#]"), budget=50, mode="refined")
    assert alpha_eq(nf2, c("(['b]x)['a/'b\\#]"))


def test_projection_simulation_random():
    rng = random.Random(31)
    for _ in range(120):
        o = random_object(rng, 7)
        for tag, p in lm_redexes(o)[:3]:
            o2 = lm_step(o, tag, p)
            # projections are pure and the step projects to lambda-mu steps
            assert is_pure(project(o2))
            pr, _ = reduce_to_nf(project(o), budget=400)
            pr2, _ = reduce_to_nf(project(o2), budget=400)
            assert alpha_eq(pr, pr2)


def test_local_confluence_random_graphs():
    rng = random.Random(77)
    done = 0
    for _ in range(100):
        o = random_pure_term(rng, 6)
        try:
            _, nfs = reduction_graph(o, max_states=400)
        except BudgetExhausted:
            continue
        keys = {print_object(canonish) for canonish in nfs}
        if nfs:
            first = nfs[0]
            assert all(alpha_eq(first, other) for other in nfs[1:]), keys
            done += 1
    assert done > 50


def reference_graph(o, max_states):
    """reduction_graph as it was before the shared name supply: a fresh
    supply_for(state) for every step and keys recomputed when popped."""
    start = canonical_key(o)
    seen = {start}
    edges = {start: []}
    queue = [o]
    nfs = []
    while queue:
        cur = queue.pop()
        ck = canonical_key(cur)
        succs = [lm_step(cur, tag, p, supply_for(cur)) for tag, p in lm_redexes(cur)]
        if not succs:
            nfs.append(cur)
        for nxt in succs:
            nk = canonical_key(nxt)
            edges[ck].append(nk)
            if nk not in seen:
                if len(seen) >= max_states:
                    raise BudgetExhausted(None)
                seen.add(nk)
                edges[nk] = []
                queue.append(nxt)
    return edges, nfs


def test_reduction_graph_with_one_supply_matches_fresh_supplies():
    # free identifiers shaped like the ones a name supply issues, which a
    # supply that did not reserve them would capture
    crafted = [t(r"(\x. \x1. x x1) x1 x2"), t("(mu 'a. ['a1](mu 'b. ['a]x)) y")]
    explored = 0
    for o in crafted + [gen_typed(seed, size=12)[0] for seed in range(40)]:
        try:
            want = reference_graph(o, max_states=2000)
        except BudgetExhausted:
            with pytest.raises(BudgetExhausted):
                reduction_graph(o, max_states=2000)
            continue
        edges, nfs = reduction_graph(o, max_states=2000)
        assert edges == want[0]
        assert [canonical_key(nf) for nf in nfs] == [canonical_key(nf) for nf in want[1]]
        explored += len(edges) > 1
    assert explored >= 20


def test_plain_reducts_with_one_supply_match_fresh_supplies():
    for seed in range(40):
        o, _, _ = gen_typed(seed, size=12)
        got = plain_reducts(o)
        want = [(tag, p, lm_step(o, tag, p)) for tag, p in lm_redexes(o)]
        assert [(tag, p.steps) for tag, p, _ in got] == [(tag, p.steps) for tag, p, _ in want]
        for (_, _, r), (_, _, r2) in zip(got, want):
            assert canonical_key(r) == canonical_key(r2)
            assert is_barendregt(r) == is_barendregt(r2)


def test_meaningful_reducts_with_one_supply_match_fresh_supplies():
    from lmtool.equivalence import AXIOMS
    from lmtool.generators import gen_equiv_pair

    compared = 0
    for seed in range(24):
        for side in gen_equiv_pair(seed, axiom=AXIOMS[seed % len(AXIOMS)])[:2]:
            got = meaningful_reducts(side)
            want = [(tag, p, meaningful_step(side, tag, p)) for tag, p in meaningful_redexes(side)]
            assert [(tag, p.steps) for tag, p, _ in got] == [(tag, p.steps) for tag, p, _ in want]
            for (_, _, r), (_, _, r2) in zip(got, want):
                assert alpha_eq(r, r2), print_object(side)
                assert is_barendregt(r) == is_barendregt(r2)
            compared += len(got)
    assert compared > 50


def reference_is_canonical(o):
    """The uncached walk: no node of o is a B, M, C or W redex."""
    return all(_canon_tag(sub) is None for _, sub in positions(o))


def test_cached_canonicity_matches_the_reference_walk():
    rng = random.Random(11)
    objs = []
    for seed in range(30):
        o = gen_typed(seed, size=12)[0]
        k = canon(o)
        objs += [o, k] + [r for _, _, r in plain_reducts(o)]
        objs += [r for _, _, r in meaningful_reducts(k)]
        objs.append(random_object(rng, 8))
    seen = set()
    for o in objs:
        subs = [sub for _, sub in positions(o)]
        want = [reference_is_canonical(sub) for sub in subs]
        seen.update(want)
        # refresh builds every node anew, so no cache is filled: ask
        # top-down on one copy, bottom-up on another, then again with every
        # cache full
        top = [sub for _, sub in positions(refresh(o, supply_for(o)))]
        bottom = [sub for _, sub in positions(refresh(o, supply_for(o)))]
        assert [is_canonical(sub) for sub in top] == want, print_object(o)
        assert [is_canonical(sub) for sub in reversed(bottom)] == want[::-1]
        assert [is_canonical(sub) for sub in top] == want
        assert [is_canonical(sub) for sub in bottom] == want
    assert seen == {True, False}


# --- one-descent rewriting against the recursive writer it replaced ---------------


@pytest.fixture(scope="module")
def rewrite_corpus():
    """Seeded typed terms, the two sides of one-axiom pairs and of sigma
    pairs."""
    from lmtool.drivers import sigma_pair
    from lmtool.equivalence import AXIOMS
    from lmtool.generators import gen_equiv_pair
    from lmtool.lmu import SIGMA_AXIOMS

    objs = [gen_typed(seed, size=12)[0] for seed in range(16)]
    for i, ax in enumerate(AXIOMS):
        for s in range(4):
            objs += gen_equiv_pair(seed=10 * i + s, axiom=ax, size=8)[:2]
    for i, ax in enumerate(SIGMA_AXIOMS):
        objs += sigma_pair(seed=i, axiom=ax, size=3)
    return objs


def _reference_rewrite_at(root, p, q, supply=None):
    """rewrite_at as a recursive rebuild of the spine through children and
    with_children, renaming a capturing binder on the way down."""
    from lmtool.syntax import (
        Abs, ERepl, ESub, Mu, NameSupply, all_idents, binders_along, children, free_names,
        free_vars, rename_free, subobject_at, with_children,
    )

    old = subobject_at(root, p)
    fresh_v = free_vars(q) - free_vars(old)
    fresh_n = free_names(q) - free_names(old)
    vs, ns = binders_along(root, p) if fresh_v or fresh_n else (set(), set())
    if not (vs & fresh_v) and not (ns & fresh_n):
        def put(o, steps):
            if not steps:
                return q
            cs = list(children(o))
            cs[steps[0]] = put(cs[steps[0]], steps[1:])
            return with_children(o, tuple(cs))

        return put(root, p.steps)
    if supply is None:
        supply = NameSupply(reserved=all_idents(root) | free_vars(q) | free_names(q))

    def go(o, steps):
        if not steps:
            return q
        i = steps[0]
        match o:
            case Abs(x, ann, b) if x in fresh_v:
                x2 = supply.fresh(x)
                o = Abs(x2, ann, rename_free(b, x, x2))
            case Mu(a, ann, b) if a in fresh_n:
                a2 = supply.fresh(a)
                o = Mu(a2, ann, rename_free(b, a, a2))
            case ESub(b, x, u) if i == 0 and x in fresh_v:
                x2 = supply.fresh(x)
                o = ESub(rename_free(b, x, x2), x2, u)
            case ERepl(b, nn, on, ann, s) if i == 0 and on in fresh_n:
                on2 = supply.fresh(on)
                o = ERepl(rename_free(b, on, on2), nn, on2, ann, s)
        cs = list(children(o))
        cs[i] = go(cs[i], steps[1:])
        return with_children(o, tuple(cs))

    return go(root, p.steps)


def _probe(sort, sub, x, a):
    """An object of the given sort, built around sub, with x and a free."""
    from lmtool.syntax import App, Mu, Named, Push, Var

    if sort == "term":
        return Mu("'probe", None, Named(a, App(sub, Var(x))))
    if sort == "command":
        return Named(a, App(Var(x), Mu("'probe", None, sub)))
    return Push(Mu("'probe", None, Named(a, Var(x))), sub)


def test_splice_matches_the_recursive_writer(rewrite_corpus):
    from lmtool.syntax import (
        ERepl, ESub, binders_along, descend, free_names, free_vars, is_name, rewrite_at, sort_of,
    )

    captures = outside = 0
    for o in rewrite_corpus:
        for idxs, sub in positions(o):
            p = make_path(o, idxs)
            vs, ns = binders_along(o, p)
            s = sort_of(sub)
            # the subobject itself, a probe no binder captures, and probes
            # that each spine binder captures unless its identifier is
            # already free at p
            qs = [sub, _probe(s, sub, "zfree", "'zfree")]
            qs += [_probe(s, sub, x, "'zfree") for x in sorted(vs)]
            qs += [_probe(s, sub, "zfree", a) for a in sorted(ns)]
            # and probes that a spine binder captures and that also hold the
            # identifier of a substitution or replacement on the path whose
            # scope (child 0) does not hold p: only the first is renamed
            passed = {
                n.var if isinstance(n, ESub) else n.old
                for n, i in zip(descend(o, idxs), idxs)
                if isinstance(n, (ESub, ERepl)) and i == 1
            } - vs - ns
            for y in sorted(passed):
                if is_name(y):
                    more = [_probe(s, sub, x, y) for x in sorted(vs)]
                else:
                    more = [_probe(s, sub, y, a) for a in sorted(ns)]
                qs += more
                outside += len(more)
            for q in qs:
                got = rewrite_at(o, p, q, supply_for(o, q))
                assert got == _reference_rewrite_at(o, p, q, supply_for(o, q))
                assert rewrite_at(o, p, q) == _reference_rewrite_at(o, p, q)
            captures += len(vs - free_vars(sub)) + len(ns - free_names(sub))
    assert captures > 500 and outside > 100


def test_writes_that_skip_the_capture_check_bring_no_new_free_identifier(
    rewrite_corpus, monkeypatch
):
    # lm_step, the outer write of fire, and rewrite_everywhere for
    # equivalence._rewrites and sigma_instances call splice without
    # rewrite_at's check; every such write is checked here
    import sys
    from collections import Counter

    from lmtool import equivalence, lmu, reduction, syntax
    from lmtool.syntax import free_names, free_vars

    writes = Counter()
    splice = syntax.splice

    def checked_splice(nodes, idxs, q):
        caller = sys._getframe(1)
        name = caller.f_code.co_name
        if name == "rewrite_at":
            # its writes may bring new free identifiers: it renames the
            # binders that would capture them
            return splice(nodes, idxs, q)
        if name == "rewrite_everywhere":
            name = caller.f_back.f_code.co_name
        old = nodes[-1]
        assert free_vars(q) <= free_vars(old), (print_object(old), print_object(q))
        assert free_names(q) <= free_names(old), (print_object(old), print_object(q))
        writes[name] += 1
        return splice(nodes, idxs, q)

    monkeypatch.setattr(reduction, "splice", checked_splice)
    monkeypatch.setattr(syntax, "splice", checked_splice)
    for o in rewrite_corpus:
        for r in [o] + [r for _, _, r in plain_reducts(o)]:
            lmu.sigma_instances(project(r))
        for _, _, r in plain_reducts(o):
            plain_reducts(r)
            canon(r)
        try:
            reduce_to_nf(o, budget=200, mode="refined")
        except BudgetExhausted:
            pass
        co = canon(o)
        equivalence.axiom_instances(co, include_ren=True, expansive=True)
        for _, _, r in meaningful_reducts(co):
            equivalence.axiom_instances(r, include_ren=True, expansive=True)
            meaningful_reducts(r)
    assert set(writes) == {"lm_step", "fire", "_rewrites", "sigma_instances"}
    assert min(writes.values()) > 50, writes


def test_scanned_paths_equal_make_path(rewrite_corpus, monkeypatch):
    from lmtool import reduction
    from lmtool.reduction import REFINED, _canon_tag, _redexes, _refined_tag, canon_random

    fired = []
    step, fire = reduction.lm_step, reduction.fire

    def spy_step(o, tag, p, supply=None):
        fired.append((o, p))
        return step(o, tag, p, supply)

    def spy_fire(o, tag, p, supply=None, info=None):
        fired.append((o, p))
        return fire(o, tag, p, supply, info)

    monkeypatch.setattr(reduction, "lm_step", spy_step)
    monkeypatch.setattr(reduction, "fire", spy_fire)
    scanned = []
    rng = random.Random(3)
    for o in rewrite_corpus:
        scanned += [(o, p) for _, p in lm_redexes(o)]
        for tag_of, tags in ((_canon_tag, None), (_refined_tag, REFINED)):
            scanned += [(o, p) for _, p, _ in _redexes(o, tag_of, tags)]
        cos = [canon_random(r, rng) for r in [o] + [r for _, _, r in plain_reducts(o)]]
        scanned += [(co, p) for co in cos for _, p in meaningful_redexes(co)]
        try:
            _, trace = reduce_to_nf(o, budget=200, mode="refined")
        except BudgetExhausted as e:
            trace = e.trace
        before = [trace.start] + [r for _, _, r in trace.steps]
        scanned += [(b, p) for b, (_, p, _) in zip(before, trace.steps)]
    for o, p in scanned + fired:
        assert p == make_path(o, p.steps), print_object(o)
    assert len(scanned) > 400 and len(fired) > 200, (len(scanned), len(fired))


# --- the redex engine against the scans and loops it replaced ----------------


def _ref_preorder(o, idxs=()):
    """(index path, subobject) in pre-order, by recursion."""
    from lmtool.syntax import children

    yield idxs, o
    for i, ch in enumerate(children(o)):
        yield from _ref_preorder(ch, idxs + (i,))


def _ref_core(f):
    from lmtool.syntax import ESub

    while isinstance(f, ESub):
        f = f.body
    return f


def ref_lm_redexes(o):
    from lmtool.syntax import COMMAND, TERM, Abs, App, ERepl, ESub, Mu, Path

    out = []
    for idxs, sub in _ref_preorder(o):
        match sub:
            case App(f, _):
                core = _ref_core(f)
                if isinstance(core, Abs):
                    out.append((RuleTag.B, Path(idxs, TERM)))
                elif isinstance(core, Mu):
                    out.append((RuleTag.M, Path(idxs, TERM)))
            case ESub(_, _, _):
                out.append((RuleTag.S, Path(idxs, TERM)))
            case ERepl(_, _, _, _, _):
                out.append((RuleTag.R, Path(idxs, COMMAND)))
    return out


def _ref_canon_tag(o):
    from lmtool.reduction import CANON_R, _classify_erepl
    from lmtool.syntax import Abs, App, ERepl, Mu

    match o:
        case App(f, _):
            core = _ref_core(f)
            if isinstance(core, Abs):
                return RuleTag.B, None
            if isinstance(core, Mu):
                return RuleTag.M, None
        case ERepl():
            info = _classify_erepl(o)
            if info.tag in CANON_R:
                return info.tag, info
    return None


def ref_canon_redexes(o):
    """Every B, M, C, W redex in pre-order (canon_random's scan); the first
    is canon's."""
    from lmtool.syntax import Path, sort_of

    found = []
    for idxs, sub in _ref_preorder(o):
        hit = _ref_canon_tag(sub)
        if hit is not None:
            found.append((hit[0], Path(idxs, sort_of(sub)), hit[1]))
    return found


def ref_meaningful_redexes(o):
    from lmtool.reduction import MEANINGFUL_R, _classify_erepl
    from lmtool.syntax import COMMAND, TERM, ERepl, ESub, Path

    out = []
    for idxs, sub in _ref_preorder(o):
        match sub:
            case ESub(_, _, _):
                out.append((RuleTag.S, Path(idxs, TERM)))
            case ERepl(_, _, _, _, _):
                tag = _classify_erepl(sub).tag
                if tag in MEANINGFUL_R:
                    out.append((tag, Path(idxs, COMMAND)))
    return out


def ref_refined_redex(o):
    from lmtool.reduction import _classify_erepl
    from lmtool.syntax import COMMAND, TERM, Abs, App, ERepl, ESub, Mu, Path

    for idxs, sub in _ref_preorder(o):
        match sub:
            case App(f, _):
                core = _ref_core(f)
                if isinstance(core, Abs):
                    return (RuleTag.B, Path(idxs, TERM), None)
                if isinstance(core, Mu):
                    return (RuleTag.M, Path(idxs, TERM), None)
            case ESub(_, _, _):
                return (RuleTag.S, Path(idxs, TERM), None)
            case ERepl(_, _, _, _, _):
                info = _classify_erepl(sub)
                if info.tag is not RuleTag.R_EMPTY and info.tag is not RuleTag.N_LIN:
                    return (info.tag, Path(idxs, COMMAND), info)
    return None


def _ref_fire(o, tag, p, info, supply, fired):
    """The old dispatch: B, S, M, R by lm_step, a classified replacement by
    its refined rule."""
    from lmtool import reduction

    fired.append((tag, p))
    if info is None:
        return reduction.lm_step(o, tag, p, supply)
    return reduction.fire(o, tag, p, supply, info)


def ref_canon(o, trace, fired):
    supply = supply_for(o)
    while True:
        found = ref_canon_redexes(o)
        if not found:
            return o
        tag, p, info = found[0]
        o = _ref_fire(o, tag, p, info, supply, fired)
        trace.steps.append((tag, p, o))


def ref_canon_random(o, rng, fired):
    supply = supply_for(o)
    while True:
        found = ref_canon_redexes(o)
        if not found:
            return o
        tag, p, info = found[rng.randrange(len(found))]
        o = _ref_fire(o, tag, p, info, supply, fired)


def ref_reduce_to_nf(o, budget, mode, fired):
    from lmtool.reduction import Trace

    supply = supply_for(o)
    trace = Trace(o, [])
    for _ in range(budget):
        if mode == "plain":
            rs = ref_lm_redexes(o)
            found = (*rs[0], None) if rs else None
        else:
            found = ref_refined_redex(o)
        if found is None:
            return o, trace
        tag, p, info = found
        o = _ref_fire(o, tag, p, info, supply, fired)
        trace.steps.append((tag, p, o))
    raise BudgetExhausted(trace)


def test_engine_matches_the_scans_and_loops_it_replaced(rewrite_corpus, monkeypatch):
    from lmtool import reduction
    from lmtool.reduction import Trace, canon_random

    engine_fired = []
    fire = reduction.fire

    def spy_fire(o, tag, p, supply=None, info=None):
        engine_fired.append((tag, p))
        return fire(o, tag, p, supply, info)

    def run(f, *args):
        # the normal form or the trace of an exhausted budget, and the
        # (tag, path) of every step fired on the way
        engine_fired.clear()
        try:
            out = f(*args)
        except BudgetExhausted as e:
            out = e.trace
        return out, list(engine_fired)

    def shown(out):
        if isinstance(out, tuple):
            out = out[1]
        if isinstance(out, Trace):
            return out.render(), [(tag, p) for tag, p, _ in out.steps]
        return print_object(out)

    monkeypatch.setattr(reduction, "fire", spy_fire)
    # expansion turns explicit operators into B and M redexes
    objs = []
    for o in rewrite_corpus + [expand(o) for o in rewrite_corpus]:
        objs += [o] + [r for _, _, r in plain_reducts(o)]
    seen = {"steps": 0, "random": 0, "refined": 0, "meaningful": 0}
    for k, o in enumerate(objs):
        assert lm_redexes(o) == ref_lm_redexes(o), print_object(o)
        trace, want_trace = Trace(o, []), Trace(o, [])
        got, got_fired = run(canon, o, None, trace)
        want = ref_canon(o, want_trace, [])
        assert print_object(got) == print_object(want)
        assert shown(trace) == shown(want_trace)
        seen["steps"] += len(trace.steps)
        want_fired = []
        want = ref_canon_random(o, random.Random(k), want_fired)
        got, got_fired = run(canon_random, o, random.Random(k))
        assert (print_object(got), got_fired) == (print_object(want), want_fired)
        seen["random"] += len(ref_canon_redexes(o)) > 1
        for mode in ("plain", "refined"):
            want_fired = []
            try:
                want = ref_reduce_to_nf(o, 200, mode, want_fired)
            except BudgetExhausted as e:
                want = e.trace
            got, got_fired = run(reduce_to_nf, o, 200, mode)
            assert shown(got) == shown(want) and got_fired == want_fired, (mode, print_object(o))
            seen["refined"] += mode == "refined" and any(tag not in PLAIN for tag, _ in got_fired)
        co = canon(o)
        for r in [co] + [r for _, _, r in meaningful_reducts(co)]:
            assert meaningful_redexes(r) == ref_meaningful_redexes(r), print_object(r)
            seen["meaningful"] += len(meaningful_redexes(r))
    assert min(seen.values()) > 40, seen
