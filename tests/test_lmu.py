import random

import pytest

from lmtool.gen_random import random_object
from lmtool.lmu import (
    NotPureError,
    expand,
    is_linear_mu_redex,
    is_pure,
    lmu_redexes,
    lmu_step,
    project,
    sigma_instances,
)
from lmtool.reduction import RuleTag, lm_redexes, lm_step, reduce_to_nf
from lmtool.syntax import TERM, alpha_eq, parse


def t(text):
    return parse(text, freshen=False)


def c(text):
    return parse(text, sort="command", freshen=False)


def test_redexes_reject_impure():
    with pytest.raises(NotPureError):
        lmu_redexes(t(r"x[y\z]"))


def _ref_lmu_redexes(o):
    """The hand-written scan that lmu_redexes replaced: an application
    whose function is an abstraction or a mu, in pre-order."""
    from lmtool.syntax import Abs, App, Mu, positions

    out = []
    for idxs, sub in positions(o):
        if isinstance(sub, App):
            if isinstance(sub.fun, Abs):
                out.append(("beta", idxs))
            elif isinstance(sub.fun, Mu):
                out.append(("mu", idxs))
    return out


def test_redex_engine_scan_matches_the_pure_scan():
    from lmtool.gen_random import random_pure_command, random_pure_term

    rng = random.Random(17)
    found = {"beta": 0, "mu": 0}
    for k in range(400):
        gen = random_pure_term if k % 2 else random_pure_command
        o = gen(rng, rng.randint(2, 14))
        got = lmu_redexes(o)
        assert got == _ref_lmu_redexes(o)
        for tag, _ in got:
            found[tag] += 1
    assert min(found.values()) > 50


def test_two_beta_redexes():
    o = t(r"(\x. (\y. q) u) v")
    tags = sorted(tag for tag, _ in lmu_redexes(o))
    assert tags == ["beta", "beta"]


def test_mu_step_example():
    o = t("(mu 'a. ['a]x) y")
    [(tag, p)] = lmu_redexes(o)
    assert tag == "mu"
    assert alpha_eq(lmu_step(o, p), t("mu 'b. ['b]x y"))


def test_beta_step():
    o = t(r"(\x. x) y")
    [(_, p)] = lmu_redexes(o)
    assert alpha_eq(lmu_step(o, p), t("y"))


def test_replacement_example_via_mu_step():
    # ([a](x (mu b.[a]y)))<a/a'\I> arises from the mu step of
    # (mu a.[a](x (mu b.[a]y))) I
    o = t(r"(mu 'a. ['a]x (mu 'b. ['a]y)) (\z. z)")
    [(tag, p)] = [r for r in lmu_redexes(o) if r[0] == "mu"]
    got = lmu_step(o, p)
    expected = t(r"mu 'c. ['c](x (mu 'b. ['c]y (\z. z))) (\z. z)")
    assert alpha_eq(got, expected)


def test_linear_mu_shapes():
    o = t("(mu 'a. ['a]x) y")
    [(_, p)] = lmu_redexes(o)
    assert is_linear_mu_redex(o, p)
    o2 = t("(mu 'a. ['b]((\\z. mu 'g. ['a]x) w)) v")
    mu2 = [r for r in lmu_redexes(o2) if r[0] == "mu"]
    assert len(mu2) == 1 and is_linear_mu_redex(o2, mu2[0][1])
    o3 = t("(mu 'a. ['b](x (mu 'g. ['a]u))) v")
    mu3 = [r for r in lmu_redexes(o3) if r[0] == "mu"]
    assert len(mu3) == 1 and not is_linear_mu_redex(o3, mu3[0][1])


def test_mu_step_annotates_the_new_mu_with_the_codomain():
    # the reduct of (mu a:A->B. c) z has type B, and so must its new mu
    from lmtool.syntax import parse_type
    from lmtool.typing import check_object

    o = t("(mu 'a:iA->iB. ['a](\\x:iA. y)) z")
    gamma = {"y": parse_type("iB"), "z": parse_type("iA")}
    assert check_object(o, gamma, {}).judgment.type == parse_type("iB")
    got = lmu_step(o, ())
    assert check_object(got, gamma, {}).judgment.type == parse_type("iB")


def test_mu_step_renames_a_bound_name_free_in_the_argument():
    # the inner redex's argument holds the outer 'a free, which the inner
    # mu 'a would bind
    o = t("(mu 'a. ['b](mu 'a. ['a]x) (mu 'g. ['a]y)) v")
    got = lmu_step(o, (0, 0, 0))
    assert alpha_eq(got, t("(mu 'a. ['b](mu 'a1. ['a1]x (mu 'g. ['a]y))) v"))


def test_lambda_mu_steps_reject_impure_objects():
    o = t(r"((\x. x) y)[z\w]")
    for f in (lmu_step, is_linear_mu_redex):
        with pytest.raises(NotPureError):
            f(o, (0,))


def test_linear_mu_redex_ignores_a_shadowed_occurrence():
    # the first ['a] in pre-order is bound by the inner mu 'a; the free one
    # sits in an argument, so neither alpha-variant is linear
    text = "(mu 'a. ['b](mu 'a. ['a]x) (mu 'g. ['a]y)) v"
    for o in (parse(text, freshen=False), parse(text)):
        assert not is_linear_mu_redex(o, ())


# --- sigma -------------------------------------------------------------------


def test_sigma8_context_instance():
    o = t("(mu 'a. ['a]x) y")
    insts = sigma_instances(o)
    assert any(a == "sigma8" and alpha_eq(r, t("x y")) for a, _, _, r in insts)


def test_sigma7_renaming():
    o = c("['a]mu 'b. ['b]x")
    insts = sigma_instances(o)
    assert any(a == "sigma7" and alpha_eq(r, c("['a]x")) for a, _, _, r in insts)


def test_sigma1_shape():
    o = t(r"(\y. \x. q) v")
    insts = sigma_instances(o)
    assert any(
        a == "sigma1" and alpha_eq(r, t(r"\x. (\y. q) v")) for a, _, _, r in insts
    )


def _sigma_equation_pairs(axioms, seeds=range(30), sizes=(3, 4)):
    from lmtool.drivers import sigma_pair

    for ax in axioms:
        for seed in seeds:
            for size in sizes:
                yield ax, sigma_pair(seed, ax, size)


def test_sigma_lists_each_equation_in_both_orientations():
    # sigma1 to sigma6 are read both ways at the root of each side of a
    # sigma pair; sigma7 and sigma8, whose right-to-left rewrites issue
    # fresh names, are checked left to right
    for ax, (lhs, rhs) in _sigma_equation_pairs([f"sigma{k}" for k in range(1, 9)]):
        assert any(
            (a, o, p) == (ax, "LR", ()) and alpha_eq(r, rhs) for a, o, p, r in sigma_instances(lhs)
        ), (ax, lhs)
        if ax in ("sigma7", "sigma8"):
            continue
        assert any(
            (a, o, p) == (ax, "RL", ()) and alpha_eq(r, lhs) for a, o, p, r in sigma_instances(rhs)
        ), (ax, rhs)


def _without_twins(insts):
    """The instances less the right-to-left twins of sigma4 and sigma6,
    checking that each twin follows its left-to-right instance with the
    same path and result."""
    out = []
    for k, (a, orient, p, r) in enumerate(insts):
        if a in ("sigma4", "sigma6"):
            if orient == "RL":
                assert insts[k - 1] == (a, "LR", p, r)
                continue
            assert insts[k + 1] == (a, "RL", p, r)
        out.append((a, orient, p, r))
    return out


def _ref_sigma_rewrites(sub, supply):
    """The hand-written sigma rewrites that the equation templates
    replaced: sigma4 and sigma6 left to right only."""
    from lmtool.meta import rename
    from lmtool.syntax import COMMAND, Abs, App, Mu, Named, free_names, not_at_all, sort_of

    out = []

    def naa(ident, *objs):
        return all(not_at_all(ident, ob) for ob in objs)

    match sub:
        # sigma1: (\y.\x.t) v  =  \x.(\y.t) v,  x # v
        case App(Abs(y, anny, Abs(x, annx, t)), v) if x != y and naa(x, v):
            out.append(("sigma1", "LR", Abs(x, annx, App(Abs(y, anny, t), v))))
    match sub:
        case Abs(x, annx, App(Abs(y, anny, t), v)) if x != y and naa(x, v):
            out.append(("sigma1", "RL", App(Abs(y, anny, Abs(x, annx, t)), v)))
    match sub:
        # sigma2: (\x.t v) u  =  ((\x.t) u) v,  x # v
        case App(Abs(x, annx, App(t, v)), u) if naa(x, v):
            out.append(("sigma2", "LR", App(App(Abs(x, annx, t), u), v)))
    match sub:
        case App(App(Abs(x, annx, t), u), v) if naa(x, v):
            out.append(("sigma2", "RL", App(Abs(x, annx, App(t, v)), u)))
    match sub:
        # sigma3: (\x. mu a.[b]u) w  =  mu a.[b](\x.u) w,  a # w
        case App(Abs(x, annx, Mu(a, anna, Named(b, u))), w) if naa(a, w):
            out.append(
                ("sigma3", "LR", Mu(a, anna, Named(b, App(Abs(x, annx, u), w))))
            )
    match sub:
        case Mu(a, anna, Named(b, App(Abs(x, annx, u), w))) if naa(a, w):
            out.append(
                ("sigma3", "RL", App(Abs(x, annx, Mu(a, anna, Named(b, u))), w))
            )
    match sub:
        # sigma4: [a2](mu a.[b2](mu b. c) w) v = [b2](mu b.[a2](mu a. c) v) w
        # with a # w, b # v, b != a2, a != b2; the equation is its own
        # converse, so one orientation covers both
        case Named(a2, App(Mu(a, anna, Named(b2, App(Mu(b, annb, c), w))), v)) if (
            a != b and naa(a, w) and naa(b, v) and b != a2 and a != b2
        ):
            out.append(
                (
                    "sigma4",
                    "LR",
                    Named(b2, App(Mu(b, annb, Named(a2, App(Mu(a, anna, c), v))), w)),
                )
            )
    match sub:
        # sigma5: [a2](mu a.[b2]\x. mu b. c) v  =  [b2]\x. mu b.[a2](mu a. c) v
        # with x # v, b # v, b != a2, a != b2
        case Named(a2, App(Mu(a, anna, Named(b2, Abs(x, annx, Mu(b, annb, c)))), v)) if (
            a != b and naa(x, v) and naa(b, v) and b != a2 and a != b2
        ):
            out.append(
                (
                    "sigma5",
                    "LR",
                    Named(b2, Abs(x, annx, Mu(b, annb, Named(a2, App(Mu(a, anna, c), v))))),
                )
            )
    match sub:
        case Named(b2, Abs(x, annx, Mu(b, annb, Named(a2, App(Mu(a, anna, c), v))))) if (
            a != b and naa(x, v) and naa(b, v) and b != a2 and a != b2
        ):
            out.append(
                (
                    "sigma5",
                    "RL",
                    Named(a2, App(Mu(a, anna, Named(b2, Abs(x, annx, Mu(b, annb, c)))), v)),
                )
            )
    match sub:
        # sigma6: [a2]\x. mu a.[b2]\y. mu b. c = [b2]\y. mu b.[a2]\x. mu a. c
        # with b != a2, a != b2
        case Named(
            a2, Abs(x, annx, Mu(a, anna, Named(b2, Abs(y, anny, Mu(b, annb, c)))))
        ) if a != b and b != a2 and a != b2 and x != y:
            out.append(
                (
                    "sigma6",
                    "LR",
                    Named(
                        b2,
                        Abs(y, anny, Mu(b, annb, Named(a2, Abs(x, annx, Mu(a, anna, c))))),
                    ),
                )
            )
    match sub:
        # sigma7: [a] mu b. c  =  c{b -> a}  (implicit renaming)
        case Named(a, Mu(b, _, c)):
            out.append(("sigma7", "LR", rename(c, a, b)))
    # sigma7 RL: c = rename(c0, a, b) for a fresh b and some subset of the
    # free a-occurrences; enumerating the literal inverse (all occurrences)
    if sort_of(sub) == COMMAND:
        for a in sorted(free_names(sub)):
            b = supply.fresh("'b")
            out.append(("sigma7", "RL", Named(a, Mu(b, None, rename(sub, b, a)))))
    match sub:
        # sigma8: mu a.[a]v = v,  a # v
        case Mu(a, _, Named(a2, v)) if a == a2 and naa(a, v):
            out.append(("sigma8", "LR", v))
    if sort_of(sub) == TERM:
        a = supply.fresh("'a")
        out.append(("sigma8", "RL", Mu(a, None, Named(a, sub))))
    return out


def test_sigma_instances_match_the_hand_written_rewrites():
    from lmtool.gen_random import random_pure_object
    from lmtool.lmu import SIGMA_AXIOMS
    from lmtool.syntax import rewrite_everywhere, supply_for

    rng = random.Random(5)
    objs = [o for _, pair in _sigma_equation_pairs(SIGMA_AXIOMS) for o in pair]
    objs += [random_pure_object(rng, rng.randrange(2, 12)) for _ in range(300)]
    twins = 0
    for o in objs:
        supply = supply_for(o)
        rewrites = rewrite_everywhere(o, lambda s: _ref_sigma_rewrites(s, supply))
        ref = [(a, orient, p, r) for p, (a, orient, _), r in rewrites]
        got = sigma_instances(o)
        assert _without_twins(got) == ref, o
        twins += len(got) - len(ref)
    assert twins > 100


def test_sigma_sides_can_disagree_on_redex_count():
    # the sigma8 pair of the introduction: 1 mu-redex versus none
    lhs = t("(mu 'a. ['a]x) y")
    rhs = t("x y")
    assert len(lmu_redexes(lhs)) == 1
    assert len(lmu_redexes(rhs)) == 0


def test_sigma_preserves_types():
    from lmtool.generators import gen_typed
    from lmtool.typing import AnnotationMissing, check_object

    rng = random.Random(17)
    done = 0
    while done < 60:
        o, g, d = gen_typed(rng.randrange(10**9), size=10)
        o = project(o)  # sigma lives on pure objects
        try:
            der = check_object(o, g, d)
        except AnnotationMissing:
            continue
        for a, orient, p, r in sigma_instances(o)[:4]:
            try:
                der2 = check_object(r, g, d)
            except AnnotationMissing:
                continue
            assert der2.judgment.type == der.judgment.type, (a, orient)
            done += 1


# --- projection and expansion --------------------------------------------------


def test_project_examples():
    e = t("mu 'b. (['a]x)['b/'a\\y . z . #]")
    assert alpha_eq(project(e), t("mu 'b. ['b]x y z"))
    assert project(t("x")) == t("x")
    assert alpha_eq(project(t(r"x[x\u]")), t("u"))


def test_project_renames_a_replacement_apart_from_its_stack():
    # the bound 'e also occurs free in the stack: project fires R, which
    # renames the bound name first, and reaches the plain normal form
    o = c(r"(['e]z)['f/'e\ (mu 'g. ['e]w) . #]")
    got = project(o)
    assert alpha_eq(got, reduce_to_nf(o)[0])
    assert alpha_eq(got, c(r"['f]z (mu 'g. ['e]w)"))


def test_expand_examples():
    e = t("mu 'b. (['a]x)['b/'a\\y . z . #]")
    assert alpha_eq(expand(e), t("mu 'b. ['b](mu 'a. ['a]x) y z"))
    assert expand(t("x")) == t("x")
    assert alpha_eq(
        expand(c("(['a]x)['b/'a\\#]")), c("['b]mu 'a. ['a]x")
    )


def ref_project(o, supply=None):
    """project as one recursive walk per node class."""
    from lmtool.meta import replace, substitute
    from lmtool.syntax import (
        Abs, App, EmptyStack, ERepl, ESub, Mu, Named, Push, Var, supply_for,
    )

    if supply is None:
        supply = supply_for(o)
    match o:
        case Var(_) | EmptyStack():
            return o
        case App(f, a):
            return App(ref_project(f, supply), ref_project(a, supply))
        case Abs(x, ann, b):
            return Abs(x, ann, ref_project(b, supply))
        case Mu(a, ann, b):
            return Mu(a, ann, ref_project(b, supply))
        case ESub(b, x, u):
            return substitute(ref_project(b, supply), x, ref_project(u, supply), supply)
        case Named(a, b):
            return Named(a, ref_project(b, supply))
        case ERepl(b, nn, on, _, s):
            return replace(ref_project(b, supply), nn, on, ref_project(s, supply), supply)
        case Push(h, tl):
            return Push(ref_project(h, supply), ref_project(tl, supply))
    raise TypeError(o)


def ref_expand(o):
    """expand as one recursive walk per node class."""
    from lmtool.meta import apply_stack
    from lmtool.syntax import Abs, App, EmptyStack, ERepl, ESub, Mu, Named, Push, Var

    match o:
        case Var(_) | EmptyStack():
            return o
        case App(f, a):
            return App(ref_expand(f), ref_expand(a))
        case Abs(x, ann, b):
            return Abs(x, ann, ref_expand(b))
        case Mu(a, ann, b):
            return Mu(a, ann, ref_expand(b))
        case ESub(b, x, u):
            return App(Abs(x, None, ref_expand(b)), ref_expand(u))
        case Named(a, b):
            return Named(a, ref_expand(b))
        case ERepl(b, nn, on, ann, s):
            return Named(nn, apply_stack(Mu(on, ann, ref_expand(b)), ref_expand(s)))
        case Push(h, tl):
            return Push(ref_expand(h), ref_expand(tl))
    raise TypeError(o)


def test_project_and_expand_match_the_recursive_walks():
    from lmtool.gen_random import random_pure_object
    from lmtool.generators import gen_typed
    from lmtool.syntax import App, ESub, Var, barendregt, print_object, sort_of

    def twice(x, u):
        return ESub(App(Var(x), Var(x)), x, u)

    explicit = 0
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        objs = [random_object(rng, rng.randrange(2, 12)) for _ in range(150)]
        objs += [random_pure_object(rng, rng.randrange(2, 12)) for _ in range(60)]
        objs += [gen_typed(seed * 1000 + k, size=10)[0] for k in range(40)]
        # two siblings that each copy their payload: the fresh names of the
        # copies show the order of the walk
        terms = [o for o in objs if sort_of(o) == TERM]
        objs += [barendregt(App(twice("x", u), twice("z", v))) for u, v in zip(terms, terms[1:])]
        for o in objs:
            assert print_object(project(o)) == print_object(ref_project(o))
            assert print_object(expand(o)) == print_object(ref_expand(o))
            explicit += not is_pure(o)
    assert explicit > 300


def test_project_is_pure_random():
    rng = random.Random(8)
    for _ in range(150):
        o = random_object(rng, 8)
        assert is_pure(project(o))


def test_explicit_steps_reach_projection():
    # o ->* project(o) inside the full calculus
    rng = random.Random(9)
    for _ in range(60):
        o = random_object(rng, 7)
        try:
            nf, _ = reduce_to_nf(o, budget=600)
            nfp, _ = reduce_to_nf(project(o), budget=600)
        except Exception:
            continue
        assert alpha_eq(nf, nfp)


def test_lmu_step_inside_full_calculus():
    # a pure one-step reduct is reachable by full-calculus steps
    o = t(r"(\x. x q) y")
    [(_, p)] = lmu_redexes(o)
    pure_red = lmu_step(o, p)
    step1 = lm_step(o, RuleTag.B, lm_redexes(o)[0][1])
    step2 = lm_step(step1, RuleTag.S, lm_redexes(step1)[0][1])
    assert alpha_eq(step2, pure_red)
