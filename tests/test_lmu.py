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
from lmtool.syntax import TERM, Path, alpha_eq, parse


def t(text):
    return parse(text, freshen=False)


def c(text):
    return parse(text, sort="command", freshen=False)


def test_redexes_reject_impure():
    with pytest.raises(NotPureError):
        lmu_redexes(t(r"x[y\z]"))


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


def test_linear_mu_redex_ignores_a_shadowed_occurrence():
    # the first ['a] in pre-order is bound by the inner mu 'a; the free one
    # sits in an argument, so neither alpha-variant is linear
    text = "(mu 'a. ['b](mu 'a. ['a]x) (mu 'g. ['a]y)) v"
    for o in (parse(text, freshen=False), parse(text)):
        assert not is_linear_mu_redex(o, Path((), TERM))


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


def test_expand_examples():
    e = t("mu 'b. (['a]x)['b/'a\\y . z . #]")
    assert alpha_eq(expand(e), t("mu 'b. ['b](mu 'a. ['a]x) y z"))
    assert expand(t("x")) == t("x")
    assert alpha_eq(
        expand(c("(['a]x)['b/'a\\#]")), c("['b]mu 'a. ['a]x")
    )


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
