import random

from lmtool.meta import (
    apply_stack,
    commutation_repl_repl,
    commutation_repl_subs,
    commutation_subs_repl,
    commutation_subs_subs,
    prepare_erepl,
    rename,
    replace,
    stack_concat,
    substitute,
)
from lmtool.syntax import (
    ERepl,
    Named,
    Push,
    Var,
    alpha_eq,
    count_free,
    empty_stack,
    free_names,
    free_vars,
    parse,
)
from lmtool.gen_random import random_pure_object, random_pure_stack, random_pure_term


def t(text):
    return parse(text, freshen=False)


def c(text):
    return parse(text, sort="command", freshen=False)


def s(text):
    return parse(text, sort="stack", freshen=False)


# --- substitution ----------------------------------------------------------


def test_substitute_identity_example():
    # ((mu a.[a]x)(\z. z x)){x\I} with I = \z.z
    o = t(r"(mu 'a. ['a]x) (\z. z x)")
    expected = t(r"(mu 'a. ['a](\z. z)) (\z. z (\w. w))")
    got = substitute(o, "x", t(r"\z. z"))
    assert alpha_eq(got, expected)


def test_substitute_var():
    assert alpha_eq(substitute(Var("x"), "x", t("u v")), t("u v"))


def test_substitute_vacuous():
    o = t(r"q[y\v]")
    assert alpha_eq(substitute(o, "x", t("u")), o)


def test_substitute_capture_avoided():
    # (\y. x){x\y} must rename the binder
    o = t(r"\y. x")
    got = substitute(o, "x", Var("y"))
    assert alpha_eq(got, t(r"\z. y"))


# --- replacement: the worked examples ---------------------------------------


def test_replace_named_example():
    # replace([a]x, g, a, y1.y2.#) = [g]((x y1) y2)
    got = replace(c("['a]x"), "'g", "'a", s("y1 . y2 . #"))
    assert alpha_eq(got, c("['g]x y1 y2"))


def test_replace_stack_composition_example():
    # replace(([a]x)['a/'b\z1.#], g, a, y1.#) = ([g](x y1))['g/'b\z1.y1.#]
    o = c("(['a]x)['a/'b\\z1 . #]")
    got = replace(o, "'g", "'a", s("y1 . #"))
    expected = c("(['g]x y1)['g/'b\\z1 . y1 . #]")
    assert alpha_eq(got, expected)


def test_replace_blocked_renaming_example():
    # replace(([a]x)['a/'b\#], g, a, y1.y2.#)
    #   = (([g]x y1 y2)['q/'b\y1.y2.#])['g/'q\#] with 'q fresh
    o = c("(['a]x)['a/'b\\#]")
    got = replace(o, "'g", "'a", s("y1 . y2 . #"))
    expected = c("((['g]x y1 y2)['q/'b\\y1 . y2 . #])['g/'q\\#]")
    assert alpha_eq(got, expected)


def test_replace_erases_all_occurrences():
    o = c("['a](mu 'b. ['a]y)")
    got = replace(o, "'g", "'a", s("u . #"))
    assert count_free("'a", got) == 0
    assert alpha_eq(got, c("['g](mu 'b. ['g]y u) u"))


def test_replace_implicit_example():
    # ([a](x (mu b.[a]y)))<a/a2\I> = [a2]((x (mu b.[a2](y I))) I)
    o = c("['a]x (mu 'b. ['a]y)")
    got = replace(o, "'a2", "'a", s(r"(\z. z) . #"))
    expected = c(r"['a2](x (mu 'b. ['a2]y (\z. z))) (\z. z)")
    assert alpha_eq(got, expected)


def test_replace_preserves_sort_and_removes_name():
    rng = random.Random(11)
    for _ in range(100):
        o = random_pure_object(rng, 6)
        st = random_pure_stack(rng, 3)
        got = replace(o, "'fresh", "'a", st)
        assert count_free("'a", got) == 0 or "'a" in free_names(st)


# --- renaming ---------------------------------------------------------------


def test_rename_named():
    assert alpha_eq(rename(c("['a]x"), "'b", "'a"), c("['b]x"))


def test_rename_vacuous():
    o = c("['g]x")
    assert alpha_eq(rename(o, "'b", "'a"), o)


def test_rename_through_renaming_replacement():
    # rename(([a]x)['a/'g\#], b, a) = ([b]x)['b/'g\#]
    o = c("(['a]x)['a/'g\\#]")
    got = rename(o, "'b", "'a")
    assert alpha_eq(got, c("(['b]x)['b/'g\\#]"))
    assert count_free("'a", got) == 0


def test_prepare_erepl_repairs_stack_condition():
    ok = ERepl(Named("'a", Var("x")), "'b", "'a", None, s("y . #"))
    assert prepare_erepl(ok) is ok
    bad = ERepl(
        Named("'a", Var("x")),
        "'b",
        "'a",
        None,
        Push(parse("mu 'g. ['a]z", freshen=False), empty_stack()),
    )
    fixed = prepare_erepl(bad)
    assert fixed.old not in free_names(fixed.stack)
    assert alpha_eq(fixed, bad)


# --- stacks -----------------------------------------------------------------


def test_apply_stack_example():
    assert alpha_eq(apply_stack(Var("x"), s("y . z . #")), t("(x y) z"))


def test_apply_stack_empty():
    assert apply_stack(Var("u"), empty_stack()) == Var("u")


def test_stack_concat_neutral():
    st = s("a . b . #")
    assert stack_concat(empty_stack(), st) == st
    assert stack_concat(st, empty_stack()) == st


def test_apply_stack_concat_agree():
    rng = random.Random(7)
    for _ in range(50):
        u = random_pure_term(rng, 4)
        s1 = random_pure_stack(rng, 3)
        s2 = random_pure_stack(rng, 3)
        lhs = apply_stack(apply_stack(u, s1), s2)
        rhs = apply_stack(u, stack_concat(s1, s2))
        assert alpha_eq(lhs, rhs)


# --- the five commutation identities -----------------------------------------


def test_commutation_subs_subs_closed_payloads():
    o = t(r"(\w. x y) (mu 'a. ['a]y)")
    assert commutation_subs_subs(o, "y", t(r"\z. z"), "x", t(r"\z. z z"))


def test_commutations_random():
    rng = random.Random(20240902)
    runs = {k: 0 for k in range(1, 6)}
    while min(runs.values()) < 200:
        o = random_pure_object(rng, 6)
        u = random_pure_term(rng, 4)
        v = random_pure_term(rng, 4)
        st = random_pure_stack(rng, 3)
        st2 = random_pure_stack(rng, 3)
        if "y" not in free_vars(u) and runs[1] < 200:
            assert commutation_subs_subs(o, "y", v, "x", u)
            runs[1] += 1
        if "'a" not in free_names(u) and runs[2] < 200:
            assert commutation_subs_repl(o, "'b", "'a", st, "x", u)
            runs[2] += 1
        if "x" not in free_vars(st) and runs[3] < 200:
            assert commutation_repl_subs(o, "'b", "'a", st, "x", u)
            runs[3] += 1
        if "'c" not in free_names(st) and runs[4] < 200:
            # independent case: 'a != 'd
            assert commutation_repl_repl(o, "'b", "'a", st, "'d", "'c", st2)
            runs[4] += 1
        if "'c" not in free_names(st) and runs[5] < 200:
            # composed-stack case: the outer replaced name equals the inner
            # replacement name
            assert commutation_repl_repl(o, "'b", "'a", st, "'a", "'c", st2)
            runs[5] += 1
