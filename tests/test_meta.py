import random

import pytest

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


# --- the graft walk against the recursive walks it replaces ------------------


def ref_substitute(o, x, u, supply=None):
    """substitute as one recursive walk per node class."""
    from lmtool.syntax import Abs, App, EmptyStack, ESub, Mu, refresh, rename_free, supply_for

    if supply is None:
        supply = supply_for(o, u)
    fv_u = free_vars(u)
    fn_u = free_names(u)
    inserted = [0]

    def payload():
        inserted[0] += 1
        return u if inserted[0] == 1 else refresh(u, supply)

    def go(o):
        match o:
            case Var(y):
                return payload() if y == x else o
            case App(f, a):
                return App(go(f), go(a))
            case Abs(y, ann, b):
                if y == x:
                    return o
                if y in fv_u and x in free_vars(b):
                    y2 = supply.fresh(y)
                    return Abs(y2, ann, go(rename_free(b, y, y2)))
                return Abs(y, ann, go(b))
            case Mu(a, ann, b):
                if a in fn_u and x in free_vars(b):
                    a2 = supply.fresh(a)
                    return Mu(a2, ann, go(rename_free(b, a, a2)))
                return Mu(a, ann, go(b))
            case ESub(b, y, arg):
                arg2 = go(arg)
                if y == x:
                    return ESub(b, y, arg2)
                if y in fv_u and x in free_vars(b):
                    y2 = supply.fresh(y)
                    return ESub(go(rename_free(b, y, y2)), y2, arg2)
                return ESub(go(b), y, arg2)
            case Named(a, b):
                return Named(a, go(b))
            case ERepl(b, nn, on, ann, s):
                s2 = go(s)
                if on in fn_u and x in free_vars(b):
                    on2 = supply.fresh(on)
                    return ERepl(go(rename_free(b, on, on2)), nn, on2, ann, s2)
                return ERepl(go(b), nn, on, ann, s2)
            case EmptyStack():
                return o
            case Push(h, t):
                return Push(go(h), go(t))
        raise TypeError(o)

    return go(o)


def ref_replace(o, new, old, s, supply=None):
    """replace as one recursive walk per node class."""
    from lmtool.meta import stack_len
    from lmtool.syntax import (
        Abs, App, EmptyStack, ESub, Mu, refresh, rename_free, supply_for,
    )
    from lmtool.typing_util import codomain

    if supply is None:
        supply = supply_for(o, s)
        supply.reserve({new, old})
    fv_s = free_vars(s)
    fn_s = free_names(s)
    inserted = [0]

    def payload():
        inserted[0] += 1
        return s if inserted[0] == 1 else refresh(s, supply)

    def go(o):
        match o:
            case Var(_) | EmptyStack():
                return o
            case App(f, a):
                return App(go(f), go(a))
            case Abs(x, ann, b):
                if x in fv_s and old in free_names(b):
                    x2 = supply.fresh(x)
                    return Abs(x2, ann, go(rename_free(b, x, x2)))
                return Abs(x, ann, go(b))
            case Mu(a, ann, b):
                if a == old:
                    return o
                if (a in fn_s or a == new) and old in free_names(b):
                    a2 = supply.fresh(a)
                    return Mu(a2, ann, go(rename_free(b, a, a2)))
                return Mu(a, ann, go(b))
            case ESub(b, x, arg):
                arg2 = go(arg)
                if x in fv_s and old in free_names(b):
                    x2 = supply.fresh(x)
                    return ESub(go(rename_free(b, x, x2)), x2, arg2)
                return ESub(go(b), x, arg2)
            case Named(a, b):
                if a == old:
                    return Named(new, apply_stack(go(b), payload()))
                return Named(a, go(b))
            case ERepl(b, nn, on, ann, s1):
                if on == old:
                    return ERepl(b, nn, on, ann, go(s1))
                if on == new and nn == old or (on == new or on in fn_s) and old in free_names(b):
                    on2 = supply.fresh(on)
                    return go(ERepl(rename_free(b, on, on2), nn, on2, ann, s1))
                if nn != old:
                    return ERepl(go(b), nn, on, ann, go(s1))
                if isinstance(s1, EmptyStack):
                    if isinstance(s, EmptyStack):
                        return ERepl(go(b), new, on, ann, empty_stack())
                    beta = supply.fresh(old)
                    inner = ERepl(go(b), beta, on, ann, payload())
                    return ERepl(inner, new, beta, codomain(ann, stack_len(s)), empty_stack())
                return ERepl(go(b), new, on, ann, stack_concat(go(s1), payload()))
            case Push(h, tl):
                return Push(go(h), go(tl))
        raise TypeError(o)

    return go(o)


def graft_cases(seed, count):
    """Seeded objects, each with the substitutions and replacements of its
    free identifiers by payloads that hold the object's own binders, so
    that binders must be renamed and payloads copied."""
    from lmtool.gen_random import random_object
    from lmtool.syntax import App, Mu, bound_idents, is_name

    rng = random.Random(seed)
    objs = [random_object(rng, rng.randrange(2, 12)) for _ in range(count)]
    objs += [random_pure_object(rng, rng.randrange(2, 12)) for _ in range(count // 2)]
    for n, o in enumerate(objs):
        bv = sorted(i for i in bound_idents(o) if not is_name(i))
        bn = sorted(i for i in bound_idents(o) if is_name(i))
        cap = Var(bv[0] if bv else "zz")
        if bn:
            cap = App(cap, Mu("'q", None, Named(bn[-1], Var("w"))))
        other = random_pure_term(rng, 4)
        subs = [(x, u) for x in sorted(free_vars(o)) for u in (other, cap, App(Var(x), cap))]
        stacks = [empty_stack(), Push(cap, empty_stack()),
                  Push(other, Push(Var(bv[-1] if bv else "y"), empty_stack()))]
        repls = [
            (new, a, st)
            for a in sorted(free_names(o))
            for new in sorted((set(bn) | free_names(o) | {"'fresh"}) - {a})[:3]
            for st in stacks
            if a not in free_names(st)
        ]
        yield o, subs, repls


def test_graft_matches_the_recursive_walks():
    from lmtool.syntax import print_object, supply_for

    subs = repls = 0
    for seed in (1, 2, 3):
        for o, sub_cases, repl_cases in graft_cases(seed, 120):
            for x, u in sub_cases:
                got, want = supply_for(o, u), supply_for(o, u)
                assert print_object(substitute(o, x, u, got)) == print_object(
                    ref_substitute(o, x, u, want)
                )
                assert got.counter == want.counter
                subs += 1
            for new, a, st in repl_cases:
                assert print_object(replace(o, new, a, st)) == print_object(
                    ref_replace(o, new, a, st)
                )
                repls += 1
    assert subs > 2000 and repls > 2000


def test_replace_needs_no_binder_renamed_apart_first():
    # on objects whose binders shadow each other and the free identifiers,
    # and on replacements whose bound name is free in their stack, replace
    # renames a binder exactly where it would capture: the result is the
    # one it gives with every binder renamed apart first, up to alpha
    from lmtool.gen_random import _EXPLICIT, _command, _stack, _term
    from lmtool.syntax import barendregt, is_barendregt, positions, print_object

    rng = random.Random(28)
    cases = []
    for _ in range(400):
        draw = _command if rng.random() < 0.5 else _term
        o = draw(rng, rng.randrange(2, 12), _EXPLICIT)
        stacks = [empty_stack(), _stack(rng, 6), Push(_term(rng, 3, _EXPLICIT), empty_stack())]
        cases += [
            (o, new, a, st)
            for a in sorted(free_names(o))
            for new in ("'a", "'b", "'g", "'d")
            for st in stacks
            if new != a and a not in free_names(st)
        ]
    for text in (
        r"(['e]z)['f/'e\ (mu 'g. ['e]w) . #]",
        r"(['o](mu 'd. (['e]z)['f/'e\(mu 'g. ['e]w) . #]))['n/'o\v . #]",
        r"(mu 'a. (['o]x)['a/'o\#]) (mu 'd. ['a]y)",
    ):
        o = parse(text, freshen=False)
        for _, sub in positions(o):
            if isinstance(sub, ERepl):
                e = prepare_erepl(sub)
                cases.append((e.body, e.new, e.old, e.stack))
    shadowed = 0
    for o, new, a, st in cases:
        got = replace(o, new, a, st)
        assert alpha_eq(got, replace(barendregt(o), new, a, st)), print_object(o)
        shadowed += not is_barendregt(o)
    assert len(cases) > 2000 and shadowed > 1000, (len(cases), shadowed)


@pytest.mark.parametrize("command", [
    r"(['b]x)['a/'b\#]['b/'a\#]",  # R# renames 'a to 'b
    r"((['b]x)['a/'b\z . #])['b/'a\y . #]",  # C composes the stacks
])
def test_replacement_never_names_its_own_bound_name(command):
    # an inner replacement binds the new name and replaces by the old one:
    # its bound name is renamed, so the result has no c['b/'b\s], which
    # the parser rejects and R cannot fire
    from lmtool.reduction import canon, reduce_to_nf
    from lmtool.syntax import print_object

    o = c(command)
    for got in (canon(o), reduce_to_nf(o, mode="refined")[0]):
        assert alpha_eq(c(print_object(got)), got), print_object(got)
    assert alpha_eq(reduce_to_nf(o)[0], c("['b]x z y" if "z" in command else "['b]x"))


def test_graft_keeps_subtrees_without_the_target():
    # a subtree where the identifier is not free, and no binder above it
    # binds one of its free identifiers, is in the result as it is; stack
    # spines are left out, since composing stacks rebuilds them
    from lmtool.syntax import _BOUND_BY, STACK, descend, positions, sort_of

    kept = 0
    for o, sub_cases, repl_cases in graft_cases(4, 100):
        cases = [(x, substitute(o, x, u)) for x, u in sub_cases]
        cases += [(a, replace(o, new, a, st)) for new, a, st in repl_cases]
        cases += [("nothere", substitute(o, "nothere", Var("y"))),
                  ("'nothere", replace(o, "'new", "'nothere", Push(Var("y"), empty_stack())))]
        for ident, got in cases:
            if ident not in free_vars(o) | free_names(o):
                assert got is o
            ids = {id(n) for _, n in positions(got)}
            for idxs, sub in positions(o):
                if ident in free_vars(sub) | free_names(sub) or sort_of(sub) == STACK:
                    continue
                above = descend(o, idxs)[:-1]
                spine = {_BOUND_BY[type(n)](n) for n in above if type(n) in _BOUND_BY}
                if (free_vars(sub) | free_names(sub)) & spine:
                    continue
                assert id(sub) in ids
                kept += 1
    assert kept > 5000
