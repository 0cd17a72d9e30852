import random
import re
from dataclasses import fields, replace

import pytest

from lmtool.gen_random import random_object
from lmtool.syntax import (
    Abs,
    App,
    EmptyStack,
    ERepl,
    ESub,
    Mu,
    Named,
    ParseError,
    PathError,
    Push,
    SortError,
    Var,
    alpha_eq,
    all_idents,
    barendregt,
    bound_idents,
    canonical_key,
    check_sorts,
    children,
    count_free,
    free_idents,
    free_names,
    free_occurrences,
    free_vars,
    is_barendregt,
    is_name,
    make_path,
    parse,
    positions,
    print_object,
    refresh,
    rename_free,
    rewrite_at,
    same_object,
    sort_of,
    subobject_at,
    supply_for,
    with_children,
)


def t(text):
    return parse(text, freshen=False)


def c(text):
    return parse(text, sort="command", freshen=False)


# --- parsing -----------------------------------------------------------------


def test_parse_identity():
    o = t(r"\x. x")
    assert isinstance(o, Abs) and o.body == Var(o.var)


def test_parse_mu_application():
    o = t("(mu 'a. ['a]x) y")
    assert isinstance(o, App) and isinstance(o.fun, Mu)


def test_parse_replacement_command():
    o = c("['b](x)['b2/'b\\z . #]")
    assert isinstance(o, ERepl) and isinstance(o.body, Named)
    assert o.new == "'b2"


def test_parse_rejects_equal_names():
    with pytest.raises(ParseError):
        parse("['a](x)['b/'b\\z . #]", sort="command")


def test_parse_error_position():
    with pytest.raises(ParseError) as e:
        parse(r"\x. (")
    assert "line 1" in str(e.value)


@pytest.mark.parametrize(
    "text, sort, message, column",
    [
        (r"\ . x", "term", "expected a variable, found '.'", 3),
        (r"\mu. x", "term", "expected a variable, found 'mu'", 2),
        (r"\x:. x", "term", "expected a type, found '.'", 4),
        (r"\x:iA x", "term", "expected '.', found 'x'", 7),
        (r"\x", "term", "unexpected end of input", 3),
        ("mu x. ['a]x", "term", "expected a name, found 'x'", 4),
        ("mu : . ['a]x", "term", "expected a name, found ':'", 4),
        ("mu 'a:. ['a]x", "term", "expected a type, found '.'", 7),
        ("mu 'a:iA ['a]x", "term", "expected '.', found '['", 10),
        ("[x]y", "command", "expected a name, found 'x'", 2),
        ("['a]x['b/x\\#]", "command", "expected a name, found 'x'", 10),
        ("['a]x['b/\\#]", "command", "expected a name, found '\\\\'", 10),
        ("['a]x['b/'c:\\#]", "command", "expected a type, found '\\\\'", 13),
        ("['a]x['b/'c:iA #]", "command", "expected '\\\\', found '#'", 16),
        ("['a]x['b/'b\\#]", "command", "replacement name equals bound name", 7),
    ],
)
def test_binder_errors_name_the_token_and_column(text, sort, message, column):
    with pytest.raises(ParseError) as e:
        parse(text, sort=sort)
    assert str(e.value) == f"{message} at line 1, column {column}"
    assert e.value.column == column


def test_sort_error_in_api():
    with pytest.raises(SortError):
        check_sorts(App(Var("x"), EmptyStack()))


def test_application_left_associative():
    assert t("x y z") == App(App(Var("x"), Var("y")), Var("z"))


def test_postfix_substitution_binds_tightest():
    o = t(r"x y[y2\u]")
    assert isinstance(o, App) and isinstance(o.arg, type(t(r"q[w\u]")))


# --- printing ----------------------------------------------------------------


def test_print_examples():
    assert print_object(Var("x")) == "x"
    assert print_object(EmptyStack()) == "#"
    o = t("mu 'a2. (['a]x)['a2/'a\\y . z . #]")
    assert print_object(o) == "mu 'a2. (['a]x)['a2/'a\\y . z . #]"


def test_roundtrip_random():
    rng = random.Random(2)
    for _ in range(300):
        o = random_object(rng, 9)
        back = parse(print_object(o), sort=sort_of(o), freshen=False)
        assert alpha_eq(back, o), print_object(o)


# --- alpha-equivalence --------------------------------------------------------


def test_alpha_basic():
    assert alpha_eq(t(r"mu 'a. ['a]\x. x"), t(r"mu 'b. ['b]\y. y"))
    assert not alpha_eq(t(r"\x. x"), t(r"\x. y"))


def test_alpha_substitution_binder():
    assert alpha_eq(t(r"q[x\u]"), t(r"q[y\u]"))


def test_alpha_is_equivalence_and_stable_under_refresh():
    rng = random.Random(3)
    for _ in range(100):
        o = random_object(rng, 8)
        p = refresh(o, supply_for(o))
        q = refresh(p, supply_for(p))
        assert alpha_eq(o, o)
        assert alpha_eq(o, p) and alpha_eq(p, o)
        assert alpha_eq(o, q)
        assert canonical_key(o) == canonical_key(p) == canonical_key(q)


def test_barendregt_normalizes():
    o = t(r"(\x. x) (\x. x)")
    assert not is_barendregt(o)
    assert is_barendregt(barendregt(o))


# --- free occurrences -----------------------------------------------------------


def test_fn_examples():
    assert free_names(c("['a]x")) == {"'a"}
    o = c("(['b]x)['g/'b\\z . #]")
    assert free_names(o) == {"'g"}
    assert free_vars(t(r"x[x\y]")) == {"y"}


def test_counts():
    assert count_free("'a", c("['a]mu 'b. ['a]y")) == 2
    assert count_free("'a", c("(['b]x)['a/'b\\z . #]")) == 1
    assert count_free("x", t(r"\x. x")) == 0
    assert count_free("x", t(r"x (\y. x y)[y\x]")) == 3


def test_count_zero_iff_not_free():
    rng = random.Random(4)
    for _ in range(200):
        o = random_object(rng, 8)
        for n in ("'a", "'b"):
            assert (count_free(n, o) == 0) == (n not in free_names(o))
        for v in ("x", "y"):
            assert (count_free(v, o) == 0) == (v not in free_vars(o))


# --- paths -----------------------------------------------------------------------


def test_subobject_and_replace():
    o = t("x y")
    p = make_path(o, (1,))
    assert subobject_at(o, p) == Var("y")
    assert alpha_eq(rewrite_at(o, p, Var("z")), t("x z"))


def test_rewrite_at_roundtrip_random():
    rng = random.Random(5)
    for _ in range(150):
        o = random_object(rng, 8)
        idxs = [ix for ix, _ in positions(o)]
        at = idxs[rng.randrange(len(idxs))]
        p = make_path(o, at)
        assert alpha_eq(rewrite_at(o, p, subobject_at(o, p)), o)


def test_rewrite_at_avoids_capture():
    ctx = Abs("x", None, Var("q"))
    p = make_path(ctx, (0,))
    got = rewrite_at(ctx, p, t("x y"))
    # the binder was renamed away from the free x of the payload
    assert isinstance(got, Abs) and got.var != "x"
    assert free_vars(got) == {"x", "y"}


def test_negative_child_indices_are_rejected():
    o = t("f a b")
    with pytest.raises(PathError):
        make_path(o, (-1,))
    with pytest.raises(PathError):
        subobject_at(o, (-1,))
    with pytest.raises(PathError):
        rewrite_at(o, (0, -2), Var("z"))


def test_paths_thousands_deep_need_no_recursion():
    # a left-nested application spine and a chain of abstractions; the
    # written variable is free, so the binder walk runs but renames nothing
    spine, chain = Var("f"), Var("f")
    for i in range(3000):
        spine, chain = App(spine, Var(f"a{i}")), Abs(f"x{i}", None, chain)
    for o, idxs in ((spine, (0,) * 3000), (chain, (0,) * 3000)):
        p = make_path(o, idxs)
        assert subobject_at(o, p) == Var("f")
        got = rewrite_at(o, p, Var("g"))
        for _ in idxs:
            assert type(got) is type(o)
            got = got.fun if isinstance(got, App) else got.body
        assert got == Var("g")


def test_occurrence_walks_five_thousand_deep_need_no_recursion():
    # x a0 a1 ... with x as every thousandth argument, and half way up a
    # [x\x] that binds the x below it and holds a free one in its argument
    def app_spine(x):
        o = Var("x")
        for i in range(5000):
            if i == 2500:
                o = ESub(o, "x", Var(x))
            o = App(o, Var(f"a{i % 7}" if i % 1000 != 999 else x if i > 2500 else "x"))
        return o

    spine = app_spine("x")
    paths = [(0,) * 2500 + (1,), (0,) * 2000 + (1,), (0,) * 1000 + (1,), (1,)]
    assert [idxs for idxs, _ in free_occurrences(spine, "x")] == paths
    assert count_free("x", spine) == 4 and count_free("a3", spine) == 713
    got = rename_free(spine, "x", "z")
    assert same_object(got, app_spine("z"))
    o, k = spine, 0
    while type(o) is App:  # every other argument is the original node
        assert (got.arg is o.arg) == (o.arg != Var("x"))
        o, got, k = o.fun, got.fun, k + 1
    assert k == 2500 and got.body is o.body
    assert rename_free(spine, "y", "z") is spine

    # ['c0] mu 'b4999. ... ['c5] mu 'b0. ['a]x, each thousandth name 'a, and
    # half way down a replacement that binds the 'a below it and holds a
    # free one in its stack
    def chain(a, x="x"):
        cmd = Named("'a", Var(x))
        for i in range(5000):
            if i == 2500:
                stack = Push(Mu("'q", None, Named(a, Var("y"))), EmptyStack())
                cmd = ERepl(cmd, "'n", "'a", None, stack)
            name = f"'c{i % 7}" if i % 1000 != 999 else a if i > 2500 else "'a"
            cmd = Named(name, Mu(f"'b{i}", None, cmd))
        return cmd

    cmd = chain("'a")
    paths = [(), (0,) * 2000, (0,) * 4000, (0,) * 5000 + (1, 0, 0)]
    assert [idxs for idxs, _ in free_occurrences(cmd, "'a")] == paths
    assert count_free("'a", cmd) == 4 and count_free("'c3", cmd) == 713
    got = rename_free(cmd, "'a", "'z")
    assert same_object(got, chain("'z"))
    below = (0,) * 5001  # the replacement's body is the original node
    assert subobject_at(got, below) is subobject_at(cmd, below)
    assert next(free_occurrences(cmd, "x")) == ((0,) * 10002, Var("x"))
    assert count_free("x", cmd) == 1
    assert same_object(rename_free(cmd, "x", "y"), chain("'a", "y"))


def test_all_idents_covers_binders():
    o = t(r"\x. mu 'a. ['b]x[y\z]")
    ids = all_idents(o)
    assert {"x", "'a", "y", "'b", "z"} <= ids


# --- cached free identifiers against an uncached reference walk ----------------


def ref_free_vars(o):
    match o:
        case Var(x):
            return {x}
        case App(f, a):
            return ref_free_vars(f) | ref_free_vars(a)
        case Abs(x, _, b):
            return ref_free_vars(b) - {x}
        case Mu(_, _, b) | Named(_, b):
            return ref_free_vars(b)
        case ESub(b, x, u):
            return (ref_free_vars(b) - {x}) | ref_free_vars(u)
        case ERepl(b, _, _, _, s):
            return ref_free_vars(b) | ref_free_vars(s)
        case EmptyStack():
            return set()
        case Push(h, tl):
            return ref_free_vars(h) | ref_free_vars(tl)
    raise TypeError(o)


def ref_free_names(o):
    match o:
        case Var(_) | EmptyStack():
            return set()
        case App(f, a):
            return ref_free_names(f) | ref_free_names(a)
        case Abs(_, _, b):
            return ref_free_names(b)
        case Mu(a, _, b):
            return ref_free_names(b) - {a}
        case ESub(b, _, u):
            return ref_free_names(b) | ref_free_names(u)
        case Named(a, b):
            return ref_free_names(b) | {a}
        case ERepl(b, new, old, _, s):
            return (ref_free_names(b) - {old}) | {new} | ref_free_names(s)
        case Push(h, tl):
            return ref_free_names(h) | ref_free_names(tl)
    raise TypeError(o)


def ref_count_free_var(x, o):
    match o:
        case Var(y):
            return 1 if y == x else 0
        case Abs(y, _, b):
            return 0 if y == x else ref_count_free_var(x, b)
        case ESub(b, y, u):
            n = 0 if y == x else ref_count_free_var(x, b)
            return n + ref_count_free_var(x, u)
    return sum(ref_count_free_var(x, ch) for ch in children(o))


def ref_count_free_name(alpha, o):
    match o:
        case Mu(a, _, b):
            return 0 if a == alpha else ref_count_free_name(alpha, b)
        case Named(a, b):
            return (a == alpha) + ref_count_free_name(alpha, b)
        case ERepl(b, new, old, _, s):
            n = (new == alpha) + ref_count_free_name(alpha, s)
            return n if old == alpha else n + ref_count_free_name(alpha, b)
    return sum(ref_count_free_name(alpha, ch) for ch in children(o))


def rebuild(o):
    """A structurally equal copy made of new nodes, so no cache is filled."""
    cs = children(o)
    return with_children(o, tuple(rebuild(ch) for ch in cs)) if cs else o


def kernel_corpus():
    """Seeded objects of every generator the checks use, with their plain
    and meaningful reducts."""
    from lmtool.drivers import sigma_pair
    from lmtool.generators import gen_equiv_pair, gen_typed
    from lmtool.reduction import canon, meaningful_reducts, plain_reducts

    out = []
    for seed in range(12):
        o, _, _ = gen_typed(seed, size=12)
        out += [o] + [r for _, _, r in plain_reducts(o)]
        k = canon(o)
        out += [k] + [r for _, _, r in meaningful_reducts(k)]
    for seed, ax in enumerate(("exs", "exr", "lin", "pp", "rho", "theta") * 2):
        o, p, _ = gen_equiv_pair(seed, axiom=ax)
        out += [o, p] + [r for _, _, r in meaningful_reducts(o)]
    for seed, ax in enumerate(f"sigma{i}" for i in range(1, 9)):
        out += list(sigma_pair(seed, ax))
    return out


def probe_idents(o):
    fv, fn = ref_free_vars(o), ref_free_names(o)
    return sorted(fv | fn | bound_idents(o) | {"x_absent", "'a_absent"})


def test_cached_free_identifiers_match_the_reference_walk():
    for o in kernel_corpus():
        ref = ref_free_vars(o) | ref_free_names(o)
        for fresh in (rebuild(o), rebuild(o)):
            # first ask the counts (they fill no cache), then the sets, then
            # everything again with the caches full
            for _ in range(2):
                for ident in probe_idents(o):
                    ref_count = ref_count_free_name if is_name(ident) else ref_count_free_var
                    assert count_free(ident, fresh) == ref_count(ident, o)
                assert free_idents(fresh) == ref
                assert free_vars(fresh) == ref_free_vars(o)
                assert free_names(fresh) == ref_free_names(o)
            # every subobject's cache agrees too
            for _, sub in positions(fresh):
                want = ref_free_vars(sub) | ref_free_names(sub)
                if children(sub):
                    assert sub._fi == want  # filled by the ask at the root
                assert free_idents(sub) == want
                assert free_vars(sub) == ref_free_vars(sub)
                assert free_names(sub) == ref_free_names(sub)
        # the shared original, whose caches other calls may have filled
        assert free_idents(o) == ref
        assert (free_vars(o), free_names(o)) == (ref_free_vars(o), ref_free_names(o))


def ref_free_occurrences(o, ident):
    """The recursive walk the occurrence walk replaced, for both namespaces:
    index paths of the free occurrences of ident, in pre-order."""
    out = []

    def go(o, idxs, shadowed):
        match o:
            case Var(x):
                if x == ident and not shadowed:
                    out.append(idxs)
            case Named(a, b):
                if a == ident and not shadowed:
                    out.append(idxs)
                go(b, idxs + (0,), shadowed)
            case ERepl(b, nn, on, _, s):
                if nn == ident and not shadowed:
                    out.append(idxs)
                go(b, idxs + (0,), shadowed or on == ident)
                go(s, idxs + (1,), shadowed)
            case Abs(x, _, b) | Mu(x, _, b):
                go(b, idxs + (0,), shadowed or x == ident)
            case ESub(b, x, u):
                go(b, idxs + (0,), shadowed or x == ident)
                go(u, idxs + (1,), shadowed)
            case _:
                for i, ch in enumerate(children(o)):
                    go(ch, idxs + (i,), shadowed)

    go(o, (), False)
    return out


def ref_rename_free_var(o, old, new):
    """The recursive renamers that rename_free replaced: every node rebuilt."""
    if old == new:
        return o
    match o:
        case Var(x):
            return Var(new) if x == old else o
        case Abs(x, ann, b):
            return o if x == old else Abs(x, ann, ref_rename_free_var(b, old, new))
        case ESub(b, x, u):
            nb = b if x == old else ref_rename_free_var(b, old, new)
            return ESub(nb, x, ref_rename_free_var(u, old, new))
        case _:
            cs = children(o)
            if not cs:
                return o
            return with_children(o, tuple(ref_rename_free_var(c, old, new) for c in cs))


def ref_rename_free_name(o, old, new):
    if old == new:
        return o
    match o:
        case Var(_) | EmptyStack():
            return o
        case Mu(a, ann, b):
            return o if a == old else Mu(a, ann, ref_rename_free_name(b, old, new))
        case Named(a, b):
            a2 = new if a == old else a
            return Named(a2, ref_rename_free_name(b, old, new))
        case ERepl(b, nn, on, ann, s):
            nn2 = new if nn == old else nn
            nb = b if on == old else ref_rename_free_name(b, old, new)
            return ERepl(nb, nn2, on, ann, ref_rename_free_name(s, old, new))
        case _:
            return with_children(
                o, tuple(ref_rename_free_name(c, old, new) for c in children(o))
            )


def squash_names(o):
    """o with every name mapped into two names, so that binders shadow."""
    pool = ("'a", "'b")
    sq = lambda n: pool[len(n) % 2]
    cs = tuple(squash_names(ch) for ch in children(o))
    match o:
        case Mu(a, ann, _):
            return Mu(sq(a), ann, cs[0])
        case Named(a, _):
            return Named(sq(a), cs[0])
        case ERepl(_, nn, on, ann, _):
            return ERepl(cs[0], sq(nn), sq(on), ann, cs[1])
    return with_children(o, cs) if cs else o


def squash_vars(o):
    """o with every variable mapped into two variables, so that binders
    shadow."""
    pool = ("x", "y")
    sq = lambda x: pool[len(x) % 2]
    cs = tuple(squash_vars(ch) for ch in children(o))
    match o:
        case Var(x):
            return Var(sq(x))
        case Abs(x, ann, _):
            return Abs(sq(x), ann, cs[0])
        case ESub(_, x, _):
            return ESub(cs[0], sq(x), cs[1])
    return with_children(o, cs) if cs else o


def test_free_occurrences_match_the_recursive_walk():
    compared = {False: 0, True: 0}
    shadowed = {False: 0, True: 0}
    for o in kernel_corpus():
        for obj in (o, squash_vars(squash_names(o))):
            # the walk skips subobjects by their caches when they are filled:
            # first on new nodes, whose caches are empty, then on filled ones
            fresh = rebuild(obj)
            for ident in probe_idents(obj):
                got = [idxs for idxs, _ in free_occurrences(fresh, ident)]
                assert got == ref_free_occurrences(obj, ident)
            for _, sub in positions(obj):
                idents = free_vars(sub) | free_names(sub) | bound_idents(sub)
                for ident in sorted(idents | {"'a", "'b", "x", "y"}):
                    got = list(free_occurrences(sub, ident))
                    ref = ref_free_occurrences(sub, ident)
                    assert [idxs for idxs, _ in got] == ref
                    assert len(ref) == count_free(ident, sub)
                    for idxs, node in got:
                        assert node is subobject_at(sub, make_path(sub, idxs))
                    compared[is_name(ident)] += 1
                    # ident both free and bound in sub: the walk must stop at
                    # the binder
                    shadowed[is_name(ident)] += bool(ref) and ident in bound_idents(sub)
    assert min(compared.values()) > 5000 and min(shadowed.values()) > 100


def test_free_occurrences_thousands_deep_need_no_recursion():
    # ['a] mu 'b0. ['a] mu 'b1. ... ['a] x, and the same chain with 'a bound
    # half way down
    cmd = Named("'a", Var("x"))
    for i in range(3000):
        cmd = Named("'a", Mu("'a" if i == 1500 else f"'b{i}", None, cmd))
    occs = list(free_occurrences(cmd, "'a"))
    assert len(occs) == 1500
    assert [len(idxs) for idxs, _ in occs] == list(range(0, 3000, 2))
    assert next(free_occurrences(cmd, "'a")) == ((), cmd)
    assert next(free_occurrences(cmd, "'b7"), None) is None
    # x (\y2999. x (\y2998. ... x (\x. ... x x))): the same for variables
    term = Var("x")
    for i in range(3000):
        term = App(Var("x"), Abs("x" if i == 1500 else f"y{i}", None, term))
    occs = list(free_occurrences(term, "x"))
    assert len(occs) == 1500
    assert [len(idxs) for idxs, _ in occs] == list(range(1, 3000, 2))
    assert next(free_occurrences(term, "x")) == ((0,), Var("x"))
    assert next(free_occurrences(term, "y7"), None) is None


def test_rename_free_matches_the_recursive_renamers():
    renamed = {False: 0, True: 0}
    for o in kernel_corpus():
        for obj in (o, squash_vars(squash_names(o))):
            for _, sub in positions(obj):
                idents = free_vars(sub) | free_names(sub) | bound_idents(sub)
                for ident in sorted(idents | {"'a", "x"}):
                    new = ident + "_new"
                    ref = ref_rename_free_name if is_name(ident) else ref_rename_free_var
                    got = rename_free(sub, ident, new)
                    assert got == ref(sub, ident, new)
                    renamed[is_name(ident)] += got != sub
    assert min(renamed.values()) > 1000


def test_rename_free_keeps_untouched_subtrees():
    kept = 0
    for o in kernel_corpus()[::3]:
        for obj in (o, squash_vars(squash_names(o))):
            for ident in sorted(free_vars(obj) | free_names(obj) | {"x", "'a"}):
                occs = [idxs for idxs, _ in free_occurrences(obj, ident)]
                got = rename_free(obj, ident, ident + "_new")
                if not occs:
                    assert got is obj
                for idxs, old in positions(obj):
                    if any(oc[: len(idxs)] == idxs for oc in occs):
                        continue
                    # no free occurrence at or below: the same node
                    assert subobject_at(got, make_path(got, idxs)) is old
                    kept += 1
    assert kept > 2000


def ref_rename_occurrences(o, old, new, chosen):
    """Rename old to new at the chosen index paths, rebuilding every prefix
    of every chosen path and returning every other subtree as it is."""
    from lmtool.syntax import _FREE_AT, _RENAME_AT

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


def ref_rename_free_by_paths(o, old, new):
    """The renamer that the one walk replaced: the paths of the free
    occurrences, then every prefix of every path rebuilt."""
    if old == new:
        return o
    return ref_rename_occurrences(o, old, new, {idxs for idxs, _ in free_occurrences(o, old)})


def kept_nodes(got, o):
    """The index paths at which got holds the very node that o holds."""
    out = set()
    for idxs, node in positions(got):
        try:
            if subobject_at(o, idxs) is node:
                out.add(idxs)
        except PathError:
            pass
    return out


def spine(n, head="x", arg="a3", arg_to="a3"):
    """head (mu 'a. ['b]a0) ... (mu 'a. ['b]a(n-1)), nested to the left: n
    levels of App; the variable arg is written arg_to."""
    o = Var(head)
    for i in range(n):
        x = f"a{i}"
        o = App(o, Mu("'a", None, Named("'b", Var(arg_to if x == arg else x))))
    return o


def test_rename_free_matches_the_path_renamer():
    from lmtool.generators import gen_equiv_pair
    from lmtool.reduction import meaningful_reducts

    corpus = kernel_corpus()
    for seed in range(12):
        ax = ("exs", "exr", "lin", "pp", "rho", "theta")[seed % 6]
        o, p, _ = gen_equiv_pair(seed=100 + seed, axiom=ax, size=9)
        corpus += [o, p] + [r for side in (o, p) for _, _, r in meaningful_reducts(side)]
    cases = 0
    for o in corpus:
        for obj in (o, squash_vars(squash_names(o))):
            for _, sub in positions(obj):
                for ident in sorted(free_vars(sub) | free_names(sub) | bound_idents(sub)):
                    got = rename_free(sub, ident, ident + "_new")
                    want = ref_rename_free_by_paths(sub, ident, ident + "_new")
                    assert got == want
                    assert kept_nodes(got, sub) == kept_nodes(want, sub)
                    cases += 1
    # spines the path renamer still walks at the default recursion limit;
    # in the second, x stands free in every argument
    every = Var("x")
    for _ in range(250):
        every = App(every, Var("x"))
    for long in (spine(250), every):
        for ident in ("x", "a7", "'b"):
            got, want = rename_free(long, ident, "z"), ref_rename_free_by_paths(long, ident, "z")
            assert got == want and kept_nodes(got, long) == kept_nodes(want, long)
    assert cases > 10000


def flat(o):
    """o's nodes in pre-order, each with its path, class and identifiers:
    equal exactly for equal objects without annotations, and built without
    recursion (== on nodes recurses a few frames per level)."""
    return [
        (idxs, type(n), [getattr(n, f.name) for f in fields(n) if type(getattr(n, f.name)) is str])
        for idxs, n in positions(o)
    ]


def test_rename_free_walks_a_deep_spine_at_the_default_recursion_limit():
    long = spine(500)
    got = rename_free(long, "x", "y")
    assert flat(got) == flat(spine(500, head="y"))
    # every argument is the original node, and nothing else is
    assert kept_nodes(got, long) == {
        (0,) * k + (1,) + rest for k in range(500) for rest in ((), (0,), (0, 0))
    }
    assert flat(rename_free(long, "a3", "z")) == flat(spine(500, arg_to="z"))
    assert [ids for _, t, ids in flat(rename_free(long, "'b", "'c")) if t is Named] == [["'c"]] * 500
    assert rename_free(long, "'a", "'c") is long


def test_free_identifier_sets_are_frozen_and_shared():
    f = t("f x y")
    o = App(f, Var("x"))
    assert isinstance(free_idents(o), frozenset)
    # a node whose set equals a child's reuses the child's set object
    assert free_idents(o) is free_idents(f)
    body = c("['a]x")
    assert free_idents(Abs("y", None, Mu("'b", None, body))) is free_idents(body)


def test_equality_and_hash_ignore_the_caches():
    for o in kernel_corpus()[::7]:
        filled, empty = rebuild(o), rebuild(o)
        free_idents(filled)
        assert filled == empty and hash(filled) == hash(empty)
        assert repr(filled) == repr(empty)
        assert {filled: 1}[empty] == 1


def test_nodes_are_slotted_with_field_only_matching():
    samples = [
        Var("x"), App(Var("f"), Var("x")), Abs("x", None, Var("x")),
        Mu("'a", None, c("['a]x")), ESub(Var("x"), "x", Var("y")), c("['a]x"),
        c("(['b]x)['a/'b\\#]"), EmptyStack(), Push(Var("x"), EmptyStack()),
    ]
    for o in samples:
        assert not hasattr(o, "__dict__")
        names = tuple(f.name for f in fields(o))
        assert type(o).__match_args__ == names
        assert not {"_fi", "_cn"} & set(names)


def nested_key(o):
    """The nested-tuple alpha key that the flat canonical_key replaced:
    binders numbered in traversal order, an environment copied per binder."""

    counter = [0]

    def bind(env, ident):
        counter[0] += 1
        tag = f"%{counter[0]}"
        return {**env, ident: tag}, tag

    def go(o, env):
        match o:
            case Var(x):
                return ("v", env.get(x, x))
            case App(f, a):
                return ("a", go(f, env), go(a, env))
            case Abs(x, _, b):
                env2, tag = bind(env, x)
                return ("l", tag, go(b, env2))
            case Mu(a, _, b):
                env2, tag = bind(env, a)
                return ("m", tag, go(b, env2))
            case ESub(b, x, u):
                u_k = go(u, env)
                env2, tag = bind(env, x)
                return ("s", go(b, env2), tag, u_k)
            case Named(a, b):
                return ("n", env.get(a, a), go(b, env))
            case ERepl(b, nn, on, _, s):
                s_k = go(s, env)
                env2, tag = bind(env, on)
                return ("r", go(b, env2), env.get(nn, nn), tag, s_k)
            case EmptyStack():
                return ("e",)
            case Push(h, t):
                return ("p", go(h, env), go(t, env))
        raise TypeError(o)

    return go(o, {})


def erase_types(o):
    """o with every binder annotation dropped."""
    cs = children(o)
    if cs:
        o = with_children(o, tuple(erase_types(ch) for ch in cs))
    if isinstance(o, (Abs, Mu, ERepl)) and o.ann is not None:
        o = replace(o, ann=None)
    return o


def test_flat_key_splits_like_the_nested_key():
    objs = []
    for o in kernel_corpus():
        p = refresh(o, supply_for(o))
        objs += [o, p, barendregt(o), erase_types(o), erase_types(p)]
    # shadowing: a binder's scope ends where its subtree does
    objs += [
        t(r"\x. (\x. x) x"), t(r"\x. (\y. y) x"), t(r"\x. (\y. x) x"),
        t(r"(\x. x) x"), t(r"(\y. y) y"),
        t(r"x[x\x]"), t(r"y[x\x]"), t(r"x[y\x]"), t(r"y[y\y]"),
        c(r"(['a]x)['a/'b\#]"), c(r"(['b]x)['a/'b\#]"), c(r"(['a]x)['c/'a\#]"),
    ]
    flat = [canonical_key(o) for o in objs]
    ref = [nested_key(o) for o in objs]
    assert not any(isinstance(tok, tuple) for k in flat for tok in k)
    # the same equality classes: each key determines the other
    assert len(set(flat)) == len(set(ref)) == len(set(zip(flat, ref)))
    # annotations are left out of the key
    assert all(canonical_key(erase_types(o)) == canonical_key(o) for o in objs)


def test_flat_key_tokens():
    # bound occurrences are their binder's number, free identifiers stay
    assert canonical_key(t(r"\x. x y")) == ("l", "a", "v", 1, "v", "y")
    assert canonical_key(t(r"y[x\x]")) == ("s", "v", "y", "v", "x")
    assert canonical_key(c(r"(['a]x)['c/'a\#]")) == ("r", "'c", "n", 1, "v", "x", "e")
    assert canonical_key(t(r"\x:iA. x")) == ("l", "v", 1)


# --- bound identifiers and the lazy name supply against the eager walks ---------


def ref_bound_idents(o):
    out = set()
    for _, sub in positions(o):
        match sub:
            case Abs(x, _, _) | ESub(_, x, _):
                out.add(x)
            case Mu(a, _, _):
                out.add(a)
            case ERepl(_, _, old, _, _):
                out.add(old)
    return out


def ref_all_idents(o):
    return ref_free_vars(o) | ref_free_names(o) | ref_bound_idents(o)


class RefNameSupply:
    """The eager supply: its reserved set is complete when it is made."""

    def __init__(self, reserved=None):
        self.counter = 0
        self.reserved = set(reserved) if reserved else set()

    def fresh(self, base):
        prefix = "'" if base.startswith("'") else ""
        stem = base.lstrip("'")
        stem = re.sub(r"\d+$", "", stem) or ("a" if prefix else "x")
        while True:
            self.counter += 1
            cand = f"{prefix}{stem}{self.counter}"
            if cand not in self.reserved:
                self.reserved.add(cand)
                return cand

    def reserve(self, idents):
        self.reserved |= idents


def test_bound_idents_match_the_positions_walk():
    for o in kernel_corpus():
        for obj in (o, squash_names(o)):
            assert bound_idents(obj) == ref_bound_idents(obj)


def test_all_idents_matches_the_reference_and_fills_no_cache():
    for o in kernel_corpus():
        for obj in (o, squash_names(o), squash_vars(o), squash_vars(squash_names(o))):
            fresh = rebuild(obj)
            assert all_idents(fresh) == ref_all_idents(obj)
            for _, sub in positions(fresh):
                assert getattr(sub, "_fi", None) is None


def test_all_idents_walks_a_deep_spine_without_recursion():
    spine = Var("f")
    for i in range(100_000):
        spine = App(spine, Var(f"a{i % 7}"))
    assert all_idents(spine) == {"f"} | {f"a{i}" for i in range(7)}


def test_lazy_supply_issues_the_eager_names():
    corpus = kernel_corpus()
    compared = needs_second = 0
    for o, u in zip(corpus, corpus[1:] + corpus[:1]):
        both = ref_all_idents(o) | ref_all_idents(u)
        bases = sorted(both | {"", "'", "x", "'a", "'b", "x12", "'a3"})
        # the second object's identifiers reserved before the first issue,
        # as meta.replace reserves its two names
        first_two = RefNameSupply(both)
        extra = {first_two.fresh("'a"), first_two.fresh("x")}
        cases = [
            (supply_for(o), RefNameSupply(ref_all_idents(o))),
            (supply_for(o, u), RefNameSupply(both)),
            (supply_for(o, u), RefNameSupply(both | extra)),
        ]
        cases[2][0].reserve(extra)
        for lazy, eager in cases:
            assert [lazy.fresh(b) for b in bases] == [eager.fresh(b) for b in bases]
            compared += 1
        alone = RefNameSupply(ref_all_idents(o))
        needs_second += [alone.fresh(b) for b in bases] != [
            RefNameSupply(both).fresh(b) for b in bases
        ]
    assert compared > 300 and needs_second > 20


def test_canonicity_is_invariant_under_refresh():
    from lmtool.reduction import is_canonical

    seen = {True: 0, False: 0}
    for o in kernel_corpus():
        for obj in (o, squash_names(o)):
            fresh = refresh(obj, supply_for(obj))
            assert is_canonical(fresh) == is_canonical(obj)
            seen[is_canonical(obj)] += 1
    assert min(seen.values()) > 50


def ref_refresh(o, supply):
    """refresh as one recursive walk per node class."""

    def go(o, env):
        match o:
            case Var(x):
                return Var(env.get(x, x))
            case App(f, a):
                return App(go(f, env), go(a, env))
            case Abs(x, ann, b):
                x2 = supply.fresh(x)
                return Abs(x2, ann, go(b, {**env, x: x2}))
            case Mu(a, ann, b):
                a2 = supply.fresh(a)
                return Mu(a2, ann, go(b, {**env, a: a2}))
            case ESub(b, x, u):
                x2 = supply.fresh(x)
                return ESub(go(b, {**env, x: x2}), x2, go(u, env))
            case Named(a, b):
                return Named(env.get(a, a), go(b, env))
            case ERepl(b, nn, on, ann, s):
                on2 = supply.fresh(on)
                return ERepl(go(b, {**env, on: on2}), env.get(nn, nn), on2, ann, go(s, env))
            case EmptyStack():
                return o
            case Push(h, t):
                return Push(go(h, env), go(t, env))
        raise TypeError(o)

    return go(o, {})


def test_refresh_matches_the_recursive_walk():
    rng = random.Random(12)
    corpus = kernel_corpus() + [random_object(rng, rng.randrange(2, 14)) for _ in range(300)]
    for o in corpus:
        for obj in (o, squash_vars(squash_names(o))):
            got, want = supply_for(obj), supply_for(obj)
            assert print_object(refresh(obj, got)) == print_object(ref_refresh(obj, want))
            assert got.counter == want.counter


def ref_refresh_rebuilding(o, supply):
    """refresh as it was, building each binder twice and renaming a free
    identifier in a third build."""
    from lmtool.syntax import _BOUND_BY, _FREE_AT, _REBIND, _RENAME_AT

    def go(o, env):
        t = type(o)
        bound = _BOUND_BY.get(t)
        inner = env
        if bound is not None:
            x = bound(o)
            inner = {**env, x: supply.fresh(x)}
            o = _REBIND[t](o, inner[x], o.body)
        cs = children(o)
        if cs:
            o = with_children(o, (go(cs[0], inner), *(go(c, env) for c in cs[1:])))
        at = _FREE_AT.get(t)
        if at is not None and getattr(o, at) in env:
            o = _RENAME_AT[t](o, env[getattr(o, at)])
        return o

    return go(o, {})


def test_refresh_matches_the_reference_and_issues_the_same_names():
    rng = random.Random(11)
    objects = [random_object(rng, rng.randrange(1, 14)) for _ in range(2000)]
    for o in kernel_corpus():
        objects += [o, squash_names(o), squash_vars(o), squash_vars(squash_names(o))]
    for o in objects:
        got, want = supply_for(o), supply_for(o)
        # a second refresh from the same supplies issues later names
        for _ in range(2):
            assert print_object(refresh(o, got)) == print_object(ref_refresh_rebuilding(o, want))
            assert got.counter == want.counter


# --- sorts ---------------------------------------------------------------------


def test_check_sorts_names_each_bad_node():
    x, cmd, nil = Var("x"), Named("'a", Var("x")), EmptyStack()
    bad = [
        (App(x, nil), "application of non-terms"),
        (App(cmd, x), "application of non-terms"),
        (Abs("y", None, cmd), "abstraction body must be a term"),
        (Mu("'b", None, x), "mu body must be a command"),
        (ESub(x, "y", nil), "substitution parts must be terms"),
        (ESub(cmd, "y", x), "substitution parts must be terms"),
        (Named("'a", cmd), "named body must be a term"),
        (ERepl(x, "'c", "'b", None, nil), "bad replacement sorts"),
        (ERepl(cmd, "'c", "'b", None, x), "bad replacement sorts"),
        (ERepl(cmd, "'b", "'b", None, nil), "replacement name equals bound name"),
        (Push(nil, nil), "bad stack sorts"),
        (Push(x, x), "bad stack sorts"),
    ]
    for o, msg in bad:
        # alone and inside a well-sorted context
        for obj in (o, _wrap(o)):
            with pytest.raises(SortError, match=f"^{re.escape(msg)}: "):
                check_sorts(obj)


def _wrap(o):
    """A well-sorted context around o."""
    if sort_of(o) == "stack":
        return Push(Var("h"), o)
    if sort_of(o) == "command":
        return Abs("w", None, Mu("'w", None, ERepl(o, "'v", "'u", None, EmptyStack())))
    return ESub(Var("z"), "z", App(Var("f"), o))


def test_check_sorts_needs_no_recursion():
    spine = Var("f")
    for _ in range(100_000):
        spine = App(spine, Var("a"))
    check_sorts(spine)
    bad = Var("f")
    for i in range(100_000):
        bad = App(bad, Var("a") if i else EmptyStack())
    with pytest.raises(SortError, match="application of non-terms"):
        check_sorts(bad)
