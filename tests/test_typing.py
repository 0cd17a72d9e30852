import random

import pytest

from lmtool.drivers import TypedPairs, typed_step_cases
from lmtool.generators import gen_typed
from lmtool.meta import stack_items
from lmtool.reduction import RuleTag, lm_redexes
from lmtool.syntax import (
    Abs,
    App,
    Arrow,
    Base,
    EmptyStack,
    ERepl,
    ESub,
    Mu,
    Named,
    Push,
    Var,
    parse,
    parse_type,
    print_object,
)
from lmtool.typing import (
    AnnotationMissing,
    Derivation,
    Judgment,
    LMTypeError,
    check_object,
    relevance_check,
    subject_reduction_check,
)
from lmtool.typing_util import fold_stack_type, split_arrow


def t(text):
    return parse(text, freshen=False)


def test_axiom_judgment():
    d = check_object(t("x"), {"x": Base("A")})
    assert d.rule == "ax"
    assert d.judgment.type == Base("A")
    assert d.judgment.gamma == (("x", Base("A")),)
    assert d.judgment.delta == ()


def test_empty_stack_types():
    d = check_object(parse("#", sort="stack"))
    assert d.rule == "st_h" and d.judgment.type == ()


def test_callcc_peirce():
    cc = t(r"\x:(iA->iB)->iA. mu 'a:iA. ['a]x (\y:iA. mu 'd:iB. ['a]y)")
    d = check_object(cc)
    assert d.judgment.type == parse_type("((iA->iB)->iA)->iA")
    assert relevance_check(d)


def test_annotation_missing():
    with pytest.raises(AnnotationMissing):
        check_object(t(r"\x. x"))


def test_arrow_mismatch():
    with pytest.raises(LMTypeError):
        check_object(t("x y"), {"x": Base("A"), "y": Base("A")})


def test_incompatible_union():
    with pytest.raises(LMTypeError):
        # x used at two different types
        check_object(
            t(r"x x"),
            {"x": Arrow(Base("A"), Base("B"))},
        )


def test_repl_rule_and_relevance():
    o = parse("(['a]x)['b/'a:iA->iB\\y . #]", sort="command", freshen=False)
    d = check_object(o, {"x": parse_type("iA->iB"), "y": Base("A")}, {"'b": Base("B")})
    assert d.rule == "repl"
    assert d.judgment.type is None
    assert dict(d.judgment.delta) == {"'b": Base("B")}
    assert relevance_check(d)


def test_repl_name_clash():
    o = parse("(['a]x)['b/'a:iA->iB\\y . #]", sort="command", freshen=False)
    with pytest.raises(LMTypeError):
        check_object(
            o, {"x": parse_type("iA->iB"), "y": Base("A")}, {"'b": Base("A")}
        )


def test_fold_identities():
    b = Base("B")
    assert fold_stack_type((), b) == b
    a = Base("A")
    assert fold_stack_type((a,), b) == Arrow(a, b)
    assert split_arrow(fold_stack_type((a, b), a), 2) == ((a, b), a)


def test_generated_terms_check_and_are_relevant():
    rng = random.Random(123)
    for _ in range(200):
        o, g, d = gen_typed(rng.randrange(10**9), size=15)
        der = check_object(o, g, d)
        assert relevance_check(der)


def test_subject_reduction_erasing_step():
    o = t(r"(\x:iA. y) z")
    g = {"y": Base("B"), "z": Base("A")}
    b = [p for tag, p in lm_redexes(o) if tag == RuleTag.B][0]
    ok, diag = subject_reduction_check(o, g, {}, RuleTag.B, b)
    assert ok, diag
    # after B and S the variable z disappears and gamma shrinks
    from lmtool.reduction import lm_step

    o2 = lm_step(o, RuleTag.B, b)
    s = [p for tag, p in lm_redexes(o2) if tag == RuleTag.S][0]
    ok, diag = subject_reduction_check(o2, g, {}, RuleTag.S, s)
    assert ok, diag
    d2 = check_object(parse("y", freshen=False), g, {})
    assert dict(d2.judgment.gamma) == {"y": Base("B")}


def test_subject_reduction_m_step():
    o = t("(mu 'a:iA->iB. ['a]x) u")
    g = {"x": parse_type("iA->iB"), "u": Base("A")}
    m = [p for tag, p in lm_redexes(o) if tag == RuleTag.M][0]
    ok, diag = subject_reduction_check(o, g, {}, RuleTag.M, m)
    assert ok, diag


def test_subject_reduction_random():
    rng = random.Random(7)
    done = 0
    while done < 250:
        o, g, d = gen_typed(rng.randrange(10**9), size=12)
        rs = lm_redexes(o)
        if not rs:
            continue
        tag, p = rs[rng.randrange(len(rs))]
        ok, diag = subject_reduction_check(o, g, d, tag, p, exact=False)
        assert ok, (diag, tag)
        done += 1


def test_canonical_steps_preserve_judgment_exactly():
    from lmtool.reduction import CANON_R, classify_R_info

    rng = random.Random(70)
    done = 0
    while done < 120:
        o, g, d = gen_typed(rng.randrange(10**9), size=12)
        rs = lm_redexes(o)
        fired = False
        for tag, p in rs:
            if tag in (RuleTag.B, RuleTag.M):
                ok, diag = subject_reduction_check(o, g, d, tag, p)
                assert ok, diag
                fired = True
            elif tag == RuleTag.R:
                info = classify_R_info(o, p)
                if info[0] in CANON_R:
                    ok, diag = subject_reduction_check(o, g, d, info[0], p)
                    assert ok, diag
                    fired = True
        if fired:
            done += 1


# --- reference: contexts merged from the children's judgments ----------------


def _ref_trim(d):
    return tuple(sorted(d.items()))


def _ref_merge(kind, *dicts):
    out = {}
    for d in dicts:
        for k, v in d.items():
            if k in out and out[k] != v:
                raise LMTypeError(
                    f"incompatible union: {k} has types {out[k]} and {v} ({kind})"
                )
            out[k] = v
    return out


def ref_check_object(o, gamma=None, delta=None):
    """The checker whose clauses build each judgment's contexts by merging
    their children's and popping the names they bind."""
    return _ref_check(o, dict(gamma or {}), dict(delta or {}))


def _ref_check(o, genv, denv):
    match o:
        case Var(x):
            if x not in genv:
                raise LMTypeError(f"no type for variable {x}")
            a = genv[x]
            return Derivation("ax", Judgment(((x, a),), (), o, a))
        case App(f, u):
            df = _ref_check(f, genv, denv)
            if not isinstance(df.judgment.type, Arrow):
                raise LMTypeError(
                    f"application of a non-arrow: {print_object(f)} : {df.judgment.type}"
                )
            du = _ref_check(u, genv, denv)
            if du.judgment.type != df.judgment.type.left:
                raise LMTypeError(
                    f"argument type mismatch: expected {df.judgment.type.left},"
                    f" got {du.judgment.type}"
                )
            g = _ref_merge("app", dict(df.judgment.gamma), dict(du.judgment.gamma))
            d = _ref_merge("app", dict(df.judgment.delta), dict(du.judgment.delta))
            return Derivation(
                "app", Judgment(_ref_trim(g), _ref_trim(d), o, df.judgment.type.right), [df, du]
            )
        case Abs(x, ann, b):
            if ann is None:
                raise AnnotationMissing(f"abstraction binder {x} lacks a type")
            db = _ref_check(b, {**genv, x: ann}, denv)
            g = dict(db.judgment.gamma)
            g.pop(x, None)
            return Derivation(
                "abs",
                Judgment(_ref_trim(g), db.judgment.delta, o, Arrow(ann, db.judgment.type)),
                [db],
            )
        case Mu(a, ann, b):
            if ann is None:
                raise AnnotationMissing(f"mu binder {a} lacks a type")
            db = _ref_check(b, genv, {**denv, a: ann})
            d = dict(db.judgment.delta)
            d.pop(a, None)
            return Derivation("mu", Judgment(db.judgment.gamma, _ref_trim(d), o, ann), [db])
        case Named(a, b):
            db = _ref_check(b, genv, denv)
            ty = db.judgment.type
            if a not in denv:
                raise LMTypeError(f"no type for name {a}")
            if denv[a] != ty:
                raise LMTypeError(f"name {a} expects {denv[a]}, given {ty}")
            d = _ref_merge("name", dict(db.judgment.delta), {a: ty})
            return Derivation("name", Judgment(db.judgment.gamma, _ref_trim(d), o, None), [db])
        case ESub(b, x, u):
            du = _ref_check(u, genv, denv)
            db = _ref_check(b, {**genv, x: du.judgment.type}, denv)
            g = dict(db.judgment.gamma)
            g.pop(x, None)
            g = _ref_merge("sub", g, dict(du.judgment.gamma))
            d = _ref_merge("sub", dict(db.judgment.delta), dict(du.judgment.delta))
            return Derivation(
                "sub", Judgment(_ref_trim(g), _ref_trim(d), o, db.judgment.type), [db, du]
            )
        case ERepl(b, nn, on, ann, s):
            if ann is None:
                raise AnnotationMissing(f"replacement binder {on} lacks a type")
            try:
                sty, bty = split_arrow(ann, len(stack_items(s)))
            except ValueError as e:
                raise LMTypeError(str(e)) from None
            if nn not in denv:
                raise LMTypeError(f"no type for name {nn}")
            if denv[nn] != bty:
                raise LMTypeError(f"replacement name {nn} expects {denv[nn]}, concluded {bty}")
            db = _ref_check(b, genv, {**denv, on: ann})
            ds = _ref_check(s, genv, denv)
            if ds.judgment.type != sty:
                raise LMTypeError(
                    f"stack type mismatch on {on}: annotation wants {[str(a) for a in sty]}"
                )
            d = dict(db.judgment.delta)
            d.pop(on, None)
            d = _ref_merge("repl", d, dict(ds.judgment.delta), {nn: bty})
            g = _ref_merge("repl", dict(db.judgment.gamma), dict(ds.judgment.gamma))
            return Derivation("repl", Judgment(_ref_trim(g), _ref_trim(d), o, None), [db, ds])
        case EmptyStack():
            return Derivation("st_h", Judgment((), (), o, ()))
        case Push(h, tl):
            dh = _ref_check(h, genv, denv)
            dt = _ref_check(tl, genv, denv)
            g = _ref_merge("st_t", dict(dh.judgment.gamma), dict(dt.judgment.gamma))
            d = _ref_merge("st_t", dict(dh.judgment.delta), dict(dt.judgment.delta))
            sty = (dh.judgment.type,) + dt.judgment.type
            return Derivation("st_t", Judgment(_ref_trim(g), _ref_trim(d), o, sty), [dh, dt])
    raise TypeError(o)


def _retyped(env, k):
    """env with its k-th entry (cyclically, in sorted order) given another
    type."""
    key = sorted(env)[k % len(env)]
    a = env[key]
    other = {Base("A"): Base("B"), Base("B"): Base("A")}.get(a, Arrow(a, Base("A")))
    return {**env, key: other}


def _typing_corpus():
    """(object, gamma, delta): gen_typed draws as drawn, with one entry
    retyped, and with a root replacement's new name left out, the sources
    and reducts of typed steps, and typed axiom pairs."""
    for seed in range(1500):
        o, g, d = gen_typed(seed, size=14)
        yield o, g, d
        if g and (seed % 2 or not d):
            yield o, _retyped(g, seed), d
        elif d:
            yield o, g, _retyped(d, seed)
        if isinstance(o, ERepl):
            yield o, g, {a: ty for a, ty in d.items() if a != o.new}
    for _, o, o2, g, d in typed_step_cases(99, 400):
        yield o, g, d
        yield o2, g, d
    for axiom in ("exs", "exr", "lin", "pp", "rho", "theta", "ren"):
        pairs = TypedPairs(17)
        for _ in range(30):
            lhs, rhs, g, d = pairs.build(axiom)
            yield lhs, g, d
            yield rhs, g, d


def _outcome(check, o, g, d):
    try:
        return check(o, g, d).render()
    except LMTypeError as e:
        return f"{type(e).__name__}: {e}"


def test_check_object_matches_the_merging_reference():
    errors = 0
    for o, g, d in _typing_corpus():
        got = _outcome(check_object, o, g, d)
        assert got == _outcome(ref_check_object, o, g, d), (o, g, d)
        errors += not got.startswith("[")
    # the corpus reaches the error paths too
    assert errors > 500


def _typed_steps_and_pairs():
    """(object, gamma, delta): the sources and reducts of typed steps, and
    typed axiom pairs; each of them types."""
    for _, o, o2, g, d in typed_step_cases(99, 330):
        yield o, g, d
        yield o2, g, d
    pairs = TypedPairs(17)
    for axiom in ("exs", "exr", "lin", "pp", "rho", "theta", "ren"):
        for _ in range(10):
            lhs, rhs, g, d = pairs.build(axiom)
            yield lhs, g, d
            yield rhs, g, d


def _judgments(der):
    yield der.judgment
    for ch in der.children:
        yield from _judgments(ch)


def test_contexts_cut_on_first_read_match_the_eager_reference():
    # each context is read first in another order: gamma then delta, delta
    # then gamma, the root only, or through equality
    nodes = 0
    for k, (o, g, d) in enumerate(_typed_steps_and_pairs()):
        der, want = check_object(o, g, d), ref_check_object(o, g, d)
        got_js, want_js = list(_judgments(der)), list(_judgments(want))
        match k % 4:
            case 0:
                assert [(j.gamma, j.delta) for j in got_js] == [(j.gamma, j.delta) for j in want_js]
            case 1:
                assert [(j.delta, j.gamma) for j in got_js] == [(j.delta, j.gamma) for j in want_js]
            case 2:
                assert der.judgment.delta == want.judgment.delta
        assert der == want and got_js == want_js
        assert der.render() == want.render() and relevance_check(der)
        assert [hash(j) for j in got_js] == [hash(j) for j in want_js]
        nodes += len(got_js)
    assert nodes > 8000


def test_a_change_to_the_callers_environments_alters_no_context():
    # the environments change after checking and before any context is
    # read: every entry retyped, then every entry dropped
    changed = 0
    for o, g, d in _typed_steps_and_pairs():
        want = ref_check_object(o, g, d)
        for change in ("retype", "drop"):
            g2, d2 = dict(g), dict(d)
            der = check_object(o, g2, d2)
            if change == "retype":
                g2.update((x, Arrow(a, a)) for x, a in g.items())
                d2.update((x, Arrow(a, a)) for x, a in d.items())
            else:
                g2.clear()
                d2.clear()
            assert der == want, (print_object(o), change)
        changed += bool(g or d)
    assert changed > 700


def test_a_replacement_takes_its_new_name_from_the_environment():
    # every free name comes from the environment, a replacement's new name
    # too: left out, it fails at the replacement itself and above it
    repl = "(['a]x)['b/'a:iA\\#]"
    gamma, delta = {"x": Base("A")}, {"'b": Base("A")}
    for text in (repl, f"mu 'g:iA. {repl}"):
        with pytest.raises(LMTypeError, match="^no type for name 'b$"):
            check_object(t(text), gamma)
        d = check_object(t(text), gamma, delta)
        assert dict(d.judgment.delta) == delta and relevance_check(d)
    # two replacements that disagree on the type of 'b
    two = "(mu 'g:iA->iA. (['a]y)['b/'a:iA\\#]) (mu 'h:iA. (['c]z)['b/'c:iB\\#])"
    gamma = {"y": Base("A"), "z": Base("B")}
    with pytest.raises(LMTypeError, match="^no type for name 'b$"):
        check_object(t(two), gamma)
    with pytest.raises(LMTypeError, match="^replacement name 'b expects iA, concluded iB$"):
        check_object(t(two), gamma, delta)
