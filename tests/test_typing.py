import random

import pytest

from lmtool.generators import gen_typed
from lmtool.reduction import RuleTag, lm_redexes
from lmtool.syntax import Arrow, Base, parse, parse_type
from lmtool.typing import (
    AnnotationMissing,
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
