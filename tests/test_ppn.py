import random
import zlib

import pytest

from lmtool.drivers import TypedPairs, typed_step_cases
from lmtool.generators import gen_typed
from lmtool.ppn import (
    dual,
    full_nf,
    mult_nf,
    net_equiv,
    simulation_check,
    soundness_check,
    struct_canon,
    trans_stacktype,
    trans_type,
    translate_derivation,
)
from lmtool.ppn.formulas import OIota, OPar, QIota, QTen, neg_o
from lmtool.ppn.net import Net
from lmtool.syntax import Arrow, Base, parse, parse_type
from lmtool.typing import check_object


def t(text):
    return parse(text, freshen=False)


# --- formulas ----------------------------------------------------------------


def test_trans_type_base():
    assert trans_type(Base("o")) == OIota("o")


def test_trans_type_arrow():
    # A -> B becomes ?(A*) par B*
    got = trans_type(parse_type("io->io"))
    assert got == OPar(QIota("o"), OIota("o"))


def test_trans_type_nested():
    # (i->i)->i: the negation of ?(i^) par i is !(i) (*) i^
    got = trans_type(parse_type("(io->io)->io"))
    assert got == OPar(QTen(OIota("o"), QIota("o")), OIota("o"))


def test_negation_involutive_random():
    rng = random.Random(4)

    def random_type(d):
        if d == 0 or rng.random() < 0.4:
            return Base(rng.choice("ab"))
        return Arrow(random_type(d - 1), random_type(d - 1))

    for _ in range(200):
        f = trans_type(random_type(3))
        assert dual(dual(f)) == f


def test_stacktype_translation_folds():
    a, b = Base("a"), Base("b")
    assert trans_stacktype((), b) == trans_type(b)
    assert trans_stacktype((a,), b) == trans_type(Arrow(a, b))


# --- translation -------------------------------------------------------------


def test_variable_net_shape():
    d = check_object(t("x"), {"x": Base("A")})
    n = translate_derivation(d)
    n.validate()
    kinds = sorted(node.kind for node in n.nodes.values())
    assert kinds == ["ax", "d"]
    anchors = sorted(a for _, a in n.conclusions)
    assert anchors == [("dist",), ("var", "x")]


def test_empty_stack_is_axiom():
    from lmtool.ppn.translate import translate_stack_derivation

    d = check_object(parse("#", sort="stack"))
    n = translate_stack_derivation(d, Base("C"))
    n.validate()
    assert sorted(node.kind for node in n.nodes.values()) == ["ax"]


def test_callcc_net():
    cc = t(r"\x:(iA->iB)->iA. mu 'a:iA. ['a]x (\y:iA. mu 'd:iB. ['a]y)")
    n = translate_derivation(check_object(cc))
    n.validate()
    # one cut, from the single application clause
    assert n.count_cuts() == 1
    m = mult_nf(n)
    m.validate()
    assert m.count_cuts() == 0


def test_translate_random_typed_validates():
    rng = random.Random(12)
    for _ in range(60):
        o, g, d = gen_typed(rng.randrange(10**9), size=12)
        n = translate_derivation(check_object(o, g, d))
        n.validate()


# --- multiplicative normalization ---------------------------------------------


def _axiom_cut_net():
    # w --- cut --- ax --- conclusion
    net = Net()
    f = trans_type(Base("A"))
    ax = net.add("ax", [], [neg_o(f), f])
    w = net.add("w", [], [f])
    net.add("cut", [w.downs[0], ax.downs[0]], [])
    net.conclude(ax.downs[1], ("dist",))
    return net


def test_ax_cut_fuses_to_wire():
    net = _axiom_cut_net()
    net.validate()
    m = mult_nf(net)
    m.validate()
    assert m.count_cuts() == 0
    assert sorted(n.kind for n in m.nodes.values()) == ["w"]


def test_par_tensor_cut_splits():
    # the identity applied to a variable wires the abstraction's par against
    # the application's tensor; its multiplicative normal form is the
    # remaining exponential cut of the dereliction against the argument box
    o = t(r"(\x:iA. x) z")
    n = translate_derivation(check_object(o, {"z": Base("A")}))
    kinds = sorted(nd.kind for level in n.all_nets() for nd in level.nodes.values())
    assert "par" in kinds and "tensor" in kinds
    m = mult_nf(n)
    m.validate()
    kinds = sorted(nd.kind for level in m.all_nets() for nd in level.nodes.values())
    assert "par" not in kinds and "tensor" not in kinds
    assert m.count_cuts() == 1  # the dereliction against the box remains
    f = full_nf(m)
    assert f.count_cuts() == 0


def test_mult_nf_cut_free_unchanged():
    d = check_object(t("x"), {"x": Base("A")})
    n = translate_derivation(d)
    m = mult_nf(n)
    assert net_equiv(n, m)


def test_mult_nf_strategy_independent():
    rng = random.Random(5)
    for _ in range(25):
        o, g, d = gen_typed(rng.randrange(10**9), size=11)
        n = translate_derivation(check_object(o, g, d))
        m1 = mult_nf(n, rng=random.Random(1))
        m2 = mult_nf(n, rng=random.Random(2))
        assert net_equiv(m1, m2)


def test_full_nf_strategy_independent():
    rng = random.Random(6)
    for _ in range(15):
        o, g, d = gen_typed(rng.randrange(10**9), size=10)
        n = translate_derivation(check_object(o, g, d))
        f1 = full_nf(n, rng=random.Random(3))
        f2 = full_nf(n, rng=random.Random(4))
        assert net_equiv(f1, f2)


# --- exponential rules through terms -------------------------------------------


def test_weakening_vs_box_by_erasing_term():
    # (\x:iA. y) z erases z's box: full nets of redex and reduct agree
    o = t(r"(\x:iA. y) z")
    g = {"y": Base("B"), "z": Base("A")}
    o2 = t("y")
    f1 = full_nf(translate_derivation(check_object(o, g)))
    f2 = full_nf(translate_derivation(check_object(o2, g)))
    assert net_equiv(f1, f2)
    anchors = sorted(a for _, a in struct_canon(f1).conclusions)
    assert anchors == [("dist",), ("var", "y")]


def test_dereliction_vs_box_by_linear_term():
    o = t(r"(\x:iA. x) z")
    g = {"z": Base("A")}
    f1 = full_nf(translate_derivation(check_object(o, g)))
    f2 = full_nf(translate_derivation(check_object(t("z"), g)))
    assert net_equiv(f1, f2)


def test_contraction_vs_box_by_duplicating_term():
    o = t(r"(\x:iA. w x x) z")
    g = {"w": parse_type("iA->iA->iB"), "z": Base("A")}
    o2 = t("w z z")
    f1 = full_nf(translate_derivation(check_object(o, g)))
    f2 = full_nf(translate_derivation(check_object(o2, g)))
    assert net_equiv(f1, f2)


# --- structural equivalence -----------------------------------------------------


def test_contraction_associativity():
    def chain(order):
        net = Net()
        f = trans_type(Base("A"))
        axs = [net.add("ax", [], [neg_o(f), f]) for _ in range(3)]
        for i, ax in enumerate(axs):
            net.conclude(ax.downs[0], ("name", f"'q{i}"))
        ws = [ax.downs[1] for ax in axs]
        if order == "left":
            c1 = net.add("c", [ws[0], ws[1]], [f])
            c2 = net.add("c", [c1.downs[0], ws[2]], [f])
        else:
            c1 = net.add("c", [ws[1], ws[2]], [f])
            c2 = net.add("c", [ws[0], c1.downs[0]], [f])
        net.conclude(c2.downs[0], ("name", "'out"))
        return net

    assert net_equiv(chain("left"), chain("right"))


def test_weakening_neutral_for_contraction():
    net = Net()
    f = trans_type(Base("A"))
    ax = net.add("ax", [], [neg_o(f), f])
    w = net.add("w", [], [f])
    c = net.add("c", [ax.downs[1], w.downs[0]], [f])
    net.conclude(ax.downs[0], ("name", "'q"))
    net.conclude(c.downs[0], ("name", "'out"))
    plain = Net()
    ax2 = plain.add("ax", [], [neg_o(f), f])
    plain.conclude(ax2.downs[0], ("name", "'q"))
    plain.conclude(ax2.downs[1], ("name", "'out"))
    assert net_equiv(net, plain)


def test_net_equiv_permuted_ids():
    o, g, d = gen_typed(99, size=10)
    n1 = translate_derivation(check_object(o, g, d))
    n2 = n1.copy()
    assert net_equiv(n1, n2)


def test_net_equiv_distinguishes():
    g = {"x": Base("A"), "y": Base("A")}
    n1 = translate_derivation(check_object(t("x"), g))
    n2 = translate_derivation(check_object(t("y"), g))
    assert not net_equiv(n1, n2)


# --- soundness and simulation ----------------------------------------------------


@pytest.mark.parametrize("axiom", ["exs", "exr", "lin", "pp", "rho", "theta", "ren"])
def test_axiom_soundness(axiom):
    pairs = TypedPairs(seed=zlib.crc32(axiom.encode()) % 10**6)
    for _ in range(3):
        lhs, rhs, g, d = pairs.build(axiom)
        assert soundness_check(lhs, rhs, g, d)


def test_simulation_random_steps():
    for tag, o, o2, g, d in typed_step_cases(seed=202, count=30):
        ok, diag = simulation_check(o, o2, g, d, tag)
        assert ok, (tag, diag)


def test_duplicating_replacement_exercises_tree_contraction():
    # a replacement with two occurrences of the bound name, one inside an
    # argument box, duplicates the stack tree on the net side
    from lmtool.drivers import TypedPairs, build_duplicating_step

    pairs = TypedPairs(31337)
    for _ in range(6):
        tag, lhs, rhs, g, d = build_duplicating_step(pairs)
        ok, diag = simulation_check(lhs, rhs, g, d, tag)
        assert ok, diag


def test_exp_step_fires_named_cut():
    from lmtool.ppn.rewrite import NoRuleError, exp_step

    o = t(r"x[x\y]")
    n = translate_derivation(check_object(o, {"y": Base("A")}))
    cuts = [c.nid for level in n.all_nets() for c in level.cuts()]
    assert len(cuts) == 1
    stepped = exp_step(n, cuts[0])
    stepped.validate()
    assert net_equiv(full_nf(stepped), full_nf(n))
    with pytest.raises(NoRuleError):
        exp_step(n, 10**9)


def test_parse_fuzz_never_crashes():
    import random

    from lmtool.syntax import ParseError, SortError, parse

    tokens = ["x", "'a", "(", ")", "[", "]", "\\", ".", "/", "#", "mu", ":"]
    rng = random.Random(17)
    for _ in range(800):
        s = " ".join(rng.choice(tokens) for _ in range(rng.randint(1, 10)))
        try:
            parse(s)
        except (ParseError, SortError):
            pass


def test_dot_export_deterministic():
    o, g, d = gen_typed(5, size=8)
    n = translate_derivation(check_object(o, g, d))
    assert n.to_dot() == n.to_dot()
    assert "digraph" in n.to_dot()
