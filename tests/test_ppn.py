import random
import sys
import zlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from lmtool.drivers import TypedPairs, typed_step_cases
from lmtool.equivalence import AXIOMS, REN_AXIOM, _stack_inert
from lmtool.generators import _TypedGen, gen_typed
from lmtool.meta import apply_stack, rename, stack_len
from lmtool.reduction import CANON, canon, is_canonical
from lmtool.ppn import (
    canonical,
    dual,
    full_nf,
    mult_nf,
    net_equiv,
    simulation_check,
    soundness_check,
    struct_canon,
    trans_type,
    translate_derivation,
    translate_stack_derivation,
)
from lmtool.ppn.formulas import NWhy, OIota, OPar, PBang, QIota, QTen, input_of, neg_o, neg_q
from lmtool.ppn.net import Net, Node
from lmtool.ppn.rewrite import MULT, _cut_rule, _redexes, add_tree, fire, tensor_tree
from lmtool.syntax import (
    Abs, App, Arrow, Base, EmptyStack, ERepl, ESub, Mu, Named, Push, Var, parse, parse_type,
    print_object,
)
from lmtool.typing import check_object
from lmtool.typing_util import fold_stack_type, split_arrow


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


def _random_type(rng, d):
    if d == 0 or rng.random() < 0.4:
        return Base(rng.choice("ab"))
    return Arrow(_random_type(rng, d - 1), _random_type(rng, d - 1))


def test_negation_involutive_random():
    rng = random.Random(4)
    for _ in range(200):
        f = trans_type(_random_type(rng, 3))
        assert dual(dual(f)) == f


def _ref_formula(a):
    """Girard's translation of a, built with the formula classes alone."""
    match a:
        case Base(n):
            return OIota(n)
        case Arrow(l, r):
            return OPar(_ref_neg(_ref_formula(l)), _ref_formula(r))


def _ref_neg(f):
    """The dual of f, built with the formula classes alone."""
    match f:
        case OIota(n):
            return QIota(n)
        case QIota(n):
            return OIota(n)
        case OPar(q, o):
            return QTen(_ref_neg(q), _ref_neg(o))
        case QTen(o, q):
            return OPar(_ref_neg(o), _ref_neg(q))
        case NWhy(q):
            return PBang(_ref_neg(q))
        case PBang(o):
            return NWhy(_ref_neg(o))


def _ref_str(f):
    """The printed form of f, printed recursively."""
    match f:
        case OIota(n):
            return n
        case QIota(n):
            return f"{n}^"
        case OPar(q, o):
            return f"(?{_ref_str(q)} # {_ref_str(o)})"
        case QTen(o, q):
            return f"(!{_ref_str(o)} * {_ref_str(q)})"
        case NWhy(q):
            return f"?{_ref_str(q)}"
        case PBang(o):
            return f"!{_ref_str(o)}"


def _fields(f):
    return [getattr(f, name) for name in f.__match_args__]


def _ref_key(f):
    """The structure of f as nested tuples."""
    return (type(f).__name__, *(x if isinstance(x, str) else _ref_key(x) for x in _fields(f)))


def _subformulas(f):
    yield f
    for x in _fields(f):
        if not isinstance(x, str):
            yield from _subformulas(x)


def test_one_structure_is_one_formula_however_it_is_built():
    rng = random.Random(5)
    by_key = {}
    for _ in range(300):
        a = _random_type(rng, 4)
        f, i = trans_type(a), input_of(a)
        assert f is _ref_formula(a)
        assert dual(f) is neg_o(f) is _ref_neg(f) and neg_q(dual(f)) is f
        assert i is NWhy(_ref_neg(f)) and dual(i) is PBang(f) is _ref_neg(i)
        for g in (f, i, dual(f), dual(i)):
            for sub in _subformulas(g):
                assert by_key.setdefault(_ref_key(sub), sub) is sub
                assert str(sub) == _ref_str(sub)
    # distinct structures are distinct objects, compared and hashed by identity
    assert len({id(f) for f in by_key.values()}) == len(by_key) > 200
    for cls in (OIota, OPar, QIota, QTen, NWhy, PBang):
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__


def test_stacktype_translation_folds():
    a, b = Base("a"), Base("b")
    assert trans_type(fold_stack_type((), b)) == trans_type(b)
    assert trans_type(fold_stack_type((a,), b)) == OPar(QIota("a"), OIota("b"))


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
    d = check_object(parse("#", sort="stack"))
    n = translate_stack_derivation(d, Base("C"))
    n.validate()
    assert sorted(node.kind for node in n.nodes.values()) == ["ax"]


def _count_cuts(net):
    return sum(len(level.cuts()) for level in net.all_nets())


def test_callcc_net():
    cc = t(r"\x:(iA->iB)->iA. mu 'a:iA. ['a]x (\y:iA. mu 'd:iB. ['a]y)")
    n = translate_derivation(check_object(cc))
    n.validate()
    # one cut, from the single application clause
    assert _count_cuts(n) == 1
    m = mult_nf(n)
    m.validate()
    assert _count_cuts(m) == 0


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
    net.conclusions.append((ax.downs[1], ("dist",)))
    return net


def test_ax_cut_fuses_to_wire():
    net = _axiom_cut_net()
    net.validate()
    m = mult_nf(net)
    m.validate()
    assert _count_cuts(m) == 0
    assert sorted(n.kind for n in m.nodes.values()) == ["w"]


def test_validate_rejects_a_dangling_wire():
    net = Net()
    f = trans_type(Base("A"))
    ax = net.add("ax", [], [neg_o(f), f])
    net.conclusions.append((ax.downs[1], ("dist",)))
    # ax.downs[0] has no consumer and is no conclusion
    with pytest.raises(AssertionError, match=f"wire {ax.downs[0]} consumers None"):
        net.validate()
    net.conclusions.append((ax.downs[0], ("var", "x")))
    net.validate()


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
    assert _count_cuts(m) == 1  # the dereliction against the box remains
    f = full_nf(m)
    assert _count_cuts(f) == 0


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
            net.conclusions.append((ax.downs[0], ("name", f"'q{i}")))
        ws = [ax.downs[1] for ax in axs]
        if order == "left":
            c1 = net.add("c", [ws[0], ws[1]], [f])
            c2 = net.add("c", [c1.downs[0], ws[2]], [f])
        else:
            c1 = net.add("c", [ws[1], ws[2]], [f])
            c2 = net.add("c", [ws[0], c1.downs[0]], [f])
        net.conclusions.append((c2.downs[0], ("name", "'out")))
        return net

    assert net_equiv(chain("left"), chain("right"))


def test_weakening_neutral_for_contraction():
    net = Net()
    f = trans_type(Base("A"))
    ax = net.add("ax", [], [neg_o(f), f])
    w = net.add("w", [], [f])
    c = net.add("c", [ax.downs[1], w.downs[0]], [f])
    net.conclusions.append((ax.downs[0], ("name", "'q")))
    net.conclusions.append((c.downs[0], ("name", "'out")))
    plain = Net()
    ax2 = plain.add("ax", [], [neg_o(f), f])
    plain.conclusions.append((ax2.downs[0], ("name", "'q")))
    plain.conclusions.append((ax2.downs[1], ("name", "'out")))
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
    from lmtool.equivalence import Axiom, apply_axiom

    pairs = TypedPairs(seed=zlib.crc32(axiom.encode()) % 10**6)
    for _ in range(3):
        lhs, rhs, g, d = pairs.build(axiom)
        # the right side comes from the engine: it is what the axiom's own
        # rewrite gives
        assert print_object(apply_axiom(lhs, Axiom(axiom, "LR", ()))) == print_object(rhs)
        assert soundness_check(lhs, rhs, g, d)


class RefTypedPairs(TypedPairs):
    """The builders with hand-written right sides: each draws its left side
    as TypedPairs does and writes out the axiom's left-to-right rewrite."""

    def build(self, axiom):
        for _ in range(100):
            self.gen = _TypedGen(self.rng)
            lhs, rhs, extra_d = getattr(self, "_ref_" + axiom)()
            g, d = self.envs()
            d.update(extra_d)
            if is_canonical(lhs) and is_canonical(rhs):
                return lhs, rhs, g, d
        raise RuntimeError(f"no canonical typed instance of {axiom}")

    def _ref_exs(self):
        a = self.gen.random_type(1)
        b = self.gen.random_type(1)
        x = self._n("tx")
        u = self._term(b, 2)
        shape = self.rng.randrange(3)
        if shape == 0:
            y, cty = self._n("ty"), self.gen.random_type(1)
            v = self._term(a, 2, sg={x: b, y: cty})
            return ESub(Abs(y, cty, v), x, u), Abs(y, cty, ESub(v, x, u)), {}
        if shape == 1:
            cty = self.gen.random_type(1)
            v = self._term(Arrow(cty, a), 2, sg={x: b})
            w = self._term(cty, 2)
            return ESub(App(v, w), x, u), App(ESub(v, x, u), w), {}
        an, bn = self._n("'ta"), self._n("'tb")
        tb = self.gen.random_type(1)
        self.gen.delta[bn] = tb
        v = self._term(tb, 2, sg={x: b})
        return ESub(Mu(an, a, Named(bn, v)), x, u), Mu(an, a, Named(bn, ESub(v, x, u))), {}

    def _ref_exr(self):
        bty = self.gen.random_type(1)
        stys = tuple(self.gen.random_type(1) for _ in range(self.rng.randrange(2)))
        tann = fold_stack_type(stys, bty)
        on, nn = self._n("'to"), self._n("'tn")
        z = self._n("tz")
        self.gen.gamma[z] = tann
        c0 = Named(on, Var(z))
        s = self._stack(stys)
        gn, dn = self._n("'tg"), self._n("'td")
        mty = self.gen.random_type(1)
        self.gen.delta[gn] = mty
        lhs = ERepl(Named(gn, Mu(dn, mty, c0)), nn, on, tann, s)
        rhs = Named(gn, Mu(dn, mty, ERepl(c0, nn, on, tann, s)))
        return lhs, rhs, {nn: bty}

    def _ref_lin(self):
        bty = self.gen.random_type(1)
        stys = tuple(self.gen.random_type(1) for _ in range(1 + self.rng.randrange(2)))
        tann = fold_stack_type(stys, bty)
        on, nn = self._n("'to"), self._n("'tn")
        u = self._term(tann, 3)
        while not _stack_inert(u):
            u = self._term(tann, 3)
        s = self._stack(stys)
        return ERepl(Named(on, u), nn, on, tann, s), Named(nn, canon(apply_stack(u, s))), {nn: bty}

    def _ref_pp(self):
        ax_t, bx_t = self.gen.random_type(1), self.gen.random_type(1)
        ta, tb = self.gen.random_type(1), self.gen.random_type(1)
        an, bn = self._n("'tA"), self._n("'tB")
        x, y = self._n("tx"), self._n("ty")
        a2, b2 = self._n("'ta"), self._n("'tb")
        c = self._command(3, sd={a2: ta, b2: tb})
        lhs = Named(an, Abs(x, ax_t, Mu(a2, ta, Named(bn, Abs(y, bx_t, Mu(b2, tb, c))))))
        rhs = Named(bn, Abs(y, bx_t, Mu(b2, tb, Named(an, Abs(x, ax_t, Mu(a2, ta, c))))))
        return lhs, rhs, {an: Arrow(ax_t, ta), bn: Arrow(bx_t, tb)}

    def _ref_rho(self):
        ty = self.gen.random_type(1)
        a, b = self._n("'ta"), self._n("'tb")
        c = self._command(3, sd={b: ty})
        return Named(a, Mu(b, ty, c)), ERepl(c, a, b, ty, EmptyStack()), {a: ty}

    def _ref_theta(self):
        ty = self.gen.random_type(1)
        a = self._n("'ta")
        body = self._term(ty, 3)
        return Mu(a, ty, Named(a, body)), body, {}

    def _ref_ren(self):
        ty = self.gen.random_type(1)
        a, b = self._n("'ta"), self._n("'tb")
        c = self._command(3, sd={b: ty})
        return ERepl(c, a, b, ty, EmptyStack()), rename(c, a, b), {a: ty}


@pytest.mark.parametrize("axiom", AXIOMS + (REN_AXIOM,))
def test_typed_pairs_match_the_hand_written_right_sides(axiom):
    # the seeds of the nets benchmark corpus, then criterion 8's
    axioms = AXIOMS + (REN_AXIOM,)
    seeds = [k * len(axioms) + axioms.index(axiom) for k in range(100)]
    seeds.append(zlib.crc32(axiom.encode()) % 10**6)
    for seed in seeds:
        pairs, ref = TypedPairs(seed), RefTypedPairs(seed)
        for _ in range(3):
            assert repr(pairs.build(axiom)) == repr(ref.build(axiom)), seed


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


# --- differential checks against the copy-and-rescan references ------------------
#
# The references below are the earlier, simpler forms of code that now avoids
# copies and rescans: translation that builds every clause into a fresh net
# and copies it into its parent, the count-then-find normalization loop, DOT
# export and wire lookups with a scan per wire, and the isomorphism test on
# string labels with colour refinement and linear lookups.


def _absorb(target, other):
    """Copy the contents of another net into target, box contents deep;
    returns the wire id map."""
    wmap = {}
    for w, f in other.wires.items():
        wmap[w] = target.new_wire(f)
    for n in other.nodes.values():
        n2 = Node(
            target._new_id(),
            n.kind,
            [wmap[w] for w in n.ups],
            [wmap[w] for w in n.downs],
            n.contents.copy() if n.contents is not None else None,
        )
        target.nodes[n2.nid] = n2
    return wmap


@dataclass
class _RefPiece:
    """A net under construction with its variable and name wires apart."""

    net: Net
    var_wires: dict = field(default_factory=dict)
    name_wires: dict = field(default_factory=dict)
    dist: int = None
    result: int = None

    def seal(self):
        out = []
        if self.dist is not None:
            out.append((self.dist, ("dist",)))
        for x in sorted(self.var_wires):
            out.append((self.var_wires[x], ("var", x)))
        for a in sorted(self.name_wires):
            out.append((self.name_wires[a], ("name", a)))
        if self.result is not None:
            out.append((self.result, ("result",)))
        self.net.conclusions = out
        return self.net


def _ref_boxed(net, piece):
    inner = piece.seal()
    downs = [PBang(inner.wires[inner.conclusions[0][0]])]
    for w, _ in inner.conclusions[1:]:
        downs.append(inner.wires[w])
    b = net.add("box", [], downs, contents=inner)
    out = _RefPiece(net)
    for (iw, anchor), ow in zip(inner.conclusions[1:], b.downs[1:]):
        if anchor[0] == "var":
            out.var_wires[anchor[1]] = ow
        elif anchor[0] == "name":
            out.name_wires[anchor[1]] = ow
    return b.downs[0], out


def _ref_merge_shared(net, a, b):
    out = _RefPiece(net, dict(a.var_wires), dict(a.name_wires), a.dist, a.result)
    for x, w2 in b.var_wires.items():
        if x in out.var_wires:
            w1 = out.var_wires[x]
            out.var_wires[x] = net.add("c", [w1, w2], [net.wires[w1]]).downs[0]
        else:
            out.var_wires[x] = w2
    for n, w2 in b.name_wires.items():
        if n in out.name_wires:
            w1 = out.name_wires[n]
            out.name_wires[n] = net.add("c", [w1, w2], [net.wires[w1]]).downs[0]
        else:
            out.name_wires[n] = w2
    if out.dist is None:
        out.dist = b.dist
    if out.result is None:
        out.result = b.result
    return out


def _ref_absorb(net, piece):
    wmap = _absorb(net, piece.net)
    return _RefPiece(
        net,
        {x: wmap[w] for x, w in piece.var_wires.items()},
        {a: wmap[w] for a, w in piece.name_wires.items()},
        wmap.get(piece.dist),
        wmap.get(piece.result),
    )


def _ref_go(d, result_type=None):
    o = d.judgment.subject
    net = Net()
    match o:
        case Var(x):
            a = d.judgment.type
            ax = net.add("ax", [], [neg_o(trans_type(a)), trans_type(a)])
            dn = net.add("d", [ax.downs[0]], [input_of(a)])
            return _RefPiece(net, {x: dn.downs[0]}, {}, ax.downs[1], None)
        case App(_, _):
            df, du = d.children
            pf = _ref_absorb(net, _ref_go(df))
            principal, doors = _ref_boxed(net, _ref_go(du))
            bty = d.judgment.type
            ax = net.add("ax", [], [neg_o(trans_type(bty)), trans_type(bty)])
            ten = net.add("tensor", [principal, ax.downs[0]], [dual(net.wires[pf.dist])])
            net.add("cut", [pf.dist, ten.downs[0]], [])
            merged = _ref_merge_shared(net, _RefPiece(net, pf.var_wires, pf.name_wires), doors)
            merged.dist = ax.downs[1]
            return merged
        case Abs(x, ann, _):
            pb = _ref_absorb(net, _ref_go(d.children[0]))
            if x in pb.var_wires:
                xw = pb.var_wires.pop(x)
            else:
                xw = net.add("w", [], [input_of(ann)]).downs[0]
            pb.dist = net.add("par", [xw, pb.dist], [trans_type(d.judgment.type)]).downs[0]
            return pb
        case Mu(a, ann, _):
            pb = _ref_absorb(net, _ref_go(d.children[0]))
            if a in pb.name_wires:
                pb.dist = pb.name_wires.pop(a)
            else:
                pb.dist = net.add("w", [], [trans_type(ann)]).downs[0]
            return pb
        case Named(a, _):
            pb = _ref_absorb(net, _ref_go(d.children[0]))
            if a in pb.name_wires:
                c = net.add("c", [pb.dist, pb.name_wires[a]], [net.wires[pb.dist]])
                pb.name_wires[a] = c.downs[0]
            else:
                pb.name_wires[a] = pb.dist
            pb.dist = None
            return pb
        case ESub(_, x, _):
            db, du = d.children
            pb = _ref_absorb(net, _ref_go(db))
            principal, doors = _ref_boxed(net, _ref_go(du))
            if x in pb.var_wires:
                xw = pb.var_wires.pop(x)
            else:
                xw = net.add("w", [], [input_of(du.judgment.type)]).downs[0]
            net.add("cut", [xw, principal], [])
            merged = _ref_merge_shared(net, _RefPiece(net, pb.var_wires, pb.name_wires), doors)
            merged.dist = pb.dist
            return merged
        case ERepl(_, nn, on, ann, s):
            db, ds = d.children
            pc = _ref_absorb(net, _ref_go(db))
            _, bty = split_arrow(ann, stack_len(s))
            ps = _ref_absorb(net, _ref_go(ds, bty))
            merged = _ref_merge_shared(
                net,
                _RefPiece(net, pc.var_wires, pc.name_wires),
                _RefPiece(net, ps.var_wires, ps.name_wires),
            )
            if on in merged.name_wires:
                ow = merged.name_wires.pop(on)
            else:
                ow = net.add("w", [], [trans_type(ann)]).downs[0]
            net.add("cut", [ow, ps.dist], [])
            res = ps.result
            if nn in merged.name_wires:
                res = net.add("c", [res, merged.name_wires[nn]], [net.wires[res]]).downs[0]
            merged.name_wires[nn] = res
            merged.dist = merged.result = None
            return merged
        case EmptyStack():
            of = trans_type(result_type)
            ax = net.add("ax", [], [neg_o(of), of])
            return _RefPiece(net, {}, {}, ax.downs[0], ax.downs[1])
        case Push(_, _):
            dh, dt = d.children
            principal, doors = _ref_boxed(net, _ref_go(dh))
            pt = _ref_absorb(net, _ref_go(dt, result_type))
            root_f = trans_type(result_type)
            for a in reversed(d.judgment.type):
                root_f = OPar(neg_o(trans_type(a)), root_f)
            root_f = neg_o(root_f)
            ten = net.add("tensor", [principal, pt.dist], [root_f])
            merged = _ref_merge_shared(net, doors, _RefPiece(net, pt.var_wires, pt.name_wires))
            merged.dist = ten.downs[0]
            merged.result = pt.result
            return merged
    raise TypeError(o)


def _shape(net):
    """The net up to wire renaming: nodes in id order with their kinds,
    formulas and box contents, wires numbered by their producer."""
    order = [net.nodes[nid] for nid in sorted(net.nodes)]
    num = {w: len(order) + i for i, w in enumerate(w for n in order for w in n.downs)}
    nodes = [
        (
            n.kind,
            [num[w] for w in n.ups],
            [(num[w], net.wires[w]) for w in n.downs],
            _shape(n.contents) if n.contents is not None else None,
        )
        for n in order
    ]
    return nodes, [(num[w], a) for w, a in net.conclusions]


def _dump(net):
    """The net with its ids, recursively."""
    return (
        {
            nid: (n.kind, list(n.ups), list(n.downs),
                  _dump(n.contents) if n.contents is not None else None)
            for nid, n in net.nodes.items()
        },
        dict(net.wires),
        list(net.conclusions),
        net._next,
    )


def _derivations(d, result_type=None):
    """Every sub-derivation of d, stacks with their result types."""
    yield d, result_type
    o = d.judgment.subject
    if isinstance(o, ERepl):
        db, ds = d.children
        yield from _derivations(db)
        yield from _derivations(ds, split_arrow(o.ann, stack_len(o.stack))[1])
    elif isinstance(o, Push):
        dh, dt = d.children
        yield from _derivations(dh)
        yield from _derivations(dt, result_type)
    else:
        for ch in d.children:
            yield from _derivations(ch)


def _seeded_objects():
    """(object, gamma, delta): typed step sources and reducts, and both
    sides of typed axiom pairs."""
    out = []
    for _, o, o2, g, d in typed_step_cases(seed=404, count=40):
        out += [(o, g, d), (o2, g, d)]
    for j, axiom in enumerate(["exs", "exr", "lin", "pp", "rho", "theta", "ren"]):
        pairs = TypedPairs(seed=900 + j)
        for _ in range(3):
            lhs, rhs, g, d = pairs.build(axiom)
            out += [(lhs, g, d), (rhs, g, d)]
    return out


# a replacement whose stack's wires come in the order variable, name,
# variable: a merge that walked them in that order would add the name's
# contraction before the variable's
_INTERLEAVED = (
    t(r"(['c](f x y (mu 'k:iA. ['a]x)))['b/'r:iA->iA->iB\(mu 'm:iA. ['a]x) . y . #]"),
    {"f": parse_type("iA->iA->iA->iB"), "x": Base("A"), "y": Base("A")},
    {"'a": Base("A"), "'b": Base("B"), "'c": Base("B")},
)


def test_in_place_translation_matches_copying_translation():
    stacks = 0
    for o, g, d in _seeded_objects() + [_INTERLEAVED]:
        for sub, rt in _derivations(check_object(o, g, d)):
            if rt is None:
                got = translate_derivation(sub)
            else:
                got = translate_stack_derivation(sub, rt)
                stacks += 1
            got.validate()
            want = _ref_go(sub, rt).seal()
            assert _shape(got) == _shape(want), sub.judgment.render()
    assert stacks > 20


def _ref_cut_rule(net, cut):
    """The cut dispatch that looked a producer up once per question."""
    w0, w1 = cut.ups
    for i, w in enumerate((w0, w1)):
        n, _ = net.producer_of(w)
        if net.nodes[n].kind == "ax":
            return ("ax", i)
    k0 = net.nodes[net.producer_of(w0)[0]].kind
    k1 = net.nodes[net.producer_of(w1)[0]].kind
    if {k0, k1} == {"par", "tensor"}:
        return ("parten", 0 if k0 == "par" else 1)
    for i, w in enumerate((w0, w1)):
        n, port = net.producer_of(w)
        kind = net.nodes[n].kind
        if kind == "w":
            return ("wk", i)
        if kind == "d":
            return ("der", i)
        if kind == "c":
            return ("con", i)
        if kind == "box" and port > 0:
            return ("absorb", i)
    return None


def _ref_struct_canon(net):
    """The structural canonicalization loop with its rules unrolled."""
    out = net.copy()
    changed = True
    guard = 0
    while changed:
        guard += 1
        if guard > 10000:
            raise RuntimeError("structural canonicalization did not settle")
        changed = False
        for level in list(out.all_nets()):
            if canonical._flatten_contractions(level):
                changed = True
                break
            if canonical._cancel_weakenings(level):
                changed = True
                break
            if canonical._contractions_out_of_boxes(level):
                changed = True
                break
            if canonical._weakening_doors_into_contractions(level):
                changed = True
                break
        if not changed and canonical._prune_final_weakenings(out):
            changed = True
    return out


def test_rule_dispatch_matches_the_unrolled_references():
    # the rule of every cut and the structural canonical form of translated
    # nets and their multiplicative and full normal forms
    nets = []
    for _, o, o2, g, d in typed_step_cases(seed=99, count=300):
        nets += [translate_derivation(check_object(x, g, d)) for x in (o, o2)]
    for j, axiom in enumerate(AXIOMS + (REN_AXIOM,)):
        pairs = TypedPairs(seed=700 + j)
        for _ in range(4):
            lhs, rhs, g, d = pairs.build(axiom)
            nets += [translate_derivation(check_object(x, g, d)) for x in (lhs, rhs)]
    rules = Counter()
    for n in nets:
        for m in (n, mult_nf(n), full_nf(n)):
            for level in m.all_nets():
                for cut in level.cuts():
                    r = _cut_rule(level, cut)
                    assert r == _ref_cut_rule(level, cut)
                    rules[r] += 1
            assert struct_canon(m).to_dot() == _ref_struct_canon(m).to_dot()
    assert {r[0] for r in rules} == {"ax", "parten", "wk", "der", "con", "absorb"}, rules


def _ref_nf(net, mult_only, rng=None):
    """Count the redexes, stop at none, else fire the first (or a drawn) one."""
    def applicable(level, cut):
        r = _cut_rule(level, cut)
        return r is not None and (not mult_only or r[0] in MULT)

    out = net.copy()
    while True:
        total = sum(applicable(lv, c) for lv in out.all_nets() for c in lv.cuts())
        if total == 0:
            return out
        skip = rng.randrange(total) if rng is not None else 0
        found = [
            (lv, c, *_cut_rule(lv, c))
            for lv in out.all_nets()
            for c in sorted(lv.cuts(), key=lambda n: n.nid)
            if applicable(lv, c)
        ]
        fire(*found[skip])


def test_single_scan_normalization_matches_count_then_find():
    # the public net functions leave their inputs as they are
    rewritten = 0
    for o, g, d in _seeded_objects()[::2]:
        n = translate_derivation(check_object(o, g, d))
        before = _dump(n)
        f = full_nf(n)
        assert _dump(f) == _dump(_ref_nf(n, False))
        assert _dump(mult_nf(n)) == _dump(_ref_nf(n, True))
        f8 = full_nf(n, rng=random.Random(8))
        assert _dump(f8) == _dump(_ref_nf(n, False, random.Random(8)))
        nfs = _dump(f), _dump(f8)
        rewritten += _dump(struct_canon(f)) != nfs[0]
        assert net_equiv(f, f8) and net_equiv(n, n)
        assert _dump(n) == before and (_dump(f), _dump(f8)) == nfs
    assert rewritten >= 10, rewritten


def _ref_add_tree(target, net, nodes):
    """The tree copy that add_tree replaced: a throwaway net holding the
    tree, absorbed into target (absorb copies the box contents)."""
    tree_wires = set()
    for nid in nodes:
        tree_wires.update(net.nodes[nid].ups)
        tree_wires.update(net.nodes[nid].downs)
    piece = Net()
    idmap = {w: piece.new_wire(net.wires[w]) for w in sorted(tree_wires)}
    for nid in nodes:
        n = net.nodes[nid]
        n2 = Node(piece._new_id(), n.kind, [idmap[w] for w in n.ups],
                  [idmap[w] for w in n.downs], n.contents)
        piece.nodes[n2.nid] = n2
    wmap = _absorb(target, piece)
    return {w: wmap[idmap[w]] for w in tree_wires}


def test_tree_copy_matches_the_absorbed_piece():
    # every tensor-tree that a contraction or door cut meets on the way to
    # the full normal form, copied into its own net and into a new one, and
    # every box whose contents a dereliction cut moves into its level
    compared = boxes = opened = 0
    for o, g, d in _seeded_objects():
        net = translate_derivation(check_object(o, g, d))
        while (found := next(_redexes(net), None)) is not None:
            level, cut, rule, side = found
            if rule == "der":
                k = next(i for i, lv in enumerate(net.all_nets()) if lv is level)
                bnid = level.producer_of(cut.ups[1 - side])[0]
                got, want = net.copy(), net.copy()
                got_level, want_level = list(got.all_nets())[k], list(want.all_nets())[k]
                inner = got_level.nodes[bnid].contents
                wmap = add_tree(got_level, inner, list(inner.nodes), copy_boxes=False)
                assert wmap == _absorb(want_level, want_level.nodes[bnid].contents)
                assert _dump(got_level) == _dump(want_level)
                opened += 1
            if rule in ("con", "absorb"):
                k = next(i for i, lv in enumerate(net.all_nets()) if lv is level)
                nodes, _ = tensor_tree(level, cut.ups[1 - side])
                for copy_boxes in (True, False):
                    got, want = net.copy(), net.copy()
                    got_level, want_level = list(got.all_nets())[k], list(want.all_nets())[k]
                    for into_level in (True, False):
                        got_t = got_level if into_level else Net()
                        want_t = want_level if into_level else Net()
                        wmap = add_tree(got_t, got_level, nodes, copy_boxes)
                        assert wmap == _ref_add_tree(want_t, want_level, nodes)
                        assert _dump(got_t) == _dump(want_t)
                        # the copies are the last nodes added, in tree order
                        added = list(got_t.nodes.values())[-len(nodes):]
                        for nid, new in zip(nodes, added):
                            old = got_level.nodes[nid]
                            if old.contents is not None:
                                assert (new.contents is old.contents) == (not copy_boxes)
                                boxes += 1
                compared += 1
            fire(*found)
    assert compared >= 10 and boxes >= 50 and opened >= 10


def test_copy_is_deep_and_keeps_ids():
    o = t(r"(\x:iA. f x x) (g y)")
    env = {"f": parse_type("iA->iA->iB"), "g": parse_type("iC->iA"), "y": Base("C")}
    n = translate_derivation(check_object(o, env))
    before = _dump(n)
    c = n.copy()
    assert _dump(c) == before
    c.validate()
    box = c.boxes()[-1]  # the box of g y, which holds the box of y
    inner = box.contents
    assert inner.boxes()
    for node in list(c.all_nets()):
        for m in node.nodes.values():
            m.ups.append(-1)
            m.downs.append(-2)
    inner.nodes.pop(next(iter(inner.nodes)))
    inner.conclusions.append((-3, ("dist",)))
    c.wires[next(iter(c.wires))] = OIota("Z")
    c.conclusions.pop()
    c.nodes.pop(box.nid)
    c.new_wire(OIota("Z"))
    assert _dump(n) == before
    n.validate()


def _ref_flatten(net):
    nodes, edges = {}, []

    def label(level, nid, pidx, w):
        n = level.nodes[nid]
        if n.kind in ("tensor", "par", "d", "ax"):
            return (str(level.wires[w]), (n.kind, pidx))
        return (str(level.wires[w]), ("boxd",) if n.kind == "box" else (n.kind + "d",))

    def src(level, nid, pidx, prefix):
        if level.nodes[nid].kind == "box":
            return f"{prefix}n{nid}door{pidx}"
        return f"{prefix}n{nid}"

    def visit(level, depth, prefix):
        for nid, n in level.nodes.items():
            nodes[f"{prefix}n{nid}"] = ("node", n.kind, depth, len(n.ups))
            if n.kind == "box":
                for i in range(len(n.downs)):
                    nodes[f"{prefix}n{nid}door{i}"] = ("door", i == 0, depth)
                    edges.append((f"{prefix}n{nid}door{i}", f"{prefix}n{nid}", ("door-of", i == 0)))
                visit(n.contents, depth + 1, f"{prefix}n{nid}b")
                for i, (iw, _) in enumerate(n.contents.conclusions):
                    ip, iport = n.contents.producer_of(iw)
                    edges.append((
                        src(n.contents, ip, iport, f"{prefix}n{nid}b"),
                        f"{prefix}n{nid}door{i}",
                        label(n.contents, ip, iport, iw),
                    ))
        for nid, n in level.nodes.items():
            for pidx, w in enumerate(n.downs):
                cons = level.consumer_of(w)
                if cons is not None:
                    cn, cport = cons
                    kind = level.nodes[cn].kind
                    tag = (kind + "u", cport) if kind in ("tensor", "par", "d") else (kind + "u",)
                    edges.append((src(level, nid, pidx, prefix), f"{prefix}n{cn}",
                                  label(level, nid, pidx, w) + (tag,)))
                elif depth == 0 and level.conclusion_anchor(w) is not None:
                    nodes[f"{prefix}conc{w}"] = ("conc", level.conclusion_anchor(w), depth)
                    edges.append((src(level, nid, pidx, prefix), f"{prefix}conc{w}",
                                  label(level, nid, pidx, w) + ("conc",)))

    visit(net, 0, "")
    return nodes, edges


def _ref_refine(nodes, edges, rounds=4):
    colors = {g: hash(c) for g, c in nodes.items()}
    adj = {g: [] for g in nodes}
    for a, b, lbl in edges:
        adj[a].append(("out", lbl, b))
        adj[b].append(("inc", lbl, a))
    for _ in range(rounds):
        colors = {
            g: hash((colors[g], tuple(sorted((dr, lbl, colors[o]) for dr, lbl, o in adj[g]))))
            for g in nodes
        }
    return colors


def _ref_isomorphic(nodes1, edges1, nodes2, edges2):
    if len(nodes1) != len(nodes2) or len(edges1) != len(edges2):
        return False
    c1, c2 = _ref_refine(nodes1, edges1), _ref_refine(nodes2, edges2)
    if Counter(c1.values()) != Counter(c2.values()):
        return False
    if Counter(nodes1.values()) != Counter(nodes2.values()):
        return False
    adj1 = {g: [] for g in nodes1}
    for a, b, lbl in edges1:
        adj1[a].append(("out", lbl, b))
        adj1[b].append(("inc", lbl, a))
    adj2 = {g: [] for g in nodes2}
    for a, b, lbl in edges2:
        adj2[a].append(("out", lbl, b))
        adj2[b].append(("inc", lbl, a))
    order = sorted(nodes1, key=lambda g: (sum(1 for h in nodes1 if c1[h] == c1[g]), g))
    mapping, used = {}, set()

    def solve(i):
        if i == len(order):
            return True
        g1 = order[i]
        for g2 in nodes2:
            if g2 in used or c1[g1] != c2[g2] or nodes1[g1] != nodes2[g2]:
                continue
            want = sorted((dr, lbl, mapping[o]) for dr, lbl, o in adj1[g1] if o in mapping)
            have = sorted((dr, lbl, o) for dr, lbl, o in adj2[g2] if o in used)
            if want == have:
                mapping[g1] = g2
                used.add(g2)
                if solve(i + 1):
                    return True
                del mapping[g1]
                used.remove(g2)
        return False

    return solve(0)


def _swap_var_anchors(net):
    """The net with the anchors of two same-formula variable conclusions
    exchanged, or None when it has no such pair."""
    by_formula = {}
    for i, (w, a) in enumerate(net.conclusions):
        if a[0] == "var":
            by_formula.setdefault(net.wires[w], []).append(i)
    for idx in by_formula.values():
        if len(idx) >= 2:
            out = net.copy()
            (w0, a0), (w1, a1) = out.conclusions[idx[0]], out.conclusions[idx[1]]
            out.conclusions[idx[0]], out.conclusions[idx[1]] = (w0, a1), (w1, a0)
            return out
    return None


def _ref_dot_body(net, lines, prefix):
    """Net._dot_body with a linear consumer and anchor scan per wire."""
    labels = {
        "ax": "ax", "cut": "cut", "w": "w", "c": "c",
        "tensor": "(*)", "par": "(#)", "d": "d", "box": "!",
    }
    for nid in sorted(net.nodes):
        n = net.nodes[nid]
        if n.kind == "box":
            lines.append(f"  subgraph cluster_{prefix}_{nid} {{")
            lines.append("    style=dashed;")
            _ref_dot_body(n.contents, lines, f"{prefix}_{nid}")
            lines.append(f"    {prefix}_{nid} [label=\"!\", shape=box];")
            lines.append("  }")
        else:
            lines.append(f"  {prefix}_{nid} [label=\"{labels[n.kind]}\", shape=circle];")
    for nid in sorted(net.nodes):
        for w in net.nodes[nid].downs:
            c = net.consumer_of(w)
            lbl = str(net.wires[w]).replace('"', "'")
            if c is not None:
                lines.append(f"  {prefix}_{nid} -> {prefix}_{c[0]} [label=\"{lbl}\"];")
            else:
                a = net.conclusion_anchor(w)
                name = ":".join(str(x) for x in (a or ("loose",)))
                cid = f"{prefix}_conc_{w}"
                lines.append(f"  {cid} [label=\"{name}\", shape=plaintext];")
                lines.append(f"  {prefix}_{nid} -> {cid} [label=\"{lbl}\"];")


def _ref_port(level, wire, side):
    """The first (node, port) of the level whose ups or downs hold wire."""
    for n in level.nodes.values():
        for i, w in enumerate(getattr(n, side)):
            if w == wire:
                return n.nid, i
    return None


def test_dot_and_wire_lookups_match_the_per_wire_scans():
    nets = 0
    for o, g, d in _seeded_objects()[::3]:
        n = translate_derivation(check_object(o, g, d))
        for m in (n, mult_nf(n), full_nf(n), struct_canon(full_nf(n))):
            lines = ["digraph net {", "  rankdir=TB;"]
            _ref_dot_body(m, lines, "n")
            assert m.to_dot() == "\n".join(lines + ["}"])
            for level in m.all_nets():
                for w in list(level.wires) + [-1]:
                    assert level.consumer_of(w) == _ref_port(level, w, "ups")
                    producer = _ref_port(level, w, "downs")
                    if producer is not None:
                        assert level.producer_of(w) == producer
                    else:
                        with pytest.raises(KeyError):
                            level.producer_of(w)
            nets += 1
    assert nets >= 40


def _reinserted(net, rng):
    """The net with the nodes of every level inserted in a shuffled order."""
    out = net.copy()
    for level in out.all_nets():
        items = list(level.nodes.items())
        rng.shuffle(items)
        level.nodes = dict(items)
    return out


def _shuffled(net, rng):
    """The net with the nodes of every level, and its conclusions, listed in
    a shuffled order: the same net, but its graph numbers the nodes
    differently."""
    out = _reinserted(net, rng)
    rng.shuffle(out.conclusions)
    return out


def _ref_graph(colours, edges):
    """An int graph in the form the string-label reference takes."""
    return dict(enumerate(colours)), edges


def _dict_order_graph(net):
    """The int graph that _flatten built when it numbered the nodes in the
    order of the node dicts: _ref_flatten's graph, its names numbered in
    their order."""
    nodes, edges = _ref_flatten(net)
    ids = {name: i for i, name in enumerate(nodes)}
    return list(nodes.values()), [(ids[a], ids[b], lbl) for a, b, lbl in edges]


def _walk_ids(net):
    """The int id of each of _ref_flatten's node names under the numbering
    that canonical._walk defines: each level's nodes in walk order, a box
    followed by its doors and then by its contents, and the top-level
    conclusions last, in the walk order of their producers."""
    ids = {}

    def visit(level, prefix):
        order, _ = canonical._walk(level)
        for n in order:
            ids[f"{prefix}n{n.nid}"] = len(ids)
            if n.kind == "box":
                for i in range(len(n.downs)):
                    ids[f"{prefix}n{n.nid}door{i}"] = len(ids)
                visit(n.contents, f"{prefix}n{n.nid}b")
        return order

    anchored = dict(net.conclusions)
    for n in visit(net, ""):
        for w in n.downs:
            if w in anchored and net.consumer_of(w) is None:
                ids[f"conc{w}"] = len(ids)
    return ids


def test_isomorphism_matches_the_string_label_reference():
    by_type = {}
    pairs = []
    for o, g, d in _seeded_objects():
        der = check_object(o, g, d)
        n = struct_canon(mult_nf(translate_derivation(der)))
        by_type.setdefault(str(der.judgment.type), []).append(n)
        pairs.append((n, n.copy()))
        swapped = _swap_var_anchors(n)
        if swapped is not None:
            pairs.append((n, swapped))
    for o, o2, g, d in [(c[1], c[2], c[3], c[4]) for c in typed_step_cases(seed=405, count=30)]:
        n1 = struct_canon(full_nf(translate_derivation(check_object(o, g, d))))
        n2 = struct_canon(full_nf(translate_derivation(check_object(o2, g, d))))
        pairs.append((n1, n2))
    for nets in by_type.values():
        pairs += list(zip(nets, nets[1:]))
    verdicts = Counter()
    for n1, n2 in pairs:
        f1, f2 = canonical._flatten(n1), canonical._flatten(n2)
        ref1, ref2 = _ref_flatten(n1), _ref_flatten(n2)
        for n, (colours, edges), (ref_nodes, ref_edges) in ((n1, f1, ref1), (n2, f2, ref2)):
            # the int ids number the reference's nodes in walk order
            ids = _walk_ids(n)
            assert sorted(ids) == sorted(ref_nodes) and list(ids.values()) == list(range(len(ids)))
            assert colours == [ref_nodes[name] for name in ids]
            assert Counter(edges) == Counter((ids[a], ids[b], lbl) for a, b, lbl in ref_edges)
        got = canonical._isomorphic(*f1, *f2)
        assert got == _ref_isomorphic(*ref1, *ref2)
        verdicts[got] += 1
    assert verdicts[True] > 50 and verdicts[False] > 20, verdicts


def test_isomorphism_matches_the_reference_on_normal_forms():
    # the nets that simulation_check and soundness_check compare, each
    # against the other side and against itself in a shuffled node order,
    # and against itself with two variable anchors swapped; with these
    # shuffles, the first candidate fails in one stalled pair
    rng = random.Random(23)
    sides = [(c[1], c[2], c[3], c[4]) for c in typed_step_cases(seed=420, count=25)]
    for j, axiom in enumerate(["exs", "exr", "lin", "pp", "rho", "theta", "ren"]):
        pairs = TypedPairs(seed=910 + j)
        sides += [pairs.build(axiom) for _ in range(3)]
    verdicts = Counter()
    for o, o2, g, d in sides:
        n1 = translate_derivation(check_object(o, g, d))
        n2 = translate_derivation(check_object(o2, g, d))
        for nf in (mult_nf, full_nf):
            s1, s2 = struct_canon(nf(n1)), struct_canon(nf(n2))
            swapped = _swap_var_anchors(s1)
            others = [_shuffled(s2, rng), _shuffled(s1, rng)]
            others += [] if swapped is None else [_shuffled(swapped, rng)]
            for other in others:
                f1, f2 = canonical._flatten(s1), canonical._flatten(other)
                got = canonical._isomorphic(*f1, *f2)
                assert got == _ref_isomorphic(*_ref_graph(*f1), *_ref_graph(*f2))
                verdicts[got] += 1
    assert verdicts[True] > 100 and verdicts[False] > 10, verdicts


# Small graphs, as (colours, edges) pairs with the expected verdict.  "R",
# "C" and "D" are unique colours, which the search maps first.
_SMALL_GRAPHS = {
    # one colour differs, so no bijection keeps the colours
    "joint_partition_pair": (
        (["p", "q", "s"], [(0, 1, "e"), (2, 0, "e")]),
        (["p", "r", "s"], [(0, 1, "e"), (2, 0, "e")]),
        False,
    ),
    # r's two k-edges stall propagation; on the left each x reaches both c
    # and d, on the right one of them twice: every node has the same edge
    # counts on both sides, so only the final check of the whole edge
    # multiset tells the graphs apart
    "stall_edges_differ": (
        (["R", "x", "x", "C", "D"],
         [(0, 1, "k"), (0, 2, "k"), (1, 3, "q"), (1, 4, "q"), (2, 3, "q"), (2, 4, "q")]),
        (["R", "x", "x", "C", "D"],
         [(0, 1, "k"), (0, 2, "k"), (1, 3, "q"), (1, 3, "q"), (2, 4, "q"), (2, 4, "q")]),
        False,
    ),
    # the first candidate for the first x, in node order, carries the wrong
    # loop: the search has to undo it and take the second
    "first_candidate_fails": (
        (["R", "x", "x"], [(0, 1, "k"), (0, 2, "k"), (1, 1, "m"), (2, 2, "p")]),
        (["R", "x", "x"], [(0, 1, "k"), (0, 2, "k"), (1, 1, "p"), (2, 2, "m")]),
        True,
    ),
    # no edge joins the two x to the unique node: the search branches on
    # the first unmapped node, and its first candidate points the wrong way
    "unanchored_component": (
        (["R", "x", "x"], [(0, 0, "a"), (1, 2, "b")]),
        (["R", "x", "x"], [(0, 0, "a"), (2, 1, "b")]),
        True,
    ),
}


@pytest.mark.parametrize("case", sorted(_SMALL_GRAPHS))
def test_isomorphism_decides_small_graphs(case):
    (colours1, edges1), (colours2, edges2), want = _SMALL_GRAPHS[case]
    assert canonical._isomorphic(colours1, edges1, colours2, edges2) == want
    assert canonical._isomorphic(colours2, edges2, colours1, edges1) == want
    ref1, ref2 = _ref_graph(colours1, edges1), _ref_graph(colours2, edges2)
    assert _ref_isomorphic(*ref1, *ref2) == want


def test_wide_contraction_into_different_contexts():
    # x feeds one contraction whose premises lead into the boxes of four
    # erased substitutions, each cut against a weakening: nothing anchored
    # tells those premises apart, so the search branches among them, and
    # only the box contents show which choice is right
    env = {
        "k": parse_type("iA->iA->iB"),
        "g": parse_type("iA->iA"),
        "h": parse_type("iA->iA"),
        "x": Base("A"),
    }
    text = r"\z:iA. (k z x)[w1\g x][w2\h x][w3\g (g x)][w4\h (g x)]"
    swapped = r"\z:iA. (k z x)[w1\g x][w2\h x][w3\g (g x)][w4\g (h x)]"
    nets = [
        struct_canon(mult_nf(translate_derivation(check_object(t(s), env))))
        for s in (text, swapped)
    ]
    wide = [
        len(n.ups) for level in nets[0].all_nets() for n in level.nodes.values() if n.kind == "c"
    ]
    assert max(wide) >= 4
    rng = random.Random(3)
    for other, want in [(nets[0], True), (nets[1], False)]:
        for n2 in [other] + [_shuffled(other, rng) for _ in range(4)]:
            f1, f2 = canonical._flatten(nets[0]), canonical._flatten(n2)
            assert canonical._isomorphic(*f1, *f2) == want
            assert _ref_isomorphic(*_ref_graph(*f1), *_ref_graph(*f2)) == want
            assert net_equiv(nets[0], n2) == want

# --- anchored numbering: equal flattenings before the search ------------------

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpora  # noqa: E402  (the perfbench corpus builders)


def _normal_form_pairs(seed):
    """The pairs of normal forms that the perfbench nets corpus of seed
    compares, each with whether its item is a known fault."""
    out = []
    for item in corpora.build_nets(seed):
        kind, tag, a, b, g, d = item.data
        n1, n2 = translate_derivation(check_object(a, g, d)), translate_derivation(check_object(b, g, d))
        fault = item.known_fault is not None
        if kind == "pair" or tag in CANON:
            out.append((mult_nf(n1), mult_nf(n2), fault))
        if kind == "step":
            out.append((full_nf(n1), full_nf(n2), fault))
    return out


@pytest.fixture(scope="module")
def corpus_pairs():
    return {seed: _normal_form_pairs(seed) for seed in (1, 7001)}


class _Printed:
    """A wire formula that prints by the recursive reference printer."""

    def __init__(self, f):
        self.f = f

    def __str__(self):
        return _ref_str(self.f)


def _reference_labels(net):
    """A copy of net whose wire formulas print by the recursive printer."""
    out = net.copy()
    for level in out.all_nets():
        level.wires = {w: _Printed(f) for w, f in level.wires.items()}
    return out


def test_flattening_and_dot_labels_match_the_recursive_printer(corpus_pairs):
    nets = 0
    for seed in (1, 7001):
        for n1, n2, _ in corpus_pairs[seed]:
            for net in (n1, n2):
                ref = _reference_labels(net)
                assert canonical._flatten(net) == canonical._flatten(ref)
                assert net.to_dot() == ref.to_dot()
                nets += 1
    assert nets > 2000


def test_net_equiv_matches_the_search_on_dict_order_flattenings(corpus_pairs):
    # net_equiv against the search alone on the flattening that numbered the
    # nodes in dict order: the perfbench nets corpora, typed steps, nets
    # compared with re-inserted and shuffled copies, and unrelated nets of
    # one type
    rng = random.Random(31)
    pairs = [(n1, n2) for seed in (1, 7001) for n1, n2, _ in corpus_pairs[seed]]
    faults = [(n1, n2) for seed in (1, 7001) for n1, n2, fault in corpus_pairs[seed] if fault]
    for _, o, o2, g, d in typed_step_cases(seed=431, count=60):
        n1, n2 = (translate_derivation(check_object(x, g, d)) for x in (o, o2))
        pairs.append((full_nf(n1), full_nf(n2)))
    by_type = {}
    for n1, n2 in pairs[::5]:
        pairs += [(n1, _reinserted(n2, rng)), (n1, _shuffled(n1, rng))]
    for n1, _ in pairs:
        by_type.setdefault(tuple(str(n1.wires[w]) for w, _ in n1.conclusions), []).append(n1)
    for nets in by_type.values():
        pairs += list(zip(nets, nets[1:]))
    verdicts = Counter()
    for n1, n2 in pairs:
        want = canonical._isomorphic(
            *_dict_order_graph(struct_canon(n1)), *_dict_order_graph(struct_canon(n2))
        )
        assert net_equiv(n1, n2) == want
        verdicts[want] += 1
    assert len(faults) == 14 and not any(net_equiv(n1, n2) for n1, n2 in faults)
    assert verdicts[True] > 2000 and verdicts[False] > 200, verdicts


def _walk_reaches_every_node(net):
    """Whether every level's nodes are joined by wires to the level's
    conclusions, so that the walk from them reaches all of them."""
    for level in net.all_nets():
        producer = {w: n for n in level.nodes.values() for w in n.downs}
        consumer = {w: n for n in level.nodes.values() for w in n.ups}
        todo = [producer[w] for w, _ in level.conclusions]
        seen = {n.nid for n in todo}
        while todo:
            n = todo.pop()
            for m in [producer[w] for w in n.ups] + [consumer[w] for w in n.downs if w in consumer]:
                if m.nid not in seen:
                    seen.add(m.nid)
                    todo.append(m)
        if len(seen) != len(level.nodes):
            return False
    return True


def _renumbered(net, rng):
    """The net with the nodes of every level inserted in a shuffled order,
    and its nodes and wires given other ids, drawn at random."""
    out = net.copy()
    for level in out.all_nets():
        nodes = list(level.nodes.values())
        rng.shuffle(nodes)
        ids = rng.sample(range(1, 10 * (len(nodes) + len(level.wires)) + 1), len(nodes) + len(level.wires))
        wmap = dict(zip(level.wires, ids[len(nodes):]))
        for n, nid in zip(nodes, ids):
            n.nid, n.ups, n.downs = nid, [wmap[w] for w in n.ups], [wmap[w] for w in n.downs]
        level.nodes = {n.nid: n for n in nodes}
        level.wires = {wmap[w]: f for w, f in level.wires.items()}
        level.conclusions = [(wmap[w], a) for w, a in level.conclusions]
        level._next = max(ids, default=0)
    return out


def test_anchored_flattening_ignores_node_insertion_order_and_ids(corpus_pairs):
    rng = random.Random(32)
    reached = unreached = 0
    for n1, n2, _ in corpus_pairs[1]:
        for net in (struct_canon(n1), struct_canon(n2)):
            if not _walk_reaches_every_node(net):
                unreached += 1
                continue
            flat = canonical._flatten(net)
            assert canonical._flatten(_reinserted(net, rng)) == flat
            other = _renumbered(net, rng)
            other.validate()
            assert canonical._flatten(other) == flat
            reached += 1
    assert reached > 900 and unreached > 0, (reached, unreached)


def test_equal_flattenings_settle_nearly_every_isomorphic_comparison(corpus_pairs):
    isomorphic = equal = 0
    for n1, n2, _ in corpus_pairs[7001]:
        f1, f2 = canonical._flatten(struct_canon(n1)), canonical._flatten(struct_canon(n2))
        if canonical._isomorphic(*f1, *f2):
            isomorphic += 1
            equal += f1 == f2
    assert isomorphic > 500 and equal >= 0.95 * isomorphic, (equal, isomorphic)
