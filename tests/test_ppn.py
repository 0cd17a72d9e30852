import random
import zlib
from collections import Counter

import pytest

from lmtool.drivers import TypedPairs, typed_step_cases
from lmtool.generators import gen_typed
from lmtool.meta import stack_len
from lmtool.ppn import (
    canonical,
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
    translate_stack_derivation,
)
from lmtool.ppn.formulas import OIota, OPar, QIota, QTen, input_of, neg_o
from lmtool.ppn.net import Net, Node
from lmtool.ppn.rewrite import MULT, _cut_rule, _redexes, add_tree, fire, tensor_tree
from lmtool.ppn.translate import Piece, _boxed, _merge_shared
from lmtool.syntax import (
    Abs, App, Arrow, Base, EmptyStack, ERepl, ESub, Mu, Named, Push, Var, parse, parse_type,
)
from lmtool.typing import check_object
from lmtool.typing_util import split_arrow


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


# --- differential checks against the copy-and-rescan references ------------------
#
# The references below are the earlier, simpler forms of code that now avoids
# copies and rescans: translation that builds every clause into a fresh net
# and copies it into its parent, the count-then-find normalization loop, and
# the isomorphism test on string labels with linear lookups.


def _ref_absorb(net, piece):
    wmap = net.absorb(piece.net)
    return Piece(
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
            return Piece(net, {x: dn.downs[0]}, {}, ax.downs[1], None)
        case App(_, _):
            df, du = d.children
            pf = _ref_absorb(net, _ref_go(df))
            principal, doors = _boxed(net, _ref_go(du))
            bty = d.judgment.type
            ax = net.add("ax", [], [neg_o(trans_type(bty)), trans_type(bty)])
            ten = net.add("tensor", [principal, ax.downs[0]], [dual(net.wires[pf.dist])])
            net.add("cut", [pf.dist, ten.downs[0]], [])
            merged = _merge_shared(net, Piece(net, pf.var_wires, pf.name_wires), doors)
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
            principal, doors = _boxed(net, _ref_go(du))
            if x in pb.var_wires:
                xw = pb.var_wires.pop(x)
            else:
                xw = net.add("w", [], [input_of(du.judgment.type)]).downs[0]
            net.add("cut", [xw, principal], [])
            merged = _merge_shared(net, Piece(net, pb.var_wires, pb.name_wires), doors)
            merged.dist = pb.dist
            return merged
        case ERepl(_, nn, on, ann, s):
            db, ds = d.children
            pc = _ref_absorb(net, _ref_go(db))
            _, bty = split_arrow(ann, stack_len(s))
            ps = _ref_absorb(net, _ref_go(ds, bty))
            merged = _merge_shared(
                net,
                Piece(net, pc.var_wires, pc.name_wires),
                Piece(net, ps.var_wires, ps.name_wires),
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
            return Piece(net, {}, {}, ax.downs[0], ax.downs[1])
        case Push(_, _):
            dh, dt = d.children
            principal, doors = _boxed(net, _ref_go(dh))
            pt = _ref_absorb(net, _ref_go(dt, result_type))
            root_f = neg_o(trans_stacktype(d.judgment.type, result_type))
            ten = net.add("tensor", [principal, pt.dist], [root_f])
            merged = _merge_shared(net, doors, Piece(net, pt.var_wires, pt.name_wires))
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


def test_in_place_translation_matches_copying_translation():
    stacks = 0
    for o, g, d in _seeded_objects():
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
        fire(out, *found[skip])


def test_single_scan_normalization_matches_count_then_find():
    for o, g, d in _seeded_objects()[::2]:
        n = translate_derivation(check_object(o, g, d))
        before = _dump(n)
        assert _dump(full_nf(n)) == _dump(_ref_nf(n, False))
        assert _dump(mult_nf(n)) == _dump(_ref_nf(n, True))
        assert _dump(full_nf(n, rng=random.Random(8))) == _dump(
            _ref_nf(n, False, random.Random(8))
        )
        assert _dump(n) == before


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
    wmap = target.absorb(piece)
    return {w: wmap[idmap[w]] for w in tree_wires}


def test_tree_copy_matches_the_absorbed_piece():
    # every tensor-tree that a contraction or door cut meets on the way to
    # the full normal form, copied into its own net and into a new one
    compared = boxes = 0
    for o, g, d in _seeded_objects():
        net = translate_derivation(check_object(o, g, d))
        while (found := next(_redexes(net), None)) is not None:
            level, cut, rule, side = found
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
            fire(net, *found)
    assert compared >= 10 and boxes >= 50


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


def _classes(colors):
    groups = {}
    for g, c in colors.items():
        groups.setdefault(c, set()).add(g)
    return sorted(sorted(s) for s in groups.values())


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
        assert f1 == _ref_flatten(n1) and f2 == _ref_flatten(n2)
        (nodes1, edges1), (nodes2, edges2) = f1, f2
        labels = {}
        adj1 = canonical._adjacency(nodes1, edges1, labels)
        adj2 = canonical._adjacency(nodes2, edges2, labels)
        c1, c2 = canonical._refine((nodes1, adj1), (nodes2, adj2))
        # one int for each edge label and direction, shared by both graphs
        assert len(labels) == 2 * len({lbl for _, _, lbl in edges1 + edges2})
        both = {("1", g): c for g, c in c1.items()} | {("2", g): c for g, c in c2.items()}
        ref1, ref2 = _ref_refine(nodes1, edges1), _ref_refine(nodes2, edges2)
        ref = {("1", g): c for g, c in ref1.items()} | {("2", g): c for g, c in ref2.items()}
        assert _classes(both) == _classes(ref)
        got = canonical._isomorphic(nodes1, edges1, nodes2, edges2)
        assert got == _ref_isomorphic(nodes1, edges1, nodes2, edges2)
        verdicts[got] += 1
    assert verdicts[True] > 50 and verdicts[False] > 20, verdicts


def test_refinement_stops_only_when_the_joint_partition_is_stable():
    # round 1 splits the class {a1, a2} that the two graphs share, while
    # neither graph gains a class; c1 and c2 split only in round 2
    nodes1 = {"a": "p", "b": "q", "c": "s"}
    nodes2 = {"a": "p", "b": "r", "c": "s"}
    edges = [("a", "b", "e"), ("c", "a", "e")]
    labels = {}
    adj1 = canonical._adjacency(nodes1, edges, labels)
    adj2 = canonical._adjacency(nodes2, edges, labels)
    c1, c2 = canonical._refine((nodes1, adj1), (nodes2, adj2))
    both = {("1", g): c for g, c in c1.items()} | {("2", g): c for g, c in c2.items()}
    ref1, ref2 = _ref_refine(nodes1, edges), _ref_refine(nodes2, edges)
    ref = {("1", g): c for g, c in ref1.items()} | {("2", g): c for g, c in ref2.items()}
    assert _classes(both) == _classes(ref)
    assert c1["c"] != c2["c"]
