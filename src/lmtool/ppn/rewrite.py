"""Cut elimination.

Multiplicative rules: an axiom against anything fuses wires; a par against
a tensor splits into two cuts.  Exponential rules erase, open, duplicate
or absorb boxes and tensor-trees (a tensor-tree is a box, an axiom, or a
tensor of a box and a tensor-tree; it is the translation image of a
stack and behaves like a box)."""

from __future__ import annotations

import random
from typing import Iterator, Optional

from .net import Net, Node

MULT = ("ax", "parten")


class NoRuleError(Exception):
    pass


class NetBudgetExhausted(Exception):
    pass


# ---------------------------------------------------------------------------
# Redex discovery


# the exponential rule of a cut whose negative side has this producer; a
# box counts through an auxiliary door only
_EXP_RULES = {"w": "wk", "d": "der", "c": "con", "box": "absorb"}


def _cut_rule(net: Net, cut: Node) -> Optional[tuple[str, int]]:
    """Which rule fires on this cut, read off the producers of its two
    wires; the int is the side whose producer picks the rule."""
    producers = [net.producer_of(w) for w in cut.ups]
    kinds = [net.nodes[n].kind for n, _ in producers]
    if "ax" in kinds:
        return ("ax", kinds.index("ax"))
    if set(kinds) == {"par", "tensor"}:
        return ("parten", kinds.index("par"))
    for i, (kind, (_, port)) in enumerate(zip(kinds, producers)):
        if kind in _EXP_RULES and (kind != "box" or port > 0):
            return (_EXP_RULES[kind], i)
    return None


def _redexes(net: Net, rules=None) -> Iterator[tuple[Net, Node, str, int]]:
    """The cuts with an applicable rule (one of rules, if given) in cut id
    order, this net before its box contents."""
    for level in net.all_nets():
        for cut in sorted(level.cuts(), key=lambda n: n.nid):
            r = _cut_rule(level, cut)
            if r is not None and (rules is None or r[0] in rules):
                yield level, cut, r[0], r[1]


# ---------------------------------------------------------------------------
# Tensor-trees


def tensor_tree(net: Net, root_wire: int) -> Optional[tuple[list[int], list[int]]]:
    """The tensor-tree rooted at root_wire: (node ids, interface wires).
    Interface wires are produced by tree nodes but point outside the tree
    (box auxiliary doors and the result wire of the final axiom)."""
    nodes: list[int] = []
    interface: list[int] = []

    def go(w: int) -> bool:
        nid, port = net.producer_of(w)
        n = net.nodes[nid]
        if n.kind == "box" and port == 0:
            nodes.append(nid)
            interface.extend(n.downs[1:])
            return True
        if n.kind == "ax":
            nodes.append(nid)
            other = n.downs[1 - port]
            interface.append(other)
            return True
        if n.kind == "tensor" and port == 0:
            nodes.append(nid)
            return go(n.ups[0]) and go(n.ups[1])
        return False

    if not go(root_wire):
        return None
    return nodes, interface


def add_tree(target: Net, net: Net, nodes: list[int], copy_boxes: bool) -> dict[int, int]:
    """Add a copy of the tree's wires, in id order, then of its nodes to
    target; returns the map from the tree's wires to the copies'.  Box
    contents are copied when copy_boxes, else shared with the originals,
    which the caller drops."""
    wmap = {}
    for w in sorted({w for nid in nodes for w in net.nodes[nid].downs}):
        wmap[w] = target.new_wire(net.wires[w])
    for nid in nodes:
        n = net.nodes[nid]
        contents = n.contents.copy() if copy_boxes and n.contents is not None else n.contents
        n2 = Node(target._new_id(), n.kind, [wmap[w] for w in n.ups],
                  [wmap[w] for w in n.downs], contents)
        target.nodes[n2.nid] = n2
    return wmap


def delete_tree(net: Net, nodes: list[int]) -> None:
    for nid in nodes:
        n = net.nodes[nid]
        for w in n.downs:
            net.drop_wire(w)
        net.drop_node(nid)
    # internal up-wires of deleted tensors were down-wires of other tree
    # nodes, already dropped


# ---------------------------------------------------------------------------
# The rules


# the rules that need a tensor-tree on the other side, with the name of
# their cut in the error raised when there is none
_TREE_RULES = {"wk": "weakening", "con": "contraction", "absorb": "door"}


def fire(level: Net, cut: Node, rule: str, side: int) -> None:
    w_this = cut.ups[side]
    w_other = cut.ups[1 - side]
    nid, port = level.producer_of(w_this)
    this = level.nodes[nid]
    if rule in _TREE_RULES:
        tree = tensor_tree(level, w_other)
        if tree is None:
            raise NoRuleError(f"{_TREE_RULES[rule]} cut against a non-tree")
        nodes, interface = tree
    match rule:
        case "ax":
            w_tail = this.downs[1 - port]
            if w_tail == w_other:
                raise NoRuleError("axiom cut on itself (cyclic net)")
            level.drop_node(cut.nid)
            level.drop_node(this.nid)
            level.drop_wire(w_this)
            # the other cut wire takes over the tail's consumer
            level.redirect_consumer(w_tail, w_other)
        case "parten":
            ten = level.nodes[level.producer_of(w_other)[0]]
            level.drop_node(cut.nid)
            level.add("cut", [this.ups[0], ten.ups[0]], [])
            level.add("cut", [this.ups[1], ten.ups[1]], [])
            level.drop_node(this.nid)
            level.drop_node(ten.nid)
            level.drop_wire(w_this)
            level.drop_wire(w_other)
        case "wk":
            level.drop_node(cut.nid)
            level.drop_node(this.nid)
            level.drop_wire(w_this)
            # replace every interface wire by a weakening before deleting,
            # preserving conclusion positions (they may be box doors)
            for w in interface:
                level.redirect_consumer(w, level.add("w", [], [level.wires[w]]).downs[0])
            delete_tree(level, nodes)
        case "der":
            bnid, bport = level.producer_of(w_other)
            box = level.nodes[bnid]
            if box.kind != "box" or bport != 0:
                raise NoRuleError("dereliction cut against a non-box")
            inner = box.contents
            wmap = add_tree(level, inner, list(inner.nodes), copy_boxes=False)
            level.drop_node(cut.nid)
            level.drop_node(this.nid)
            level.drop_node(box.nid)
            # principal: cut the dereliction premise against the contents'
            # distinguished conclusion
            level.add("cut", [this.ups[0], wmap[inner.conclusions[0][0]]], [])
            level.drop_wire(w_this)
            level.drop_wire(w_other)
            # auxiliary doors: the inner conclusion wire replaces the outer
            for (iw, _), ow in zip(inner.conclusions[1:], box.downs[1:]):
                level.redirect_consumer(ow, wmap[iw])
        case "con":
            k = len(this.ups)
            copies = [(w_other, interface)]
            for _ in range(k - 1):
                wmap = add_tree(level, level, nodes, copy_boxes=True)
                copies.append((wmap[w_other], [wmap[w] for w in interface]))
            level.drop_node(cut.nid)
            level.drop_wire(w_this)
            for prem, (root, _) in zip(this.ups, copies):
                level.add("cut", [prem, root], [])
            level.drop_node(this.nid)
            # contract the interface copies onto the original consumers
            for i, w in enumerate(interface):
                # the original wire w is the first premise; its old consumer
                # takes the contraction output before the premises go in
                nc = level.add("c", [], [level.wires[w]])
                level.move_consumer(w, nc.downs[0])
                nc.ups = [copies[j][1][i] for j in range(k)]
        case "absorb":
            inner = this.contents
            # move the tree inside the host box
            wmap = add_tree(inner, level, nodes, copy_boxes=False)
            # the cut moves inside: door wire w_this pairs conclusions[port]
            iw = inner.conclusions[port][0]
            inner.add("cut", [iw, wmap[w_other]], [])
            inner.conclusions.pop(port)
            level.drop_node(cut.nid)
            this.downs.pop(port)
            level.drop_wire(w_this)
            # tree interface wires become new doors of the host box
            for tid in nodes:
                level.drop_node(tid)
            for w in wmap:
                if w in interface:
                    continue
                level.drop_wire(w)
            for w in interface:
                inner.conclusions.append((wmap[w], ("door",)))
                this.downs.append(w)
        case _:
            raise NoRuleError(rule)


# ---------------------------------------------------------------------------
# Normalization drivers


def mult_nf(net: Net, rng: Optional[random.Random] = None) -> Net:
    """Fixpoint of the axiom and par/tensor cut rules (confluent and
    terminating); the input net is not modified."""
    return normalize(net.copy(), MULT, rng)


def exp_step(net: Net, cut_id: int) -> Net:
    """Fire the (unique) rule of the given cut; returns a new net."""
    out = net.copy()
    for level in out.all_nets():
        cut = level.nodes.get(cut_id)
        if cut is not None and cut.kind == "cut":
            break
    else:
        raise NoRuleError(f"no cut {cut_id}")
    r = _cut_rule(level, cut)
    if r is None:
        raise NoRuleError("cut does not match any rule")
    fire(level, cut, *r)
    return out


def full_nf(net: Net, rng: Optional[random.Random] = None) -> Net:
    """Normal form under all cut-elimination rules (confluent and strongly
    normalizing on translated nets); the input net is not modified."""
    return normalize(net.copy(), None, rng)


_BUDGET = 20000  # a normalization longer than this many cut steps fails


def normalize(net: Net, rules=None, rng: Optional[random.Random] = None) -> Net:
    """Fire cuts of the given rules (all rules when None) in net, in place,
    until none is left; returns net.  Without rng the first redex fires,
    with rng one drawn uniformly."""
    for _ in range(_BUDGET):
        if rng is None:
            found = next(_redexes(net, rules), None)
        else:
            all_found = list(_redexes(net, rules))
            found = all_found[rng.randrange(len(all_found))] if all_found else None
        if found is None:
            return net
        fire(*found)
    what = "cut elimination" if rules is None else "multiplicative normalization"
    raise NetBudgetExhausted(f"{what} budget exhausted")
