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
EXP = ("wk", "der", "con", "absorb")


class NoRuleError(Exception):
    pass


class NetBudgetExhausted(Exception):
    pass


# ---------------------------------------------------------------------------
# Redex discovery


def _cut_rule(net: Net, cut: Node) -> Optional[tuple[str, int]]:
    """Which rule fires on this cut; the int picks the axiom side for 'ax'."""
    w0, w1 = cut.ups
    for i, w in enumerate((w0, w1)):
        n, _ = net.producer_of(w)
        if net.nodes[n].kind == "ax":
            return ("ax", i)
    k0 = net.nodes[net.producer_of(w0)[0]].kind
    k1 = net.nodes[net.producer_of(w1)[0]].kind
    if {k0, k1} == {"par", "tensor"}:
        return ("parten", 0 if k0 == "par" else 1)
    # exponential: find the negative side by its producer kind
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


def fire(net: Net, level: Net, cut: Node, rule: str, side: int) -> None:
    w_this = cut.ups[side]
    w_other = cut.ups[1 - side]
    match rule:
        case "ax":
            nid, port = level.producer_of(w_this)
            ax = level.nodes[nid]
            w_tail = ax.downs[1 - port]
            if w_tail == w_other:
                raise NoRuleError("axiom cut on itself (cyclic net)")
            level.drop_node(cut.nid)
            level.drop_node(ax.nid)
            level.drop_wire(w_this)
            # the other cut wire takes over the tail's consumer
            level.redirect_consumer(w_tail, w_other)
        case "parten":
            par = level.nodes[level.producer_of(w_this)[0]]
            ten = level.nodes[level.producer_of(w_other)[0]]
            level.drop_node(cut.nid)
            level.add("cut", [par.ups[0], ten.ups[0]], [])
            level.add("cut", [par.ups[1], ten.ups[1]], [])
            level.drop_node(par.nid)
            level.drop_node(ten.nid)
            level.drop_wire(w_this)
            level.drop_wire(w_other)
        case "wk":
            wnode = level.nodes[level.producer_of(w_this)[0]]
            tree = tensor_tree(level, w_other)
            if tree is None:
                raise NoRuleError("weakening cut against a non-tree")
            nodes, interface = tree
            level.drop_node(cut.nid)
            level.drop_node(wnode.nid)
            level.drop_wire(w_this)
            # replace every interface wire by a weakening before deleting,
            # preserving conclusion positions (they may be box doors)
            for w in interface:
                nw = level.add("w", [], [level.wires[w]]).downs[0]
                c = level.consumer_of(w)
                if c is not None:
                    level.nodes[c[0]].ups[c[1]] = nw
                else:
                    level.conclusions = [
                        (nw if cw == w else cw, a) for cw, a in level.conclusions
                    ]
            delete_tree(level, nodes)
        case "der":
            dnode = level.nodes[level.producer_of(w_this)[0]]
            bnid, port = level.producer_of(w_other)
            box = level.nodes[bnid]
            if box.kind != "box" or port != 0:
                raise NoRuleError("dereliction cut against a non-box")
            wmap = level.absorb(box.contents)
            inner = box.contents
            level.drop_node(cut.nid)
            level.drop_node(dnode.nid)
            level.drop_node(box.nid)
            # principal: cut the dereliction premise against the contents'
            # distinguished conclusion
            level.add("cut", [dnode.ups[0], wmap[inner.conclusions[0][0]]], [])
            level.drop_wire(w_this)
            level.drop_wire(w_other)
            # auxiliary doors: the inner conclusion wire replaces the outer
            for (iw, _), ow in zip(inner.conclusions[1:], box.downs[1:]):
                level.redirect_consumer(ow, wmap[iw])
        case "con":
            cnode = level.nodes[level.producer_of(w_this)[0]]
            tree = tensor_tree(level, w_other)
            if tree is None:
                raise NoRuleError("contraction cut against a non-tree")
            nodes, interface = tree
            k = len(cnode.ups)
            copies = [(w_other, interface)]
            for _ in range(k - 1):
                wmap = add_tree(level, level, nodes, copy_boxes=True)
                copies.append((wmap[w_other], [wmap[w] for w in interface]))
            level.drop_node(cut.nid)
            level.drop_wire(w_this)
            for prem, (root, _) in zip(cnode.ups, copies):
                level.add("cut", [prem, root], [])
            level.drop_node(cnode.nid)
            # contract the interface copies onto the original consumers
            for i, w in enumerate(interface):
                group = [copies[j][1][i] for j in range(k)]
                c = level.consumer_of(w)
                anchor = level.conclusion_anchor(w)
                nc = level.add("c", group, [level.wires[w]])
                # the original wire w is group[0]; its old consumer must now
                # consume the contraction output
                if c is not None:
                    level.nodes[c[0]].ups[c[1]] = nc.downs[0]
                elif anchor is not None:
                    level.conclusions = [
                        (nc.downs[0] if cw == w else cw, a)
                        for cw, a in level.conclusions
                    ]
        case "absorb":
            bnid, port = level.producer_of(w_this)
            host = level.nodes[bnid]
            tree = tensor_tree(level, w_other)
            if tree is None:
                raise NoRuleError("door cut against a non-tree")
            nodes, interface = tree
            inner = host.contents
            # move the tree inside the host box
            wmap = add_tree(inner, level, nodes, copy_boxes=False)
            # the cut moves inside: door wire w_this pairs conclusions[port]
            iw = inner.conclusions[port][0]
            inner.add("cut", [iw, wmap[w_other]], [])
            inner.conclusions.pop(port)
            level.drop_node(cut.nid)
            host.downs.pop(port)
            level.drop_wire(w_this)
            # tree interface wires become new doors of the host box
            consumers = {w: level.consumer_of(w) for w in interface}
            anchors = {w: level.conclusion_anchor(w) for w in interface}
            for nid in nodes:
                level.drop_node(nid)
            for w in wmap:
                if w in interface:
                    continue
                level.drop_wire(w)
            for w in interface:
                inner.conclusions.append((wmap[w], ("door",)))
                host.downs.append(w)
        case _:
            raise NoRuleError(rule)


# ---------------------------------------------------------------------------
# Normalization drivers


def mult_nf(net: Net, budget: int = 20000, rng: Optional[random.Random] = None) -> Net:
    """Fixpoint of the axiom and par/tensor cut rules (confluent and
    terminating); the input net is not modified."""
    return _normalize(net, budget, rng, MULT, "multiplicative normalization budget exhausted")


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
    fire(out, level, cut, r[0], r[1])
    return out


def full_nf(net: Net, budget: int = 20000, rng: Optional[random.Random] = None) -> Net:
    """Normal form under all cut-elimination rules (confluent and strongly
    normalizing on translated nets)."""
    return _normalize(net, budget, rng, None, "cut elimination budget exhausted")


def _normalize(net: Net, budget: int, rng: Optional[random.Random], rules, exhausted: str) -> Net:
    # without rng the first redex fires, with rng one drawn uniformly
    out = net.copy()
    for _ in range(budget):
        if rng is None:
            found = next(_redexes(out, rules), None)
        else:
            all_found = list(_redexes(out, rules))
            found = all_found[rng.randrange(len(all_found))] if all_found else None
        if found is None:
            return out
        fire(out, *found)
    raise NetBudgetExhausted(exhausted)
