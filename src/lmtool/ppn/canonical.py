"""Structural equivalence: canonicalization of contraction/weakening
placement and anchored graph isomorphism of proof structures.

Canonicalization applies: associativity of contractions (flattened to
n-ary nodes), neutrality of weakening into contraction, permeability of
contractions across box doors (normalized outward), hoisting and removal
of final weakenings (chains of doors ending in a net conclusion), and the
weakening-into-contraction absorption across doors used for renaming
boxes.

struct_canon repeats one step until none applies: the first rule of
_LEVEL_RULES, in that order, that applies at the first level in all_nets
order fires, and final weakenings are pruned only when no level rule
applies.  The rules do not commute, so the result depends on this order
and _LEVEL_RULES fixes it: letting the door-chain rule cancel plain
weakenings too, after the other rules, changes some net_equiv verdicts.

The isomorphism is anchored at the labeled conclusions, which the
translation writes from one map of free variables and names: the
distinguished conclusion, the variables, the names (each sorted), then a
stack's result.  The flattening numbers each level's nodes in the order of
one walk from the level's conclusions, which port order fixes, so two
isomorphic nets usually flatten to equal lists, and net_equiv accepts
those at once.  Otherwise (the walk breaks no ties between contraction
premises, cut sides or door orders) the search decides: anchors make the
colours of the conclusions unique, so it maps them first and propagates
forced moves from them, as VF2-style matchers do (Cordella et al., IEEE
TPAMI 2004); it branches, and backtracks, only where propagation stalls.
Colours and labels are compared by value, so no verdict depends on hash().
Cut elimination (rewrite) reads each cut's rule off the producers of its
two wires.

struct_canon and net_equiv leave their inputs untouched: each copies them
and calls its in-place core, canonicalize or equiv_owned, which callers
that own fresh nets call directly."""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .net import Net, Node


def struct_canon(net: Net) -> Net:
    """The structural canonical form of a copy of net."""
    return canonicalize(net.copy())


def canonicalize(net: Net) -> Net:
    """Rewrite net in place to its structural canonical form; returns it."""
    for _ in range(10000):
        if not (
            any(rule(level) for level in net.all_nets() for rule in _LEVEL_RULES)
            or _prune_final_weakenings(net)
        ):
            return net
    raise RuntimeError("structural canonicalization did not settle")


def _flatten_contractions(level: Net) -> bool:
    for n in list(level.nodes.values()):
        if n.kind != "c":
            continue
        for i, w in enumerate(list(n.ups)):
            pn, _ = level.producer_of(w)
            child = level.nodes[pn]
            if child.kind == "c":
                n.ups[i: i + 1] = child.ups
                level.drop_node(child.nid)
                level.drop_wire(w)
                return True
    return False


def _cancel_weakenings(level: Net) -> bool:
    # a weakening feeding a contraction premise is dropped
    for n in list(level.nodes.values()):
        if n.kind != "c":
            continue
        for i, w in enumerate(list(n.ups)):
            pn, _ = level.producer_of(w)
            if level.nodes[pn].kind == "w":
                level.drop_node(pn)
                level.drop_wire(w)
                _drop_premise(level, n, i)
                return True
    return False


def _drop_premise(level: Net, n: Node, i: int) -> None:
    """Take premise i off contraction n; a contraction left with one
    premise goes, and that premise takes over its output."""
    n.ups.pop(i)
    if len(n.ups) == 1:
        level.redirect_consumer(n.downs[0], n.ups[0])
        level.drop_node(n.nid)


def _contractions_out_of_boxes(level: Net) -> bool:
    for b in level.boxes():
        inner = b.contents
        for i in range(1, len(inner.conclusions)):
            iw, anchor = inner.conclusions[i]
            pn, _ = inner.producer_of(iw)
            node = inner.nodes[pn]
            if node.kind != "c":
                continue
            # the k premises become k doors; a contraction outside takes over
            k = len(node.ups)
            inner.drop_node(node.nid)
            inner.wires.pop(iw, None)
            inner.conclusions[i: i + 1] = [(w, anchor) for w in node.ups]
            f = level.wires[b.downs[i]]
            new_outer = [level.new_wire(f) for _ in range(k)]
            old_outer = b.downs[i]
            b.downs[i: i + 1] = new_outer
            c = level.add("c", new_outer, [f])
            level.redirect_consumer(old_outer, c.downs[0])
            return True
    return False


def _weakening_chain(level: Net, wire: int) -> Optional[list]:
    """If the producer chain of wire (through aux doors) ends at a
    weakening, return the removal plan [(net, kind, payload), ...]."""
    pn, port = level.producer_of(wire)
    node = level.nodes[pn]
    if node.kind == "w":
        return [(level, "w", pn)]
    if node.kind == "box" and port > 0:
        inner = node.contents
        iw = inner.conclusions[port][0]
        rest = _weakening_chain(inner, iw)
        if rest is not None:
            return rest + [(level, "door", (pn, port))]
    return None


def _apply_chain(plan: list) -> None:
    # inner steps run first; dropping a wire also clears its conclusion
    # entry, so each door step only pops its own outer port
    for net, kind, payload in plan:
        if kind == "w":
            node = net.nodes[payload]
            net.drop_wire(node.downs[0])
            net.drop_node(payload)
        else:
            bnid, port = payload
            b = net.nodes[bnid]
            w = b.downs.pop(port)
            net.drop_wire(w)


def _weakening_doors_into_contractions(level: Net) -> bool:
    # absorption beyond the five core identities: a contraction premise
    # whose producer chain is a weakening behind box doors cancels like a
    # plain weakening (needed to align renaming boxes; checked by the
    # soundness suite)
    for n in list(level.nodes.values()):
        if n.kind != "c":
            continue
        for i, w in enumerate(list(n.ups)):
            pn, port = level.producer_of(w)
            if level.nodes[pn].kind != "box" or port == 0:
                continue
            plan = _weakening_chain(level, w)
            if plan is None:
                continue
            _apply_chain(plan)
            _drop_premise(level, n, i)
            return True
    return False


def _prune_final_weakenings(net: Net) -> bool:
    # a top-level conclusion produced by a weakening chain disappears
    for w, _anchor in list(net.conclusions):
        plan = _weakening_chain(net, w)
        if plan is not None:
            _apply_chain(plan)
            return True
    return False


# the level rules of struct_canon in the order it tries them
_LEVEL_RULES = (
    _flatten_contractions,
    _cancel_weakenings,
    _contractions_out_of_boxes,
    _weakening_doors_into_contractions,
)


# ---------------------------------------------------------------------------
# Anchored isomorphism via a flattened labeled graph


# the nodes whose ports are told apart by number in edge labels
_ORDERED_UPS = ("tensor", "par", "d")
_ORDERED_DOWNS = _ORDERED_UPS + ("ax",)


def _walk(level: Net) -> tuple[list[Node], dict[int, tuple[Node, int]]]:
    """The level's nodes in the order of one walk from its conclusions (the
    sealed anchor order at the top, door order inside a box), and the
    consuming node and port of each wire that a node consumes.  From a
    node, the walk goes to the producers of its consumed wires in port
    order, then to the consumers of its produced wires; the nodes it never
    reaches follow in insertion order."""
    producer = {w: n for n in level.nodes.values() for w in n.downs}
    consumer = {w: (m, i) for m in level.nodes.values() for i, w in enumerate(m.ups)}
    order: list[Node] = []
    seen: set[int] = set()

    def reach(n: Node) -> None:
        if n.nid not in seen:
            seen.add(n.nid)
            order.append(n)

    for w, _ in level.conclusions:
        reach(producer[w])
    for n in order:  # order grows while it is read
        for w in n.ups:
            reach(producer[w])
        for w in n.downs:
            if w in consumer:
                reach(consumer[w][0])
    for n in level.nodes.values():
        reach(n)
    return order, consumer


def _flatten(net: Net) -> tuple[list[tuple], list[tuple[int, int, tuple]]]:
    """The net as a graph on int ids: each node's colour and the labeled
    edges (source, target, label).  Each level's nodes are numbered in the
    order of _walk; boxes contribute door nodes so that the
    through-the-membrane pairing is part of the graph, and a box's doors
    take the ids right after its own."""
    colours: list[tuple] = []
    edges: list[tuple[int, int, tuple]] = []

    def visit(level: Net, depth: int) -> dict[int, tuple[int, tuple]]:
        """Adds the level's nodes and wires; returns, for each wire that no
        node of the level consumes and that is no top-level conclusion, its
        source id and label."""
        order, consumer = _walk(level)
        ids: dict[int, int] = {}
        for n in order:
            g = ids[n.nid] = len(colours)
            colours.append(("node", n.kind, depth, len(n.ups)))
            if n.kind == "box":
                for i in range(len(n.downs)):
                    colours.append(("door", i == 0, depth))
                    edges.append((g + 1 + i, g, ("door-of", i == 0)))
                inner = n.contents
                loose = visit(inner, depth + 1)
                for i, (iw, _) in enumerate(inner.conclusions):
                    src, label = loose[iw]
                    edges.append((src, g + 1 + i, label))
        # wires at this level; inner conclusions are box doors, wired above
        anchor = dict(level.conclusions) if depth == 0 else {}
        loose: dict[int, tuple[int, tuple]] = {}
        for n in order:
            g = ids[n.nid]
            for pidx, w in enumerate(n.downs):
                src = g + 1 + pidx if n.kind == "box" else g
                down = (n.kind, pidx) if n.kind in _ORDERED_DOWNS else (n.kind + "d",)
                label = (str(level.wires[w]), down)
                if w in consumer:
                    m, cport = consumer[w]
                    up = (m.kind + "u", cport) if m.kind in _ORDERED_UPS else (m.kind + "u",)
                    edges.append((src, ids[m.nid], label + (up,)))
                elif w in anchor:
                    edges.append((src, len(colours), label + ("conc",)))
                    colours.append(("conc", anchor[w], depth))
                else:
                    loose[w] = (src, label)
        return loose

    visit(net, 0)
    return colours, edges


def _incidence(n: int, edges: list, labels: dict) -> list[dict[int, list[int]]]:
    """Each node's incident edges grouped by direction and label, as
    {key: far ends}; a label is interned to one int in labels, which the
    two graphs compared share, and key = 2 * label + (1 if incoming)."""
    groups: list[dict[int, list[int]]] = [{} for _ in range(n)]
    for a, b, lbl in edges:
        key = 2 * labels.setdefault(lbl, len(labels))
        groups[a].setdefault(key, []).append(b)
        groups[b].setdefault(key + 1, []).append(a)
    return groups


def _isomorphic(colours1, edges1, colours2, edges2) -> bool:
    """Whether a colour-preserving bijection carries the first edge
    multiset onto the second.  The nodes whose colour is unique (the
    anchored conclusions among them) are mapped first; each mapped pair
    then forces its one-element edge groups.  Where that stalls, the search
    branches on an unmapped node next to the mapped part, in the group
    with the fewest candidates, and backtracks on a contradiction."""
    n = len(colours1)
    count = Counter(colours2)
    if n != len(colours2) or len(edges1) != len(edges2) or Counter(colours1) != count:
        return False
    labels: dict = {}
    inc1 = _incidence(n, edges1, labels)
    inc2 = _incidence(n, edges2, labels)
    fwd, back = [-1] * n, [-1] * n
    trail: list[int] = []  # the mapped nodes of the first graph, in order

    def assign(a: int, b: int) -> bool:
        """Map a to b and propagate; False on a contradiction."""
        todo = [(a, b)]
        while todo:
            a, b = todo.pop()
            if fwd[a] == b:
                continue
            if fwd[a] >= 0 or back[b] >= 0 or colours1[a] != colours2[b]:
                return False
            fwd[a], back[b] = b, a
            trail.append(a)
            g1, g2 = inc1[a], inc2[b]
            if len(g1) != len(g2):
                return False
            for key, ends1 in g1.items():
                ends2 = g2.get(key)
                if ends2 is None or len(ends2) != len(ends1):
                    return False
                if len(ends1) == 1:
                    todo.append((ends1[0], ends2[0]))
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            a = trail.pop()
            b = fwd[a]
            fwd[a] = back[b] = -1

    def branch() -> tuple[int, list[int]]:
        """An unmapped node and the unmapped nodes it may map to."""
        best = None
        for a in trail:
            g2 = inc2[fwd[a]]
            for key, ends1 in inc1[a].items():
                free = [x for x in ends1 if fwd[x] < 0]
                if free:
                    x = free[0]
                    cands = [y for y in dict.fromkeys(g2[key]) if back[y] < 0]
                    if best is None or len(cands) < len(best[1]):
                        best = (x, cands)
        if best is None:  # no unmapped node next to the mapped part
            x = fwd.index(-1)
            best = (x, [y for y in range(n) if back[y] < 0])
        return best

    def search() -> bool:
        if len(trail) == n:
            return Counter((fwd[a], fwd[b], lbl) for a, b, lbl in edges1) == Counter(edges2)
        x, cands = branch()
        mark = len(trail)
        for y in cands:
            if assign(x, y) and search():
                return True
            undo(mark)
        return False

    where = {c: b for b, c in enumerate(colours2)}
    for a, c in enumerate(colours1):
        if count[c] == 1 and not assign(a, where[c]):
            return False
    return search()


def net_equiv(n1: Net, n2: Net) -> bool:
    """Structural equality: canonical forms compared up to an isomorphism
    anchored at the labeled conclusions.  The nets are not modified."""
    return equiv_owned(n1.copy(), n2.copy())


def equiv_owned(n1: Net, n2: Net) -> bool:
    """net_equiv on nets that the caller gives up: both are canonicalized
    in place.  Equal flattenings are isomorphic through the identity, so
    the search runs only on the others."""
    f1 = _flatten(canonicalize(n1))
    f2 = _flatten(canonicalize(n2))
    return f1 == f2 or _isomorphic(*f1, *f2)
