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
stack's result.  Cut elimination (rewrite) reads each cut's rule off the
producers of its two wires."""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .net import Net, Node


def struct_canon(net: Net) -> Net:
    out = net.copy()
    for _ in range(10000):
        if not (
            any(rule(level) for level in out.all_nets() for rule in _LEVEL_RULES)
            or _prune_final_weakenings(out)
        ):
            return out
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


_ORDERED_PORTS = {
    "tensor": True,
    "par": True,
    "d": True,
}


def _flatten(net: Net):
    """Nodes with colors plus labeled edges; boxes contribute door nodes so
    that the through-the-membrane pairing is part of the graph."""
    nodes: dict[str, tuple] = {}
    edges: list[tuple[str, str, tuple]] = []

    def visit(level: Net, depth: int, prefix: str) -> None:
        for nid, n in level.nodes.items():
            g = f"{prefix}n{nid}"
            nodes[g] = ("node", n.kind, depth, len(n.ups))
            if n.kind == "box":
                for i in range(len(n.downs)):
                    dg = f"{g}door{i}"
                    nodes[dg] = ("door", i == 0, depth)
                    edges.append((dg, g, ("door-of", i == 0)))
                inner = n.contents
                visit(inner, depth + 1, f"{g}b")
                inner_producer = {
                    w: (m.nid, i) for m in inner.nodes.values() for i, w in enumerate(m.downs)
                }
                for i, (iw, _) in enumerate(inner.conclusions):
                    ip, iport = inner_producer[iw]
                    src = _port_src(inner, ip, iport, f"{g}b")
                    edges.append((src, f"{g}door{i}", _edge_label(inner, ip, iport, iw)))
        # wires at this level; inner conclusions are box doors, already wired
        consumer = {w: (m.nid, i) for m in level.nodes.values() for i, w in enumerate(m.ups)}
        anchor = dict(level.conclusions) if depth == 0 else {}
        for nid, n in level.nodes.items():
            for pidx, w in enumerate(n.downs):
                src = _port_src(level, nid, pidx, prefix)
                label = _edge_label(level, nid, pidx, w)
                if w in consumer:
                    cn, cport = consumer[w]
                    tag = _up_tag(level.nodes[cn], cport)
                    edges.append((src, f"{prefix}n{cn}", label + (tag,)))
                elif w in anchor:
                    cg = f"{prefix}conc{w}"
                    nodes[cg] = ("conc", anchor[w], depth)
                    edges.append((src, cg, label + ("conc",)))

    def _port_src(level: Net, nid: int, pidx: int, prefix: str) -> str:
        if level.nodes[nid].kind == "box":
            return f"{prefix}n{nid}door{pidx}"
        return f"{prefix}n{nid}"

    def _edge_label(level: Net, nid: int, pidx: int, w: int) -> tuple:
        n = level.nodes[nid]
        if n.kind in _ORDERED_PORTS or n.kind == "ax":
            down_tag = (n.kind, pidx)
        elif n.kind == "box":
            down_tag = ("boxd",)
        else:
            down_tag = (n.kind + "d",)
        return (str(level.wires[w]), down_tag)

    def _up_tag(n, cport: int) -> tuple:
        if n.kind in _ORDERED_PORTS:
            return (n.kind + "u", cport)
        return (n.kind + "u",)

    visit(net, 0, "")
    return nodes, edges


def _adjacency(nodes: dict, edges: list, labels: dict) -> dict[str, list[tuple[int, str]]]:
    """Each node's incident edges as (label, other end); an edge label and
    its direction are interned to one small int in labels, which the two
    graphs compared share."""
    adj: dict[str, list] = {g: [] for g in nodes}
    for a, b, lbl in edges:
        adj[a].append((labels.setdefault(("out", lbl), len(labels)), b))
        adj[b].append((labels.setdefault(("inc", lbl), len(labels)), a))
    return adj


_REFINE_ROUNDS = 4


def _refine(*graphs: tuple[dict, dict]) -> list[dict]:
    """Colour refinement of the (nodes, adjacency) graphs together, so that
    colours compare across them, for at most _REFINE_ROUNDS rounds.  It
    stops after the first round that splits no class of their joint
    partition: each round refines the last, so every later round would give
    the same classes."""
    colors = [{g: hash(c) for g, c in nodes.items()} for nodes, _ in graphs]
    count = len(set().union(*(c.values() for c in colors)))
    for _ in range(_REFINE_ROUNDS):
        colors = [
            {g: hash((col[g], tuple(sorted((lbl, col[o]) for lbl, o in adj[g])))) for g in nodes}
            for (nodes, adj), col in zip(graphs, colors)
        ]
        before, count = count, len(set().union(*(c.values() for c in colors)))
        if count == before:
            break
    return colors


def _isomorphic(nodes1, edges1, nodes2, edges2) -> bool:
    if len(nodes1) != len(nodes2) or len(edges1) != len(edges2):
        return False
    labels: dict = {}
    adj1 = _adjacency(nodes1, edges1, labels)
    adj2 = _adjacency(nodes2, edges2, labels)
    c1, c2 = _refine((nodes1, adj1), (nodes2, adj2))
    sizes = Counter(c1.values())
    if sizes != Counter(c2.values()):
        return False
    if Counter(nodes1.values()) != Counter(nodes2.values()):
        return False

    # the candidates for g1 are the nodes of its colour class, in nodes2 order
    class2: dict[int, list[str]] = {}
    for g in nodes2:
        class2.setdefault(c2[g], []).append(g)
    order = sorted(nodes1, key=lambda g: (sizes[c1[g]], g))
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def feasible(g1: str, g2: str) -> bool:
        if nodes1[g1] != nodes2[g2]:
            return False
        want = sorted((lbl, mapping[o]) for lbl, o in adj1[g1] if o in mapping)
        have = sorted((lbl, o) for lbl, o in adj2[g2] if o in used)
        return want == have

    def solve(i: int) -> bool:
        if i == len(order):
            return True
        g1 = order[i]
        for g2 in class2[c1[g1]]:
            if g2 in used:
                continue
            if feasible(g1, g2):
                mapping[g1] = g2
                used.add(g2)
                if solve(i + 1):
                    return True
                del mapping[g1]
                used.remove(g2)
        return False

    return solve(0)


def net_equiv(n1: Net, n2: Net) -> bool:
    """Structural equality: canonical forms compared up to an isomorphism
    anchored at the labeled conclusions."""
    s1 = struct_canon(n1)
    s2 = struct_canon(n2)
    nodes1, edges1 = _flatten(s1)
    nodes2, edges2 = _flatten(s2)
    return _isomorphic(nodes1, edges1, nodes2, edges2)
