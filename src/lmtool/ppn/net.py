"""The proof-structure graph: nodes, formula-labeled wires, nestable boxes.

Wires run top to bottom: each wire has one producer port and one
consumer, a node port or a conclusion slot; a conclusion carries an
anchor (the variable or name it came from, the distinguished conclusion
of a term/stack, or the result conclusion of a stack).

A box node owns a sub-net; door i of the box pairs the i-th conclusion of
the contents with the i-th produced wire of the box node, door 0 being the
principal one (contents conclusion 0 is the distinguished output O, the
outer wire carries !O).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .formulas import Formula, NWhy, OPar, PBang, QTen, dual, is_negative

Anchor = tuple  # ("var", x) | ("name", a) | ("dist",) | ("result",)


@dataclass
class Node:
    nid: int
    kind: str  # ax | cut | w | c | tensor | par | d | box
    ups: list[int] = field(default_factory=list)  # consumed wires
    downs: list[int] = field(default_factory=list)  # produced wires
    contents: Optional["Net"] = None  # boxes only


class Net:
    def __init__(self) -> None:
        self.nodes: dict[int, Node] = {}
        self.wires: dict[int, Formula] = {}
        self.conclusions: list[tuple[int, Anchor]] = []
        self._next = 0

    # --- construction -----------------------------------------------------

    def _new_id(self) -> int:
        self._next += 1
        return self._next

    def new_wire(self, f: Formula) -> int:
        w = self._new_id()
        self.wires[w] = f
        return w

    def add(self, kind: str, ups: list[int], down_formulas: list[Formula],
            contents: Optional["Net"] = None) -> Node:
        n = Node(self._new_id(), kind, list(ups), [], contents)
        for f in down_formulas:
            n.downs.append(self.new_wire(f))
        self.nodes[n.nid] = n
        return n

    # --- queries ------------------------------------------------------------

    def producer_of(self, wire: int) -> tuple[int, int]:
        for n in self.nodes.values():
            if wire in n.downs:
                return n.nid, n.downs.index(wire)
        raise KeyError(f"wire {wire} has no producer")

    def consumer_of(self, wire: int) -> Optional[tuple[int, int]]:
        for n in self.nodes.values():
            if wire in n.ups:
                return n.nid, n.ups.index(wire)
        return None

    def conclusion_anchor(self, wire: int) -> Optional[Anchor]:
        for w, a in self.conclusions:
            if w == wire:
                return a
        return None

    def cuts(self) -> list[Node]:
        return [n for n in self.nodes.values() if n.kind == "cut"]

    def boxes(self) -> list[Node]:
        return [n for n in self.nodes.values() if n.kind == "box"]

    def all_nets(self) -> Iterator["Net"]:
        """This net and every box contents, recursively."""
        yield self
        for b in self.boxes():
            yield from b.contents.all_nets()

    # --- surgery ------------------------------------------------------------

    def drop_node(self, nid: int) -> None:
        del self.nodes[nid]

    def drop_wire(self, w: int) -> None:
        self.wires.pop(w, None)
        self.conclusions = [(cw, a) for cw, a in self.conclusions if cw != w]

    def move_consumer(self, old: int, new: int) -> None:
        """Whatever consumed old (a node port or a conclusion slot) now
        consumes new."""
        c = self.consumer_of(old)
        if c is not None:
            n, i = c
            self.nodes[n].ups[i] = new
        elif self.conclusion_anchor(old) is None:
            raise KeyError(f"wire {old} is dangling")
        else:
            self.conclusions = [
                (new if cw == old else cw, a) for cw, a in self.conclusions
            ]

    def redirect_consumer(self, old: int, new: int) -> None:
        """move_consumer, then old disappears."""
        self.move_consumer(old, new)
        self.drop_wire(old)

    def copy(self) -> "Net":
        """A deep copy with the same node and wire ids."""
        out = Net()
        out.nodes = {
            nid: Node(nid, n.kind, list(n.ups), list(n.downs),
                      n.contents.copy() if n.contents is not None else None)
            for nid, n in self.nodes.items()
        }
        out.wires = dict(self.wires)
        out.conclusions = list(self.conclusions)
        out._next = self._next
        return out

    # --- checks ---------------------------------------------------------------

    def validate(self) -> None:
        """Every wire has one producer and one consumer, a node port or a
        conclusion; cut and logical-node formulas line up; box doors mirror
        their contents."""
        producers: dict[int, int] = {}
        consumers: dict[int, int] = {}
        for n in self.nodes.values():
            for w in n.downs:
                assert w in self.wires, f"unknown wire {w}"
                producers[w] = producers.get(w, 0) + 1
            for w in n.ups:
                assert w in self.wires, f"unknown wire {w}"
                consumers[w] = consumers.get(w, 0) + 1
        for w, _ in self.conclusions:
            consumers[w] = consumers.get(w, 0) + 1
        for w in self.wires:
            assert producers.get(w) == 1, f"wire {w} producers {producers.get(w)}"
            assert consumers.get(w) == 1, f"wire {w} consumers {consumers.get(w)}"
        for n in self.nodes.values():
            f = [self.wires[w] for w in n.ups]
            g = [self.wires[w] for w in n.downs]
            match n.kind:
                case "cut":
                    assert len(f) == 2 and not g
                    assert dual(f[0]) == f[1], f"bad cut {f[0]} | {f[1]}"
                case "ax":
                    assert not f and len(g) == 2
                    assert dual(g[0]) == g[1], f"bad axiom {g}"
                case "w":
                    assert not f and len(g) == 1 and is_negative(g[0])
                case "c":
                    assert len(f) >= 2 and len(g) == 1
                    assert all(x == g[0] for x in f), f"bad contraction {f}"
                case "d":
                    assert len(f) == 1 and len(g) == 1
                    assert g[0] == NWhy(f[0]), f"bad dereliction {f} {g}"
                case "tensor":
                    assert len(f) == 2 and len(g) == 1
                    assert isinstance(f[0], PBang) and g[0] == QTen(
                        f[0].o, f[1]
                    ), f"bad tensor {f} {g}"
                case "par":
                    assert len(f) == 2 and len(g) == 1
                    assert isinstance(f[0], NWhy) and g[0] == OPar(
                        f[0].q, f[1]
                    ), f"bad par {f} {g}"
                case "box":
                    assert not f
                    assert n.contents is not None
                    assert len(g) == len(n.contents.conclusions)
                    assert isinstance(g[0], PBang)
                    for i, (cw, _) in enumerate(n.contents.conclusions):
                        cf = n.contents.wires[cw]
                        if i == 0:
                            assert PBang(cf) == g[0], "principal door mismatch"
                        else:
                            assert cf == g[i], "aux door mismatch"
                    n.contents.validate()

    # --- rendering -------------------------------------------------------------

    def to_dot(self) -> str:
        lines = ["digraph net {", "  rankdir=TB;"]
        self._dot_body(lines, prefix="n")
        lines.append("}")
        return "\n".join(lines)

    def _dot_body(self, lines: list[str], prefix: str) -> None:
        labels = {
            "ax": "ax", "cut": "cut", "w": "w", "c": "c",
            "tensor": "(*)", "par": "(#)", "d": "d", "box": "!",
        }
        for nid in sorted(self.nodes):
            n = self.nodes[nid]
            if n.kind == "box":
                lines.append(f"  subgraph cluster_{prefix}_{nid} {{")
                lines.append("    style=dashed;")
                n.contents._dot_body(lines, prefix=f"{prefix}_{nid}")
                lines.append(f"    {prefix}_{nid} [label=\"!\", shape=box];")
                lines.append("  }")
            else:
                lines.append(
                    f"  {prefix}_{nid} [label=\"{labels[n.kind]}\", shape=circle];"
                )
        # each wire's first consumer and first anchor, as consumer_of and
        # conclusion_anchor find them
        consumer = {w: nid for nid, n in reversed(self.nodes.items()) for w in n.ups}
        anchor = dict(reversed(self.conclusions))
        for nid in sorted(self.nodes):
            n = self.nodes[nid]
            for w in n.downs:
                lbl = str(self.wires[w]).replace('"', "'")
                if w in consumer:
                    lines.append(
                        f"  {prefix}_{nid} -> {prefix}_{consumer[w]} [label=\"{lbl}\"];"
                    )
                else:
                    a = anchor.get(w)
                    name = ":".join(str(x) for x in (a or ("loose",)))
                    cid = f"{prefix}_conc_{w}"
                    lines.append(f"  {cid} [label=\"{name}\", shape=plaintext];")
                    lines.append(f"  {prefix}_{nid} -> {cid} [label=\"{lbl}\"];")
