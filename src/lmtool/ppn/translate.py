"""Translation of typing derivations into polarized proof structures.

Every clause returns a net with one wire per free variable (an input
formula ?Q labeled with the variable), one per free name (an output
formula labeled with the name), and, for terms and stacks, a
distinguished conclusion; stacks also carry their result conclusion.
Cuts are introduced by the application, substitution, replacement and
stack clauses; shared variables and names of binary clauses are merged
with contraction nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..meta import stack_len
from ..syntax import Abs, App, ERepl, ESub, EmptyStack, Mu, Named, Push, Var
from ..typing import Derivation
from ..typing_util import split_arrow
from .formulas import (
    Formula,
    PBang,
    dual,
    input_of,
    neg_o,
    trans_stacktype,
    trans_type,
)
from .net import Anchor, Net


@dataclass
class Piece:
    """A net under construction with its open interface."""

    net: Net
    var_wires: dict[str, int] = field(default_factory=dict)
    name_wires: dict[str, int] = field(default_factory=dict)
    dist: int | None = None
    result: int | None = None

    def interface_conclusions(self) -> list[tuple[int, Anchor]]:
        out: list[tuple[int, Anchor]] = []
        if self.dist is not None:
            out.append((self.dist, ("dist",)))
        for x in sorted(self.var_wires):
            out.append((self.var_wires[x], ("var", x)))
        for a in sorted(self.name_wires):
            out.append((self.name_wires[a], ("name", a)))
        if self.result is not None:
            out.append((self.result, ("result",)))
        return out

    def seal(self) -> Net:
        """Close the interface into labeled conclusions."""
        self.net.conclusions = list(self.interface_conclusions())
        return self.net


def _boxed(net: Net, piece: Piece) -> tuple[int, Piece]:
    """Wrap a term piece into a box inside net; returns the principal wire
    and a piece holding the outer door wires for the piece's interface."""
    inner = piece.seal()
    dist_f = inner.wires[inner.conclusions[0][0]]
    downs: list[Formula] = [PBang(dist_f)]
    for w, _ in inner.conclusions[1:]:
        downs.append(inner.wires[w])
    b = net.add("box", [], downs, contents=inner)
    out = Piece(net)
    for (iw, anchor), ow in zip(inner.conclusions[1:], b.downs[1:]):
        if anchor[0] == "var":
            out.var_wires[anchor[1]] = ow
        elif anchor[0] == "name":
            out.name_wires[anchor[1]] = ow
    return b.downs[0], out


def _merge_shared(net: Net, a: Piece, b: Piece) -> Piece:
    """Contract the variable and name wires the two pieces share."""
    out = Piece(net, dict(a.var_wires), dict(a.name_wires), a.dist, a.result)
    for x, w2 in b.var_wires.items():
        if x in out.var_wires:
            w1 = out.var_wires[x]
            c = net.add("c", [w1, w2], [net.wires[w1]])
            out.var_wires[x] = c.downs[0]
        else:
            out.var_wires[x] = w2
    for n, w2 in b.name_wires.items():
        if n in out.name_wires:
            w1 = out.name_wires[n]
            c = net.add("c", [w1, w2], [net.wires[w1]])
            out.name_wires[n] = c.downs[0]
        else:
            out.name_wires[n] = w2
    if out.dist is None:
        out.dist = b.dist
    if out.result is None:
        out.result = b.result
    return out


def translate_derivation(d: Derivation) -> Net:
    """The proof structure of a typing derivation, with conclusions labeled
    by the free variables and names of its subject."""
    return _go(d, Net()).seal()


def translate_stack_derivation(d: Derivation, result_type) -> Net:
    return _go(d, Net(), result_type).seal()


def _go(d: Derivation, net: Net, result_type=None) -> Piece:
    """Build the clause of d into net; a boxed subterm is built into a net
    of its own, which becomes the box contents."""
    o = d.judgment.subject
    match o:
        case Var(x):
            a = d.judgment.type
            ax = net.add("ax", [], [neg_o(trans_type(a)), trans_type(a)])
            dn = net.add("d", [ax.downs[0]], [input_of(a)])
            return Piece(net, {x: dn.downs[0]}, {}, ax.downs[1], None)

        case App(_, _):
            df, du = d.children
            pf = _go(df, net)
            principal, doors = _boxed(net, _go(du, Net()))
            bty = d.judgment.type
            ax = net.add("ax", [], [neg_o(trans_type(bty)), trans_type(bty)])
            ten = net.add(
                "tensor",
                [principal, ax.downs[0]],
                [dual(net.wires[pf.dist])],
            )
            net.add("cut", [pf.dist, ten.downs[0]], [])
            merged = _merge_shared(net, Piece(net, pf.var_wires, pf.name_wires), doors)
            merged.dist = ax.downs[1]
            return merged

        case Abs(x, ann, _):
            (db,) = d.children
            pb = _go(db, net)
            if x in pb.var_wires:
                xw = pb.var_wires.pop(x)
            else:
                xw = net.add("w", [], [input_of(ann)]).downs[0]
            par = net.add("par", [xw, pb.dist], [trans_type(d.judgment.type)])
            pb.dist = par.downs[0]
            return pb

        case Mu(a, ann, _):
            (db,) = d.children
            pb = _go(db, net)
            if a in pb.name_wires:
                pb.dist = pb.name_wires.pop(a)
            else:
                pb.dist = net.add("w", [], [trans_type(ann)]).downs[0]
            return pb

        case Named(a, _):
            (db,) = d.children
            pb = _go(db, net)
            if a in pb.name_wires:
                c = net.add("c", [pb.dist, pb.name_wires[a]], [net.wires[pb.dist]])
                pb.name_wires[a] = c.downs[0]
            else:
                pb.name_wires[a] = pb.dist
            pb.dist = None
            return pb

        case ESub(_, x, _):
            db, du = d.children
            pb = _go(db, net)
            principal, doors = _boxed(net, _go(du, Net()))
            uty = du.judgment.type
            if x in pb.var_wires:
                xw = pb.var_wires.pop(x)
            else:
                xw = net.add("w", [], [input_of(uty)]).downs[0]
            net.add("cut", [xw, principal], [])
            merged = _merge_shared(net, Piece(net, pb.var_wires, pb.name_wires), doors)
            merged.dist = pb.dist
            return merged

        case ERepl(_, nn, on, ann, s):
            db, ds = d.children
            pc = _go(db, net)
            n_args = stack_len(s)
            sty, bty = split_arrow(ann, n_args)
            ps = _go(ds, net, bty)
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
                c = net.add("c", [res, merged.name_wires[nn]], [net.wires[res]])
                res = c.downs[0]
            merged.name_wires[nn] = res
            merged.dist = None
            merged.result = None
            return merged

        case EmptyStack():
            of = trans_type(result_type)
            ax = net.add("ax", [], [neg_o(of), of])
            return Piece(net, {}, {}, ax.downs[0], ax.downs[1])

        case Push(_, _):
            dh, dt = d.children
            principal, doors = _boxed(net, _go(dh, Net()))
            pt = _go(dt, net, result_type)
            sty = d.judgment.type
            root_f = neg_o(trans_stacktype(sty, result_type))
            ten = net.add("tensor", [principal, pt.dist], [root_f])
            merged = _merge_shared(net, doors, Piece(net, pt.var_wires, pt.name_wires))
            merged.dist = ten.downs[0]
            merged.result = pt.result
            return merged

    raise TypeError(o)
