"""Translation of typing derivations into polarized proof structures.

Every clause returns a net with one wire per free variable (an input
formula ?Q labeled with the variable) and per free name (an output
formula labeled with the name), kept in one map since a name's
apostrophe keeps the two apart, and, for terms and stacks, a distinguished
conclusion; stacks also carry their result conclusion.  Cuts are
introduced by the application, substitution, replacement and stack
clauses; shared variables and names of binary clauses are merged with
contraction nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..meta import stack_len
from ..syntax import Abs, App, ERepl, ESub, EmptyStack, Mu, Named, Push, Var, is_name
from ..typing import Derivation
from ..typing_util import fold_stack_type, split_arrow
from .formulas import Formula, NWhy, PBang, dual, input_of, neg_o, trans_type
from .net import Net


@dataclass
class Piece:
    """A net under construction with its open interface."""

    net: Net
    wires: dict[str, int] = field(default_factory=dict)
    dist: int | None = None
    result: int | None = None

    def seal(self) -> Net:
        """Close the interface into labeled conclusions: the distinguished
        one, the variables, the names (each sorted), the result."""
        free = sorted(self.wires, key=lambda x: (is_name(x), x))
        out = [(self.wires[x], ("name" if is_name(x) else "var", x)) for x in free]
        if self.dist is not None:
            out.insert(0, (self.dist, ("dist",)))
        if self.result is not None:
            out.append((self.result, ("result",)))
        self.net.conclusions = out
        return self.net


def _boxed(net: Net, piece: Piece) -> tuple[int, Piece]:
    """Wrap a term piece into a box inside net; returns the principal wire
    and a piece holding the outer door wires for the piece's interface."""
    inner = piece.seal()
    (dist, _), *aux = inner.conclusions
    downs = [PBang(inner.wires[dist])] + [inner.wires[w] for w, _ in aux]
    b = net.add("box", [], downs, contents=inner)
    return b.downs[0], Piece(net, {a[1]: ow for (_, a), ow in zip(aux, b.downs[1:])})


def _merge_shared(net: Net, a: dict[str, int], b: dict[str, int]) -> dict[str, int]:
    """a's wires and b's; a variable or name with a wire in both gets a
    contraction of the two.  b's variables come before its names, which
    fixes the ids of the contractions."""
    out = dict(a)
    for x, w2 in sorted(b.items(), key=lambda xw: is_name(xw[0])):
        if x in out:
            w1 = out[x]
            w2 = net.add("c", [w1, w2], [net.wires[w1]]).downs[0]
        out[x] = w2
    return out


def _bound_wire(net: Net, piece: Piece, x: str, f: Formula) -> int:
    """The wire of x, taken out of the piece's interface; a weakening of f
    when x is not free."""
    if x in piece.wires:
        return piece.wires.pop(x)
    return net.add("w", [], [f]).downs[0]


def _name_wire(net: Net, piece: Piece, a: str, w: int) -> None:
    """Make w the wire of name a, contracted with a's wire if it has one."""
    if a in piece.wires:
        w = net.add("c", [w, piece.wires[a]], [net.wires[w]]).downs[0]
    piece.wires[a] = w


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
            f = trans_type(d.judgment.type)
            ax = net.add("ax", [], [neg_o(f), f])
            dn = net.add("d", [ax.downs[0]], [NWhy(neg_o(f))])
            return Piece(net, {x: dn.downs[0]}, ax.downs[1])

        case App(_, _):
            df, du = d.children
            pf = _go(df, net)
            principal, doors = _boxed(net, _go(du, Net()))
            f = trans_type(d.judgment.type)
            ax = net.add("ax", [], [neg_o(f), f])
            ten = net.add(
                "tensor",
                [principal, ax.downs[0]],
                [dual(net.wires[pf.dist])],
            )
            net.add("cut", [pf.dist, ten.downs[0]], [])
            return Piece(net, _merge_shared(net, pf.wires, doors.wires), ax.downs[1])

        case Abs(x, ann, _):
            (db,) = d.children
            pb = _go(db, net)
            f = trans_type(d.judgment.type)  # ?(ann negated) par the body's
            xw = _bound_wire(net, pb, x, NWhy(f.q))
            par = net.add("par", [xw, pb.dist], [f])
            pb.dist = par.downs[0]
            return pb

        case Mu(a, ann, _):
            (db,) = d.children
            pb = _go(db, net)
            pb.dist = _bound_wire(net, pb, a, trans_type(ann))
            return pb

        case Named(a, _):
            (db,) = d.children
            pb = _go(db, net)
            _name_wire(net, pb, a, pb.dist)
            pb.dist = None
            return pb

        case ESub(_, x, _):
            db, du = d.children
            pb = _go(db, net)
            principal, doors = _boxed(net, _go(du, Net()))
            xw = _bound_wire(net, pb, x, input_of(du.judgment.type))
            net.add("cut", [xw, principal], [])
            return Piece(net, _merge_shared(net, pb.wires, doors.wires), pb.dist)

        case ERepl(_, nn, on, ann, s):
            db, ds = d.children
            pc = _go(db, net)
            _, bty = split_arrow(ann, stack_len(s))
            ps = _go(ds, net, bty)
            merged = Piece(net, _merge_shared(net, pc.wires, ps.wires))
            ow = _bound_wire(net, merged, on, trans_type(ann))
            net.add("cut", [ow, ps.dist], [])
            _name_wire(net, merged, nn, ps.result)
            return merged

        case EmptyStack():
            of = trans_type(result_type)
            ax = net.add("ax", [], [neg_o(of), of])
            return Piece(net, {}, ax.downs[0], ax.downs[1])

        case Push(_, _):
            dh, dt = d.children
            principal, doors = _boxed(net, _go(dh, Net()))
            pt = _go(dt, net, result_type)
            root_f = neg_o(trans_type(fold_stack_type(d.judgment.type, result_type)))
            ten = net.add("tensor", [principal, pt.dist], [root_f])
            return Piece(net, _merge_shared(net, doors.wires, pt.wires), ten.downs[0], pt.result)

    raise TypeError(o)
