"""The pure lambda-mu fragment: beta/mu reduction, sigma-equivalence,
linear mu-redexes, and the projection / expansion maps out of the full
calculus."""

from __future__ import annotations

from .meta import apply_stack, rename, replace, substitute
from .reduction import RuleTag, _plain_tag, _redexes
from .syntax import (
    COMMAND,
    TERM,
    Abs,
    App,
    ERepl,
    ESub,
    Mu,
    Named,
    NameSupply,
    Object,
    Push,
    children,
    count_free,
    dotted,
    empty_stack,
    free_names,
    free_occurrences,
    not_at_all,
    positions,
    rewrite_at,
    rewrite_everywhere,
    sort_of,
    subobject_at,
    supply_for,
    with_children,
)


class NotPureError(Exception):
    pass


def is_pure(o: Object) -> bool:
    return all(not isinstance(sub, (ESub, ERepl)) for _, sub in positions(o))


def require_pure(o: Object) -> None:
    if not is_pure(o):
        raise NotPureError("object contains explicit operators")


# ---------------------------------------------------------------------------
# Redexes and reduction


def lmu_redexes(o: Object) -> list[tuple[str, tuple[int, ...]]]:
    """All beta and mu redex positions of a pure object: there, B is beta
    and M is mu."""
    require_pure(o)
    return [("beta" if tag is RuleTag.B else "mu", p) for tag, p, _ in _redexes(o, _plain_tag)]


def lmu_step(o: Object, p: tuple[int, ...]) -> Object:
    """Contract the beta or mu redex at p."""
    sub = subobject_at(o, p)
    if not (isinstance(sub, App) and isinstance(sub.fun, (Abs, Mu))):
        raise ValueError(f"no lambda-mu redex at {dotted(p)}")
    supply = supply_for(o)
    if isinstance(sub.fun, Abs):
        red = substitute(sub.fun.body, sub.fun.var, sub.arg, supply)
    else:
        mu = sub.fun
        a2 = supply.fresh(mu.name)
        red = Mu(a2, mu.ann, replace(mu.body, a2, mu.name, Push(sub.arg, empty_stack()), supply))
    return rewrite_at(o, p, red, supply)


# ---------------------------------------------------------------------------
# Linear mu-redexes.  A mu-redex (mu a. Q<[a]u>) v is linear when a does not
# occur in u nor in Q and Q fits the restricted context grammar
#   P ::= [] | P t | \x.P | mu b. [g] P
#   Q ::= [] | [b] P<mu g. []>


def is_linear_mu_redex(o: Object, p: tuple[int, ...]) -> bool:
    sub = subobject_at(o, p)
    if not (isinstance(sub, App) and isinstance(sub.fun, Mu)):
        return False
    mu = sub.fun
    a = mu.name
    c = mu.body
    if count_free(a, c) != 1:
        return False
    # locate the unique free [a]u occurrence
    idxs, node = next(free_occurrences(c, a))
    if not isinstance(node, Named):
        return False
    if a in free_names(node.body):
        return False
    return _is_q_path(c, idxs)


def _is_q_path(c: Object, idxs: tuple[int, ...]) -> bool:
    # Q ::= [] | [b] P<mu g. []>, with P descending only through function
    # position, abstraction body, or mu b.[g] P
    if idxs == ():
        return True
    if not isinstance(c, Named):
        return False
    return _is_p_path_to_mu(c.body, idxs[1:])


def _is_p_path_to_mu(t: Object, idxs: tuple[int, ...]) -> bool:
    # walk P steps until we hit the final mu whose body is the hole
    while True:
        if isinstance(t, Mu):
            if idxs == (0,):
                return True
            # otherwise the mu must be a P production: mu b. [g] P
            if (
                len(idxs) >= 2
                and idxs[0] == 0
                and idxs[1] == 0
                and isinstance(t.body, Named)
            ):
                t, idxs = t.body.body, idxs[2:]
                continue
            return False
        if not idxs:
            return False
        i, idxs = idxs[0], idxs[1:]
        match t:
            case App(f, _):
                if i != 0:
                    return False
                t = f
            case Abs(_, _, b):
                if i != 0:
                    return False
                t = b
            case _:
                return False


# ---------------------------------------------------------------------------
# Laurent's sigma-equivalence (both orientations, all contexts)

SIGMA_AXIOMS = (
    "sigma1",
    "sigma2",
    "sigma3",
    "sigma4",
    "sigma5",
    "sigma6",
    "sigma7",
    "sigma8",
)


def _sigma_rewrites(sub: Object, supply: NameSupply) -> list[tuple[str, str, Object]]:
    """All single sigma rewrites of the given subobject (at its root)."""
    out: list[tuple[str, str, Object]] = []

    def naa(ident, *objs):
        return all(not_at_all(ident, ob) for ob in objs)

    match sub:
        # sigma1: (\y.\x.t) v  =  \x.(\y.t) v,  x # v
        case App(Abs(y, anny, Abs(x, annx, t)), v) if x != y and naa(x, v):
            out.append(("sigma1", "LR", Abs(x, annx, App(Abs(y, anny, t), v))))
    match sub:
        case Abs(x, annx, App(Abs(y, anny, t), v)) if x != y and naa(x, v):
            out.append(("sigma1", "RL", App(Abs(y, anny, Abs(x, annx, t)), v)))
    match sub:
        # sigma2: (\x.t v) u  =  ((\x.t) u) v,  x # v
        case App(Abs(x, annx, App(t, v)), u) if naa(x, v):
            out.append(("sigma2", "LR", App(App(Abs(x, annx, t), u), v)))
    match sub:
        case App(App(Abs(x, annx, t), u), v) if naa(x, v):
            out.append(("sigma2", "RL", App(Abs(x, annx, App(t, v)), u)))
    match sub:
        # sigma3: (\x. mu a.[b]u) w  =  mu a.[b](\x.u) w,  a # w
        case App(Abs(x, annx, Mu(a, anna, Named(b, u))), w) if naa(a, w):
            out.append(
                ("sigma3", "LR", Mu(a, anna, Named(b, App(Abs(x, annx, u), w))))
            )
    match sub:
        case Mu(a, anna, Named(b, App(Abs(x, annx, u), w))) if naa(a, w):
            out.append(
                ("sigma3", "RL", App(Abs(x, annx, Mu(a, anna, Named(b, u))), w))
            )
    match sub:
        # sigma4: [a2](mu a.[b2](mu b. c) w) v = [b2](mu b.[a2](mu a. c) v) w
        # with a # w, b # v, b != a2, a != b2; the equation is its own
        # converse, so one orientation covers both
        case Named(a2, App(Mu(a, anna, Named(b2, App(Mu(b, annb, c), w))), v)) if (
            a != b and naa(a, w) and naa(b, v) and b != a2 and a != b2
        ):
            out.append(
                (
                    "sigma4",
                    "LR",
                    Named(b2, App(Mu(b, annb, Named(a2, App(Mu(a, anna, c), v))), w)),
                )
            )
    match sub:
        # sigma5: [a2](mu a.[b2]\x. mu b. c) v  =  [b2]\x. mu b.[a2](mu a. c) v
        # with x # v, b # v, b != a2, a != b2
        case Named(a2, App(Mu(a, anna, Named(b2, Abs(x, annx, Mu(b, annb, c)))), v)) if (
            a != b and naa(x, v) and naa(b, v) and b != a2 and a != b2
        ):
            out.append(
                (
                    "sigma5",
                    "LR",
                    Named(b2, Abs(x, annx, Mu(b, annb, Named(a2, App(Mu(a, anna, c), v))))),
                )
            )
    match sub:
        case Named(b2, Abs(x, annx, Mu(b, annb, Named(a2, App(Mu(a, anna, c), v))))) if (
            a != b and naa(x, v) and naa(b, v) and b != a2 and a != b2
        ):
            out.append(
                (
                    "sigma5",
                    "RL",
                    Named(a2, App(Mu(a, anna, Named(b2, Abs(x, annx, Mu(b, annb, c)))), v)),
                )
            )
    match sub:
        # sigma6: [a2]\x. mu a.[b2]\y. mu b. c = [b2]\y. mu b.[a2]\x. mu a. c
        # with b != a2, a != b2
        case Named(
            a2, Abs(x, annx, Mu(a, anna, Named(b2, Abs(y, anny, Mu(b, annb, c)))))
        ) if a != b and b != a2 and a != b2 and x != y:
            out.append(
                (
                    "sigma6",
                    "LR",
                    Named(
                        b2,
                        Abs(y, anny, Mu(b, annb, Named(a2, Abs(x, annx, Mu(a, anna, c))))),
                    ),
                )
            )
    match sub:
        # sigma7: [a] mu b. c  =  c{b -> a}  (implicit renaming)
        case Named(a, Mu(b, _, c)):
            out.append(("sigma7", "LR", rename(c, a, b)))
    # sigma7 RL: c = rename(c0, a, b) for a fresh b and some subset of the
    # free a-occurrences; enumerating the literal inverse (all occurrences)
    if sort_of(sub) == COMMAND:
        for a in sorted(free_names(sub)):
            b = supply.fresh("'b")
            out.append(("sigma7", "RL", Named(a, Mu(b, None, rename(sub, b, a)))))
    match sub:
        # sigma8: mu a.[a]v = v,  a # v
        case Mu(a, _, Named(a2, v)) if a == a2 and naa(a, v):
            out.append(("sigma8", "LR", v))
    if sort_of(sub) == TERM:
        a = supply.fresh("'a")
        out.append(("sigma8", "RL", Mu(a, None, Named(a, sub))))
    return out


def sigma_instances(o: Object) -> list[tuple[str, str, tuple[int, ...], Object]]:
    """All positions where a sigma axiom applies in either orientation,
    together with the rewritten object."""
    require_pure(o)
    supply = supply_for(o)
    out = []
    # no sigma orientation yields a free identifier that its subobject lacks
    for idxs, (axiom, orient, _), res in rewrite_everywhere(
        o, lambda sub: _sigma_rewrites(sub, supply)
    ):
        out.append((axiom, orient, idxs, res))
    return out


# ---------------------------------------------------------------------------
# Projection (execute all explicit operators) and expansion (unfold them)


def project(o: Object, supply: NameSupply | None = None) -> Object:
    """Execute every explicit substitution and replacement."""
    if supply is None:
        supply = supply_for(o)
    cs = children(o)
    if not cs:
        return o
    cs = tuple(project(c, supply) for c in cs)
    t = type(o)
    if t is ESub:
        return substitute(cs[0], o.var, cs[1], supply)
    if t is ERepl:
        return replace(cs[0], o.new, o.old, cs[1], supply)
    return with_children(o, cs)


def expand(o: Object) -> Object:
    """Unfold explicit operators into pure syntax:
    t[x\\u] becomes (\\x.t) u and c['b/'a\\s] becomes ['b](mu 'a. c)``s."""
    cs = children(o)
    if not cs:
        return o
    cs = tuple(map(expand, cs))
    t = type(o)
    if t is ESub:
        return App(Abs(o.var, None, cs[0]), cs[1])
    if t is ERepl:
        return Named(o.new, apply_stack(Mu(o.old, o.ann, cs[0]), cs[1]))
    return with_children(o, cs)
