"""The pure lambda-mu fragment: beta/mu reduction, sigma-equivalence,
linear mu-redexes, and the projection / expansion maps out of the full
calculus."""

from __future__ import annotations

from .meta import apply_stack, replace, substitute
from .syntax import (
    COMMAND,
    TERM,
    Abs,
    App,
    EmptyStack,
    ERepl,
    ESub,
    Mu,
    Named,
    NameSupply,
    Object,
    Path,
    Push,
    Var,
    count_free,
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
)
from .meta import rename


class NotPureError(Exception):
    pass


def is_pure(o: Object) -> bool:
    return all(not isinstance(sub, (ESub, ERepl)) for _, sub in positions(o))


def require_pure(o: Object) -> None:
    if not is_pure(o):
        raise NotPureError("object contains explicit operators")


# ---------------------------------------------------------------------------
# Redexes and reduction


def lmu_redexes(o: Object) -> list[tuple[str, Path]]:
    """All beta and mu redex positions of a pure object."""
    require_pure(o)
    out = []
    for idxs, sub in positions(o):
        if isinstance(sub, App):
            if isinstance(sub.fun, Abs):
                out.append(("beta", Path(idxs, TERM)))
            elif isinstance(sub.fun, Mu):
                out.append(("mu", Path(idxs, TERM)))
    return out


def lmu_step(o: Object, p: Path, supply: NameSupply | None = None) -> Object:
    """Contract the beta or mu redex at p."""
    sub = subobject_at(o, p)
    if not (isinstance(sub, App) and isinstance(sub.fun, (Abs, Mu))):
        raise ValueError(f"no lambda-mu redex at {p}")
    if supply is None:
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


def is_linear_mu_redex(o: Object, p: Path) -> bool:
    sub = subobject_at(o, p)
    if not (isinstance(sub, App) and isinstance(sub.fun, Mu)):
        return False
    mu = sub.fun
    a = mu.name
    c = mu.body
    if count_free(a, c) != 1:
        return False
    # locate the unique free [a]u occurrence
    occ = next(free_occurrences(c, a), None)
    if occ is None or not isinstance(occ[1], Named):
        return False
    idxs, node = occ
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


def sigma_instances(o: Object) -> list[tuple[str, str, Path, Object]]:
    """All positions where a sigma axiom applies in either orientation,
    together with the rewritten object."""
    require_pure(o)
    supply = supply_for(o)
    out = []
    # no sigma orientation yields a free identifier that its subobject lacks
    for idxs, (axiom, orient, new), res in rewrite_everywhere(
        o, lambda sub: _sigma_rewrites(sub, supply)
    ):
        out.append((axiom, orient, Path(idxs, sort_of(new)), res))
    return out


# ---------------------------------------------------------------------------
# Projection (execute all explicit operators) and expansion (unfold them)


def project(o: Object, supply: NameSupply | None = None) -> Object:
    """Execute every explicit substitution and replacement."""
    if supply is None:
        supply = supply_for(o)
    match o:
        case Var(_) | EmptyStack():
            return o
        case App(f, a):
            return App(project(f, supply), project(a, supply))
        case Abs(x, ann, b):
            return Abs(x, ann, project(b, supply))
        case Mu(a, ann, b):
            return Mu(a, ann, project(b, supply))
        case ESub(b, x, u):
            return substitute(project(b, supply), x, project(u, supply), supply)
        case Named(a, b):
            return Named(a, project(b, supply))
        case ERepl(b, nn, on, _, s):
            return replace(project(b, supply), nn, on, project(s, supply), supply)
        case Push(h, t):
            return Push(project(h, supply), project(t, supply))
    raise TypeError(o)


def expand(o: Object) -> Object:
    """Unfold explicit operators into pure syntax:
    t[x\\u] becomes (\\x.t) u and c['b/'a\\s] becomes ['b](mu 'a. c)``s."""
    match o:
        case Var(_) | EmptyStack():
            return o
        case App(f, a):
            return App(expand(f), expand(a))
        case Abs(x, ann, b):
            return Abs(x, ann, expand(b))
        case Mu(a, ann, b):
            return Mu(a, ann, expand(b))
        case ESub(b, x, u):
            return App(Abs(x, None, expand(b)), expand(u))
        case Named(a, b):
            return Named(a, expand(b))
        case ERepl(b, nn, on, ann, s):
            return Named(nn, apply_stack(Mu(on, ann, expand(b)), expand(s)))
        case Push(h, t):
            return Push(expand(h), expand(t))
    raise TypeError(o)
