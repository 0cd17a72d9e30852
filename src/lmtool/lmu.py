"""The pure lambda-mu fragment: beta/mu reduction, sigma-equivalence,
linear mu-redexes, and the projection / expansion maps out of the full
calculus.

Each of these reads the full calculus rather than restating it.  A beta
step is B then S at the redex, and a mu step is M at the redex then R at
the replacement below it.  A mu-redex is linear when its M step leaves a
replacement that classifies as Nlin.  Sigma-equivalence lists every
equation in both orientations; sigma1 to sigma6 are templates that one
matcher reads both ways.
"""

from __future__ import annotations

from .meta import apply_stack, rename
from .reduction import RuleTag, _plain_tag, _redexes, classify_R_info, lm_step
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
    children,
    dotted,
    free_names,
    not_at_all,
    positions,
    rewrite_everywhere,
    sort_of,
    subobject_at,
    supply_for,
    template_rewrites,
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

# per opening rule of a lambda-mu step, the closing rule and where it fires
# below the redex
_CLOSE = {RuleTag.B: (RuleTag.S, ()), RuleTag.M: (RuleTag.R, (0,))}


def lmu_redexes(o: Object) -> list[tuple[str, tuple[int, ...]]]:
    """All beta and mu redex positions of a pure object: there, B is beta
    and M is mu."""
    require_pure(o)
    return [("beta" if tag is RuleTag.B else "mu", p) for tag, p in _redexes(o, _plain_tag)]


def lmu_step(o: Object, p: tuple[int, ...]) -> Object:
    """Contract the beta or mu redex at p of a pure object; one supply
    serves both steps."""
    require_pure(o)
    tag = _plain_tag(subobject_at(o, p))
    if tag is None:
        raise ValueError(f"no lambda-mu redex at {dotted(p)}")
    close, below = _CLOSE[tag]
    supply = supply_for(o)
    return lm_step(lm_step(o, tag, p, supply), close, p + below, supply)


def is_linear_mu_redex(o: Object, p: tuple[int, ...]) -> bool:
    """A mu-redex (mu a. c) v of a pure object is linear when its M step
    leaves an Nlin replacement: a occurs once in c, as [a]u, under a
    linear context."""
    require_pure(o)
    if _plain_tag(subobject_at(o, p)) is not RuleTag.M:
        return False
    return classify_R_info(lm_step(o, RuleTag.M, p), p + (0,))[0] is RuleTag.N_LIN


# ---------------------------------------------------------------------------
# Laurent's sigma-equivalence (both orientations, all contexts).  sigma1 to
# sigma6 are templates over t, u, v, w (terms), c (a command), x, y
# (variables), a, b, a2, b2 (names) and their annotations; sigma4 and
# sigma6 are their own converses, so each LR rewrite has an RL twin.
# sigma7 and sigma8 issue fresh names right to left and stay code.

SIGMA_AXIOMS = tuple(f"sigma{k}" for k in range(1, 9))

SIGMA_EQUATIONS = (
    # sigma1: (\y.\x.t) v  =  \x.(\y.t) v,  x # v
    ("sigma1",
     App(Abs("y", "anny", Abs("x", "annx", "t")), "v"),
     Abs("x", "annx", App(Abs("y", "anny", "t"), "v")),
     lambda x, y, v, **_: x != y and not_at_all(x, v)),
    # sigma2: (\x.t v) u  =  ((\x.t) u) v,  x # v
    ("sigma2",
     App(Abs("x", "annx", App("t", "v")), "u"),
     App(App(Abs("x", "annx", "t"), "u"), "v"),
     lambda x, v, **_: not_at_all(x, v)),
    # sigma3: (\x. mu a.[b]u) w  =  mu a.[b](\x.u) w,  a # w
    ("sigma3",
     App(Abs("x", "annx", Mu("a", "anna", Named("b", "u"))), "w"),
     Mu("a", "anna", Named("b", App(Abs("x", "annx", "u"), "w"))),
     lambda a, w, **_: not_at_all(a, w)),
    # sigma4: [a2](mu a.[b2](mu b. c) w) v  =  [b2](mu b.[a2](mu a. c) v) w,
    # a # w, b # v, b != a2, a != b2
    ("sigma4",
     Named("a2", App(Mu("a", "anna", Named("b2", App(Mu("b", "annb", "c"), "w"))), "v")),
     Named("b2", App(Mu("b", "annb", Named("a2", App(Mu("a", "anna", "c"), "v"))), "w")),
     lambda a, b, a2, b2, v, w, **_: (
         a != b and not_at_all(a, w) and not_at_all(b, v) and b != a2 and a != b2
     )),
    # sigma5: [a2](mu a.[b2]\x. mu b. c) v  =  [b2]\x. mu b.[a2](mu a. c) v,
    # x # v, b # v, b != a2, a != b2
    ("sigma5",
     Named("a2", App(Mu("a", "anna", Named("b2", Abs("x", "annx", Mu("b", "annb", "c")))), "v")),
     Named("b2", Abs("x", "annx", Mu("b", "annb", Named("a2", App(Mu("a", "anna", "c"), "v"))))),
     lambda a, b, a2, b2, x, v, **_: (
         a != b and not_at_all(x, v) and not_at_all(b, v) and b != a2 and a != b2
     )),
    # sigma6: [a2]\x. mu a.[b2]\y. mu b. c  =  [b2]\y. mu b.[a2]\x. mu a. c,
    # b != a2, a != b2
    ("sigma6",
     Named("a2", Abs("x", "annx", Mu("a", "anna",
                                     Named("b2", Abs("y", "anny", Mu("b", "annb", "c")))))),
     Named("b2", Abs("y", "anny", Mu("b", "annb",
                                     Named("a2", Abs("x", "annx", Mu("a", "anna", "c")))))),
     lambda a, b, a2, b2, x, y, **_: a != b and b != a2 and a != b2 and x != y),
)


def _sigma_rewrites(sub: Object, supply: NameSupply) -> list[tuple[str, str, Object]]:
    """All single sigma rewrites of the given subobject (at its root)."""
    out = template_rewrites(sub, SIGMA_EQUATIONS)
    # sigma7: [a] mu b. c  =  c{b -> a}  (implicit renaming); right to
    # left, every free a-occurrence goes under a fresh b
    match sub:
        case Named(a, Mu(b, _, c)):
            out.append(("sigma7", "LR", rename(c, a, b)))
    if sort_of(sub) == COMMAND:
        for a in sorted(free_names(sub)):
            b = supply.fresh("'b")
            out.append(("sigma7", "RL", Named(a, Mu(b, None, rename(sub, b, a)))))
    # sigma8: mu a.[a]v = v,  a # v
    match sub:
        case Mu(a, _, Named(a2, v)) if a == a2 and not_at_all(a, v):
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


# the rule that executes each explicit operator
_EXECUTE = {ESub: RuleTag.S, ERepl: RuleTag.R}


def project(o: Object, supply: NameSupply | None = None) -> Object:
    """Execute every explicit substitution and replacement: fire S or R at
    each one once its parts are projected."""
    if supply is None:
        supply = supply_for(o)
    cs = children(o)
    if not cs:
        return o
    o = with_children(o, tuple(project(c, supply) for c in cs))
    tag = _EXECUTE.get(type(o))
    return o if tag is None else lm_step(o, tag, (), supply)


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
