"""Deterministic random generators: well-typed objects built rule by rule,
and canonical one-axiom pairs for the bisimulation driver."""

from __future__ import annotations

import random
from typing import Optional

from .equivalence import Axiom, _stack_inert, _subtree_rewrites, axiom_instances
from .gen_random import random_object, raw_object
from .reduction import canon, is_canonical
from .syntax import (
    Abs,
    App,
    Arrow,
    Base,
    ERepl,
    ESub,
    Mu,
    Named,
    Object,
    Push,
    Type,
    Var,
    barendregt,
    canonical_key,
    empty_stack,
    sort_of,
    supply_for,
)
from .typing_util import fold_stack_type

# ---------------------------------------------------------------------------
# Typed generation


_BASES = (Base("A"), Base("B"))


class _TypedGen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.counter = 0
        self.gamma: dict[str, Type] = {}
        self.delta: dict[str, Type] = {}

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def random_type(self, depth: int = 2) -> Type:
        if depth <= 0 or self.rng.random() < 0.55:
            return self.rng.choice(_BASES)
        return Arrow(self.random_type(depth - 1), self.random_type(depth - 1))

    def pick(self, a: Type, scope: dict[str, Type], env: dict[str, Type],
             prefix: str) -> str:
        """An identifier of type a: mostly one already in scope or in env,
        else a fresh one that env learns."""
        rng = self.rng
        cands = [k for k, t in scope.items() if t == a]
        cands += [k for k, t in env.items() if t == a]
        if cands and rng.random() < 0.7:
            return rng.choice(cands)
        k = self.fresh(prefix)
        env[k] = a
        return k

    # --- terms ---------------------------------------------------------

    def term(self, a: Type, fuel: int, sg: dict[str, Type], sd: dict[str, Type]) -> Object:
        rng = self.rng
        if fuel <= 1:
            return Var(self.pick(a, sg, self.gamma, "z"))
        choices = ["app", "mu", "var"]
        if isinstance(a, Arrow):
            choices += ["abs", "abs"]
        choices += ["sub"]
        match rng.choice(choices):
            case "var":
                return Var(self.pick(a, sg, self.gamma, "z"))
            case "abs":
                x = self.fresh("x")
                body = self.term(a.right, fuel - 1, {**sg, x: a.left}, sd)
                return Abs(x, a.left, body)
            case "mu":
                n = self.fresh("'m")
                body = self.command(fuel - 1, sg, {**sd, n: a})
                return Mu(n, a, body)
            case "app":
                c = self.random_type(1)
                k = rng.randint(1, fuel - 1)
                f = self.term(Arrow(c, a), k, sg, sd)
                u = self.term(c, fuel - k, sg, sd)
                return App(f, u)
            case "sub":
                c = self.random_type(1)
                x = self.fresh("x")
                k = rng.randint(1, fuel - 1)
                body = self.term(a, k, {**sg, x: c}, sd)
                u = self.term(c, fuel - k, sg, sd)
                return ESub(body, x, u)
        raise AssertionError

    # --- commands ------------------------------------------------------

    def command(self, fuel: int, sg: dict[str, Type], sd: dict[str, Type]) -> Object:
        rng = self.rng
        if fuel > 3 and rng.random() < 0.35:
            # explicit replacement
            b = self.random_type(1)
            arity = rng.randint(0, 2)
            stypes = tuple(self.random_type(1) for _ in range(arity))
            ann = fold_stack_type(stypes, b)
            on = self.fresh("'r")
            nn = self.pick(b, sd, self.delta, "'f")
            k = rng.randint(1, fuel - 1)
            body = self.command(k, sg, {**sd, on: ann, nn: b})
            stack: Object = empty_stack()
            left = fuel - k
            for st in reversed(stypes):
                kk = max(1, left // max(1, arity))
                stack = Push(self.term(st, kk, sg, sd), stack)
            return ERepl(body, nn, on, ann, stack)
        a = self.random_type(1)
        n = self.pick(a, sd, self.delta, "'f")
        return Named(n, self.term(sd.get(n, self.delta.get(n, a)), max(1, fuel - 1), sg, sd))


def gen_typed(seed: int, size: int = 20) -> tuple[Object, dict[str, Type], dict[str, Type]]:
    """A well-typed annotated object with the environments for its free
    variables and names; deterministic per seed."""
    rng = random.Random(seed)
    g = _TypedGen(rng)
    if rng.random() < 0.7:
        o = g.term(g.random_type(2), max(1, size), {}, {})
    else:
        o = g.command(max(1, size), {}, {})
    return o, dict(g.gamma), dict(g.delta)


# ---------------------------------------------------------------------------
# Canonical one-axiom pairs


def _raw_piece(rng: random.Random, size: int, sort: str) -> Object:
    # barendregt and canon keep the sort and draw nothing from rng, so a
    # draw of the wrong sort is dropped before either runs
    while True:
        o = raw_object(rng, size)
        if sort_of(o) == sort:
            return o


def _canonical(piece: Object) -> Object:
    """A raw piece as random_object and then canon would give it."""
    return canon(barendregt(piece))


def _template(rng: random.Random, axiom: str) -> Object:
    # every piece is drawn, so that each axiom's draws leave rng as the
    # others do, and only the pieces that the axiom uses are canonicalized
    i = rng.randrange(10**6)
    v = _raw_piece(rng, 6, "term")
    u = _raw_piece(rng, 5, "term")
    cc = _raw_piece(rng, 6, "command")
    tt = _raw_piece(rng, 3, "term")
    match axiom:
        case "exs":
            v, u, tt = _canonical(v), _canonical(u), _canonical(tt)
            # ([q](v zz))-style linear wrap with the substitution outside
            x = f"gx{i}"
            body = rng.choice(
                [
                    Abs(f"gy{i}", None, App(Var(x), v)),
                    Mu(f"'gm{i}", None, Named(f"'gf{i}", App(Var(x), v))),
                    App(App(Var(x), v), tt),
                ]
            )
            return ESub(body, x, u)
        case "exr":
            u, tt = _canonical(u), _canonical(tt)
            on, nn = f"'go{i}", f"'gn{i}"
            inner = Named(on, tt)
            lcc = rng.choice(
                [
                    Named(f"'gf{i}", Mu(f"'gm{i}", None, inner)),
                    ERepl(inner, f"'ge{i}", f"'gq{i}", None, empty_stack()),
                ]
            )
            stack = rng.choice([empty_stack(), Push(u, empty_stack())])
            return ERepl(lcc, nn, on, None, stack)
        case "lin":
            u, tt = _canonical(u), _canonical(tt)
            on, nn = f"'go{i}", f"'gn{i}"
            while not _stack_inert(tt):
                tt = _canonical(_raw_piece(rng, 2, "term"))
            return ERepl(Named(on, tt), nn, on, None, Push(u, empty_stack()))
        case "pp":
            cc = _canonical(cc)
            return Named(
                f"'pa{i}",
                Abs(
                    f"px{i}",
                    None,
                    Mu(
                        f"'pb{i}",
                        None,
                        Named(
                            f"'pc{i}",
                            Abs(f"py{i}", None, Mu(f"'pd{i}", None, cc)),
                        ),
                    ),
                ),
            )
        case "rho":
            cc = _canonical(cc)
            return Named(f"'ga{i}", Mu(f"'gb{i}", None, cc))
        case "theta":
            tt = _canonical(tt)
            a = f"'gt{i}"
            return Mu(a, None, Named(a, tt))
        case "ren":
            cc = _canonical(cc)
            on, nn = f"'go{i}", f"'gn{i}"
            return ERepl(cc, nn, on, None, empty_stack())
    raise ValueError(axiom)


def axiom_choices(o: Object, axiom: str) -> list[tuple[Axiom, Object]]:
    """The canonical instances of axiom that gen_equiv_pair draws from: those
    at the root of the canonical object o, where the templates put them, or
    failing those, the ones anywhere in o.

    Only the root's rewrites are built and keyed; the root comes first in
    pre-order, so they get the fresh names that axiom_instances gives them."""
    include_ren = axiom == "ren"
    roots = [
        (Axiom(name, orient, (), canonical_key(r)), r)
        for name, orient, r in _subtree_rewrites(o, supply_for(o), include_ren)
        if name == axiom and is_canonical(r)
    ]
    if roots:
        return roots
    return [(ax, r) for ax, r in axiom_instances(o, include_ren) if ax.name == axiom]


def gen_equiv_pair(
    seed: int,
    size: int = 8,
    axiom: Optional[str] = None,
) -> tuple[Object, Object, Axiom]:
    """A canonical object, a one-axiom rewrite of it, and the axiom used;
    ren is drawn only when asked for.  Retries internally until an
    instance of the requested axiom exists."""
    rng = random.Random(seed)
    for _ in range(200):
        if axiom is None:
            o = canon(random_object(rng, size))
            insts = axiom_instances(o)
        else:
            o = _template(rng, axiom)
            if not is_canonical(o):
                continue
            insts = axiom_choices(o, axiom)
        if not insts:
            continue
        ax, r = insts[rng.randrange(len(insts))]
        return o, r, ax
    raise RuntimeError(f"could not build an instance of {axiom}")
