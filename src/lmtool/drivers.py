"""Theorem-checking drivers: bisimulation matching, the sigma
counterexample, confluence, sigma-correspondence, and typed instance
builders for the net-level checks."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .equivalence import Axiom, ExpansionCache, equiv
from .generators import _TypedGen, gen_typed
from .lmu import lmu_redexes, sigma_instances
from .meta import apply_stack, rename, stack_of
from .reduction import (
    BudgetExhausted,
    RuleTag,
    canon,
    classify_R_info,
    fire,
    is_canonical,
    lm_redexes,
    lm_step,
    meaningful_reducts,
    reduction_graph,
)
from .syntax import (
    COMMAND,
    Abs,
    App,
    Arrow,
    ERepl,
    ESub,
    Mu,
    Named,
    Object,
    Path,
    Type,
    Var,
    alpha_eq,
    canonical_key,
    empty_stack,
    print_object,
)
from .typing_util import fold_stack_type

# ---------------------------------------------------------------------------
# Strong bisimulation driver


@dataclass
class BisimReport:
    ok: bool
    axiom: Optional[Axiom]
    checked: int = 0
    details: list[str] = field(default_factory=list)
    searches: int = 0  # equiv searches run
    not_within_bounds: int = 0  # searches that ended NOT-WITHIN-BOUNDS
    cache_hits: int = 0  # expansions served from the shared cache


def bisim_driver(
    o: Object,
    p: Object,
    axiom: Optional[Axiom] = None,
    max_states: int = 1500,
    max_depth: int = 6,
) -> BisimReport:
    """For every meaningful redex of o there must be a meaningful reduct of
    p equivalent to o's reduct, and symmetrically.

    Each side is reduced once, and every search of the call shares one
    expansion cache, so a state that an earlier search expanded is not
    expanded again; no search outcome changes."""
    report = BisimReport(True, axiom)
    cache = ExpansionCache()
    # each side's meaningful reducts with their keys, used in both directions
    ro, rp = (
        [(tag, path, r, canonical_key(r)) for tag, path, r in meaningful_reducts(side)]
        for side in (o, p)
    )

    def match_side(a: Object, ra: list, b: Object, rb: list, side: str) -> None:
        for tag, path, a2, ka in ra:
            found = False
            for _, _, b2, kb in rb:
                if ka == kb:
                    found = True
                    break
                res = equiv(
                    a2,
                    b2,
                    max_states=max_states,
                    max_depth=max_depth,
                    expansive=False,
                    keys=(ka, kb),
                    cache=cache,
                )
                report.searches += 1
                if res.equivalent:
                    found = True
                    break
                report.not_within_bounds += 1
            report.checked += 1
            if not found:
                report.ok = False
                report.details.append(
                    f"{side}: step {tag.value} @"
                    f" {'.'.join(map(str, path.steps))} of"
                    f" {print_object(a)} reaches {print_object(a2)},"
                    f" unmatched by {print_object(b)}"
                )

    match_side(o, ro, p, rp, "left")
    match_side(p, rp, o, ro, "right")
    report.cache_hits = cache.hits
    return report


# ---------------------------------------------------------------------------
# The sigma counterexample (strong bisimulation fails for pure lambda-mu)


def sigma_not_strong_bisimulation() -> dict:
    """The introduction's pair: (mu a.[a]x) y and x y are sigma-equivalent
    but have different redex counts, so no one-step match exists."""
    from .syntax import parse

    lhs = parse("(mu 'a. ['a]x) y", freshen=False)
    rhs = parse("x y", freshen=False)
    related = any(
        alpha_eq(r, rhs) for _, _, _, r in sigma_instances(lhs)
    )
    lr = lmu_redexes(lhs)
    rr = lmu_redexes(rhs)
    return {
        "sigma_related": related,
        "lhs_redexes": len(lr),
        "rhs_redexes": len(rr),
        "mismatch": related and len(lr) == 1 and len(rr) == 0,
    }


# ---------------------------------------------------------------------------
# Confluence


def confluence_check(o: Object, max_states: int = 10000) -> tuple[bool, str]:
    """All maximal plain reduction sequences of o end at one normal form."""
    try:
        _, nfs = reduction_graph(o, max_states=max_states)
    except BudgetExhausted:
        return False, "state budget exhausted"
    if not nfs:
        return False, "no normal form within the explored graph"
    first = nfs[0]
    for other in nfs[1:]:
        if not alpha_eq(first, other):
            return False, f"distinct normal forms: {print_object(first)} vs {print_object(other)}"
    return True, f"{len(nfs)} normal-form occurrences agree"


# ---------------------------------------------------------------------------
# Correspondence with sigma


def sigma_correspondence_case(
    o: Object, p: Object, max_states: int = 20000, max_depth: int = 12
):
    """canon(o) and canon(p) must be joinable by the axioms extended with
    renaming."""
    return equiv(
        canon(o), canon(p), max_states=max_states, max_depth=max_depth, include_ren=True
    )


# ---------------------------------------------------------------------------
# Typed instances of the equivalence axioms (for the net-level soundness
# suite) and of canonical-form steps


class TypedPairs:
    """Builds typed pairs (lhs, rhs, gamma, delta) for each axiom; lhs and
    rhs are canonical and related by one axiom instance."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.gen = _TypedGen(self.rng, ("A", "B"))
        self.i = 0

    def _n(self, prefix: str) -> str:
        self.i += 1
        return f"{prefix}{self.i}"

    def _term(self, ty: Type, fuel: int = 3, sg=None, sd=None) -> Object:
        return self.gen.term(ty, fuel, sg or {}, sd or {})

    def _command(self, fuel: int = 3, sd=None) -> Object:
        return self.gen.command(fuel, {}, sd or {})

    def _stack(self, tys: tuple[Type, ...]) -> Object:
        return stack_of([self._term(t, 2) for t in tys])

    def envs(self) -> tuple[dict, dict]:
        return dict(self.gen.gamma), dict(self.gen.delta)

    def build(self, axiom: str) -> tuple[Object, Object, dict, dict]:
        for _ in range(100):
            self.gen = _TypedGen(self.rng, ("A", "B"))
            lhs, rhs, extra_d = getattr(self, "_" + axiom)()
            g, d = self.envs()
            d.update(extra_d)
            if is_canonical(lhs) and is_canonical(rhs):
                return lhs, rhs, g, d
        raise RuntimeError(f"no canonical typed instance of {axiom}")

    def _exs(self):
        a = self.gen.random_type(1)
        b = self.gen.random_type(1)
        x = self._n("tx")
        u = self._term(b, 2)
        shape = self.rng.randrange(3)
        if shape == 0:
            y, cty = self._n("ty"), self.gen.random_type(1)
            v = self._term(a, 2, sg={x: b, y: cty})
            lhs = ESub(Abs(y, cty, v), x, u)
            rhs = Abs(y, cty, ESub(v, x, u))
        elif shape == 1:
            cty = self.gen.random_type(1)
            v = self._term(Arrow(cty, a), 2, sg={x: b})
            t = self._term(cty, 2)
            lhs = ESub(App(v, t), x, u)
            rhs = App(ESub(v, x, u), t)
        else:
            an, bn = self._n("'ta"), self._n("'tb")
            tb = self.gen.random_type(1)
            self.gen.delta[bn] = tb
            v = self._term(tb, 2, sg={x: b})
            lhs = ESub(Mu(an, a, Named(bn, v)), x, u)
            rhs = Mu(an, a, Named(bn, ESub(v, x, u)))
        return lhs, rhs, {}

    def _exr(self):
        bty = self.gen.random_type(1)
        stys = tuple(self.gen.random_type(1) for _ in range(self.rng.randrange(2)))
        tann = fold_stack_type(stys, bty)
        on, nn = self._n("'to"), self._n("'tn")
        z = self._n("tz")
        self.gen.gamma[z] = tann
        c0 = Named(on, Var(z))
        s = self._stack(stys)
        gn, dn = self._n("'tg"), self._n("'td")
        mty = self.gen.random_type(1)
        self.gen.delta[gn] = mty
        lcc_inner = Named(gn, Mu(dn, mty, c0))
        lhs = ERepl(lcc_inner, nn, on, tann, s)
        rhs = Named(gn, Mu(dn, mty, ERepl(c0, nn, on, tann, s)))
        return lhs, rhs, {nn: bty}

    def _lin(self):
        from .equivalence import _stack_inert

        bty = self.gen.random_type(1)
        stys = tuple(
            self.gen.random_type(1) for _ in range(1 + self.rng.randrange(2))
        )
        tann = fold_stack_type(stys, bty)
        on, nn = self._n("'to"), self._n("'tn")
        u = self._term(tann, 3)
        while not _stack_inert(u):
            u = self._term(tann, 3)
        s = self._stack(stys)
        lhs = ERepl(Named(on, u), nn, on, tann, s)
        rhs = Named(nn, canon(apply_stack(u, s)))
        return lhs, rhs, {nn: bty}

    def _pp(self):
        ax_t, bx_t = self.gen.random_type(1), self.gen.random_type(1)
        ta, tb = self.gen.random_type(1), self.gen.random_type(1)
        an, bn = self._n("'tA"), self._n("'tB")
        x, y = self._n("tx"), self._n("ty")
        a2, b2 = self._n("'ta"), self._n("'tb")
        c = self._command(3, sd={a2: ta, b2: tb})
        lhs = Named(
            an, Abs(x, ax_t, Mu(a2, ta, Named(bn, Abs(y, bx_t, Mu(b2, tb, c)))))
        )
        rhs = Named(
            bn, Abs(y, bx_t, Mu(b2, tb, Named(an, Abs(x, ax_t, Mu(a2, ta, c)))))
        )
        return lhs, rhs, {an: Arrow(ax_t, ta), bn: Arrow(bx_t, tb)}

    def _rho(self):
        t = self.gen.random_type(1)
        a, b = self._n("'ta"), self._n("'tb")
        c = self._command(3, sd={b: t})
        lhs = Named(a, Mu(b, t, c))
        rhs = ERepl(c, a, b, t, empty_stack())
        return lhs, rhs, {a: t}

    def _theta(self):
        t = self.gen.random_type(1)
        a = self._n("'ta")
        body = self._term(t, 3)
        return Mu(a, t, Named(a, body)), body, {}

    def _ren(self):
        t = self.gen.random_type(1)
        a, b = self._n("'ta"), self._n("'tb")
        c = self._command(3, sd={b: t})
        lhs = ERepl(c, a, b, t, empty_stack())
        rhs = rename(c, a, b)
        return lhs, rhs, {a: t}

    # --- canonical-form steps (C and W) -------------------------------------

    def build_cw_step(self, which: str) -> tuple[Object, Object, RuleTag, dict, dict]:
        """A typed command with a linear C or W redex at the root, and its
        reduct."""
        for _ in range(100):
            self.gen = _TypedGen(self.rng, ("A", "B"))
            bty = self.gen.random_type(1)
            outer_tys = tuple(
                self.gen.random_type(1) for _ in range(1 + self.rng.randrange(2))
            )
            inner_tys = (
                ()
                if which == "W"
                else tuple(
                    self.gen.random_type(1) for _ in range(1 + self.rng.randrange(2))
                )
            )
            t_beta = fold_stack_type(inner_tys, fold_stack_type(outer_tys, bty))
            beta, alpha, alpha2 = self._n("'tb"), self._n("'ta"), self._n("'tq")
            z = self._n("tz")
            self.gen.gamma[z] = t_beta
            inner = ERepl(
                Named(beta, Var(z)), alpha, beta, t_beta, self._stack(inner_tys)
            )
            # an optional linear wrapper
            if self.rng.random() < 0.5:
                gn, dn = self._n("'tg"), self._n("'td")
                mty = self.gen.random_type(1)
                self.gen.delta[gn] = mty
                ctx = lambda hole: Named(gn, Mu(dn, mty, hole))
            else:
                ctx = lambda hole: hole
            lhs = ERepl(
                ctx(inner),
                alpha2,
                alpha,
                fold_stack_type(outer_tys, bty),
                self._stack(outer_tys),
            )
            root = Path((), COMMAND)
            info = classify_R_info(lhs, root)
            want = RuleTag.W if which == "W" else RuleTag.C
            if info.tag != want:
                continue
            rhs = fire(lhs, want, root, info=info)
            g, d = self.envs()
            d[alpha2] = bty
            return lhs, rhs, want, g, d
        raise RuntimeError(f"no typed {which} step")


# ---------------------------------------------------------------------------
# Sigma instance templates (pure lambda-mu, all eight equations)


def sigma_pair(seed: int, axiom: str, size: int = 4) -> tuple[Object, Object]:
    """A pure pair related by the requested sigma equation."""
    from .gen_random import random_pure_command, random_pure_term

    rng = random.Random(seed)
    i = rng.randrange(10**6)
    t = random_pure_term(rng, size)
    u = random_pure_term(rng, max(2, size - 1))
    v = random_pure_term(rng, max(2, size - 1))
    w = random_pure_term(rng, 2)
    c = random_pure_command(rng, size)
    x, y = f"sx{i}", f"sy{i}"
    a, b = f"'sa{i}", f"'sb{i}"
    a2, b2 = f"'sc{i}", f"'sd{i}"
    # give the bound continuation names real occurrences where the side
    # conditions allow it
    from .syntax import free_names

    for target in (a, b):
        pool = sorted(free_names(c))
        if pool and rng.random() < 0.7:
            c = rename(c, target, rng.choice(pool))
    pool_u = sorted(free_names(u))
    if pool_u and rng.random() < 0.5:
        u = rename(u, a, rng.choice(pool_u))
    match axiom:
        case "sigma1":
            return App(Abs(y, None, Abs(x, None, t)), v), Abs(
                x, None, App(Abs(y, None, t), v)
            )
        case "sigma2":
            return App(Abs(x, None, App(t, v)), u), App(App(Abs(x, None, t), u), v)
        case "sigma3":
            return (
                App(Abs(x, None, Mu(a, None, Named(b, u))), w),
                Mu(a, None, Named(b, App(Abs(x, None, u), w))),
            )
        case "sigma4":
            return (
                Named(a2, App(Mu(a, None, Named(b2, App(Mu(b, None, c), w))), v)),
                Named(b2, App(Mu(b, None, Named(a2, App(Mu(a, None, c), v))), w)),
            )
        case "sigma5":
            return (
                Named(a2, App(Mu(a, None, Named(b2, Abs(x, None, Mu(b, None, c)))), v)),
                Named(b2, Abs(x, None, Mu(b, None, Named(a2, App(Mu(a, None, c), v))))),
            )
        case "sigma6":
            return (
                Named(a2, Abs(x, None, Mu(a, None, Named(b2, Abs(y, None, Mu(b, None, c)))))),
                Named(b2, Abs(y, None, Mu(b, None, Named(a2, Abs(x, None, Mu(a, None, c)))))),
            )
        case "sigma7":
            return Named(a, Mu(b, None, c)), rename(c, a, b)
        case "sigma8":
            return Mu(a, None, Named(a, t)), t
    raise ValueError(axiom)


# ---------------------------------------------------------------------------
# The permutation result between substitution (resp. replacement) contexts
# and linear term (resp. command) contexts


def permutation_case_subs(seed: int) -> tuple[Object, Object]:
    """canon(L<LTT<t>>) and canon(LTT<L<t>>) for random pieces with fresh
    binders."""
    from .gen_random import random_pure_term

    rng = random.Random(seed)
    i = rng.randrange(10**6)
    t = random_pure_term(rng, 3)
    frames = []
    for k in range(1 + rng.randrange(2)):
        frames.append((f"px{i}_{k}", random_pure_term(rng, 2)))

    def L(h: Object) -> Object:
        for x, u in frames:
            h = ESub(h, x, u)
        return h

    shape = rng.randrange(3)
    hole_arg = random_pure_term(rng, 2)

    def LTT(h: Object) -> Object:
        if shape == 0:
            return Abs(f"py{i}", None, h)
        if shape == 1:
            return App(h, hole_arg)
        return Mu(f"'pm{i}", None, Named(f"'pn{i}", h))

    return canon(L(LTT(t))), canon(LTT(L(t)))


def permutation_case_repl(seed: int) -> tuple[Object, Object]:
    """canon(R<LCC<c>>) and canon(LCC<R<c>>)."""
    from .gen_random import random_pure_command, random_pure_stack

    rng = random.Random(seed)
    i = rng.randrange(10**6)
    c = random_pure_command(rng, 3)
    frames = []
    for k in range(1 + rng.randrange(2)):
        frames.append(
            (f"'pr{i}_{k}", f"'po{i}_{k}", random_pure_stack(rng, 2))
        )

    def R(h: Object) -> Object:
        for nn, on, s in frames:
            h = ERepl(h, nn, on, None, s)
        return h

    shape = rng.randrange(2)
    st = random_pure_stack(rng, 2)

    def LCC(h: Object) -> Object:
        if shape == 0:
            return Named(f"'pn{i}", Mu(f"'pm{i}", None, h))
        return ERepl(h, f"'pq{i}", f"'pp{i}", None, st)

    return canon(R(LCC(c))), canon(LCC(R(c)))


def build_duplicating_step(pairs: TypedPairs):
    """A typed replacement step whose bound name occurs twice, once inside
    an argument box: its net fires the contraction-against-tree and
    box-absorption rules."""
    g = pairs.gen = _TypedGen(pairs.rng, ("A", "B"))
    bty = g.random_type(1)
    stys = tuple(g.random_type(1) for _ in range(1 + pairs.rng.randrange(2)))
    tann = fold_stack_type(stys, bty)
    alpha, alpha2, delta = pairs._n("'ta"), pairs._n("'tq"), pairs._n("'td")
    y = pairs._n("ty")
    x = pairs._n("tx")
    mty = g.random_type(1)
    g.gamma[y] = tann
    g.gamma[x] = Arrow(mty, tann)
    inner = Mu(delta, mty, Named(alpha, Var(y)))
    lhs = ERepl(
        Named(alpha, App(Var(x), inner)), alpha2, alpha, tann, pairs._stack(stys)
    )
    rhs = canon(fire(lhs, RuleTag.R_NEQ1, Path((), COMMAND)))
    genv, denv = pairs.envs()
    denv[alpha2] = bty
    return RuleTag.R_NEQ1, lhs, rhs, genv, denv


def typed_step_cases(seed: int, count: int):
    """Random typed one-step reductions (tag, source, reduct, envs); plain
    rules drawn from generated terms, plus templated C/W steps and
    duplicating replacements."""
    rng = random.Random(seed)
    out = []
    pairs = TypedPairs(seed ^ 0x5F5F)
    while len(out) < count:
        r = len(out) % 10
        if r == 7:
            out.append(build_duplicating_step(pairs))
            continue
        if r == 8:
            lhs, rhs, tag, g, d = pairs.build_cw_step("W")
            out.append((tag, lhs, rhs, g, d))
            continue
        if r == 9:
            lhs, rhs, tag, g, d = pairs.build_cw_step("C")
            out.append((tag, lhs, rhs, g, d))
            continue
        o, g, d = gen_typed(rng.randrange(10**9), size=11)
        rs = lm_redexes(o)
        if not rs:
            continue
        tag, p = rs[rng.randrange(len(rs))]
        out.append((tag, o, lm_step(o, tag, p), g, d))
    return out
