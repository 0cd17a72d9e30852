"""Theorem-checking drivers: bisimulation matching, the sigma
counterexample, confluence, sigma-correspondence, and typed instance
builders for the net-level checks."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .equivalence import (
    REN_AXIOM, Axiom, ExpansionCache, _stack_inert, _subtree_rewrites, equiv, refusal,
)
from .gen_random import random_pure_command, random_pure_stack, random_pure_term
from .generators import _TypedGen, gen_typed
from .lmu import SIGMA_EQUATIONS, _sigma_rewrites, lmu_redexes, sigma_instances
from .meta import rename, stack_of
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
    Abs,
    App,
    Arrow,
    ERepl,
    ESub,
    Mu,
    Named,
    Object,
    Type,
    Var,
    alpha_eq,
    canonical_key,
    dotted,
    empty_stack,
    free_names,
    instantiate,
    parse,
    print_object,
    supply_for,
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
    searches: int = 0  # equiv searches run, towards one or several targets
    not_within_bounds: int = 0  # searches that ended NOT-WITHIN-BOUNDS
    # reducts whose one search towards several candidates reached none and
    # that were searched again towards each candidate on its own
    retries: int = 0
    cache_hits: int = 0  # expansions served from the shared cache
    computed: int = 0  # node rewrite lists that the cache's memo computed
    served: int = 0  # and those it served again


def bisim_driver(
    o: Object,
    p: Object,
    axiom: Optional[Axiom] = None,
    max_states: int = 1500,
    max_depth: int = 6,
) -> BisimReport:
    """For every meaningful redex of o there must be a meaningful reduct of
    p equivalent to o's reduct, and symmetrically.

    Each side is reduced once.  A reduct whose key is no candidate's gets
    one search towards every candidate of the other side that refusal
    does not rule out.  When that search reaches none of several
    candidates, the reduct is searched again towards each candidate on
    its own, in order, until one is reached: the wider far side of the
    one search can spend the depth bound that a single candidate's search
    spends on the near side, so this keeps every match that the
    per-candidate searches find.  The one search can also reach a
    candidate that no per-candidate search reaches within the bounds.

    Every search of the call shares one expansion cache, so a state that
    an earlier search expanded is not expanded again, and a node's
    rewrite list, computed once, serves every search; no search outcome
    changes.  The cache's name supply reserves the identifiers of every
    reduct of both sides before any search issues a name."""
    report = BisimReport(True, axiom)
    # each side's meaningful reducts with their keys, used in both directions
    ro, rp = (
        [(tag, path, r, canonical_key(r)) for tag, path, r in meaningful_reducts(side)]
        for side in (o, p)
    )
    cache = ExpansionCache(*(r for _, _, r, _ in ro + rp))

    def search(a2: Object, ka: tuple, cands: list) -> bool:
        """One search from a2 towards the (reduct, key) candidates."""
        res = equiv(a2, [b2 for b2, _ in cands], max_states=max_states, max_depth=max_depth,
                    expansive=False, keys=(ka, [kb for _, kb in cands]), cache=cache)
        report.searches += 1
        report.not_within_bounds += not res.equivalent
        report.computed += res.computed
        report.served += res.served
        return res.equivalent

    def match_side(a: Object, ra: list, b: Object, rb: list, side: str) -> None:
        keys = {kb for _, _, _, kb in rb}
        for tag, path, a2, ka in ra:
            found = ka in keys
            if not found:
                cands = [(b2, kb) for _, _, b2, kb in rb if not refusal(a2, b2)]
                found = bool(cands) and search(a2, ka, cands)
                if not found and len(cands) > 1:
                    report.retries += 1
                    found = any(search(a2, ka, [c]) for c in cands)
            report.checked += 1
            if not found:
                report.ok = False
                report.details.append(
                    f"{side}: step {tag.value} @"
                    f" {dotted(path)} of"
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


_ONE_NORMAL_FORM = (True, "one normal form up to alpha")


def confluence_check(o: Object, max_states: int = 10000) -> tuple[bool, str]:
    """All maximal plain reduction sequences of o end at one normal form.
    reduction_graph lists one normal form per alpha-class, so a second one
    is a violation; success is always the one constant verdict."""
    try:
        _, nfs = reduction_graph(o, max_states=max_states)
    except BudgetExhausted:
        return False, "state budget exhausted"
    if not nfs:
        return False, "no normal form within the explored graph"
    if len(nfs) > 1:
        return False, f"distinct normal forms: {print_object(nfs[0])} vs {print_object(nfs[1])}"
    return _ONE_NORMAL_FORM


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


def _first_lr(rewrites, axiom: str) -> Optional[Object]:
    """The first left-to-right rewrite by axiom in a list of root rewrites
    (axiom, orientation, result), or None."""
    return next((r for name, orient, r in rewrites if (name, orient) == (axiom, "LR")), None)


class TypedPairs:
    """Builds typed pairs (lhs, rhs, gamma, delta) for each axiom; lhs and
    rhs are canonical and related by one axiom instance.  Each builder
    draws only the left side; its right side is the engine's rewrite."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.gen = _TypedGen(self.rng)
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
        """A typed canonical left side and, as its right side, the first
        left-to-right instance of axiom at its root that _subtree_rewrites
        lists; drawn again until both sides are canonical."""
        for _ in range(100):
            self.gen = _TypedGen(self.rng)
            lhs, extra_d = getattr(self, "_" + axiom)()
            g, d = self.envs()
            d.update(extra_d)
            if not is_canonical(lhs):
                continue
            rhs = _first_lr(
                _subtree_rewrites(lhs, supply_for(lhs), axiom == REN_AXIOM, expansive=False),
                axiom,
            )
            if rhs is not None and is_canonical(rhs):
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
        elif shape == 1:
            cty = self.gen.random_type(1)
            v = self._term(Arrow(cty, a), 2, sg={x: b})
            t = self._term(cty, 2)
            lhs = ESub(App(v, t), x, u)
        else:
            an, bn = self._n("'ta"), self._n("'tb")
            tb = self.gen.random_type(1)
            self.gen.delta[bn] = tb
            v = self._term(tb, 2, sg={x: b})
            lhs = ESub(Mu(an, a, Named(bn, v)), x, u)
        return lhs, {}

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
        return ERepl(Named(gn, Mu(dn, mty, c0)), nn, on, tann, s), {nn: bty}

    def _lin(self):
        bty = self.gen.random_type(1)
        stys = tuple(
            self.gen.random_type(1) for _ in range(1 + self.rng.randrange(2))
        )
        tann = fold_stack_type(stys, bty)
        on, nn = self._n("'to"), self._n("'tn")
        u = self._term(tann, 3)
        while not _stack_inert(u):
            u = self._term(tann, 3)
        return ERepl(Named(on, u), nn, on, tann, self._stack(stys)), {nn: bty}

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
        return lhs, {an: Arrow(ax_t, ta), bn: Arrow(bx_t, tb)}

    def _rho(self):
        t = self.gen.random_type(1)
        a, b = self._n("'ta"), self._n("'tb")
        c = self._command(3, sd={b: t})
        return Named(a, Mu(b, t, c)), {a: t}

    def _theta(self):
        t = self.gen.random_type(1)
        a = self._n("'ta")
        return Mu(a, t, Named(a, self._term(t, 3))), {}

    def _ren(self):
        t = self.gen.random_type(1)
        a, b = self._n("'ta"), self._n("'tb")
        c = self._command(3, sd={b: t})
        return ERepl(c, a, b, t, empty_stack()), {a: t}

    # --- canonical-form steps (C and W) -------------------------------------

    def build_cw_step(self, which: str) -> tuple[Object, Object, RuleTag, dict, dict]:
        """A typed command with a linear C or W redex at the root, and its
        reduct."""
        for _ in range(100):
            self.gen = _TypedGen(self.rng)
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
            want = RuleTag.W if which == "W" else RuleTag.C
            if classify_R_info(lhs, ())[0] != want:
                continue
            rhs = fire(lhs, want, ())
            g, d = self.envs()
            d[alpha2] = bty
            return lhs, rhs, want, g, d
        raise RuntimeError(f"no typed {which} step")


# ---------------------------------------------------------------------------
# Sigma pairs (pure lambda-mu, all eight equations)


def sigma_pair(seed: int, axiom: str, size: int = 4) -> tuple[Object, Object]:
    """A pure pair related by the requested sigma equation."""
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
    for target in (a, b):
        pool = sorted(free_names(c))
        if pool and rng.random() < 0.7:
            c = rename(c, target, rng.choice(pool))
    pool_u = sorted(free_names(u))
    if pool_u and rng.random() < 0.5:
        u = rename(u, a, rng.choice(pool_u))
    # sigma7 and sigma8 are not templates: the right side is lmu's first
    # left-to-right rewrite at the root
    if axiom in ("sigma7", "sigma8"):
        lhs = Named(a, Mu(b, None, c)) if axiom == "sigma7" else Mu(a, None, Named(a, t))
        return lhs, _first_lr(_sigma_rewrites(lhs, supply_for(lhs)), axiom)
    env = dict(t=t, u=u, v=v, w=w, c=c, x=x, y=y, a=a, b=b, a2=a2, b2=b2,
               annx=None, anny=None, anna=None, annb=None)
    for name, left, right, _ in SIGMA_EQUATIONS:
        if name == axiom:
            return instantiate(left, env), instantiate(right, env)
    raise ValueError(axiom)


# ---------------------------------------------------------------------------
# The permutation result between substitution (resp. replacement) contexts
# and linear term (resp. command) contexts


def permutation_case_subs(seed: int) -> tuple[Object, Object]:
    """canon(L<LTT<t>>) and canon(LTT<L<t>>) for random pieces with fresh
    binders."""
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
    g = pairs.gen = _TypedGen(pairs.rng)
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
    rhs = canon(fire(lhs, RuleTag.R_NEQ1, ()))
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
