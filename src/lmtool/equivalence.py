"""The structural equivalence on canonical forms (axioms exs, exr, lin,
pp, rho, theta), its renaming extension (axiom ren), a bounded decision
procedure, and replayable certificates."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from .meta import apply_stack, rename, stack_of
from .reduction import LINEAR_SPINE, NotCanonicalError, canon, is_canonical
from .syntax import (
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
    PathError,
    Var,
    alpha_eq,
    canonical_key,
    count_free,
    dotted,
    empty_stack,
    free_names,
    free_occurrences,
    free_vars,
    make_path,
    print_object,
    rename_free,
    rename_occurrences,
    rewrite_at,
    rewrite_everywhere,
    sort_of,
    subobject_at,
    supply_for,
)

AXIOMS = ("exs", "exr", "lin", "pp", "rho", "theta")
REN_AXIOM = "ren"

_REN_SUBSET_CAP = 6


@dataclass(frozen=True)
class Axiom:
    """One axiom application: name, orientation, position, and the
    alpha-canonical key of the expected result (which pins down the instance
    when several rewrites share a position)."""

    name: str
    orientation: str  # "LR" | "RL"
    path: tuple[int, ...]
    result_key: Optional[tuple] = None

    def render(self) -> str:
        arrow = "+" if self.orientation == "LR" else "-"
        return f"{self.name}{arrow} @ {dotted(self.path)}"


@dataclass
class Certificate:
    steps: list[Axiom] = field(default_factory=list)

    def render(self) -> str:
        return "\n".join(st.render() for st in self.steps) or "(reflexivity)"


@dataclass
class EquivOutcome:
    status: str  # "equivalent" | "not-within-bounds"
    certificate: Optional[Certificate] = None
    states: int = 0
    # why the search stopped: "found", "sorts differ", "free identifiers
    # differ", "depth bound", "state bound" or "empty frontier"
    reason: str = ""
    expanded: int = 0  # states whose rewrites the search enumerated
    built: int = 0  # rewrites it consumed, canonical or not

    @property
    def equivalent(self) -> bool:
        return self.status == "equivalent"


# ---------------------------------------------------------------------------
# Rewrites of a subobject by one axiom


def _linear_positions(o: Object, want_sort: str):
    """Yield (path, subobject, bound variables, bound names) for every
    linear position of sort want_sort strictly below o, in pre-order.  A
    linear context only descends into child 0, so these positions lie on
    one spine; the binder sets are those crossed from o to the position."""
    steps: tuple[int, ...] = ()
    vs: frozenset[str] = frozenset()
    ns: frozenset[str] = frozenset()
    while isinstance(o, LINEAR_SPINE):
        match o:
            case Abs(x, _, _) | ESub(_, x, _):
                vs = vs | {x}
            case Mu(a, _, _) | ERepl(_, _, a, _, _):
                ns = ns | {a}
        steps += (0,)
        o = o.fun if isinstance(o, App) else o.body
        if sort_of(o) == want_sort:
            yield Path(steps, want_sort), o, vs, ns


def _subtree_rewrites(sub: Object, supply: NameSupply, include_ren: bool,
                      expansive: bool = True):
    """Yield (axiom, orientation, new_subobject) for rewrites rooted at sub."""
    out: list[tuple[str, str, Object]] = []

    match sub:
        case ESub(t, x, u):
            # exs LR: (LTT<v>)[x\u] -> LTT<v[x\u]>
            n_x = count_free(x, t)
            for p, v, vs, _ in _linear_positions(t, "term"):
                if x in vs or count_free(x, v) != n_x:
                    continue
                out.append(("exs", "LR", rewrite_at(t, p, ESub(v, x, u), supply)))
        case ERepl(c, nn, on, ann, s):
            # exr LR: (LCC<c0>)[a'/a\s] -> LCC<c0[a'/a\s]>
            n_on = count_free(on, c)
            for p, c0, _, ns in _linear_positions(c, "command"):
                if on in ns or count_free(on, c0) != n_on:
                    continue
                out.append(("exr", "LR", rewrite_at(c, p, ERepl(c0, nn, on, ann, s), supply)))

    if sort_of(sub) == "term":
        # exs RL: LTT<v[x\u]> -> (LTT<v>)[x\u]
        for p, node, vs, ns in _linear_positions(sub, "term"):
            if not isinstance(node, ESub):
                continue
            t2, x, u = node.body, node.var, node.arg
            if (free_vars(u) & vs) or (free_names(u) & ns):
                continue  # the substitution body cannot move out
            if count_free(x, sub) > 0:
                x2 = supply.fresh(x)
                t2, x = rename_free(t2, x, x2), x2
            res = ESub(rewrite_at(sub, p, t2, supply), x, u)
            out.append(("exs", "RL", res))

    if sort_of(sub) == "command":
        # exr RL: LCC<c0[a'/a\s]> -> (LCC<c0>)[a'/a\s]
        for p, node, vs, ns in _linear_positions(sub, "command"):
            if not isinstance(node, ERepl):
                continue
            c0, nn, on, ann, s = node.body, node.new, node.old, node.ann, node.stack
            if (free_vars(s) & vs) or (free_names(s) & ns) or nn in ns:
                continue
            if count_free(on, sub) > 0:
                on2 = supply.fresh(on)
                c0, on = rename_free(c0, on, on2), on2
            res = ERepl(rewrite_at(sub, p, c0, supply), nn, on, ann, s)
            out.append(("exr", "RL", res))

    match sub:
        # lin LR: ([a]u)[a'/a\s] -> [a'](u``s), a # u, s != #.  The subject
        # must be stack-inert (not an abstraction or mu under substitution
        # frames): otherwise the right side acquires meaningful redexes the
        # left cannot mirror and the strong bisimulation breaks.
        case ERepl(Named(a, u), nn, on, _, s) if (
            a == on
            and not isinstance(s, EmptyStack)
            and count_free(on, u) == 0
            and _stack_inert(u)
        ):
            out.append(("lin", "LR", Named(nn, canon(apply_stack(u, s), supply))))
    match sub:
        # lin RL: split the application spine (heads of canonical spines are
        # inert by canonicity)
        case Named(nn, w) if expansive:
            spine = _app_spine(w)
            for k in range(1, len(spine)):
                u = _rebuild_spine(spine[0], spine[1: len(spine) - k])
                rest = spine[len(spine) - k:]
                if not _stack_inert(u):
                    continue
                a = supply.fresh("'a")
                out.append(
                    ("lin", "RL", ERepl(Named(a, u), nn, a, None, stack_of(rest)))
                )
    match sub:
        # pp: [a'](\x. mu a. [b'](\y. mu b. u)) both ways
        case Named(a2, Abs(x, annx, Mu(a, anna, Named(b2, Abs(y, anny, Mu(b, annb, u)))))) if (
            a != b2 and a2 != b and a != b and x != y
        ):
            swapped = Named(
                b2, Abs(y, anny, Mu(b, annb, Named(a2, Abs(x, annx, Mu(a, anna, u)))))
            )
            out.append(("pp", "LR", swapped))
            out.append(("pp", "RL", swapped))
    match sub:
        # rho LR: [a] mu b. c -> c[a/b\#]
        case Named(a, Mu(b, annb, cbody)) if a != b:
            out.append(("rho", "LR", ERepl(cbody, a, b, annb, empty_stack())))
    match sub:
        # rho RL: c[a/b\#] -> [a] mu b. c
        case ERepl(cbody, a, b, annb, EmptyStack()):
            out.append(("rho", "RL", Named(a, Mu(b, annb, cbody))))
    match sub:
        # theta LR: mu a. [a]t -> t, a # t
        case Mu(a, _, Named(a2, tb)) if a == a2 and count_free(a, tb) == 0:
            out.append(("theta", "LR", tb))
    if expansive and sort_of(sub) == "term":
        a = supply.fresh("'a")
        out.append(("theta", "RL", Mu(a, None, Named(a, sub))))

    if include_ren:
        match sub:
            # ren LR: c[a/b\#] -> rename(c, a, b)
            case ERepl(cbody, a, b, _, EmptyStack()):
                out.append(("ren", "LR", rename(cbody, a, b)))
        if expansive and sort_of(sub) == "command":
            # ren RL: pick a free name and push a subset of its occurrences
            # under a fresh explicit renaming
            for a in sorted(free_names(sub)):
                occs = [idxs for idxs, _ in free_occurrences(sub, a)]
                if len(occs) > _REN_SUBSET_CAP:
                    occs = occs[:_REN_SUBSET_CAP]
                b = supply.fresh("'b")
                for r in range(0, len(occs) + 1):
                    for chosen in combinations(occs, r):
                        body = rename_occurrences(sub, a, b, set(chosen))
                        out.append(("ren", "RL", ERepl(body, a, b, None, empty_stack())))
    return out


def _stack_inert(u: Object) -> bool:
    """The lin subject must stay passive under the incoming stack: its
    projection is a variable-headed application spine.  Projections are
    untouched by the meaningful rules, so the predicate is stable along
    reduction; syntactic checks (no abstraction/mu core) are not, because a
    substitution step may uncover an abstraction."""
    from .lmu import project

    h = project(u)
    while isinstance(h, App):
        h = h.fun
    return isinstance(h, Var)


def _app_spine(t: Object) -> list[Object]:
    parts = []
    while isinstance(t, App):
        parts.append(t.arg)
        t = t.fun
    parts.append(t)
    parts.reverse()
    return parts


def _rebuild_spine(head: Object, args: list[Object]) -> Object:
    for a in args:
        head = App(head, a)
    return head


# ---------------------------------------------------------------------------
# Instances on whole objects


def _rewrites(o: Object, include_ren: bool, expansive: bool):
    """Yield (index path, (axiom, orientation, new subobject), result) for
    every single-axiom rewrite of o, at every position in pre-order and in
    both orientations, canonical or not."""
    supply = supply_for(o)
    # no axiom yields a free identifier that its subobject lacks
    yield from rewrite_everywhere(
        o, lambda sub: _subtree_rewrites(sub, supply, include_ren, expansive)
    )


def _keyed(rewrites):
    """(axiom, result) for each of the rewrites, the axiom carrying the
    result's canonical key."""
    for idxs, (name, orient, _), res in rewrites:
        yield Axiom(name, orient, idxs, canonical_key(res)), res


def axiom_instances(
    o: Object, include_ren: bool = False, expansive: bool = True
) -> list[tuple[Axiom, Object]]:
    """All single-axiom rewrites of a canonical object, at every position and
    in both orientations, whose results are again canonical.  Non-expansive
    enumeration omits the orientations that synthesize fresh structure
    (theta, lin and ren right-to-left); a bidirectional search recovers
    those steps from the other frontier."""
    if not is_canonical(o):
        raise NotCanonicalError(print_object(o))
    return list(_keyed(
        rw for rw in _rewrites(o, include_ren, expansive) if is_canonical(rw[-1])
    ))


def apply_axiom(o: Object, ax: Axiom, include_ren: bool = True) -> Object:
    """Replay one axiom step; raises ValueError if no matching instance."""
    try:
        p = make_path(o, ax.path)
    except PathError as e:
        raise ValueError(str(e)) from None
    sub = subobject_at(o, p)
    supply = supply_for(o)
    matches = []
    for name, orient, new_sub in _subtree_rewrites(sub, supply, include_ren):
        if name != ax.name or orient != ax.orientation:
            continue
        res = rewrite_at(o, p, new_sub, supply)
        if ax.result_key is None or canonical_key(res) == ax.result_key:
            matches.append(res)
    if not matches:
        raise ValueError(f"no {ax.render()} instance here")
    return matches[0]


# ---------------------------------------------------------------------------
# Bounded decision procedure (bidirectional breadth-first search)


class ExpansionCache:
    """The rewrites of the states that earlier non-expansive searches
    without ren expanded, for later such searches.

    Entries are keyed by canonical key, but an entry serves only a state
    equal to the one it was computed for: side conditions such as pp's
    x != y read binder names, so an alpha-equivalent state with other
    binder names is expanded afresh (and replaces the entry)."""

    def __init__(self):
        self.entries: dict[tuple, tuple[Object, list[tuple[Axiom, Object]]]] = {}
        self.hits = 0

    def instances(self, key: tuple, o: Object) -> list[tuple[Axiom, Object]]:
        """Every non-expansive rewrite of o without ren, canonical or not;
        key is o's canonical key."""
        hit = self.entries.get(key)
        if hit is not None and (hit[0] is o or hit[0] == o):
            self.hits += 1
            return hit[1]
        out = list(_keyed(_rewrites(o, False, False)))
        self.entries[key] = (o, out)
        return out


def equiv(
    o: Object,
    p: Object,
    max_states: int = 20000,
    max_depth: int = 12,
    include_ren: bool = False,
    expansive: bool = True,
    *,
    keys: Optional[tuple[tuple, tuple]] = None,
    cache: Optional[ExpansionCache] = None,
) -> EquivOutcome:
    """Search for a chain of axiom applications joining o and p.

    Both inputs must be canonical.  The outcome is either Equivalent with a
    replayable certificate or NotWithinBounds, which is inconclusive.  A
    caller that already holds canonical_key(o) and canonical_key(p) passes
    them as keys; searches that pass one cache share their expansions, which
    changes no outcome.

    Rewrites are consumed one at a time.  A result whose key is already
    visited is skipped before its canonicity is tested: every visited state
    is canonical, and canonicity is invariant under renaming.  Without a
    cache, no rewrite is built after the search stops."""
    for q in (o, p):
        if not is_canonical(q):
            raise NotCanonicalError(print_object(q))
    if cache is not None and (include_ren or expansive):
        raise ValueError("the expansion cache serves non-expansive searches without ren")
    if sort_of(o) != sort_of(p):
        return EquivOutcome("not-within-bounds", reason="sorts differ")
    # every base-axiom rewrite keeps the free variables and names; ren LR
    # can drop a free name, so with ren the sets may differ
    if not include_ren and (free_vars(o) != free_vars(p) or free_names(o) != free_names(p)):
        return EquivOutcome("not-within-bounds", reason="free identifiers differ")
    ko, kp = keys if keys is not None else (canonical_key(o), canonical_key(p))
    if ko == kp:
        return EquivOutcome("equivalent", Certificate([]), reason="found")

    # visited maps: key -> (object, steps from the origin)
    fwd = {ko: (o, [])}
    bwd = {kp: (p, [])}
    frontier_f = [ko]
    frontier_b = [kp]
    states = 2
    depth_f = depth_b = 0
    expanded = built = 0

    def stop(reason: str, cert: Optional[Certificate] = None) -> EquivOutcome:
        status = "equivalent" if cert is not None else "not-within-bounds"
        return EquivOutcome(status, cert, states, reason, expanded, built)

    def splice(meet_key) -> Certificate:
        steps = list(fwd[meet_key][1])
        back = bwd[meet_key][1]
        # reverse the backward chain: each recorded step went from p towards
        # the meet, so the reverse direction flips its orientation
        for ax, prev_key in reversed(back):
            flipped = "RL" if ax.orientation == "LR" else "LR"
            steps.append(Axiom(ax.name, flipped, ax.path, prev_key))
        return Certificate(steps)

    while frontier_f or frontier_b:
        if depth_f + depth_b >= max_depth:
            return stop("depth bound")
        if states >= max_states:
            return stop("state bound")
        # expand the smaller frontier
        expand_fwd = (len(frontier_f) <= len(frontier_b) and frontier_f) or not frontier_b
        frontier = frontier_f if expand_fwd else frontier_b
        visited = fwd if expand_fwd else bwd
        other = bwd if expand_fwd else fwd
        new_frontier = []
        for key in frontier:
            obj, steps = visited[key]
            expanded += 1
            if cache is None:
                rewrites = _keyed(_rewrites(obj, include_ren, expansive))
            else:
                rewrites = cache.instances(key, obj)
            for ax, res in rewrites:
                built += 1
                rk = ax.result_key
                if rk in visited or not is_canonical(res):
                    continue
                if expand_fwd:
                    visited[rk] = (res, steps + [ax])
                else:
                    visited[rk] = (res, steps + [(ax, key)])
                states += 1
                new_frontier.append(rk)
                if rk in other:
                    return stop("found", splice(rk))
                if states >= max_states:
                    return stop("state bound")
        if expand_fwd:
            frontier_f = new_frontier
            depth_f += 1
        else:
            frontier_b = new_frontier
            depth_b += 1
        if not frontier_f and not frontier_b:
            break
    return stop("empty frontier")


def check_certificate(o: Object, cert: Certificate, p: Object) -> tuple[bool, str]:
    """Replay cert from o and compare the outcome with p; every intermediate
    must be canonical.  Returns (ok, diagnostic)."""
    cur = o
    if not is_canonical(cur):
        return False, "start object is not canonical"
    for i, ax in enumerate(cert.steps):
        try:
            cur = apply_axiom(cur, ax)
        except ValueError as e:
            return False, f"step {i + 1} ({ax.render()}): {e}"
        if not is_canonical(cur):
            return False, f"step {i + 1} ({ax.render()}): result not canonical"
    if alpha_eq(cur, p):
        return True, "ok"
    return False, f"replay ends at {print_object(cur)}, expected {print_object(p)}"


# ---------------------------------------------------------------------------
# Admissible equalities (random instances, closed by equiv)


def admissible_suite(seed: int, cases: int = 20, verbose: bool = False) -> dict:
    """Random well-scoped instances of the three admissible equations; each
    must close under equiv within default bounds."""
    import random

    from .gen_random import random_pure_command, random_pure_stack, random_pure_term

    rng = random.Random(seed)
    report = {"subs-swap": 0, "repl-swap": 0, "mu-swap": 0, "failures": []}

    def try_pair(kind, lhs, rhs):
        lhs, rhs = canon(lhs), canon(rhs)
        res = equiv(lhs, rhs, max_states=4000, max_depth=8)
        if res.equivalent:
            report[kind] += 1
        else:
            report["failures"].append((kind, print_object(lhs), print_object(rhs)))

    for _ in range(cases):
        t = random_pure_term(rng, 4)
        u = random_pure_term(rng, 3)
        v = random_pure_term(rng, 3)
        # (1) t[x\u][y\v] with x # v, y # u: use fresh distinct binders
        lhs = ESub(ESub(t, "xx1", u), "yy1", v)
        rhs = ESub(ESub(t, "yy1", v), "xx1", u)
        try_pair("subs-swap", lhs, rhs)

        c = random_pure_command(rng, 4)
        s = random_pure_stack(rng, 2)
        s2 = random_pure_stack(rng, 2)
        # (2) c[a/a'\s][b/b'\s'] with a != b', b != a', a' # s', b' # s
        lhs = ERepl(ERepl(c, "'na", "'pa", None, s), "'nb", "'pb", None, s2)
        rhs = ERepl(ERepl(c, "'nb", "'pb", None, s2), "'na", "'pa", None, s)
        try_pair("repl-swap", lhs, rhs)

        # (3) [a'] mu a. [b'] mu b. c
        lhs = Named("'qa", Mu("'ba", None, Named("'qb", Mu("'bb", None, c))))
        rhs = Named("'qb", Mu("'bb", None, Named("'qa", Mu("'ba", None, c))))
        try_pair("mu-swap", lhs, rhs)

    return report
