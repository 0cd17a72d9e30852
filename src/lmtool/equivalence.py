"""The structural equivalence on canonical forms (axioms exs, exr, lin,
pp, rho, theta), its renaming extension (axiom ren), a bounded decision
procedure, and replayable certificates."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .gen_random import random_pure_command, random_pure_stack, random_pure_term
from .lmu import project
from .meta import rename, stack_of
from .reduction import (
    LINEAR_SPINE, NotCanonicalError, RuleTag, canon, is_canonical, lm_step, rewrite_is_canonical,
)
from .syntax import (
    _BOUND_BY,
    _FREE_AT,
    _REBIND,
    Abs,
    App,
    EmptyStack,
    ERepl,
    ESub,
    Mu,
    Named,
    NameSupply,
    Object,
    PathError,
    Var,
    _NodeMemo,
    alpha_eq,
    canonical_key,
    children,
    count_free,
    dotted,
    empty_stack,
    free_idents,
    free_names,
    free_occurrences,
    free_vars,
    print_object,
    rename_free,
    rename_subsets,
    rewrite_at,
    rewrite_everywhere,
    same_object,
    sort_of,
    subobject_at,
    supply_for,
)

AXIOMS = ("exs", "exr", "lin", "pp", "rho", "theta")
REN_AXIOM = "ren"

_REN_SUBSET_CAP = 6

_FLIP = {"LR": "RL", "RL": "LR"}


@dataclass(frozen=True)
class Axiom:
    """One axiom application: name, orientation, position, and the
    alpha-canonical key of the expected result (which pins down the instance
    when several rewrites share a position).

    Axioms are built for the steps of a certificate and for the results of
    axiom_instances only: a search carries each rewrite it consumes as a
    plain (key, name, orientation, path, result) tuple."""

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
    """What a search found.  An equivalent outcome names the target it
    reached, by its index among the search's targets (0 for a single p),
    and its certificate replays from o to that target."""

    status: str  # "equivalent" | "not-within-bounds"
    certificate: Optional[Certificate] = None
    states: int = 0
    # why the search stopped: "found", "sorts differ", "free identifiers
    # differ", "depth bound", "state bound" or "empty frontier"
    reason: str = ""
    expanded: int = 0  # states whose rewrites the search enumerated
    built: int = 0  # rewrites it consumed, canonical or not
    # node rewrite lists that the search's node memo (its own, or its
    # cache's) computed while the search ran, and those it served again
    computed: int = 0
    served: int = 0
    target: Optional[int] = None  # the index of the target reached

    @property
    def equivalent(self) -> bool:
        return self.status == "equivalent"


# ---------------------------------------------------------------------------
# Rewrites of a subobject by one axiom


# the explicit operators, by the axiom that moves them through a linear
# context: a substitution t[x\u] and a replacement c['b/'a\s] bind in
# their child 0 and carry a term or a stack in their child 1
_EXPLICIT = {ESub: "exs", ERepl: "exr"}


def _linear_positions(o: Object):
    """Yield (index path, subobject, bound) for every linear position
    strictly below o, in pre-order.  A linear context only descends into
    child 0, so these positions lie on one spine; bound holds the
    identifiers that the binders crossed from o to the position bind."""
    idxs: tuple[int, ...] = ()
    bound: frozenset[str] = frozenset()
    while isinstance(o, LINEAR_SPINE):
        by = _BOUND_BY.get(type(o))
        if by is not None:
            bound = bound | {by(o)}
        idxs += (0,)
        o = o.fun if type(o) is App else o.body
        yield idxs, o, bound


def _subtree_rewrites(sub: Object, supply: NameSupply, include_ren: bool,
                      expansive: bool = True):
    """Yield (axiom, orientation, new_subobject) for rewrites rooted at sub."""
    out: list[tuple[str, str, Object]] = []
    sort = sort_of(sub)

    # exs LR: (LTT<v>)[x\u] -> LTT<v[x\u]>
    # exr LR: (LCC<c0>)[a'/a\s] -> LCC<c0[a'/a\s]>
    ax = _EXPLICIT.get(type(sub))
    if ax is not None:
        x, body, rebind = _BOUND_BY[type(sub)](sub), sub.body, _REBIND[type(sub)]
        n_x = count_free(x, body)
        for idxs, v, bound in _linear_positions(body):
            if sort_of(v) != sort or x in bound or count_free(x, v) != n_x:
                continue
            out.append((ax, "LR", rewrite_at(body, idxs, rebind(sub, x, v), supply)))

    # exs RL: LTT<v[x\u]> -> (LTT<v>)[x\u]
    # exr RL: LCC<c0[a'/a\s]> -> (LCC<c0>)[a'/a\s]
    for idxs, node, bound in _linear_positions(sub):
        t = type(node)
        ax = _EXPLICIT.get(t)
        if ax is None or sort_of(node) != sort:
            continue
        # neither u or s nor a' may leave the scope of a binder that binds them
        moved = children(node)[1]
        if not bound.isdisjoint(free_idents(moved)):
            continue
        at = _FREE_AT.get(t)
        if at is not None and getattr(node, at) in bound:
            continue
        x, body = _BOUND_BY[t](node), node.body
        if x in free_idents(sub):
            x2 = supply.fresh(x)
            body, x = rename_free(body, x, x2), x2
        out.append((ax, "RL", _REBIND[t](node, x, rewrite_at(sub, idxs, body, supply))))

    match sub:
        # lin LR: ([a]u)[a'/a\s] -> [a'](u``s), a # u, s != #: the R step.
        # The subject must be stack-inert (not an abstraction or mu under
        # substitution frames): otherwise the right side acquires meaningful
        # redexes the left cannot mirror and the strong bisimulation breaks.
        case ERepl(Named(a, u), _, on, _, s) if (
            a == on
            and not isinstance(s, EmptyStack)
            and on not in free_idents(u)
            and _stack_inert(u)
        ):
            out.append(("lin", "LR", lm_step(sub, RuleTag.R, (), supply)))
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
        case Mu(a, _, Named(a2, tb)) if a == a2 and a not in free_idents(tb):
            out.append(("theta", "LR", tb))
    if expansive and sort_of(sub) == "term":
        a = supply.fresh("'a")
        out.append(("theta", "RL", Mu(a, None, Named(a, sub))))

    if include_ren:
        match sub:
            # ren LR: c[a/b\#] -> rename(c, a, b)
            case ERepl(cbody, a, b, _, EmptyStack()):
                out.append(("ren", "LR", rename(cbody, a, b, supply)))
        if expansive and sort_of(sub) == "command":
            # ren RL: pick a free name and push a subset of its occurrences
            # under a fresh explicit renaming
            for a in sorted(free_names(sub)):
                occs = [idxs for idxs, _ in free_occurrences(sub, a)]
                if len(occs) > _REN_SUBSET_CAP:
                    occs = occs[:_REN_SUBSET_CAP]
                b = supply.fresh("'b")
                for body in rename_subsets(sub, b, occs):
                    out.append(("ren", "RL", ERepl(body, a, b, None, empty_stack())))
    return out


def _stack_inert(u: Object) -> bool:
    """The lin subject must stay passive under the incoming stack: its
    projection is a variable-headed application spine.  Projections are
    untouched by the meaningful rules, so the predicate is stable along
    reduction; syntactic checks (no abstraction/mu core) are not, because a
    substitution step may uncover an abstraction."""
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


def _rewrites(o: Object, include_ren: bool, expansive: bool, supply: NameSupply,
              memo: _NodeMemo):
    """Yield (index path, (axiom, orientation, new subobject), result) for
    every single-axiom rewrite of o, at every position in pre-order and in
    both orientations, canonical or not.  supply issues every fresh name,
    and memo computes each node's rewrites once: they depend only on the
    node and on fresh names, so one list serves every object that holds the
    node, as long as one supply serves them all.

    A result shares every node off the path to its position with o, and
    only the new subobject and the nodes above it are new; so when o is
    canonical, rewrite_is_canonical(result, path) tests the result at the
    cost of those nodes.

    A result can hold its node (theta's mu a.[a]t holds t), so a list
    served again inside it can bind a name under a binder of the same
    name; the state is alpha-equivalent to one with a second fresh name."""
    lists, keep = memo.lists, memo.nodes.append

    def of(sub: Object):
        found = lists.get(id(sub))
        if found is None:
            found = lists[id(sub)] = _subtree_rewrites(sub, supply, include_ren, expansive)
            keep(sub)
        else:
            memo.served += 1
        return found

    # no axiom yields a free identifier that its subobject lacks
    yield from rewrite_everywhere(o, of)


def _keyed(rewrites):
    """(key, axiom name, orientation, path, result) for each of the
    rewrites, key being the result's canonical key."""
    for idxs, (name, orient, _), res in rewrites:
        yield canonical_key(res), name, orient, idxs, res


def axiom_instances(
    o: Object, include_ren: bool = False, expansive: bool = True
) -> list[tuple[Axiom, Object]]:
    """All single-axiom rewrites of a canonical object, at every position and
    in both orientations, whose results are again canonical.  Non-expansive
    enumeration omits the orientations that synthesize fresh structure
    (theta, lin and ren right-to-left); a bidirectional search recovers
    those steps from the other frontier.

    A result's canonicity is read off the nodes its rewrite rebuilt
    (rewrite_is_canonical), and only a canonical result is keyed and
    given an Axiom."""
    if not is_canonical(o):
        raise NotCanonicalError(print_object(o))
    return [
        (Axiom(name, orient, idxs, canonical_key(res)), res)
        for idxs, (name, orient, _), res
        in _rewrites(o, include_ren, expansive, supply_for(o), _NodeMemo())
        if rewrite_is_canonical(res, idxs)
    ]


def apply_axiom(o: Object, ax: Axiom) -> Object:
    """Replay one axiom step, ren included; raises ValueError if no
    matching instance."""
    try:
        sub = subobject_at(o, ax.path)
    except PathError as e:
        raise ValueError(str(e)) from None
    supply = supply_for(o)
    matches = []
    for name, orient, new_sub in _subtree_rewrites(sub, supply, True):
        if name != ax.name or orient != ax.orientation:
            continue
        res = rewrite_at(o, ax.path, new_sub, supply)
        if ax.result_key is None or canonical_key(res) == ax.result_key:
            matches.append(res)
    if not matches:
        raise ValueError(f"no {ax.render()} instance here")
    return matches[0]


# ---------------------------------------------------------------------------
# Bounded decision procedure (bidirectional breadth-first search)


class _Entry:
    """A state, the keyed rewrites built for it so far, and the generator
    of the rest (None once it is spent)."""

    __slots__ = ("state", "built", "rest")

    def __init__(self, state: Object, rest):
        self.state = state
        self.built: list[tuple] = []
        self.rest = rest


def _replay(entry: _Entry):
    """The entry's rewrites: the ones built, then the rest, each kept as it
    is built.  A search that stops leaves the generator where it stopped
    (a for loop, unlike yield from, does not close it), so the next search
    that meets the state resumes it."""
    yield from entry.built
    rest = entry.rest
    if rest is None:
        return
    built = entry.built
    for rw in rest:
        built.append(rw)
        yield rw
    entry.rest = None


class ExpansionCache:
    """The rewrites of the states that earlier non-expansive searches
    without ren expanded, for later such searches.

    Entries are keyed by canonical key, but an entry serves only a state
    equal to the one it was computed for: side conditions such as pp's
    x != y read binder names, so an alpha-equivalent state with other
    binder names is expanded afresh (and replaces the entry).  Equality
    is same_object's, which walks deep states without recursion.

    An entry is filled lazily: a search builds only the rewrites it
    consumes, and a later search that meets the state replays them and
    resumes the generator.  The cache owns one name supply, reserving the
    identifiers of the given objects and of every search's input and
    targets, and one node memo: every identifier of every state is then
    an input's or a target's or was issued once, so a node's rewrite
    list, computed in one search, serves that node in every later
    search."""

    def __init__(self, *objects: Object):
        self.entries: dict[tuple, _Entry] = {}
        self.hits = 0
        self.supply = supply_for(*objects)
        self.memo = _NodeMemo()

    def instances(self, key: tuple, o: Object):
        """Every non-expansive rewrite of o without ren, canonical or not,
        as an iterator of _keyed tuples (key, axiom name, orientation,
        path, result); key is o's canonical key.  An entry keeps the tuples
        it built, so a replay walks no result for its key again.  o's
        identifiers must be the supply's: equiv adds its input and its
        targets, and every state it reaches is built from them and from
        issued names."""
        entry = self.entries.get(key)
        if entry is not None and same_object(entry.state, o):
            self.hits += 1
        else:
            entry = self.entries[key] = _Entry(
                o, _keyed(_rewrites(o, False, False, self.supply, self.memo))
            )
        return _replay(entry)


def refusal(o: Object, p: Object, include_ren: bool = False) -> str:
    """Why no chain of axiom applications can join o and p, read off their
    sorts and free identifiers, or "" if these allow one.  Every base-axiom
    rewrite keeps the sort, the free variables and the free names; ren
    renames names only, and ren LR can drop a free name, so with ren only
    the free variables must agree."""
    if sort_of(o) != sort_of(p):
        return "sorts differ"
    free = free_vars if include_ren else free_idents
    if free(o) != free(p):
        return "free identifiers differ"
    return ""


def equiv(
    o: Object,
    p: Object | Sequence[Object],
    max_states: int = 20000,
    max_depth: int = 12,
    include_ren: bool = False,
    expansive: bool = True,
    *,
    keys: Optional[tuple] = None,
    cache: Optional[ExpansionCache] = None,
) -> EquivOutcome:
    """Search for a chain of axiom applications joining o and p, where p is
    one target or a list of targets: the search stops at the first target
    it reaches, and its outcome names that target.

    Every input must be canonical.  The outcome is either Equivalent with a
    replayable certificate from o to the target it reached, or
    NotWithinBounds, which is inconclusive.  A target that refusal rules
    out is not searched for; when it rules out every target, the outcome
    gives the first target's refusal as its reason.  A caller that already
    holds the keys passes them as keys: canonical_key(o) and
    canonical_key(p), or the list of the targets' keys.  Searches that pass
    one cache share their expansions, which changes no outcome.

    One breadth-first loop grows a side from o and a side from the
    targets, expanding the smaller frontier, o's on a tie; a single p is
    the one-target case.  Each side records every state it reaches with
    its parent and the (axiom name, orientation, path) step from it, and
    the certificate is read along those links from the state where the
    sides meet; its steps are the only Axiom objects the search builds,
    and the links of the targets' side end at the target reached.  Every
    expansion is a stream of (key, axiom name, orientation, path, result)
    tuples, canonical or not: cache.instances, or the keyed _rewrites of
    the search's own name supply and node memo, whose supply reserves the
    identifiers of o and of the targets.  With a cache, these identifiers
    are added to the cache's supply, which then reserves the inputs of
    every search that shares it.

    Rewrites are consumed one at a time, and none is built after the search
    stops.  A result is admitted by its key first: one already visited is
    skipped before its canonicity is tested, since every visited state is
    canonical and canonicity is invariant under renaming.  Canonicity is
    then read off the path the rewrite rebuilt (rewrite_is_canonical):
    the new subobject's cached answer and the redex test of each node
    above it, since every other node is the canonical state's own."""
    several = isinstance(p, (list, tuple))
    targets = list(p) if several else [p]
    if not targets:
        raise ValueError("equiv needs a target")
    for q in (o, *targets):
        if not is_canonical(q):
            raise NotCanonicalError(print_object(q))
    if cache is not None and (include_ren or expansive):
        raise ValueError("the expansion cache serves non-expansive searches without ren")
    refusals = [refusal(o, t, include_ren) for t in targets]
    live = [i for i, why in enumerate(refusals) if not why]
    if not live:
        return EquivOutcome("not-within-bounds", reason=refusals[0])
    if keys is None:
        ko, kts = canonical_key(o), {i: canonical_key(targets[i]) for i in live}
    else:
        ko, kts = keys[0], keys[1] if several else [keys[1]]
    # each target key with the index of the first target that has it
    origin: dict[tuple, int] = {}
    for i in live:
        origin.setdefault(kts[i], i)
    if ko in origin:
        return EquivOutcome("equivalent", Certificate([]), reason="found", target=origin[ko])

    if cache is None:
        supply, memo = supply_for(o, *targets), _NodeMemo()

        def expand(key, obj):
            return _keyed(_rewrites(obj, include_ren, expansive, supply, memo))
    else:
        memo, expand = cache.memo, cache.instances
        cache.supply.include(o, *targets)
    computed, served = len(memo.lists), memo.served
    # each side maps a state's key to (state, parent key, axiom from the
    # parent); side 0 grows from o, side 1 from the targets
    seen = ({ko: (o, None, None)}, {k: (targets[i], None, None) for k, i in origin.items()})
    frontiers = [[ko], list(origin)]
    states, depth, expanded, built = 1 + len(origin), 0, 0, 0

    def stop(reason: str, meet=None) -> EquivOutcome:
        cert, target = certificate(meet) if meet is not None else (None, None)
        status = "equivalent" if cert is not None else "not-within-bounds"
        return EquivOutcome(status, cert, states, reason, expanded, built,
                            len(memo.lists) - computed, memo.served - served, target)

    def certificate(meet) -> tuple[Certificate, int]:
        steps = [Axiom(name, orient, path, key)
                 for key, (name, orient, path), _ in _links(seen[0], meet)]
        steps.reverse()
        # a step of the targets' side, read towards its target, flips and
        # ends at its parent
        end = meet
        for _, (name, orient, path), end in _links(seen[1], meet):
            steps.append(Axiom(name, _FLIP[orient], path, end))
        return Certificate(steps), origin[end]

    while frontiers[0] or frontiers[1]:
        if depth >= max_depth:
            return stop("depth bound")
        if states >= max_states:
            return stop("state bound")
        # expand the smaller frontier, o's on a tie
        f, b = frontiers
        side = 0 if f and (not b or len(f) <= len(b)) else 1
        visited, other = seen[side], seen[1 - side]
        new_frontier = []
        for key in frontiers[side]:
            expanded += 1
            for rk, name, orient, idxs, res in expand(key, visited[key][0]):
                built += 1
                if rk in visited or not rewrite_is_canonical(res, idxs):
                    continue
                visited[rk] = (res, key, (name, orient, idxs))
                states += 1
                new_frontier.append(rk)
                if rk in other:
                    return stop("found", rk)
                if states >= max_states:
                    return stop("state bound")
        frontiers[side] = new_frontier
        depth += 1
    return stop("empty frontier")


def _links(visited: dict, key):
    """(key, step, parent key) of each state from key back to its side's
    origin, step being the (axiom name, orientation, path) from the
    parent."""
    _, parent, step = visited[key]
    while parent is not None:
        yield key, step, parent
        key = parent
        _, parent, step = visited[key]


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


def admissible_suite(seed: int, cases: int = 20) -> dict:
    """Random well-scoped instances of the three admissible equations; each
    must close under equiv within default bounds."""
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
