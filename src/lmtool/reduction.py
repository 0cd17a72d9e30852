"""Reduction for the full calculus: rules B, S, M, R, the refinement of R
into renaming / stack-replacement / named / swap / composition cases with
their linear and non-linear variants, the canonical-form normalizer, and
meaningful reduction."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Optional

from .meta import prepare_erepl, replace, substitute
from .syntax import (
    _WITH_CHILD,
    _NodeMemo,
    Abs,
    App,
    EmptyStack,
    ERepl,
    ESub,
    Mu,
    Named,
    NameSupply,
    Object,
    Push,
    Var,
    canonical_key,
    children,
    descend,
    dotted,
    empty_stack,
    free_occurrences,
    positions,
    print_object,
    splice,
    subobject_at,
    supply_for,
)
from .typing_util import codomain


class RuleTag(str, Enum):
    B = "B"
    S = "S"
    M = "M"
    R = "R"
    # refinement of R: the classification of an explicit replacement, which
    # sorts its R step into a kind; a refined redex fires as R
    R_EMPTY = "R#"          # renaming replacement: inert
    R_NEQ1 = "R!=1"         # stack replacement, several or no occurrences
    N_LIN = "Nlin"          # named occurrence under a linear context
    N_NONLIN = "N!lin"
    W = "W"                 # swap with an inner renaming, linear context
    W_NONLIN = "W!lin"
    C = "C"                 # composition with an inner stack, linear context
    C_NONLIN = "C!lin"


# The tag set of each mode.  lm_step fires the plain rules; canonical
# forms are the CANON normal forms; meaningful reduction fires MEANINGFUL
# redexes of canonical forms; refined reduction fires both, leaving the
# renaming replacements (R#) and the linear named redexes (Nlin) pending.
PLAIN = frozenset({RuleTag.B, RuleTag.S, RuleTag.M, RuleTag.R})
MEANINGFUL_R = frozenset({RuleTag.R_NEQ1, RuleTag.N_NONLIN, RuleTag.W_NONLIN, RuleTag.C_NONLIN})
CANON_R = frozenset({RuleTag.W, RuleTag.C})
CANON = frozenset({RuleTag.B, RuleTag.M}) | CANON_R
MEANINGFUL = frozenset({RuleTag.S}) | MEANINGFUL_R
REFINED = CANON | MEANINGFUL


@dataclass
class Trace:
    start: Object
    steps: list[tuple[RuleTag, tuple[int, ...], Object]]

    def render(self) -> str:
        lines = [print_object(self.start)]
        for tag, path, obj in self.steps:
            lines.append(f"{tag.value} @ {dotted(path)} => {print_object(obj)}")
        return "\n".join(lines)


class NotCanonicalError(Exception):
    pass


# ---------------------------------------------------------------------------
# Linear contexts.  A path is linear iff every step goes through child 0 of
# one of these constructors: the function position of an application, the
# body of an abstraction or a mu, the subject of a substitution or a named
# term, or the command of an explicit replacement.

LINEAR_SPINE = (App, Abs, Mu, ESub, Named, ERepl)


def is_linear_indices(root: Object, idxs: tuple[int, ...]) -> bool:
    o = root
    for i in idxs:
        if i != 0 or not isinstance(o, LINEAR_SPINE):
            return False
        o = children(o)[0]
    return True


# ---------------------------------------------------------------------------
# Plain steps


def _strip_subs(t: Object) -> tuple[list[ESub], Object]:
    """Peel the substitution-context spine t = core[x1\\v1]...[xn\\vn]."""
    frames: list[ESub] = []
    while isinstance(t, ESub):
        frames.append(t)
        t = t.body
    return frames, t


def _rebuild_subs(frames: list[ESub], core: Object) -> Object:
    for fr in reversed(frames):
        core = ESub(core, fr.var, fr.arg)
    return core


def lm_step(o: Object, tag: RuleTag, p: tuple[int, ...],
            supply: NameSupply | None = None) -> Object:
    """Fire one of the plain rules B, S, M, R at p."""
    if supply is None:
        supply = supply_for(o)
    nodes = descend(o, p)
    sub = nodes[-1]
    match tag:
        case RuleTag.B:
            if not isinstance(sub, App):
                raise ValueError("B expects an application")
            frames, core = _strip_subs(sub.fun)
            if not isinstance(core, Abs):
                raise ValueError("B expects an abstraction under substitutions")
            red = _rebuild_subs(frames, ESub(core.body, core.var, sub.arg))
        case RuleTag.M:
            if not isinstance(sub, App):
                raise ValueError("M expects an application")
            frames, core = _strip_subs(sub.fun)
            if not isinstance(core, Mu):
                raise ValueError("M expects a mu under substitutions")
            a2 = supply.fresh(core.name)
            body = ERepl(core.body, a2, core.name, core.ann, Push(sub.arg, empty_stack()))
            red = _rebuild_subs(frames, Mu(a2, codomain(core.ann, 1), body))
        case RuleTag.S:
            if not isinstance(sub, ESub):
                raise ValueError("S expects an explicit substitution")
            red = substitute(sub.body, sub.var, sub.arg, supply)
        case RuleTag.R:
            if not isinstance(sub, ERepl):
                raise ValueError("R expects an explicit replacement")
            e = prepare_erepl(sub, supply)
            red = replace(e.body, e.new, e.old, e.stack, supply)
        case _:
            raise ValueError(f"lm_step does not fire {RuleTag(tag).value}")
    # a reduct has no free identifier its redex lacks: nothing above p captures
    return splice(nodes, p, red)


# ---------------------------------------------------------------------------
# Classification of an R-redex (the decision diagram).  A classification
# is (tag, occurrence): the refined tag, and the position of the unique
# occurrence of the bound name inside the replacement's command when there
# is one, else None.


def classify_R_info(o: Object, p: tuple[int, ...]) -> tuple[RuleTag, tuple[int, ...] | None]:
    sub = subobject_at(o, p)
    if not isinstance(sub, ERepl):
        raise ValueError("classification expects an explicit replacement")
    return _classify_erepl(sub)


def _classify_erepl(sub: ERepl) -> tuple[RuleTag, tuple[int, ...] | None]:
    c, alpha, s = sub.body, sub.old, sub.stack
    if isinstance(s, EmptyStack):
        return RuleTag.R_EMPTY, None
    occ = _sole_occurrence(c, alpha)
    if occ is None:
        return RuleTag.R_NEQ1, None
    idxs, node = occ
    linear = is_linear_indices(c, idxs)
    if isinstance(node, Named):
        return (RuleTag.N_LIN if linear else RuleTag.N_NONLIN), idxs
    inner: ERepl = node
    if isinstance(inner.stack, EmptyStack):
        return (RuleTag.W if linear else RuleTag.W_NONLIN), idxs
    return (RuleTag.C if linear else RuleTag.C_NONLIN), idxs


def _sole_occurrence(c: Object, alpha: str) -> tuple[tuple[int, ...], Object] | None:
    """The free occurrence of alpha in c as (index path, node) when it is
    the only one, else None; the walk stops at the second."""
    occs = list(islice(free_occurrences(c, alpha), 2))
    return occs[0] if len(occs) == 1 else None


# ---------------------------------------------------------------------------
# The redex engine.  A classifier names the redex rooted at a node itself,
# as a tag or None; one scan lists the redexes a classifier finds, fire
# contracts any of them, and one loop normalizes under a choice of the next
# redex.


def _app_tag(o: App) -> Optional[RuleTag]:
    f = o.fun
    while type(f) is ESub:
        f = f.body
    if type(f) is Abs:
        return RuleTag.B
    if type(f) is Mu:
        return RuleTag.M
    return None


def _plain_tag(o: Object) -> Optional[RuleTag]:
    """The B, M, S or R redex rooted at o."""
    t = type(o)
    if t is App:
        return _app_tag(o)
    if t is ESub:
        return RuleTag.S
    if t is ERepl:
        return RuleTag.R
    return None


def _refined_tag(o: Object) -> Optional[RuleTag]:
    """As _plain_tag, with an explicit replacement classified."""
    if type(o) is ERepl:
        return _classify_erepl(o)[0]
    return _plain_tag(o)


def _canon_tag(o: Object) -> Optional[RuleTag]:
    """The B, M, C or W redex rooted at o.  This depends on o's own subtree
    only."""
    t = type(o)
    if t is App:
        return _app_tag(o)
    if t is ERepl and type(o.stack) is not EmptyStack:
        return _linear_swap_or_compose(o)
    return None


def _linear_swap_or_compose(o: ERepl) -> Optional[RuleTag]:
    """_classify_erepl(o)'s tag when it is W or C, else None, for o with a
    nonempty stack.  W and C need the bound name's one occurrence to be a
    replacement's new name on the linear spine of o's command, so the walk
    follows that spine to the first occurrence and looks for a second only
    when it is such a candidate.  It stops early where no occurrence can be
    linear: at a named occurrence (N or R!=1), at a binder of the name, and
    at a node whose cached free identifiers lack it."""
    alpha = o.old
    c = o.body
    while True:
        free = getattr(c, "_fi", None)
        if free is not None and alpha not in free:
            return None
        t = type(c)
        if t is ERepl:
            if c.new == alpha:
                if _sole_occurrence(o.body, alpha) is None:
                    return None
                return RuleTag.W if type(c.stack) is EmptyStack else RuleTag.C
            if c.old == alpha:
                return None
        elif t is Named or t is Mu:
            # a named occurrence, or a binder of the name
            if c.name == alpha:
                return None
        elif t is not App and t is not Abs and t is not ESub:
            return None  # a variable ends the spine
        c = c.fun if t is App else c.body


def _redexes(o: Object, tag_of, tags=None):
    """Yield (tag, path) for each redex tag_of finds in o, in pre-order;
    with tags, only those whose tag is in it."""
    for idxs, sub in positions(o):
        tag = tag_of(sub)
        if tag is not None and (tags is None or tag in tags):
            yield tag, idxs


def fire(o: Object, tag: RuleTag, p: tuple[int, ...],
         supply: NameSupply | None = None) -> Object:
    """Fire the redex at p.  A plain tag goes to lm_step.  A refined tag
    only sorts an R-redex into a kind of step, so it must be the
    classification of the replacement at p, and R fires there."""
    if tag not in PLAIN:
        found = classify_R_info(o, p)[0]
        if found != tag:
            raise ValueError(
                f"redex at path classifies as {found.value}, not {RuleTag(tag).value}"
            )
        tag = RuleTag.R
    return lm_step(o, tag, p, supply)


def _normalize(o: Object, choose, supply: NameSupply, trace: Trace | None,
               limit: int) -> Optional[Object]:
    """Fire the redex choose(o) gives, as (tag, path), until it gives None;
    return that normal form, or None when limit steps reach none."""
    for _ in range(limit):
        found = choose(o)
        if found is None:
            return o
        tag, p = found
        o = fire(o, tag, p, supply)
        if trace is not None:
            trace.steps.append((tag, p, o))
    return None


def lm_redexes(o: Object) -> list[tuple[RuleTag, tuple[int, ...]]]:
    """All B, S, M, R redex positions."""
    return list(_redexes(o, _plain_tag))


# ---------------------------------------------------------------------------
# Canonical forms: exhaustive B, M, and linear C, W (leftmost-outermost)

_CANON_LIMIT = 100_001  # a canonicalization longer than 100,000 steps fails


def canon(o: Object, supply: NameSupply | None = None, trace: Trace | None = None) -> Object:
    """The canonical form: the unique B, M, C, W normal form."""
    out = _normalize(o, lambda o: next(_redexes(o, _canon_tag), None),
                     supply or supply_for(o), trace, _CANON_LIMIT)
    if out is None:
        raise RuntimeError("canonicalization did not terminate")
    return out


def is_canonical(o: Object) -> bool:
    """o has no B, M, C or W redex; the answer is cached on inner nodes."""
    return _canonical(o)


def _canonical(o: Object) -> bool:
    # a node is canonical iff it is no redex itself and its children are
    # canonical; both depend on its own subtree only, so the answer is
    # kept in the node's cache slot
    if isinstance(o, (Var, EmptyStack)):
        return True
    out = getattr(o, "_cn", None)
    if out is None:
        out = _canon_tag(o) is None and all(map(_canonical, children(o)))
        object.__setattr__(o, "_cn", out)
    return out


def rewrite_is_canonical(o: Object, idxs: tuple[int, ...]) -> bool:
    """is_canonical(o) for an o that splice built from a canonical object
    by putting a new subobject at idxs.  Every node off that path is the
    canonical object's own, so only the new subobject (through its cached
    answer) and the nodes rebuilt above it are tested, bottom-up, and each
    rebuilt node's answer is kept in its cache slot."""
    out = getattr(o, "_cn", None)
    if out is not None:
        return out
    nodes = []
    for i in idxs:
        nodes.append(o)
        o = children(o)[i]
    out = _canonical(o)
    for node in reversed(nodes):
        if out:
            out = _canon_tag(node) is None
        object.__setattr__(node, "_cn", out)
    return out


def canon_random(o: Object, rng) -> Object:
    """Canonicalization firing redexes in random order (strategy
    independence oracle)."""

    def pick(o: Object):
        found = list(_redexes(o, _canon_tag))
        return found[rng.randrange(len(found))] if found else None

    out = _normalize(o, pick, supply_for(o), None, _CANON_LIMIT)
    if out is None:
        raise RuntimeError("canonicalization did not terminate")
    return out


# ---------------------------------------------------------------------------
# Meaningful reduction


def meaningful_redexes(o: Object) -> list[tuple[RuleTag, tuple[int, ...]]]:
    """S-redexes plus the meaningful replacement redexes of a canonical
    object."""
    if not is_canonical(o):
        raise NotCanonicalError("meaningful reduction lives on canonical forms")
    return list(_redexes(o, _refined_tag, MEANINGFUL))


def meaningful_reducts(o: Object) -> list[tuple[RuleTag, tuple[int, ...], Object]]:
    """All meaningful reducts of a canonical object; one supply_for(o)
    serves every redex."""
    if not is_canonical(o):
        raise NotCanonicalError("meaningful reduction lives on canonical forms")
    redexes = list(_redexes(o, _refined_tag, MEANINGFUL))
    supply = supply_for(o) if redexes else None
    return [(tag, p, canon(fire(o, tag, p, supply), supply)) for tag, p in redexes]


# ---------------------------------------------------------------------------
# Reduction driver


class BudgetExhausted(Exception):
    def __init__(self, trace: Trace):
        super().__init__("reduction budget exhausted")
        self.trace = trace


_MODES = {"plain": (_plain_tag, None), "refined": (_refined_tag, REFINED)}


def reduce_to_nf(o: Object, budget: int = 1000, mode: str = "plain") -> tuple[Object, Trace]:
    """Leftmost-outermost reduction to normal form under a step budget.

    Plain mode fires the four base rules (R on every explicit replacement);
    refined mode fires B, S, M plus the canonical and meaningful replacement
    rules, leaving renaming replacements and linear named redexes pending.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if mode not in _MODES:
        raise ValueError(f"unknown reduction mode {mode!r}")
    tag_of, tags = _MODES[mode]
    trace = Trace(o, [])
    nf = _normalize(o, lambda o: next(_redexes(o, tag_of, tags), None),
                    supply_for(o), trace, budget)
    if nf is None:
        raise BudgetExhausted(trace)
    return nf, trace


def plain_reducts(
    o: Object, supply: NameSupply | None = None
) -> list[tuple[RuleTag, tuple[int, ...], Object]]:
    """All one-step plain reducts of o, with the tag and path of each redex,
    in lm_redexes order.  Without a supply, one supply_for(o) serves every
    redex."""
    if supply is None:
        supply = supply_for(o)
    return [(tag, p, lm_step(o, tag, p, supply)) for tag, p in lm_redexes(o)]


def _reduct_lists(o: Object, supply: NameSupply, memo: _NodeMemo) -> None:
    """Put in memo the one-step plain reducts of every node of o that has
    no list yet.  A node's list is its own redex fired at the node, then
    each reduct of each child rebuilt under the node: lm_redexes order.
    Post-order, on an explicit stack."""
    lists = memo.lists
    todo = [o]
    while todo:
        n = todo[-1]
        if id(n) in lists:
            todo.pop()
            continue
        cs = children(n)
        pending = [c for c in cs if id(c) not in lists]
        if pending:
            todo.extend(pending)
            continue
        todo.pop()
        tag = _plain_tag(n)
        out = [lm_step(n, tag, (), supply)] if tag is not None else []
        for i, c in enumerate(cs):
            below = lists[id(c)]
            if below:
                with_child = _WITH_CHILD[type(n)][i]
                out.extend([with_child(n, r) for r in below])
        lists[id(n)] = out
        memo.nodes.append(n)


def reduction_graph(o: Object, max_states: int = 10000) -> tuple[dict, list[Object]]:
    """Exhaustive exploration of the plain reduction graph up to alpha;
    returns the successor map keyed by canonical keys, each state's
    successors in lm_redexes order, and one normal form per alpha-class
    reached.

    One name supply serves the whole graph: every identifier of a state is
    one of o's or was issued by that supply, so it never issues one that a
    state already holds.  Each node's one-step reducts are built once per
    call, by node identity, and serve every state that holds the node: a
    state shares every subtree off one spine with the state it came from."""
    supply = supply_for(o)
    memo = _NodeMemo()
    start = canonical_key(o)
    edges: dict = {start: []}
    queue = [(o, start)]
    nfs = []
    while queue:
        cur, ck = queue.pop()
        _reduct_lists(cur, supply, memo)
        succs = memo.lists[id(cur)]
        if not succs:
            nfs.append(cur)
        for nxt in succs:
            nk = canonical_key(nxt)
            if nk not in edges:
                if len(edges) >= max_states:
                    raise BudgetExhausted(Trace(o, []))
                edges[nk] = []
                queue.append((nxt, nk))
            edges[ck].append(nk)
    return edges, nfs
