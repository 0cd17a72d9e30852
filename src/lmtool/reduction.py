"""Reduction for the full calculus: rules B, S, M, R, the refinement of R
into renaming / stack-replacement / named / swap / composition cases with
their linear and non-linear variants, the canonical-form normalizer, and
meaningful reduction."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .meta import (
    apply_stack,
    prepare_erepl,
    replace,
    stack_concat,
    stack_len,
    substitute,
)
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
    canonical_key,
    children,
    count_free,
    descend,
    dotted,
    empty_stack,
    free_occurrences,
    positions,
    print_object,
    rewrite_at,
    sort_of,
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
    # refinement of R (classification of an explicit replacement)
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
    steps: list[tuple[RuleTag, Path, Object]]

    def render(self) -> str:
        lines = [print_object(self.start)]
        for tag, path, obj in self.steps:
            lines.append(f"{tag.value} @ {dotted(path.steps)} => {print_object(obj)}")
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


def is_linear_path(root: Object, frm: Path, to: Path) -> bool:
    """True iff the path from frm to to (frm must be a prefix) stays within
    the linear-context grammar."""
    fi, ti = frm.steps, to.steps
    if ti[: len(fi)] != fi:
        raise ValueError("frm is not a prefix of to")
    start = subobject_at(root, frm)
    return is_linear_indices(start, ti[len(fi):])


def linear_sort_pair(root: Object, frm: Path, to: Path) -> str:
    """The XY classification of a linear context: hole sort then result sort
    (TT, TC, CC, CT)."""
    hole = subobject_at(root, to)
    res = subobject_at(root, frm)
    h = "T" if sort_of(hole) == "term" else "C"
    r = "T" if sort_of(res) == "term" else "C"
    return r + h  # result sort first: LTT takes a term and yields a term


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


def lm_step(o: Object, tag: RuleTag, p: Path, supply: NameSupply | None = None) -> Object:
    """Fire one of the plain rules B, S, M, R at p."""
    if supply is None:
        supply = supply_for(o)
    nodes = descend(o, p.steps)
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
    return splice(nodes, p.steps, red)


# ---------------------------------------------------------------------------
# Classification of an R-redex (the decision diagram)


@dataclass
class RInfo:
    tag: RuleTag
    occ_idxs: Optional[tuple[int, ...]] = None  # position of the unique
    # occurrence inside the replacement's command, when there is one


def classify_R(o: Object, p: Path) -> RuleTag:
    return classify_R_info(o, p).tag


def classify_R_info(o: Object, p: Path) -> RInfo:
    sub = subobject_at(o, p)
    if not isinstance(sub, ERepl):
        raise ValueError("classification expects an explicit replacement")
    return _classify_erepl(sub)


def _classify_erepl(sub: ERepl) -> RInfo:
    c, alpha, s = sub.body, sub.old, sub.stack
    if isinstance(s, EmptyStack):
        return RInfo(RuleTag.R_EMPTY)
    if count_free(alpha, c) != 1:
        return RInfo(RuleTag.R_NEQ1)
    occ = next(free_occurrences(c, alpha), None)
    if occ is None:
        # the occurrence sits under a shadowing binder only when inputs break
        # the naming discipline; treat as non-linear work
        return RInfo(RuleTag.R_NEQ1)
    idxs, node = occ
    linear = is_linear_indices(c, idxs)
    if isinstance(node, Named):
        tag = RuleTag.N_LIN if linear else RuleTag.N_NONLIN
        return RInfo(tag, idxs)
    inner: ERepl = node
    if isinstance(inner.stack, EmptyStack):
        tag = RuleTag.W if linear else RuleTag.W_NONLIN
    else:
        tag = RuleTag.C if linear else RuleTag.C_NONLIN
    return RInfo(tag, idxs)


# ---------------------------------------------------------------------------
# The redex engine.  A classifier names the redex rooted at a node itself,
# as (tag, info) or None; one scan lists the redexes a classifier finds,
# fire contracts any of them, and one loop normalizes under a choice of
# the next redex.

_B = (RuleTag.B, None)
_M = (RuleTag.M, None)
_S = (RuleTag.S, None)
_R = (RuleTag.R, None)


def _app_tag(o: App) -> Optional[tuple[RuleTag, None]]:
    f = o.fun
    while type(f) is ESub:
        f = f.body
    if type(f) is Abs:
        return _B
    if type(f) is Mu:
        return _M
    return None


def _plain_tag(o: Object) -> Optional[tuple[RuleTag, None]]:
    """The B, M, S or R redex rooted at o."""
    t = type(o)
    if t is App:
        return _app_tag(o)
    if t is ESub:
        return _S
    if t is ERepl:
        return _R
    return None


def _refined_tag(o: Object) -> Optional[tuple[RuleTag, RInfo | None]]:
    """As _plain_tag, with an explicit replacement classified."""
    if type(o) is ERepl:
        info = _classify_erepl(o)
        return info.tag, info
    return _plain_tag(o)


def _canon_tag(o: Object) -> Optional[tuple[RuleTag, RInfo | None]]:
    """The B, M, C or W redex rooted at o.  This depends on o's own subtree
    only."""
    t = type(o)
    if t is App:
        return _app_tag(o)
    if t is ERepl:
        info = _classify_erepl(o)
        if info.tag in CANON_R:
            return info.tag, info
    return None


def _redexes(o: Object, tag_of, tags=None):
    """Yield (tag, path, info) for each redex tag_of finds in o, in
    pre-order; with tags, only those whose tag is in it."""
    for idxs, sub in positions(o):
        found = tag_of(sub)
        if found is not None and (tags is None or found[0] in tags):
            yield found[0], Path(idxs, COMMAND if type(sub) is ERepl else TERM), found[1]


def fire(
    o: Object, tag: RuleTag, p: Path, supply: NameSupply | None = None,
    info: RInfo | None = None,
) -> Object:
    """Fire the redex at p.  A plain tag goes to lm_step.  A refined
    replacement rule needs the classification of the replacement at p:
    without info it is computed here and must give tag."""
    if tag in PLAIN:
        return lm_step(o, tag, p, supply)
    nodes = descend(o, p.steps)
    sub: ERepl = nodes[-1]  # type: ignore[assignment]
    if info is None:
        if type(sub) is not ERepl:
            raise ValueError("classification expects an explicit replacement")
        info = _classify_erepl(sub)
        if info.tag != tag:
            raise ValueError(
                f"redex at path classifies as {info.tag.value}, not {RuleTag(tag).value}"
            )
    if supply is None:
        supply = supply_for(o)
    c, new, alpha, s = sub.body, sub.new, sub.old, sub.stack
    if info.occ_idxs is None:  # R# and R!=1: replace every occurrence
        e = prepare_erepl(sub, supply)
        red = replace(e.body, e.new, e.old, e.stack, supply)
    else:
        occ_p = Path(info.occ_idxs, COMMAND)
        node = subobject_at(c, occ_p)
        if type(node) is Named:  # N: the one named occurrence takes the stack
            repl = Named(new, apply_stack(node.body, s))
        elif type(node.stack) is EmptyStack:  # W: swap with the inner renaming
            base = node.ann if node.ann is not None else sub.ann
            repl = ERepl(ERepl(node.body, alpha, node.old, node.ann, s), new, alpha,
                         codomain(base, stack_len(s)), empty_stack())
        else:  # C: compose with the inner stack
            repl = ERepl(node.body, new, node.old, node.ann, stack_concat(node.stack, s))
        red = rewrite_at(c, occ_p, repl, supply)
    # unlike s in the inner write, red has no free identifier that sub lacks
    return splice(nodes, p.steps, red)


def _normalize(o: Object, choose, supply: NameSupply, trace: Trace | None,
               limit: int) -> Optional[Object]:
    """Fire the redex choose(o) gives, as (tag, path, info), until it gives
    None; return that normal form, or None when limit steps reach none."""
    for _ in range(limit):
        found = choose(o)
        if found is None:
            return o
        tag, p, info = found
        o = fire(o, tag, p, supply, info)
        if trace is not None:
            trace.steps.append((tag, p, o))
    return None


def lm_redexes(o: Object) -> list[tuple[RuleTag, Path]]:
    """All B, S, M, R redex positions."""
    return [(tag, p) for tag, p, _ in _redexes(o, _plain_tag)]


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


def canon_random(o: Object, rng, supply: NameSupply | None = None) -> Object:
    """Canonicalization firing redexes in random order (strategy
    independence oracle)."""

    def pick(o: Object):
        found = list(_redexes(o, _canon_tag))
        return found[rng.randrange(len(found))] if found else None

    out = _normalize(o, pick, supply or supply_for(o), None, _CANON_LIMIT)
    if out is None:
        raise RuntimeError("canonicalization did not terminate")
    return out


# ---------------------------------------------------------------------------
# Meaningful reduction


def meaningful_redexes(o: Object) -> list[tuple[RuleTag, Path]]:
    """S-redexes plus the meaningful replacement redexes of a canonical
    object."""
    if not is_canonical(o):
        raise NotCanonicalError("meaningful reduction lives on canonical forms")
    return [(tag, p) for tag, p, _ in _redexes(o, _refined_tag, MEANINGFUL)]


def meaningful_step(
    o: Object, tag: RuleTag, p: Path, supply: NameSupply | None = None
) -> Object:
    """Fire an S or meaningful-replacement redex, then canonicalize."""
    if tag not in MEANINGFUL:
        raise ValueError(f"{RuleTag(tag).value} is not a meaningful rule")
    if supply is None:
        supply = supply_for(o)
    return canon(fire(o, tag, p, supply), supply)


def meaningful_reducts(o: Object) -> list[tuple[RuleTag, Path, Object]]:
    """All meaningful reducts of a canonical object; one supply_for(o)
    serves every redex, and each redex fires with the classification its
    scan computed."""
    if not is_canonical(o):
        raise NotCanonicalError("meaningful reduction lives on canonical forms")
    redexes = list(_redexes(o, _refined_tag, MEANINGFUL))
    supply = supply_for(o) if redexes else None
    return [(tag, p, canon(fire(o, tag, p, supply, info), supply)) for tag, p, info in redexes]


# ---------------------------------------------------------------------------
# Reduction driver


class BudgetExhausted(Exception):
    def __init__(self, trace: Trace):
        super().__init__("reduction budget exhausted")
        self.trace = trace


def _first_plain(o: Object):
    rs = lm_redexes(o)
    return (*rs[0], None) if rs else None


def _first_refined(o: Object):
    return next(_redexes(o, _refined_tag, REFINED), None)


def reduce_to_nf(o: Object, budget: int = 1000, mode: str = "plain") -> tuple[Object, Trace]:
    """Leftmost-outermost reduction to normal form under a step budget.

    Plain mode fires the four base rules (R on every explicit replacement);
    refined mode fires B, S, M plus the canonical and meaningful replacement
    rules, leaving renaming replacements and linear named redexes pending.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    trace = Trace(o, [])
    choose = _first_plain if mode == "plain" else _first_refined
    nf = _normalize(o, choose, supply_for(o), trace, budget)
    if nf is None:
        raise BudgetExhausted(trace)
    return nf, trace


def plain_reducts(o: Object, supply: NameSupply | None = None) -> list[tuple[RuleTag, Path, Object]]:
    """All one-step plain reducts (used by confluence checks).  Without a
    supply, one supply_for(o) serves every redex."""
    if supply is None:
        supply = supply_for(o)
    return [(tag, p, lm_step(o, tag, p, supply)) for tag, p in lm_redexes(o)]


def reduction_graph(o: Object, max_states: int = 10000) -> tuple[dict, list[Object]]:
    """Exhaustive exploration of the plain reduction graph up to alpha;
    returns the successor map keyed by canonical keys and the normal forms.

    One name supply serves the whole graph: every identifier of a state is
    one of o's or was issued by that supply, so it never issues one that a
    state already holds."""
    supply = supply_for(o)
    start = canonical_key(o)
    edges: dict = {start: []}
    queue = [(o, start)]
    nfs = []
    while queue:
        cur, ck = queue.pop()
        succs = plain_reducts(cur, supply)
        if not succs:
            nfs.append(cur)
        for _, _, nxt in succs:
            nk = canonical_key(nxt)
            if nk not in edges:
                if len(edges) >= max_states:
                    raise BudgetExhausted(Trace(o, []))
                edges[nk] = []
                queue.append((nxt, nk))
            edges[ck].append(nk)
    return edges, nfs
