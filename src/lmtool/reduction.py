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
    count_free_name,
    descend,
    empty_stack,
    positions,
    print_object,
    rewrite_at,
    sort_of,
    splice,
    subobject_at,
    supply_for,
)
from .typing_util import split_arrow_opt


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


MEANINGFUL_R = {RuleTag.R_NEQ1, RuleTag.N_NONLIN, RuleTag.W_NONLIN, RuleTag.C_NONLIN}
CANON_R = {RuleTag.W, RuleTag.C}


@dataclass
class Trace:
    start: Object
    steps: list[tuple[RuleTag, Path, Object]]

    def render(self) -> str:
        lines = [print_object(self.start)]
        for tag, path, obj in self.steps:
            loc = ".".join(str(i) for i in path.indices()) or "root"
            lines.append(f"{tag.value} @ {loc} => {print_object(obj)}")
        return "\n".join(lines)


class NotCanonicalError(Exception):
    pass


# ---------------------------------------------------------------------------
# Linear contexts.  A path is linear iff every step goes through the
# function position of an application, the body of an abstraction or a mu,
# the subject of a substitution or a named term, or the command of an
# explicit replacement.

_LINEAR_STEPS = {
    (App, 0),
    (Abs, 0),
    (Mu, 0),
    (ESub, 0),
    (Named, 0),
    (ERepl, 0),
}


def is_linear_indices(root: Object, idxs: tuple[int, ...]) -> bool:
    o = root
    for i in idxs:
        if (type(o), i) not in _LINEAR_STEPS:
            return False
        o = children(o)[i]
    return True


def is_linear_path(root: Object, frm: Path, to: Path) -> bool:
    """True iff the path from frm to to (frm must be a prefix) stays within
    the linear-context grammar."""
    fi, ti = frm.indices(), to.indices()
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
# Redex search


def _strip_subs(t: Object) -> tuple[list[ESub], Object]:
    """Peel the substitution-context spine t = core[x1\\v1]...[xn\\vn]."""
    frames: list[ESub] = []
    while isinstance(t, ESub):
        frames.append(t)
        t = t.body
    return frames, t


def lm_redexes(o: Object) -> list[tuple[RuleTag, Path]]:
    """All B, S, M, R redex positions."""
    out = []
    for idxs, sub in positions(o):
        match sub:
            case App(f, _):
                _, core = _strip_subs(f)
                if isinstance(core, Abs):
                    out.append((RuleTag.B, Path(idxs, TERM)))
                elif isinstance(core, Mu):
                    out.append((RuleTag.M, Path(idxs, TERM)))
            case ESub(_, _, _):
                out.append((RuleTag.S, Path(idxs, TERM)))
            case ERepl(_, _, _, _, _):
                out.append((RuleTag.R, Path(idxs, COMMAND)))
    return out


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
            ann2 = None
            if core.ann is not None:
                split = split_arrow_opt(core.ann, 1)
                ann2 = split[1] if split else None
            red = _rebuild_subs(
                frames,
                Mu(a2, ann2, ERepl(core.body, a2, core.name, core.ann,
                                   Push(sub.arg, empty_stack()))),
            )
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
    if count_free_name(alpha, c) != 1:
        return RInfo(RuleTag.R_NEQ1)
    occ = _unique_occurrence(c, alpha)
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


def _unique_occurrence(c: Object, alpha: str):
    """Position of the single free occurrence of alpha in c: either the name
    of a Named node or the replacement name of an ERepl node."""

    def go(o: Object, idxs: tuple[int, ...], shadowed: bool):
        if shadowed:
            return None
        match o:
            case Named(a, b):
                if a == alpha:
                    return (idxs, o)
                return go(b, idxs + (0,), False)
            case ERepl(b, nn, on, _, s1):
                if nn == alpha:
                    return (idxs, o)
                r = go(b, idxs + (0,), on == alpha)
                if r is not None:
                    return r
                return go(s1, idxs + (1,), False)
            case Mu(a, _, b):
                return go(b, idxs + (0,), a == alpha)
            case Var(_) | EmptyStack():
                return None
            case _:
                for i, ch in enumerate(children(o)):
                    r = go(ch, idxs + (i,), False)
                    if r is not None:
                        return r
                return None

    return go(c, (), False)


# ---------------------------------------------------------------------------
# Firing the refined replacement rules


def _fire_refined(o: Object, p: Path, info: RInfo, supply: NameSupply) -> Object:
    nodes = descend(o, p.steps)
    sub: ERepl = nodes[-1]  # type: ignore[assignment]
    c, new, alpha, ann, s = sub.body, sub.new, sub.old, sub.ann, sub.stack
    match info.tag:
        case RuleTag.R_EMPTY | RuleTag.R_NEQ1:
            e = prepare_erepl(sub, supply)
            red = replace(e.body, e.new, e.old, e.stack, supply)
        case RuleTag.N_LIN | RuleTag.N_NONLIN:
            occ_p = Path(info.occ_idxs, COMMAND)
            node: Named = subobject_at(c, occ_p)  # type: ignore[assignment]
            repl = Named(new, apply_stack(node.body, s))
            red = rewrite_at(c, occ_p, repl, supply)
        case RuleTag.W | RuleTag.W_NONLIN:
            occ_p = Path(info.occ_idxs, COMMAND)
            inner: ERepl = subobject_at(c, occ_p)  # type: ignore[assignment]
            n = _stack_len(s)
            ann2 = None
            base = inner.ann if inner.ann is not None else ann
            if base is not None:
                split = split_arrow_opt(base, n)
                ann2 = split[1] if split else None
            repl = ERepl(
                ERepl(inner.body, alpha, inner.old, inner.ann, s),
                new,
                alpha,
                ann2,
                empty_stack(),
            )
            red = rewrite_at(c, occ_p, repl, supply)
        case RuleTag.C | RuleTag.C_NONLIN:
            occ_p = Path(info.occ_idxs, COMMAND)
            inner = subobject_at(c, occ_p)
            repl = ERepl(
                inner.body, new, inner.old, inner.ann, stack_concat(inner.stack, s)
            )
            red = rewrite_at(c, occ_p, repl, supply)
        case _:
            raise ValueError(info.tag)
    # unlike s in the inner write, red has no free identifier that sub lacks
    return splice(nodes, p.steps, red)


def _stack_len(s: Object) -> int:
    n = 0
    while isinstance(s, Push):
        n += 1
        s = s.tail
    return n


# ---------------------------------------------------------------------------
# Canonical forms: exhaustive B, M, and linear C, W (leftmost-outermost)


def _canon_tag(o: Object) -> Optional[tuple[RuleTag, RInfo | None]]:
    """The B, M, C or W redex rooted at o itself, if o is one.  This depends
    on o's own subtree only."""
    match o:
        case App(f, _):
            _, core = _strip_subs(f)
            if isinstance(core, Abs):
                return RuleTag.B, None
            if isinstance(core, Mu):
                return RuleTag.M, None
        case ERepl():
            info = _classify_erepl(o)
            if info.tag in CANON_R:
                return info.tag, info
    return None


def _canon_redex(o: Object) -> Optional[tuple[RuleTag, Path, RInfo | None]]:
    for idxs, sub in positions(o):
        found = _canon_tag(sub)
        if found is not None:
            return found[0], Path(idxs, sort_of(sub)), found[1]
    return None


def canon(o: Object, supply: NameSupply | None = None, trace: Trace | None = None) -> Object:
    """The canonical form: the unique B, M, C, W normal form."""
    if supply is None:
        supply = supply_for(o)
    guard = 0
    while True:
        found = _canon_redex(o)
        if found is None:
            return o
        tag, p, info = found
        if tag in (RuleTag.B, RuleTag.M):
            o = lm_step(o, tag, p, supply)
        else:
            o = _fire_refined(o, p, info, supply)
        if trace is not None:
            trace.steps.append((tag, p, o))
        guard += 1
        if guard > 100000:
            raise RuntimeError("canonicalization did not terminate")


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
    if supply is None:
        supply = supply_for(o)
    while True:
        found = []
        for idxs, sub in positions(o):
            hit = _canon_tag(sub)
            if hit is not None:
                found.append((hit[0], Path(idxs, sort_of(sub)), hit[1]))
        if not found:
            return o
        tag, p, info = found[rng.randrange(len(found))]
        if tag in (RuleTag.B, RuleTag.M):
            o = lm_step(o, tag, p, supply)
        else:
            o = _fire_refined(o, p, info, supply)


# ---------------------------------------------------------------------------
# Meaningful reduction


def meaningful_redexes(o: Object) -> list[tuple[RuleTag, Path]]:
    """S-redexes plus the meaningful replacement redexes of a canonical
    object."""
    if not is_canonical(o):
        raise NotCanonicalError("meaningful reduction lives on canonical forms")
    out = []
    for idxs, sub in positions(o):
        match sub:
            case ESub(_, _, _):
                out.append((RuleTag.S, Path(idxs, TERM)))
            case ERepl(_, _, _, _, _):
                tag = _classify_erepl(sub).tag
                if tag in MEANINGFUL_R:
                    out.append((tag, Path(idxs, COMMAND)))
    return out


def meaningful_step(
    o: Object, tag: RuleTag, p: Path, supply: NameSupply | None = None
) -> Object:
    """Fire an S or meaningful-replacement redex, then canonicalize."""
    if supply is None:
        supply = supply_for(o)
    if tag == RuleTag.S:
        u = lm_step(o, RuleTag.S, p, supply)
    else:
        info = classify_R_info(o, p)
        if info.tag != tag or tag not in MEANINGFUL_R:
            raise ValueError(f"redex at path classifies as {info.tag}, not {tag}")
        u = _fire_refined(o, p, info, supply)
    return canon(u, supply)


def meaningful_reducts(o: Object) -> list[tuple[RuleTag, Path, Object]]:
    """All meaningful reducts of a canonical object; one supply_for(o)
    serves every redex."""
    redexes = meaningful_redexes(o)
    supply = supply_for(o) if redexes else None
    return [(tag, p, meaningful_step(o, tag, p, supply)) for tag, p in redexes]


# ---------------------------------------------------------------------------
# Reduction driver


class BudgetExhausted(Exception):
    def __init__(self, trace: Trace):
        super().__init__("reduction budget exhausted")
        self.trace = trace


def _plain_redex(o: Object) -> Optional[tuple[RuleTag, Path]]:
    rs = lm_redexes(o)
    return rs[0] if rs else None


def _refined_redex(o: Object) -> Optional[tuple[RuleTag, Path, RInfo | None]]:
    for idxs, sub in positions(o):
        match sub:
            case App(f, _):
                _, core = _strip_subs(f)
                if isinstance(core, Abs):
                    return (RuleTag.B, Path(idxs, TERM), None)
                if isinstance(core, Mu):
                    return (RuleTag.M, Path(idxs, TERM), None)
            case ESub(_, _, _):
                return (RuleTag.S, Path(idxs, TERM), None)
            case ERepl(_, _, _, _, _):
                info = _classify_erepl(sub)
                if info.tag is not RuleTag.R_EMPTY and info.tag is not RuleTag.N_LIN:
                    return (info.tag, Path(idxs, COMMAND), info)
    return None


def reduce_to_nf(o: Object, budget: int = 1000, mode: str = "plain") -> tuple[Object, Trace]:
    """Leftmost-outermost reduction to normal form under a step budget.

    Plain mode fires the four base rules (R on every explicit replacement);
    refined mode fires B, S, M plus the canonical and meaningful replacement
    rules, leaving renaming replacements and linear named redexes pending.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    supply = supply_for(o)
    trace = Trace(o, [])
    for _ in range(budget):
        if mode == "plain":
            found = _plain_redex(o)
            if found is None:
                return o, trace
            tag, p = found
            o = lm_step(o, tag, p, supply)
        else:
            found = _refined_redex(o)
            if found is None:
                return o, trace
            tag, p, info = found
            if info is None:
                o = lm_step(o, tag, p, supply)
            else:
                o = _fire_refined(o, p, info, supply)
        trace.steps.append((tag, p, o))
    raise BudgetExhausted(trace)


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
