"""Meta-level substitution, the ternary replacement operation, and stacks.

Replacement replace(o, new, old, s) feeds the stack s to every subcommand
[old]t of o and renames old to new.  It requires old not free in s; inputs
violating the condition are repaired by renaming the caller's bound name
first (see prepare_erepl).
"""

from __future__ import annotations

from typing import Callable, Iterator

from .syntax import (
    _BOUND_BY,
    _REBIND,
    App,
    EmptyStack,
    ERepl,
    Named,
    NameSupply,
    Object,
    Push,
    Var,
    alpha_eq,
    children,
    empty_stack,
    free_idents,
    refresh,
    rename_free,
    supply_for,
    with_children,
)
from .typing_util import codomain

# ---------------------------------------------------------------------------
# Stacks


def stack_items(s: Object) -> list[Object]:
    out = []
    while isinstance(s, Push):
        out.append(s.head)
        s = s.tail
    if not isinstance(s, EmptyStack):
        raise TypeError(f"not a stack: {s!r}")
    return out


def stack_of(items: list[Object]) -> Object:
    s: Object = empty_stack()
    for t in reversed(items):
        s = Push(t, s)
    return s


def stack_len(s: Object) -> int:
    return len(stack_items(s))


def stack_concat(s: Object, s2: Object) -> Object:
    """Concatenation; # is the neutral element."""
    return stack_of(stack_items(s) + stack_items(s2))


def apply_stack(u: Object, s: Object) -> Object:
    """u``s: iterated application of the stack elements to u."""
    for t in stack_items(s):
        u = App(u, t)
    return u


# ---------------------------------------------------------------------------
# Substitution and replacement: one capture-avoiding walk


def _payloads(u: Object, supply: NameSupply) -> Iterator[Object]:
    """The copies of u to insert: u itself first, then copies with fresh
    binders, so the result keeps all binders pairwise distinct when the
    inputs do."""
    yield u
    while True:
        yield refresh(u, supply)


def _graft(
    o: Object,
    ident: str,
    avoid: frozenset[str],
    supply: NameSupply,
    at: Callable[[Object, Callable[[Object], Object]], Object | None],
) -> Object:
    """Walk o to the free occurrences of the variable or name ident and let
    at(node, go) rewrite the nodes it answers for (None: walk on).  A
    subtree where ident is not free is returned as it is.  A binder of
    ident keeps its body; a binder of an identifier in avoid whose body
    holds ident is renamed fresh first.  A binder's other children are
    walked before its body."""
    def go(o: Object) -> Object:
        if type(o) is Var:
            return at(o, go) if o.name == ident else o
        if ident not in free_idents(o):
            return o
        done = at(o, go)
        if done is not None:
            return done
        t = type(o)
        cs = children(o)
        bound = _BOUND_BY.get(t)
        if bound is None:
            return with_children(o, tuple(map(go, cs)))
        rest = tuple(map(go, cs[1:]))
        x = bound(o)
        if x == ident:
            return with_children(o, (o.body, *rest))
        if x in avoid and ident in free_idents(o.body):
            x2 = supply.fresh(x)
            o = _REBIND[t](o, x2, rename_free(o.body, x, x2))
        return with_children(o, (go(o.body), *rest))

    return go(o)


def substitute(o: Object, x: str, u: Object, supply: NameSupply | None = None) -> Object:
    """Capture-avoiding replacement of every free x in o by the term u.

    Each inserted copy of u after the first gets fresh binders, so the
    result keeps all binders pairwise distinct when the inputs do.
    """
    if supply is None:
        supply = supply_for(o, u)
    payloads = _payloads(u, supply)
    # the walk meets only nodes where x is free, so a Var it meets is x
    return _graft(
        o,
        x,
        free_idents(u),
        supply,
        lambda o, go: next(payloads) if type(o) is Var else None,
    )


def replace(
    o: Object,
    new: str,
    old: str,
    s: Object,
    supply: NameSupply | None = None,
) -> Object:
    """The replacement operation: pass s to every [old]-named subcommand of
    o and rename old to new.  Precondition: old != new and old not free in s
    (repair inputs with prepare_erepl first)."""
    if old == new:
        raise ValueError("replacement requires distinct names")
    free_s = free_idents(s)
    if old in free_s:
        raise ValueError("bound name occurs free in the stack; alpha-rename first")
    if supply is None:
        supply = supply_for(o, s)
        supply.reserve({new, old})
    payloads = _payloads(s, supply)

    def at(o: Object, go) -> Object | None:
        t = type(o)
        if t is Named:
            if o.name == old:
                return Named(new, apply_stack(go(o.body), next(payloads)))
            return None
        if t is not ERepl:
            return None
        b, nn, on, ann, s1 = o.body, o.new, o.old, o.ann, o.stack
        if on == old:
            # old is shadowed inside b; nn != old since nn != on
            return ERepl(b, nn, on, ann, go(s1))
        # on binds in b only, since s1 and nn lie outside its scope: it is
        # renamed where it would capture there, and where new would replace
        # nn and so name on itself
        if on == new and nn == old or (on == new or on in free_s) and old in free_idents(b):
            on2 = supply.fresh(on)
            return go(ERepl(rename_free(b, on, on2), nn, on2, ann, s1))
        if nn != old:
            return ERepl(go(b), nn, on, ann, go(s1))
        # the replacement name is the one being replaced
        if isinstance(s1, EmptyStack):
            if isinstance(s, EmptyStack):
                # renaming meets renaming: just rename the target
                return ERepl(go(b), new, on, ann, empty_stack())
            # a blocking renaming: introduce a fresh intermediate
            # name, typed by what is left after the stack s
            beta = supply.fresh(old)
            inner = ERepl(go(b), beta, on, ann, next(payloads))
            return ERepl(inner, new, beta, codomain(ann, stack_len(s)), empty_stack())
        # a blocking stack replacement accumulates the new arguments
        return ERepl(go(b), new, on, ann, stack_concat(go(s1), next(payloads)))

    return _graft(o, old, free_s | {new}, supply, at)


def rename(o: Object, new: str, old: str, supply: NameSupply | None = None) -> Object:
    """Replacement with the empty stack.  It issues a fresh name only where
    an inner replacement binds new; pass the supply of the object that
    holds o, since without one the name avoids only o's identifiers."""
    return replace(o, new, old, empty_stack(), supply)


def prepare_erepl(e: ERepl, supply: NameSupply | None = None) -> ERepl:
    """Repair an explicit replacement whose bound name occurs free in its
    stack by renaming the bound name."""
    if e.old not in free_idents(e.stack):
        return e
    if supply is None:
        supply = supply_for(e)
    old2 = supply.fresh(e.old)
    return ERepl(rename_free(e.body, e.old, old2), e.new, old2, e.ann, e.stack)


# ---------------------------------------------------------------------------
# Commutation identities (checked by the test suite)


def commutation_subs_subs(o: Object, y: str, v: Object, x: str, u: Object) -> bool:
    """o{y\\v}{x\\u} = o{x\\u}{y\\ v{x\\u}}, provided y not free in u."""
    if y in free_idents(u):
        raise ValueError("requires y not free in u")
    lhs = substitute(substitute(o, y, v), x, u)
    rhs = substitute(substitute(o, x, u), y, substitute(v, x, u))
    return alpha_eq(lhs, rhs)


def commutation_subs_repl(o: Object, b: str, a: str, s: Object, x: str, u: Object) -> bool:
    """replace(o,b,a,s){x\\u} = replace(o{x\\u}, b, a, s{x\\u}), a not free in u."""
    if a in free_idents(u):
        raise ValueError("requires a not free in u")
    lhs = substitute(replace(o, b, a, s), x, u)
    rhs = replace(substitute(o, x, u), b, a, substitute(s, x, u))
    return alpha_eq(lhs, rhs)


def commutation_repl_subs(o: Object, b: str, a: str, s: Object, x: str, u: Object) -> bool:
    """replace(o{x\\u}, b, a, s) = replace(o,b,a,s){x\\ replace(u,b,a,s)},
    provided x not free in s."""
    if x in free_idents(s):
        raise ValueError("requires x not free in s")
    lhs = replace(substitute(o, x, u), b, a, s)
    rhs = substitute(replace(o, b, a, s), x, replace(u, b, a, s))
    return alpha_eq(lhs, rhs)


def commutation_repl_repl(
    o: Object, b: str, a: str, s: Object, b2: str, a2: str, s2: Object
) -> bool:
    """replace(replace(o,b2,a2,s2), b, a, s) commuted to the other order;
    covers both the independent case (a != b2) and the composition case
    (a == b2), provided a2 not free in s."""
    if a2 in free_idents(s):
        raise ValueError("requires the inner bound name not free in the outer stack")
    lhs = replace(replace(o, b2, a2, s2), b, a, s)
    if a != b2:
        rhs = replace(replace(o, b, a, s), b2, a2, replace(s2, b, a, s))
    else:
        rhs = replace(replace(o, b, a, s), b, a2, stack_concat(replace(s2, b, a, s), s))
    return alpha_eq(lhs, rhs)
