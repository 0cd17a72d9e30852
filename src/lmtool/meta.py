"""Meta-level substitution, the ternary replacement operation, and stacks.

Replacement replace(o, new, old, s) feeds the stack s to every subcommand
[old]t of o and renames old to new.  It requires old not free in s; inputs
violating the condition are repaired by renaming the caller's bound name
first (see prepare_erepl).
"""

from __future__ import annotations

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
    Push,
    Var,
    alpha_eq,
    empty_stack,
    free_names,
    free_vars,
    refresh,
    rename_free,
    supply_for,
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
# Substitution


def substitute(o: Object, x: str, u: Object, supply: NameSupply | None = None) -> Object:
    """Capture-avoiding replacement of every free x in o by the term u.

    Each inserted copy of u after the first gets fresh binders, so the
    result keeps all binders pairwise distinct when the inputs do.
    """
    if supply is None:
        supply = supply_for(o, u)
    fv_u = free_vars(u)
    fn_u = free_names(u)
    inserted = [0]

    def payload() -> Object:
        inserted[0] += 1
        return u if inserted[0] == 1 else refresh(u, supply)

    def go(o: Object) -> Object:
        match o:
            case Var(y):
                return payload() if y == x else o
            case App(f, a):
                return App(go(f), go(a))
            case Abs(y, ann, b):
                if y == x:
                    return o
                if y in fv_u and x in free_vars(b):
                    y2 = supply.fresh(y)
                    return Abs(y2, ann, go(rename_free(b, y, y2)))
                return Abs(y, ann, go(b))
            case Mu(a, ann, b):
                if a in fn_u and x in free_vars(b):
                    a2 = supply.fresh(a)
                    return Mu(a2, ann, go(rename_free(b, a, a2)))
                return Mu(a, ann, go(b))
            case ESub(b, y, arg):
                arg2 = go(arg)
                if y == x:
                    return ESub(b, y, arg2)
                if y in fv_u and x in free_vars(b):
                    y2 = supply.fresh(y)
                    return ESub(go(rename_free(b, y, y2)), y2, arg2)
                return ESub(go(b), y, arg2)
            case Named(a, b):
                return Named(a, go(b))
            case ERepl(b, nn, on, ann, s):
                s2 = go(s)
                if on in fn_u and x in free_vars(b):
                    on2 = supply.fresh(on)
                    return ERepl(go(rename_free(b, on, on2)), nn, on2, ann, s2)
                return ERepl(go(b), nn, on, ann, s2)
            case EmptyStack():
                return o
            case Push(h, t):
                return Push(go(h), go(t))
        raise TypeError(o)

    return go(o)


# ---------------------------------------------------------------------------
# Replacement


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
    if old in free_names(s):
        raise ValueError("bound name occurs free in the stack; alpha-rename first")
    if supply is None:
        supply = supply_for(o, s)
        supply.reserve({new, old})
    fv_s = free_vars(s)
    fn_s = free_names(s)
    inserted = [0]

    def payload() -> Object:
        inserted[0] += 1
        return s if inserted[0] == 1 else refresh(s, supply)

    def go(o: Object) -> Object:
        match o:
            case Var(_) | EmptyStack():
                return o
            case App(f, a):
                return App(go(f), go(a))
            case Abs(x, ann, b):
                if x in fv_s and old in free_names(b):
                    x2 = supply.fresh(x)
                    return Abs(x2, ann, go(rename_free(b, x, x2)))
                return Abs(x, ann, go(b))
            case Mu(a, ann, b):
                if a == old:
                    return o
                if (a in fn_s or a == new) and old in free_names(b):
                    a2 = supply.fresh(a)
                    return Mu(a2, ann, go(rename_free(b, a, a2)))
                return Mu(a, ann, go(b))
            case ESub(b, x, arg):
                arg2 = go(arg)
                if x in fv_s and old in free_names(b):
                    x2 = supply.fresh(x)
                    return ESub(go(rename_free(b, x, x2)), x2, arg2)
                return ESub(go(b), x, arg2)
            case Named(a, b):
                if a == old:
                    return Named(new, apply_stack(go(b), payload()))
                return Named(a, go(b))
            case ERepl(b, nn, on, ann, s1):
                if on == old:
                    # old is shadowed inside b; nn != old since nn != on
                    return ERepl(b, nn, on, ann, go(s1))
                old_in_b = old in free_names(b)
                old_in_s1 = old in free_names(s1)
                collides = (on == new and (old_in_b or old_in_s1)) or (
                    on in fn_s and (old_in_b or old_in_s1 or nn == old)
                )
                if collides:
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
                    inner = ERepl(go(b), beta, on, ann, payload())
                    return ERepl(inner, new, beta, codomain(ann, stack_len(s)), empty_stack())
                # a blocking stack replacement accumulates the new arguments
                return ERepl(go(b), new, on, ann, stack_concat(go(s1), payload()))
            case Push(h, tl):
                return Push(go(h), go(tl))
        raise TypeError(o)

    return go(o)


def rename(o: Object, new: str, old: str) -> Object:
    """Replacement with the empty stack; never consults a name supply."""
    return replace(o, new, old, empty_stack())


def prepare_erepl(e: ERepl, supply: NameSupply | None = None) -> ERepl:
    """Repair an explicit replacement whose bound name occurs free in its
    stack by renaming the bound name."""
    if e.old not in free_names(e.stack):
        return e
    if supply is None:
        supply = supply_for(e)
    old2 = supply.fresh(e.old)
    return ERepl(rename_free(e.body, e.old, old2), e.new, old2, e.ann, e.stack)


# ---------------------------------------------------------------------------
# Commutation identities (used by tests and the CLI property driver)


def commutation_subs_subs(o: Object, y: str, v: Object, x: str, u: Object) -> bool:
    """o{y\\v}{x\\u} = o{x\\u}{y\\ v{x\\u}}, provided y not free in u."""
    if y in free_vars(u):
        raise ValueError("requires y not free in u")
    lhs = substitute(substitute(o, y, v), x, u)
    rhs = substitute(substitute(o, x, u), y, substitute(v, x, u))
    return alpha_eq(lhs, rhs)


def commutation_subs_repl(o: Object, b: str, a: str, s: Object, x: str, u: Object) -> bool:
    """replace(o,b,a,s){x\\u} = replace(o{x\\u}, b, a, s{x\\u}), a not free in u."""
    if a in free_names(u):
        raise ValueError("requires a not free in u")
    lhs = substitute(replace(o, b, a, s), x, u)
    rhs = replace(substitute(o, x, u), b, a, substitute(s, x, u))
    return alpha_eq(lhs, rhs)


def commutation_repl_subs(o: Object, b: str, a: str, s: Object, x: str, u: Object) -> bool:
    """replace(o{x\\u}, b, a, s) = replace(o,b,a,s){x\\ replace(u,b,a,s)},
    provided x not free in s."""
    if x in free_vars(s):
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
    if a2 in free_names(s):
        raise ValueError("requires the inner bound name not free in the outer stack")
    lhs = replace(replace(o, b2, a2, s2), b, a, s)
    if a != b2:
        rhs = replace(replace(o, b, a, s), b2, a2, replace(s2, b, a, s))
    else:
        rhs = replace(replace(o, b, a, s), b, a2, stack_concat(replace(s2, b, a, s), s))
    return alpha_eq(lhs, rhs)
