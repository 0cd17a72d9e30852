"""AST, binding, alpha-equivalence, paths, parsing and printing.

Objects come in three sorts: terms, commands and stacks.  Variables are
bare identifiers, continuation names carry a leading apostrophe ('a, 'b)
so the two binder namespaces can never collide in the concrete syntax.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Iterator, Optional, Union

# ---------------------------------------------------------------------------
# Types (annotations on binders; the full typing rules live in typing.py)


@dataclass(frozen=True, slots=True)
class Base:
    ident: str

    def __str__(self) -> str:
        return "i" + self.ident


@dataclass(frozen=True, slots=True)
class Arrow:
    left: "Type"
    right: "Type"

    def __str__(self) -> str:
        l = str(self.left)
        if isinstance(self.left, Arrow):
            l = "(" + l + ")"
        return f"{l}->{self.right}"


Type = Union[Base, Arrow]

# ---------------------------------------------------------------------------
# Objects
#
# Nodes are immutable and slotted.  Inner nodes carry three cache slots:
# their free variables and free names, filled on the first ask by
# free_vars/free_names, and whether they are canonical, filled by
# reduction.is_canonical.  Each depends on the node's own subtree only, so
# a node shared between objects answers for all of them.  Equality,
# hashing and __match_args__ use the fields only.  Leaves keep no cache:
# theirs are cheap to build.


class _Cached:
    __slots__ = ("_fv", "_fn", "_cn")


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class App(_Cached):
    fun: "Object"
    arg: "Object"


@dataclass(frozen=True, slots=True)
class Abs(_Cached):
    var: str
    ann: Optional[Type]
    body: "Object"


@dataclass(frozen=True, slots=True)
class Mu(_Cached):
    name: str
    ann: Optional[Type]
    body: "Object"  # a command


@dataclass(frozen=True, slots=True)
class ESub(_Cached):
    body: "Object"  # t in t[x\u]
    var: str
    arg: "Object"  # u


@dataclass(frozen=True, slots=True)
class Named(_Cached):
    name: str
    body: "Object"  # [a]t


@dataclass(frozen=True, slots=True)
class ERepl(_Cached):
    body: "Object"  # c in c['b/'a \ s]; 'a is bound in c, 'b occurs free
    new: str
    old: str
    ann: Optional[Type]  # type of the bound name 'a
    stack: "Object"


@dataclass(frozen=True, slots=True)
class EmptyStack:
    pass


@dataclass(frozen=True, slots=True)
class Push(_Cached):
    head: "Object"
    tail: "Object"


Object = Union[Var, App, Abs, Mu, ESub, Named, ERepl, EmptyStack, Push]

TERM = "term"
COMMAND = "command"
STACK = "stack"

_EMPTY = EmptyStack()


def empty_stack() -> EmptyStack:
    return _EMPTY


def sort_of(o: Object) -> str:
    if isinstance(o, (Var, App, Abs, Mu, ESub)):
        return TERM
    if isinstance(o, (Named, ERepl)):
        return COMMAND
    if isinstance(o, (EmptyStack, Push)):
        return STACK
    raise TypeError(f"not an object: {o!r}")


def is_name(ident: str) -> bool:
    return ident.startswith("'")


class SortError(Exception):
    pass


def check_sorts(o: Object) -> None:
    """Validate the sort discipline of every node; raise SortError otherwise."""
    match o:
        case Var(_) | EmptyStack():
            pass
        case App(f, a):
            if sort_of(f) != TERM or sort_of(a) != TERM:
                raise SortError(f"application of non-terms: {o}")
            check_sorts(f)
            check_sorts(a)
        case Abs(_, _, b):
            if sort_of(b) != TERM:
                raise SortError(f"abstraction body must be a term: {o}")
            check_sorts(b)
        case Mu(_, _, b):
            if sort_of(b) != COMMAND:
                raise SortError(f"mu body must be a command: {o}")
            check_sorts(b)
        case ESub(b, _, a):
            if sort_of(b) != TERM or sort_of(a) != TERM:
                raise SortError(f"substitution parts must be terms: {o}")
            check_sorts(b)
            check_sorts(a)
        case Named(_, b):
            if sort_of(b) != TERM:
                raise SortError(f"named body must be a term: {o}")
            check_sorts(b)
        case ERepl(b, new, old, _, s):
            if sort_of(b) != COMMAND or sort_of(s) != STACK:
                raise SortError(f"bad replacement sorts: {o}")
            if new == old:
                raise SortError(f"replacement name equals bound name: {o}")
            check_sorts(b)
            check_sorts(s)
        case Push(h, t):
            if sort_of(h) != TERM or sort_of(t) != STACK:
                raise SortError(f"bad stack sorts: {o}")
            check_sorts(h)
            check_sorts(t)


# ---------------------------------------------------------------------------
# Children and paths

def _no_children(o: Object) -> tuple[Object, ...]:
    return ()


_CHILD_TUPLE = {
    App: attrgetter("fun", "arg"),
    Abs: lambda o: (o.body,),
    Mu: lambda o: (o.body,),
    ESub: attrgetter("body", "arg"),
    Named: lambda o: (o.body,),
    ERepl: attrgetter("body", "stack"),
    Push: attrgetter("head", "tail"),
}


def children(o: Object) -> tuple[Object, ...]:
    return _CHILD_TUPLE.get(type(o), _no_children)(o)


def with_children(o: Object, new: tuple[Object, ...]) -> Object:
    match o:
        case App(_, _):
            return App(new[0], new[1])
        case Abs(x, ann, _):
            return Abs(x, ann, new[0])
        case Mu(a, ann, _):
            return Mu(a, ann, new[0])
        case ESub(_, x, _):
            return ESub(new[0], x, new[1])
        case Named(a, _):
            return Named(a, new[0])
        case ERepl(_, nn, on, ann, _):
            return ERepl(new[0], nn, on, ann, new[1])
        case Push(_, _):
            return Push(new[0], new[1])
    raise TypeError(f"no children: {o!r}")


@dataclass(frozen=True)
class Path:
    """An address of a subobject: its child indices from the root, and its sort."""

    steps: tuple[int, ...]
    target_sort: str

    def indices(self) -> tuple[int, ...]:
        return self.steps

    def __len__(self) -> int:
        return len(self.steps)


class PathError(Exception):
    pass


def descend(root: Object, idxs: tuple[int, ...]) -> list[Object]:
    """The nodes from root down to the subobject at idxs, both included."""
    nodes = [root]
    o = root
    for i in idxs:
        cs = children(o)
        if not 0 <= i < len(cs):
            raise PathError(f"child index {i} out of range at {type(o).__name__}")
        o = cs[i]
        nodes.append(o)
    return nodes


# per class, "replace child i" for each child index i
_WITH_CHILD = {
    App: (lambda o, c: App(c, o.arg), lambda o, c: App(o.fun, c)),
    Abs: (lambda o, c: Abs(o.var, o.ann, c),),
    Mu: (lambda o, c: Mu(o.name, o.ann, c),),
    ESub: (lambda o, c: ESub(c, o.var, o.arg), lambda o, c: ESub(o.body, o.var, c)),
    Named: (lambda o, c: Named(o.name, c),),
    ERepl: (lambda o, c: ERepl(c, o.new, o.old, o.ann, o.stack),
            lambda o, c: ERepl(o.body, o.new, o.old, o.ann, c)),
    Push: (lambda o, c: Push(c, o.tail), lambda o, c: Push(o.head, c)),
}


def splice(nodes: list[Object], idxs: tuple[int, ...], q: Object) -> Object:
    """Put q in place of the last of the nodes descend(root, idxs) returned
    and rebuild the ones above it, bottom-up.  No binder on the way is
    checked for capture: where q may have a free identifier that the
    subobject it replaces lacks, use rewrite_at."""
    for k in range(len(idxs) - 1, -1, -1):
        o = nodes[k]
        q = _WITH_CHILD[type(o)][idxs[k]](o, q)
    return q


def make_path(root: Object, indices: tuple[int, ...]) -> Path:
    return Path(tuple(indices), sort_of(descend(root, indices)[-1]))


def subobject_at(root: Object, p: Path) -> Object:
    return descend(root, p.steps)[-1]


def _binders(nodes: list[Object], idxs: tuple[int, ...]) -> tuple[set[str], set[str]]:
    vs: set[str] = set()
    ns: set[str] = set()
    for o, i in zip(nodes, idxs):
        match o:
            case Abs(x, _, _):
                vs.add(x)
            case Mu(a, _, _):
                ns.add(a)
            case ESub(_, x, _) if i == 0:
                vs.add(x)
            case ERepl(_, _, old, _, _) if i == 0:
                ns.add(old)
    return vs, ns


def binders_along(root: Object, p: Path) -> tuple[set[str], set[str]]:
    """Variables and names bound on the spine from the root to the hole at p."""
    return _binders(descend(root, p.steps), p.steps)


def free_for(q: Object, root: Object, p: Path) -> bool:
    """True iff no binder on the path from the root to p captures a free
    variable or name of q (so q can be placed into the hole at p)."""
    vs, ns = binders_along(root, p)
    return not (vs & free_vars(q)) and not (ns & free_names(q))


def replace_at(root: Object, p: Path, q: Object, supply: "NameSupply | None" = None) -> Object:
    """Write q at position p.  Binders on the spine are renamed when they
    would capture an identifier of q that was not already free at that
    position, so writing back the subobject read from p is the identity and
    foreign objects are placed capture-free."""
    if p.target_sort != sort_of(q):
        raise SortError(f"expected {p.target_sort} at path, got {sort_of(q)}")
    return rewrite_at(root, p, q, supply)


def rewrite_at(root: Object, p: Path, q: Object, supply: "NameSupply | None" = None) -> Object:
    """Replace the subobject at p by q, protecting only identifiers that are
    newly free in q: ones already free in the old subobject keep referring to
    their existing binders on the spine."""
    idxs = p.steps
    nodes = descend(root, idxs)
    fresh_v = free_vars(q) - free_vars(nodes[-1])
    fresh_n = free_names(q) - free_names(nodes[-1])
    vs, ns = _binders(nodes, idxs) if fresh_v or fresh_n else (set(), set())
    if (vs & fresh_v) or (ns & fresh_n):
        # a spine binder would capture a genuinely new identifier; rename the
        # binder (this cannot disturb q's pre-existing free identifiers) and
        # read the nodes below it from the renamed one
        if supply is None:
            supply = NameSupply(reserved=all_idents(root) | free_vars(q) | free_names(q))
        o = root
        for k, i in enumerate(idxs):
            match o:
                case Abs(x, ann, b) if x in fresh_v:
                    x2 = supply.fresh(x)
                    o = Abs(x2, ann, rename_free_var(b, x, x2))
                case Mu(a, ann, b) if a in fresh_n:
                    a2 = supply.fresh(a)
                    o = Mu(a2, ann, rename_free_name_var(b, a, a2))
                case ESub(b, x, u) if i == 0 and x in fresh_v:
                    x2 = supply.fresh(x)
                    o = ESub(rename_free_var(b, x, x2), x2, u)
                case ERepl(b, nn, on, ann, s) if i == 0 and on in fresh_n:
                    on2 = supply.fresh(on)
                    o = ERepl(rename_free_name_var(b, on, on2), nn, on2, ann, s)
            nodes[k] = o
            o = children(o)[i]
    return splice(nodes, idxs, q)


def positions(o: Object) -> Iterator[tuple[tuple[int, ...], Object]]:
    """All (index-path, subobject) pairs in pre-order."""
    stack = [((), o)]
    while stack:
        idxs, cur = stack.pop()
        yield idxs, cur
        cs = children(cur)
        for i in range(len(cs) - 1, -1, -1):
            stack.append((idxs + (i,), cs[i]))


def rewrite_everywhere(o: Object, rewrites_of) -> Iterator[tuple[tuple[int, ...], tuple, Object]]:
    """For each position of o in pre-order and each rewrite that
    rewrites_of(sub) lists for its subobject, a tuple whose last item is the
    new subobject: yield (index path, rewrite, o with the new subobject in
    place).  No binder is checked for capture, so a rewrite must bring no
    free identifier that its subobject lacks."""
    for idxs, sub in positions(o):
        found = rewrites_of(sub)
        if found:
            nodes = descend(o, idxs)
            for rw in found:
                yield idxs, rw, splice(nodes, idxs, rw[-1])


# ---------------------------------------------------------------------------
# Free variables / names and occurrence counting


_NO_IDENTS: frozenset[str] = frozenset()


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """a | b, reusing a or b when one contains the other."""
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def _minus(a: frozenset[str], x: str) -> frozenset[str]:
    return (a - {x}) or _NO_IDENTS if x in a else a


def _plus(a: frozenset[str], x: str) -> frozenset[str]:
    return a if x in a else a | {x}


def free_vars(o: Object) -> frozenset[str]:
    """The free variables of o; computed once per inner node and cached."""
    out = getattr(o, "_fv", None)
    if out is not None:
        return out
    match o:
        case Var(x):
            return frozenset((x,))
        case EmptyStack():
            return _NO_IDENTS
        case App(f, a):
            out = _union(free_vars(f), free_vars(a))
        case Abs(x, _, b):
            out = _minus(free_vars(b), x)
        case Mu(_, _, b) | Named(_, b):
            out = free_vars(b)
        case ESub(b, x, u):
            out = _union(_minus(free_vars(b), x), free_vars(u))
        case ERepl(b, _, _, _, s):
            out = _union(free_vars(b), free_vars(s))
        case Push(h, t):
            out = _union(free_vars(h), free_vars(t))
        case _:
            raise TypeError(o)
    object.__setattr__(o, "_fv", out)
    return out


def free_names(o: Object) -> frozenset[str]:
    """The free continuation names of o; computed once per inner node and
    cached."""
    out = getattr(o, "_fn", None)
    if out is not None:
        return out
    match o:
        case Var(_) | EmptyStack():
            return _NO_IDENTS
        case App(f, a):
            out = _union(free_names(f), free_names(a))
        case Abs(_, _, b):
            out = free_names(b)
        case Mu(a, _, b):
            out = _minus(free_names(b), a)
        case ESub(b, _, u):
            out = _union(free_names(b), free_names(u))
        case Named(a, b):
            out = _plus(free_names(b), a)
        case ERepl(b, new, old, _, s):
            out = _union(_plus(_minus(free_names(b), old), new), free_names(s))
        case Push(h, t):
            out = _union(free_names(h), free_names(t))
        case _:
            raise TypeError(o)
    object.__setattr__(o, "_fn", out)
    return out


def count_free_name(alpha: str, o: Object) -> int:
    """fnp: number of free occurrences of the name alpha.

    Occurrences are the name of a Named node, the replacement-name of an
    ERepl node, and occurrences inside subobjects, minus shadowed ones.
    """
    if isinstance(o, (Var, EmptyStack)) or alpha not in free_names(o):
        return 0
    match o:
        case App(f, a):
            return count_free_name(alpha, f) + count_free_name(alpha, a)
        case Abs(_, _, b) | Mu(_, _, b):
            # alpha is free here, so a mu does not bind it
            return count_free_name(alpha, b)
        case Named(a, b):
            return (1 if a == alpha else 0) + count_free_name(alpha, b)
        case ESub(b, _, u):
            return count_free_name(alpha, b) + count_free_name(alpha, u)
        case ERepl(b, new, old, _, s):
            n = 1 if new == alpha else 0
            if old != alpha:
                n += count_free_name(alpha, b)
            return n + count_free_name(alpha, s)
        case Push(h, t):
            return count_free_name(alpha, h) + count_free_name(alpha, t)
    raise TypeError(o)


def name_occurrences(o: Object, alpha: str) -> Iterator[tuple[tuple[int, ...], Object]]:
    """Yield (index path, node) for each free occurrence of the name alpha
    in o, in pre-order: the name of a Named node or the replacement name of
    an ERepl node.  A mu named alpha binds it in its body, an ERepl whose
    old name is alpha binds it in its command (child 0)."""
    stack = [((), o)]
    while stack:
        idxs, o = stack.pop()
        t = type(o)
        if (t is Named and o.name == alpha) or (t is ERepl and o.new == alpha):
            yield idxs, o
        if t is Mu and o.name == alpha:
            continue
        first = 1 if t is ERepl and o.old == alpha else 0
        cs = children(o)
        for i in range(len(cs) - 1, first - 1, -1):
            stack.append((idxs + (i,), cs[i]))


def count_free_var(x: str, o: Object) -> int:
    match o:
        case Var(y):
            return 1 if y == x else 0
        case EmptyStack():
            return 0
    if x not in free_vars(o):
        return 0
    match o:
        case App(f, a):
            return count_free_var(x, f) + count_free_var(x, a)
        case Abs(_, _, b) | Mu(_, _, b) | Named(_, b):
            return count_free_var(x, b)
        case ESub(b, y, u):
            n = 0 if y == x else count_free_var(x, b)
            return n + count_free_var(x, u)
        case ERepl(b, _, _, _, s):
            return count_free_var(x, b) + count_free_var(x, s)
        case Push(h, t):
            return count_free_var(x, h) + count_free_var(x, t)
    raise TypeError(o)


# the identifier that a binder node binds
_BOUND_BY = {
    Abs: attrgetter("var"),
    ESub: attrgetter("var"),
    Mu: attrgetter("name"),
    ERepl: attrgetter("old"),
}


def bound_idents(o: Object) -> set[str]:
    out: set[str] = set()
    stack = [o]
    while stack:
        cur = stack.pop()
        bound = _BOUND_BY.get(type(cur))
        if bound is not None:
            out.add(bound(cur))
        stack.extend(children(cur))
    return out


def all_idents(o: Object) -> set[str]:
    return free_vars(o) | free_names(o) | bound_idents(o)


def not_at_all(ident: str, o: Object) -> bool:
    """ident occurs neither free nor bound in o."""
    if is_name(ident):
        if ident in free_names(o):
            return False
    else:
        if ident in free_vars(o):
            return False
    return ident not in bound_idents(o)


# ---------------------------------------------------------------------------
# Fresh names


class NameSupply:
    """Issues identifiers never seen before: not reserved, never reissued.

    Every identifier of the given objects counts as reserved; they are
    collected on the first issue, so a supply that issues nothing never
    walks its objects."""

    def __init__(self, reserved: set[str] | None = None, objects: tuple[Object, ...] = ()):
        self.counter = 0
        self.reserved: set[str] = set(reserved) if reserved else set()
        self._unwalked = objects

    def fresh(self, base: str) -> str:
        if self._unwalked:
            for o in self._unwalked:
                self.reserved |= all_idents(o)
            self._unwalked = ()
        prefix, stem = _prefix_stem(base)
        while True:
            self.counter += 1
            cand = f"{prefix}{stem}{self.counter}"
            if cand not in self.reserved:
                self.reserved.add(cand)
                return cand

    def reserve(self, idents: set[str]) -> None:
        self.reserved |= idents


@lru_cache(maxsize=1024)
def _prefix_stem(base: str) -> tuple[str, str]:
    """The prefix and stem of the identifiers issued for base: its
    apostrophe, if any, and the rest without trailing digits."""
    prefix = "'" if base.startswith("'") else ""
    stem = re.sub(r"\d+$", "", base.lstrip("'")) or ("a" if prefix else "x")
    return prefix, stem


def supply_for(*objects: Object) -> NameSupply:
    return NameSupply(objects=objects)


# ---------------------------------------------------------------------------
# Renaming helpers (free occurrences only; no capture checks, callers ensure
# the new ident is fresh)


def rename_free_var(o: Object, old: str, new: str) -> Object:
    if old == new:
        return o
    match o:
        case Var(x):
            return Var(new) if x == old else o
        case Abs(x, ann, b):
            return o if x == old else Abs(x, ann, rename_free_var(b, old, new))
        case ESub(b, x, u):
            nb = b if x == old else rename_free_var(b, old, new)
            return ESub(nb, x, rename_free_var(u, old, new))
        case _:
            cs = children(o)
            if not cs:
                return o
            return with_children(o, tuple(rename_free_var(c, old, new) for c in cs))


def rename_free_name_var(o: Object, old: str, new: str) -> Object:
    if old == new:
        return o
    match o:
        case Var(_) | EmptyStack():
            return o
        case Mu(a, ann, b):
            return o if a == old else Mu(a, ann, rename_free_name_var(b, old, new))
        case Named(a, b):
            a2 = new if a == old else a
            return Named(a2, rename_free_name_var(b, old, new))
        case ERepl(b, nn, on, ann, s):
            nn2 = new if nn == old else nn
            nb = b if on == old else rename_free_name_var(b, old, new)
            return ERepl(nb, nn2, on, ann, rename_free_name_var(s, old, new))
        case _:
            return with_children(
                o, tuple(rename_free_name_var(c, old, new) for c in children(o))
            )


def refresh(o: Object, supply: NameSupply) -> Object:
    """Rename every binder to a fresh identifier (Barendregt discipline)."""

    def go(o: Object, env: dict[str, str]) -> Object:
        match o:
            case Var(x):
                return Var(env.get(x, x))
            case App(f, a):
                return App(go(f, env), go(a, env))
            case Abs(x, ann, b):
                x2 = supply.fresh(x)
                return Abs(x2, ann, go(b, {**env, x: x2}))
            case Mu(a, ann, b):
                a2 = supply.fresh(a)
                return Mu(a2, ann, go(b, {**env, a: a2}))
            case ESub(b, x, u):
                x2 = supply.fresh(x)
                return ESub(go(b, {**env, x: x2}), x2, go(u, env))
            case Named(a, b):
                return Named(env.get(a, a), go(b, env))
            case ERepl(b, nn, on, ann, s):
                on2 = supply.fresh(on)
                return ERepl(
                    go(b, {**env, on: on2}), env.get(nn, nn), on2, ann, go(s, env)
                )
            case EmptyStack():
                return o
            case Push(h, t):
                return Push(go(h, env), go(t, env))
        raise TypeError(o)

    return go(o, {})


def barendregt(o: Object) -> Object:
    """Refresh binders so they are pairwise distinct and distinct from all
    free identifiers."""
    return refresh(o, supply_for(o))


def is_barendregt(o: Object) -> bool:
    seen: set[str] = set()
    free = free_vars(o) | free_names(o)
    for _, sub in positions(o):
        b: Optional[str] = None
        match sub:
            case Abs(x, _, _) | ESub(_, x, _):
                b = x
            case Mu(a, _, _):
                b = a
            case ERepl(_, _, old, _, _):
                b = old
        if b is not None:
            if b in seen or b in free:
                return False
            seen.add(b)
    return True


# ---------------------------------------------------------------------------
# Alpha-equivalence via canonical numbering of binders


def canonical_key(o: Object, with_types: bool = False) -> tuple:
    """A key that is equal exactly for alpha-equivalent objects.

    The key is the pre-order token sequence of o: a constructor tag, then
    its free-standing identifiers, then (with_types) its annotation, then
    its children.  Binders are numbered 1, 2, ... in the order their tags
    appear; a bound occurrence becomes the int number of its binder and a
    free identifier stays its str.  Every constructor has a fixed arity, so
    the sequence parses back in one way.  Keys are only hashed and
    compared."""
    out: list = []
    emit = out.append
    env: dict[str, int] = {}  # bound identifier -> its binder's number
    n = 0
    # objects still to visit, and (ident, outer number) markers that end a
    # binder's scope: what the stack holds above a marker is that scope
    todo: list = [o]
    pop, push = todo.pop, todo.append
    while todo:
        o = pop()
        t = type(o)
        if t is Var:
            emit("v")
            emit(env.get(o.name, o.name))
        elif t is App:
            emit("a")
            push(o.arg)
            push(o.fun)
        elif t is Named:
            emit("n")
            emit(env.get(o.name, o.name))
            push(o.body)
        elif t is Push:
            emit("p")
            push(o.tail)
            push(o.head)
        elif t is EmptyStack:
            emit("e")
        elif t is tuple:
            x, outer = o
            if outer is None:
                del env[x]
            else:
                env[x] = outer
        else:
            # a binder: emit its tokens, push what lies outside its scope,
            # then bind and push its body
            if t is Abs or t is Mu:
                emit("l" if t is Abs else "m")
                x = o.var if t is Abs else o.name
            elif t is ERepl:
                emit("r")
                emit(env.get(o.new, o.new))
                push(o.stack)
                x = o.old
            elif t is ESub:
                emit("s")
                push(o.arg)
                x = o.var
            else:
                raise TypeError(o)
            if with_types and t is not ESub:
                emit(None if o.ann is None else str(o.ann))
            n += 1
            push((x, env.get(x)))
            env[x] = n
            push(o.body)
    return tuple(out)


def alpha_eq(o: Object, p: Object, with_types: bool = False) -> bool:
    """Equality up to renaming of bound variables and names."""
    if sort_of(o) != sort_of(p):
        return False
    return canonical_key(o, with_types) == canonical_key(p, with_types)


# ---------------------------------------------------------------------------
# Printing

_ATOM = 3  # vars, parenthesized things, postfix [..]
_APPL = 2  # applications
_TERM = 1  # lambda / mu, extends maximally to the right


def print_type(t: Type) -> str:
    return str(t)


def print_object(o: Object) -> str:
    """Deterministic printing; parse(print_object(o)) is alpha_eq to o."""

    def ann_str(ann: Optional[Type]) -> str:
        return "" if ann is None else ":" + str(ann)

    def term(o: Object, prec: int) -> str:
        match o:
            case Var(x):
                return x
            case App(f, a):
                s = f"{term(f, _APPL)} {term(a, _ATOM)}"
                return f"({s})" if prec > _APPL else s
            case Abs(x, ann, b):
                s = f"\\{x}{ann_str(ann)}. {term(b, _TERM)}"
                return f"({s})" if prec > _TERM else s
            case Mu(a, ann, b):
                s = f"mu {a}{ann_str(ann)}. {command(b)}"
                return f"({s})" if prec > _TERM else s
            case ESub(b, x, u):
                return f"{term(b, _ATOM)}[{x}\\{term(u, _TERM)}]"
        raise SortError(f"expected a term: {o}")

    def command(o: Object) -> str:
        match o:
            case Named(a, b):
                return f"[{a}]{term(b, _APPL)}"
            case ERepl(b, nn, on, ann, s):
                return f"{command_atom(b)}[{nn}/{on}{ann_str(ann)}\\{stack(s)}]"
        raise SortError(f"expected a command: {o}")

    def command_atom(o: Object) -> str:
        s = command(o)
        return f"({s})" if isinstance(o, Named) else s

    def stack(o: Object) -> str:
        match o:
            case EmptyStack():
                return "#"
            case Push(h, t):
                return f"{term(h, _ATOM)} . {stack(t)}"
        raise SortError(f"expected a stack: {o}")

    match sort_of(o):
        case "term":
            return term(o, _TERM)
        case "command":
            return command(o)
        case _:
            return stack(o)


# ---------------------------------------------------------------------------
# Parsing

_TOKEN = re.compile(
    r"\s*(?:(?P<name>'[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>->|[()\[\]\\./#:,]))"
)


class ParseError(Exception):
    def __init__(self, msg: str, pos: int, text: str):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{msg} at line {line}, column {col}")
        self.line = line
        self.column = col


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}", pos, text)
                break
            kind = m.lastgroup
            self.toks.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> tuple[str, str, int]:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input", len(self.text), self.text)
        self.i += 1
        return t

    def expect(self, value: str) -> None:
        t = self.next()
        if t[1] != value:
            raise ParseError(f"expected {value!r}, found {t[1]!r}", t[2], self.text)

    def at(self, value: str) -> bool:
        t = self.peek()
        return t is not None and t[1] == value

    def at_kind(self, kind: str) -> bool:
        t = self.peek()
        return t is not None and t[0] == kind


def _parse_type(ts: _Tokens) -> Type:
    left = _parse_type_atom(ts)
    if ts.at("->"):
        ts.next()
        return Arrow(left, _parse_type(ts))
    return left


def _parse_type_atom(ts: _Tokens) -> Type:
    t = ts.next()
    if t[1] == "(":
        ty = _parse_type(ts)
        ts.expect(")")
        return ty
    if t[0] == "ident" and t[1].startswith("i") and len(t[1]) > 1:
        return Base(t[1][1:])
    raise ParseError(f"expected a type, found {t[1]!r}", t[2], ts.text)


def parse_type(text: str) -> Type:
    ts = _Tokens(text)
    ty = _parse_type(ts)
    if ts.peek() is not None:
        t = ts.peek()
        raise ParseError(f"trailing input {t[1]!r}", t[2], text)
    return ty


_KEYWORDS = {"mu"}


def _parse_term(ts: _Tokens, prec: int) -> Object:
    # prec: _TERM allows lambda/mu to extend rightwards, _APPL does not.
    t = ts.peek()
    if t is None:
        raise ParseError("unexpected end of input", len(ts.text), ts.text)
    if t[1] == "\\":
        if prec > _TERM:
            raise ParseError("abstraction needs parentheses here", t[2], ts.text)
        ts.next()
        v = ts.next()
        if v[0] != "ident" or v[1] in _KEYWORDS:
            raise ParseError(f"expected a variable, found {v[1]!r}", v[2], ts.text)
        ann = None
        if ts.at(":"):
            ts.next()
            ann = _parse_type(ts)
        ts.expect(".")
        return Abs(v[1], ann, _parse_term(ts, _TERM))
    if t[1] == "mu":
        if prec > _TERM:
            raise ParseError("mu needs parentheses here", t[2], ts.text)
        ts.next()
        n = ts.next()
        if n[0] != "name":
            raise ParseError(f"expected a name, found {n[1]!r}", n[2], ts.text)
        ann = None
        if ts.at(":"):
            ts.next()
            ann = _parse_type(ts)
        ts.expect(".")
        return Mu(n[1], ann, _parse_command(ts))
    # application chain of atoms; substitution postfixes bind to atoms
    out = _parse_atom(ts)
    while True:
        nxt = ts.peek()
        if nxt is None:
            break
        if nxt[1] in ("(",) or (nxt[0] == "ident" and nxt[1] not in _KEYWORDS):
            out = App(out, _parse_atom(ts))
            continue
        break
    return out


def _parse_atom(ts: _Tokens) -> Object:
    t = ts.next()
    if t[1] == "(":
        out: Object = _parse_term(ts, _TERM)
        ts.expect(")")
    elif t[0] == "ident" and t[1] not in _KEYWORDS:
        out = Var(t[1])
    elif t[1] == "\\" or t[1] == "mu":
        raise ParseError("abstraction needs parentheses here", t[2], ts.text)
    else:
        raise ParseError(f"expected a term, found {t[1]!r}", t[2], ts.text)
    # postfix substitutions: [var \ term], tightest-binding
    while ts.at("["):
        save = ts.i
        ts.next()
        v = ts.peek()
        if v is None or v[0] != "ident" or v[1] in _KEYWORDS:
            # a name inside the bracket: the bracket belongs to an
            # enclosing command (a replacement), not to this term
            ts.i = save
            break
        ts.next()
        ts.expect("\\")
        u = _parse_term(ts, _TERM)
        ts.expect("]")
        out = ESub(out, v[1], u)
    return out


def _parse_command(ts: _Tokens) -> Object:
    t = ts.peek()
    if t is None:
        raise ParseError("unexpected end of input", len(ts.text), ts.text)
    if t[1] == "(":
        # parenthesized command, for replacement subjects
        save = ts.i
        ts.next()
        try:
            c = _parse_command(ts)
            ts.expect(")")
        except ParseError:
            ts.i = save
            raise
        out = c
    else:
        ts.expect("[")
        n = ts.next()
        if n[0] != "name":
            raise ParseError(f"expected a name, found {n[1]!r}", n[2], ts.text)
        ts.expect("]")
        body = _parse_term(ts, _TERM)
        out = Named(n[1], body)
        # a trailing substitution on the named body would have been consumed
        # by the term parser; replacements follow below
    while ts.at("["):
        save = ts.i
        ts.next()
        nn = ts.peek()
        if nn is None or nn[0] != "name":
            ts.i = save
            break
        ts.next()
        ts.expect("/")
        on = ts.next()
        if on[0] != "name":
            raise ParseError(f"expected a name, found {on[1]!r}", on[2], ts.text)
        ann = None
        if ts.at(":"):
            ts.next()
            ann = _parse_type(ts)
        ts.expect("\\")
        s = _parse_stack(ts)
        ts.expect("]")
        if nn[1] == on[1]:
            raise ParseError("replacement name equals bound name", nn[2], ts.text)
        out = ERepl(out, nn[1], on[1], ann, s)
    return out


def _parse_stack(ts: _Tokens) -> Object:
    if ts.at("#"):
        ts.next()
        return empty_stack()
    head = _parse_term(ts, _APPL)
    ts.expect(".")
    return Push(head, _parse_stack(ts))


def parse(text: str, sort: str | None = None, freshen: bool = True) -> Object:
    """Parse the concrete syntax; binders are renamed apart afterwards.

    The sort is guessed from the first token unless given explicitly:
    '#' or a leading term followed by '.' parse as stacks only on request.
    """
    ts = _Tokens(text)
    if sort is None:
        t = ts.peek()
        if t is None:
            raise ParseError("empty input", 0, text)
        sort = COMMAND if t[1] == "[" else TERM
        if t[1] == "#":
            sort = STACK
        if t[1] == "(":
            # look for a command in parentheses: '(' followed by '['
            if ts.i + 1 < len(ts.toks) and ts.toks[ts.i + 1][1] == "[":
                sort = COMMAND
    if sort == TERM:
        o = _parse_term(ts, _TERM)
    elif sort == COMMAND:
        o = _parse_command(ts)
    elif sort == STACK:
        o = _parse_stack(ts)
    else:
        raise ValueError(f"unknown sort {sort!r}")
    if ts.peek() is not None:
        t = ts.peek()
        raise ParseError(f"trailing input {t[1]!r}", t[2], text)
    check_sorts(o)
    return barendregt(o) if freshen else o
