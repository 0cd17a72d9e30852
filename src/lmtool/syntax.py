"""AST, binding, alpha-equivalence, paths, parsing and printing.

Objects come in three sorts: terms, commands and stacks.  Variables are
bare identifiers, continuation names carry a leading apostrophe ('a, 'b)
so the two binder namespaces can never collide in the concrete syntax.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
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
# Nodes are immutable and slotted.  Inner nodes carry two cache slots:
# their free identifiers, variables and names in one set, filled on the
# first ask by free_idents, and whether they are canonical, filled by
# reduction.is_canonical.  Each depends on the node's own subtree only, so
# a node shared between objects answers for all of them.  Equality,
# hashing and __match_args__ use the fields only.  Leaves keep no cache:
# theirs are cheap to build.


class _Cached:
    __slots__ = ("_fi", "_cn")


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


_SORT = {
    Var: TERM, App: TERM, Abs: TERM, Mu: TERM, ESub: TERM,
    Named: COMMAND, ERepl: COMMAND,
    EmptyStack: STACK, Push: STACK,
}


def sort_of(o: Object) -> str:
    try:
        return _SORT[type(o)]
    except KeyError:
        raise TypeError(f"not an object: {o!r}") from None


def is_name(ident: str) -> bool:
    return ident.startswith("'")


class SortError(Exception):
    pass


# per class, the sorts its children must have and the error when they do not
_CHILD_SORTS = {
    App: ((TERM, TERM), "application of non-terms"),
    Abs: ((TERM,), "abstraction body must be a term"),
    Mu: ((COMMAND,), "mu body must be a command"),
    ESub: ((TERM, TERM), "substitution parts must be terms"),
    Named: ((TERM,), "named body must be a term"),
    ERepl: ((COMMAND, STACK), "bad replacement sorts"),
    Push: ((TERM, STACK), "bad stack sorts"),
}


def check_sorts(o: Object) -> None:
    """Validate the sort discipline of every node, in pre-order and without
    recursion; raise SortError otherwise."""
    todo = [o]
    while todo:
        o = todo.pop()
        rule = _CHILD_SORTS.get(type(o))
        if rule is None:
            continue
        sorts, msg = rule
        cs = children(o)
        if tuple(map(sort_of, cs)) != sorts:
            raise SortError(f"{msg}: {o}")
        if type(o) is ERepl and o.new == o.old:
            raise SortError(f"replacement name equals bound name: {o}")
        todo.extend(reversed(cs))


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


# per class, the node rebuilt with other children
_WITH_CHILDREN = {
    App: lambda o, c: App(c[0], c[1]),
    Abs: lambda o, c: Abs(o.var, o.ann, c[0]),
    Mu: lambda o, c: Mu(o.name, o.ann, c[0]),
    ESub: lambda o, c: ESub(c[0], o.var, c[1]),
    Named: lambda o, c: Named(o.name, c[0]),
    ERepl: lambda o, c: ERepl(c[0], o.new, o.old, o.ann, c[1]),
    Push: lambda o, c: Push(c[0], c[1]),
}


def with_children(o: Object, new: tuple[Object, ...]) -> Object:
    rebuild = _WITH_CHILDREN.get(type(o))
    if rebuild is None:
        raise TypeError(f"no children: {o!r}")
    return rebuild(o, new)


class PathError(Exception):
    pass


def dotted(steps: tuple[int, ...]) -> str:
    """An index path as printed: its child indices joined by dots, or root."""
    return ".".join(map(str, steps)) or "root"


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


def make_path(root: Object, indices: tuple[int, ...]) -> tuple[int, ...]:
    """The child indices as a path into root; PathError if one is out of
    range."""
    descend(root, indices)
    return tuple(indices)


def subobject_at(root: Object, p: tuple[int, ...]) -> Object:
    return descend(root, p)[-1]


def _binders(nodes: list[Object], idxs: tuple[int, ...]) -> set[str]:
    """The identifiers bound on the spine: a binder binds in its child 0."""
    out: set[str] = set()
    for o, i in zip(nodes, idxs):
        bound = _BOUND_BY.get(type(o))
        if bound is not None and i == 0:
            out.add(bound(o))
    return out


def rewrite_at(root: Object, idxs: tuple[int, ...], q: Object,
               supply: "NameSupply | None" = None) -> Object:
    """Replace the subobject at idxs by q, protecting only identifiers that
    are newly free in q: ones already free in the old subobject keep
    referring to their existing binders on the spine."""
    nodes = descend(root, idxs)
    old = nodes[-1]
    fresh = free_idents(q) - free_idents(old)
    if fresh and fresh & _binders(nodes, idxs):
        # a spine binder would capture a genuinely new identifier; rename the
        # binder (this cannot disturb q's pre-existing free identifiers) and
        # read the nodes below it from the renamed one
        if supply is None:
            supply = NameSupply(reserved=all_idents(root) | free_idents(q))
        o = root
        for k, i in enumerate(idxs):
            bound = _BOUND_BY.get(type(o))
            x = bound(o) if bound is not None and i == 0 else None
            if x in fresh:
                x2 = supply.fresh(x)
                o = _REBIND[type(o)](o, x2, rename_free(o.body, x, x2))
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
    free identifier that its subobject lacks.

    One walk on an explicit stack: nodes holds the nodes from o down to the
    current position and steps the child indices between them, so a
    position costs its path tuple only when it has rewrites."""
    nodes: list[Object] = []
    steps: list[int] = []
    todo = [(o, 0, 0)]  # (subobject, depth, child index in its parent)
    while todo:
        sub, d, i = todo.pop()
        del nodes[d:]
        nodes.append(sub)
        if d:
            del steps[d - 1:]
            steps.append(i)
        found = rewrites_of(sub)
        if found:
            idxs = tuple(steps)
            for rw in found:
                yield idxs, rw, splice(nodes, idxs, rw[-1])
        cs = children(sub)
        for k in range(len(cs) - 1, -1, -1):
            todo.append((cs[k], d + 1, k))


class _NodeMemo:
    """A list for each node met, by node identity, and how many lists it
    served again.  The memo keeps every node it keys, so no id is reused
    while it lives, even when the objects that held the node are gone."""

    __slots__ = ("lists", "nodes", "served")

    def __init__(self):
        self.lists: dict[int, list] = {}
        self.nodes: list[Object] = []
        self.served = 0


# ---------------------------------------------------------------------------
# Templates.  A template is an object whose str children and str fields
# are metavariables: App(Abs("x", "ann", "t"), "v") stands for every
# (\x.t) v, its binder annotation included.


def match_template(tpl, o, env: dict) -> bool:
    """Bind tpl's metavariables in env to the parts of o they stand for;
    False when o lacks tpl's shape or a metavariable would take two
    values."""
    if type(tpl) is str:
        return env.setdefault(tpl, o) == o
    return type(tpl) is type(o) and all(
        match_template(getattr(tpl, f), getattr(o, f), env) for f in tpl.__match_args__
    )


def instantiate(tpl, env: dict):
    """tpl with each metavariable replaced by its value in env."""
    if type(tpl) is str:
        return env[tpl]
    return type(tpl)(*(instantiate(getattr(tpl, f), env) for f in tpl.__match_args__))


def template_rewrites(sub: Object, equations) -> list[tuple[str, str, Object]]:
    """For each (name, left, right, side) equation, in order: (name, "LR",
    right) when sub matches left, then (name, "RL", left) when sub matches
    right, each instantiated where side(**env) holds of the match."""
    out = []
    for name, left, right, side in equations:
        for orient, src, dst in (("LR", left, right), ("RL", right, left)):
            env: dict = {}
            if match_template(src, sub, env) and side(**env):
                out.append((name, orient, instantiate(dst, env)))
    return out


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


# The binding structure of both namespaces.  A binder binds one identifier
# in its child 0 (its body), and an identifier stands free in one field of
# three node classes.  Variables and names never collide, since names start
# with an apostrophe, so one walk over these tables serves both.

# the identifier that a binder node binds
_BOUND_BY = {
    Abs: attrgetter("var"),
    ESub: attrgetter("var"),
    Mu: attrgetter("name"),
    ERepl: attrgetter("old"),
}

# a binder node rebuilt with another bound identifier and another child 0
_REBIND = {
    Abs: lambda o, x, body: Abs(x, o.ann, body),
    ESub: lambda o, x, body: ESub(body, x, o.arg),
    Mu: lambda o, a, body: Mu(a, o.ann, body),
    ERepl: lambda o, a, body: ERepl(body, o.new, a, o.ann, o.stack),
}

# the field of a node where an identifier stands free, unless a binder
# above binds it
_FREE_AT = {Var: "name", Named: "name", ERepl: "new"}

# such a node rebuilt with another identifier in that field
_RENAME_AT = {
    Var: lambda o, x: Var(x),
    Named: lambda o, a: Named(a, o.body),
    ERepl: lambda o, a: ERepl(o.body, a, o.old, o.ann, o.stack),
}


def free_idents(o: Object) -> frozenset[str]:
    """The free variables and names of o in one set; computed once per inner
    node and cached.  They are child 0's less the identifier a binder binds,
    plus the one standing free at the node, plus the other children's."""
    out = getattr(o, "_fi", None)
    if out is not None:
        return out
    t = type(o)
    cs = children(o)
    out = _NO_IDENTS
    if cs:
        out = free_idents(cs[0])
        bound = _BOUND_BY.get(t)
        if bound is not None:
            out = _minus(out, bound(o))
    at = _FREE_AT.get(t)
    if at is not None:
        out = _plus(out, getattr(o, at))
    for c in cs[1:]:
        out = _union(out, free_idents(c))
    if cs:
        object.__setattr__(o, "_fi", out)
    return out


def free_vars(o: Object) -> frozenset[str]:
    """The free variables of o: free_idents(o) without its names."""
    return frozenset([x for x in free_idents(o) if not is_name(x)])


def free_names(o: Object) -> frozenset[str]:
    """The free continuation names of o: free_idents(o) without its
    variables."""
    return frozenset([a for a in free_idents(o) if is_name(a)])


def free_occurrences(o: Object, ident: str) -> Iterator[tuple[tuple[int, ...], Object]]:
    """Yield (index path, node) for each free occurrence of the variable or
    name ident in o, in pre-order: a Var, the name of a Named node or the
    replacement name of an ERepl node.  A subobject whose cached free
    identifiers lack ident is skipped; no cache is filled.

    One walk on an explicit stack, as in rewrite_everywhere: steps holds the
    child indices from o down to the current node, so an occurrence costs
    its path tuple and any other node none."""
    steps: list[int] = []
    todo = [(o, 0, 0)]  # (subobject, depth, child index in its parent)
    while todo:
        o, d, i = todo.pop()
        if d:
            del steps[d - 1:]
            steps.append(i)
        t = type(o)
        at = _FREE_AT.get(t)
        if at is not None and getattr(o, at) == ident:
            yield tuple(steps), o
        free = getattr(o, "_fi", None)
        if free is not None and ident not in free:
            continue
        bound = _BOUND_BY.get(t)
        first = 1 if bound is not None and bound(o) == ident else 0
        cs = children(o)
        for k in range(len(cs) - 1, first - 1, -1):
            todo.append((cs[k], d + 1, k))


def count_free(ident: str, o: Object) -> int:
    """The number of free occurrences of the variable or name ident in o."""
    return sum(1 for _ in free_occurrences(o, ident))


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
    """Every variable and name of o, free or bound.  Each occurrence of an
    identifier is a binder's or stands in a _FREE_AT field, so one walk over
    those fields finds them all; it needs no recursion and fills no cache."""
    out: set[str] = set()
    stack = [o]
    while stack:
        cur = stack.pop()
        t = type(cur)
        bound = _BOUND_BY.get(t)
        if bound is not None:
            out.add(bound(cur))
        at = _FREE_AT.get(t)
        if at is not None:
            out.add(getattr(cur, at))
        stack.extend(children(cur))
    return out


def not_at_all(ident: str, o: Object) -> bool:
    """ident occurs neither free nor bound in o."""
    return ident not in all_idents(o)


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

    def include(self, *objects: Object) -> None:
        """Reserve every identifier of objects too; like the constructor's
        objects, they are walked only when a name is next issued."""
        self._unwalked += objects


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
# Renaming (no capture checks: callers ensure the new identifier is fresh)


def rename_subsets(o: Object, new: str, occs: list[tuple[int, ...]]) -> list[Object]:
    """o with the identifier at each subset of the index paths occs renamed
    to new, one object per subset in combinations order: by size, then
    lexicographically.  occs address free occurrences of one identifier in
    pre-order (free_occurrences lists them), and new must be fresh.

    Each object is its subset's (r-1)-prefix's object with the last chosen
    occurrence renamed, rebuilt up the path to it: that occurrence follows
    the others in pre-order, so none of them lies below it, and the node
    there is still o's.  A subtree that holds no chosen occurrence is o's
    own node and keeps its caches."""
    built = {(): o}
    for r in range(1, len(occs) + 1):
        for chosen in combinations(range(len(occs)), r):
            built[chosen] = _rename_at(built[chosen[:-1]], occs[chosen[-1]], new)
    return list(built.values())


def _rename_at(o: Object, idxs: tuple[int, ...], new: str) -> Object:
    """o with the identifier that stands free at the node at idxs renamed to
    new, and the nodes above it rebuilt; every other subtree is o's own."""
    above = []
    for i in idxs:
        above.append(o)
        o = children(o)[i]
    o = _RENAME_AT[type(o)](o, new)
    for k in range(len(idxs) - 1, -1, -1):
        p = above[k]
        o = _WITH_CHILD[type(p)][idxs[k]](p, o)
    return o


def rename_free(o: Object, old: str, new: str) -> Object:
    """Rename the free occurrences of the variable or name old to new; the
    subtrees that hold none are kept as they are, and no cache is filled.
    Each occurrence that free_occurrences finds is renamed along its path,
    the last in pre-order first: a renaming rebuilds only the nodes above
    its occurrence, so the other paths still lead to theirs.  The cost is
    the sum of the occurrences' depths."""
    if old == new:
        return o
    for idxs, _ in reversed(list(free_occurrences(o, old))):
        o = _rename_at(o, idxs, new)
    return o


# older names of the unified functions, which the benchmark scripts use
count_free_var = count_free_name = count_free
rename_free_var = rename_free


def refresh(o: Object, supply: NameSupply) -> Object:
    """Rename every binder to a fresh identifier (Barendregt discipline).
    Each binder takes its fresh identifier before its children are walked,
    in child order, and each node is built once, with its final fields; a
    variable that keeps its name is kept as it is."""

    def go(o: Object, env: dict[str, str]) -> Object:
        t = type(o)
        if t is Var:
            return Var(env[o.name]) if o.name in env else o
        if t is App:
            return App(go(o.fun, env), go(o.arg, env))
        if t is Push:
            return Push(go(o.head, env), go(o.tail, env))
        if t is Named:
            return Named(env.get(o.name, o.name), go(o.body, env))
        if t is EmptyStack:
            return o
        x = _BOUND_BY[t](o)
        x2 = supply.fresh(x)
        body = go(o.body, {**env, x: x2})
        if t is Abs:
            return Abs(x2, o.ann, body)
        if t is Mu:
            return Mu(x2, o.ann, body)
        if t is ESub:
            return ESub(body, x2, go(o.arg, env))
        return ERepl(body, env.get(o.new, o.new), x2, o.ann, go(o.stack, env))

    return go(o, {})


def barendregt(o: Object) -> Object:
    """Refresh binders so they are pairwise distinct and distinct from all
    free identifiers."""
    return refresh(o, supply_for(o))


def is_barendregt(o: Object) -> bool:
    seen: set[str] = set()
    free = free_idents(o)
    for _, sub in positions(o):
        bound = _BOUND_BY.get(type(sub))
        if bound is not None:
            b = bound(sub)
            if b in seen or b in free:
                return False
            seen.add(b)
    return True


# ---------------------------------------------------------------------------
# Alpha-equivalence via canonical numbering of binders


def canonical_key(o: Object) -> tuple:
    """A key that is equal exactly for alpha-equivalent objects.

    The key is the pre-order token sequence of o: a constructor tag, then
    its free-standing identifiers, then its children.  Binders are
    numbered 1, 2, ... in the order their tags appear; a bound occurrence
    becomes the int number of its binder and a free identifier stays its
    str.  Annotations are left out.  Every constructor has a fixed arity, so
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
            n += 1
            push((x, env.get(x)))
            env[x] = n
            push(o.body)
    return tuple(out)


# per class, the fields that are not children: identifiers and annotations
_LABEL = {
    Var: attrgetter("name"),
    Abs: attrgetter("var", "ann"),
    Mu: attrgetter("name", "ann"),
    ESub: attrgetter("var"),
    Named: attrgetter("name"),
    ERepl: attrgetter("new", "old", "ann"),
}


def same_object(o: Object, p: Object) -> bool:
    """o == p, without recursion: the same constructors, identifiers and
    annotations node for node.  A subtree that both share is not walked."""
    todo = [(o, p)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        t = type(a)
        if type(b) is not t:
            return False
        label = _LABEL.get(t)
        if label is not None and label(a) != label(b):
            return False
        todo.extend(zip(children(a), children(b)))
    return True


def alpha_eq(o: Object, p: Object) -> bool:
    """Equality up to renaming of bound variables and names."""
    if sort_of(o) != sort_of(p):
        return False
    return canonical_key(o) == canonical_key(p)


# ---------------------------------------------------------------------------
# Printing

_ATOM = 3  # vars, parenthesized things, postfix [..]
_APPL = 2  # applications
_TERM = 1  # lambda / mu, extends maximally to the right


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


def _name(ts: _Tokens) -> str:
    """The name token a binder or a named command needs."""
    n = ts.next()
    if n[0] != "name":
        raise ParseError(f"expected a name, found {n[1]!r}", n[2], ts.text)
    return n[1]


def _binder_ann(ts: _Tokens) -> Optional[Type]:
    """The optional ': type' after a bound identifier."""
    if not ts.at(":"):
        return None
    ts.next()
    return _parse_type(ts)


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
        ann = _binder_ann(ts)
        ts.expect(".")
        return Abs(v[1], ann, _parse_term(ts, _TERM))
    if t[1] == "mu":
        if prec > _TERM:
            raise ParseError("mu needs parentheses here", t[2], ts.text)
        ts.next()
        n = _name(ts)
        ann = _binder_ann(ts)
        ts.expect(".")
        return Mu(n, ann, _parse_command(ts))
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
        ts.next()
        out = _parse_command(ts)
        ts.expect(")")
    else:
        ts.expect("[")
        n = _name(ts)
        ts.expect("]")
        out = Named(n, _parse_term(ts, _TERM))
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
        on = _name(ts)
        ann = _binder_ann(ts)
        ts.expect("\\")
        s = _parse_stack(ts)
        ts.expect("]")
        if nn[1] == on:
            raise ParseError("replacement name equals bound name", nn[2], ts.text)
        out = ERepl(out, nn[1], on, ann, s)
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
