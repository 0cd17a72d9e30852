"""Simple types: judgments, syntax-directed checking, relevance, and the
subject-reduction harness.

Checking consumes caller environments for the free variables and names;
every judgment in the produced derivation is trimmed so that its
assignments mention exactly the free variables/names of its subject."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .meta import stack_items
from .reduction import CANON, RuleTag, fire
from .syntax import (
    Abs,
    App,
    Arrow,
    EmptyStack,
    ERepl,
    ESub,
    Mu,
    Named,
    Object,
    Push,
    Type,
    Var,
    free_names,
    free_vars,
    print_object,
)
from .typing_util import StackType, split_arrow

ResultType = Union[Type, StackType, None]


class LMTypeError(Exception):
    pass


class AnnotationMissing(LMTypeError):
    pass


@dataclass(frozen=True)
class Judgment:
    gamma: tuple[tuple[str, Type], ...]  # sorted assoc list, dom = fv(subject)
    delta: tuple[tuple[str, Type], ...]  # sorted assoc list, dom = fn(subject)
    subject: Object
    type: ResultType  # a Type for terms, a StackType for stacks, None for commands

    def render(self) -> str:
        g = ", ".join(f"{x}:{a}" for x, a in self.gamma)
        d = ", ".join(f"{n}:{a}" for n, a in self.delta)
        if self.type is None:
            ty = ""
        elif isinstance(self.type, tuple):
            parts = [str(a) for a in self.type]
            ty = " : " + (",".join(parts) + ",eps" if parts else "eps")
        else:
            ty = " : " + str(self.type)
        return f"{g} |- {print_object(self.subject)}{ty} | {d}"


@dataclass
class Derivation:
    rule: str
    judgment: Judgment
    children: list["Derivation"] = field(default_factory=list)

    def render(self, indent: int = 0) -> str:
        lines = [" " * indent + f"[{self.rule}] {self.judgment.render()}"]
        for ch in self.children:
            lines.append(ch.render(indent + 2))
        return "\n".join(lines)


def _trim(d: dict[str, Type]) -> tuple[tuple[str, Type], ...]:
    return tuple(sorted(d.items()))


def _merge(kind: str, *dicts: dict[str, Type]) -> dict[str, Type]:
    out: dict[str, Type] = {}
    for d in dicts:
        for k, v in d.items():
            if k in out and out[k] != v:
                raise LMTypeError(
                    f"incompatible union: {k} has types {out[k]}"
                    f" and {v} ({kind})"
                )
            out[k] = v
    return out


def check_object(
    o: Object,
    gamma: Optional[dict[str, Type]] = None,
    delta: Optional[dict[str, Type]] = None,
) -> Derivation:
    """Check o against environments covering its free variables and names."""
    return _check(o, dict(gamma or {}), dict(delta or {}))


def _check(o: Object, genv: dict[str, Type], denv: dict[str, Type]) -> Derivation:
    match o:
        case Var(x):
            if x not in genv:
                raise LMTypeError(f"no type for variable {x}")
            a = genv[x]
            return Derivation("ax", Judgment(((x, a),), (), o, a))
        case App(f, u):
            df = _check(f, genv, denv)
            if not isinstance(df.judgment.type, Arrow):
                raise LMTypeError(
                    f"application of a non-arrow: {print_object(f)} :"
                    f" {df.judgment.type}"
                )
            du = _check(u, genv, denv)
            if du.judgment.type != df.judgment.type.left:
                raise LMTypeError(
                    f"argument type mismatch: expected"
                    f" {df.judgment.type.left},"
                    f" got {du.judgment.type}"
                )
            g = _merge("app", dict(df.judgment.gamma), dict(du.judgment.gamma))
            d = _merge("app", dict(df.judgment.delta), dict(du.judgment.delta))
            return Derivation(
                "app",
                Judgment(_trim(g), _trim(d), o, df.judgment.type.right),
                [df, du],
            )
        case Abs(x, ann, b):
            if ann is None:
                raise AnnotationMissing(f"abstraction binder {x} lacks a type")
            db = _check(b, {**genv, x: ann}, denv)
            g = dict(db.judgment.gamma)
            g.pop(x, None)
            return Derivation(
                "abs",
                Judgment(_trim(g), db.judgment.delta, o, Arrow(ann, db.judgment.type)),
                [db],
            )
        case Mu(a, ann, b):
            if ann is None:
                raise AnnotationMissing(f"mu binder {a} lacks a type")
            db = _check(b, genv, {**denv, a: ann})
            d = dict(db.judgment.delta)
            d.pop(a, None)
            return Derivation(
                "mu", Judgment(db.judgment.gamma, _trim(d), o, ann), [db]
            )
        case Named(a, b):
            db = _check(b, genv, denv)
            ty = db.judgment.type
            if a not in denv:
                raise LMTypeError(f"no type for name {a}")
            if denv[a] != ty:
                raise LMTypeError(
                    f"name {a} expects {denv[a]},"
                    f" given {ty}"
                )
            d = _merge("name", dict(db.judgment.delta), {a: ty})
            return Derivation(
                "name", Judgment(db.judgment.gamma, _trim(d), o, None), [db]
            )
        case ESub(b, x, u):
            du = _check(u, genv, denv)
            bty = du.judgment.type
            db = _check(b, {**genv, x: bty}, denv)
            g = dict(db.judgment.gamma)
            g.pop(x, None)
            g = _merge("sub", g, dict(du.judgment.gamma))
            d = _merge("sub", dict(db.judgment.delta), dict(du.judgment.delta))
            return Derivation(
                "sub", Judgment(_trim(g), _trim(d), o, db.judgment.type), [db, du]
            )
        case ERepl(b, nn, on, ann, s):
            if ann is None:
                raise AnnotationMissing(f"replacement binder {on} lacks a type")
            n = len(stack_items(s))
            try:
                sty, bty = split_arrow(ann, n)
            except ValueError as e:
                raise LMTypeError(str(e)) from None
            if nn in denv and denv[nn] != bty:
                raise LMTypeError(
                    f"replacement name {nn} expects {denv[nn]},"
                    f" concluded {bty}"
                )
            denv2 = dict(denv)
            denv2[nn] = bty
            db = _check(b, genv, {**denv2, on: ann})
            ds = _check(s, genv, denv2)
            if ds.judgment.type != sty:
                raise LMTypeError(
                    f"stack type mismatch on {on}: annotation wants"
                    f" {[str(a) for a in sty]}"
                )
            d = dict(db.judgment.delta)
            d.pop(on, None)
            d = _merge("repl", d, dict(ds.judgment.delta), {nn: bty})
            g = _merge("repl", dict(db.judgment.gamma), dict(ds.judgment.gamma))
            return Derivation("repl", Judgment(_trim(g), _trim(d), o, None), [db, ds])
        case EmptyStack():
            return Derivation("st_h", Judgment((), (), o, ()))
        case Push(h, tl):
            dh = _check(h, genv, denv)
            dt = _check(tl, genv, denv)
            g = _merge("st_t", dict(dh.judgment.gamma), dict(dt.judgment.gamma))
            d = _merge("st_t", dict(dh.judgment.delta), dict(dt.judgment.delta))
            sty = (dh.judgment.type,) + dt.judgment.type
            return Derivation("st_t", Judgment(_trim(g), _trim(d), o, sty), [dh, dt])
    raise TypeError(o)


# ---------------------------------------------------------------------------
# Relevance


def relevance_check(d: Derivation) -> bool:
    """dom(Gamma) = fv(subject) and dom(Delta) = fn(subject) at every node."""
    j = d.judgment
    if set(dict(j.gamma)) != free_vars(j.subject):
        return False
    if set(dict(j.delta)) != free_names(j.subject):
        return False
    return all(relevance_check(ch) for ch in d.children)


# ---------------------------------------------------------------------------
# Subject reduction


def _sub_assign(small, big) -> bool:
    bd = dict(big)
    return all(k in bd and bd[k] == v for k, v in small)


def subject_reduction_check(
    o: Object,
    gamma: dict[str, Type],
    delta: dict[str, Type],
    tag: RuleTag,
    p: tuple[int, ...],
    exact: bool | None = None,
) -> tuple[bool, str]:
    """Fire the rule at p and re-check.  The reduct must type with the same
    type under assignments contained in the original ones; canonical-form
    steps (B, M, C, W) must leave the judgment exactly unchanged."""
    try:
        d1 = check_object(o, gamma, delta)
    except LMTypeError as e:
        return False, f"source does not type: {e}"
    try:
        o2 = fire(o, tag, p)
    except ValueError as e:  # the tag names no redex at p
        return False, str(e)
    try:
        d2 = check_object(o2, gamma, delta)
    except LMTypeError as e:
        return False, f"reduct does not type: {e} ({print_object(o2)})"
    if d1.judgment.type != d2.judgment.type:
        return False, "type changed"
    if exact is None:
        exact = tag in CANON
    if exact:
        if d1.judgment.gamma != d2.judgment.gamma:
            return False, "gamma changed on a canonical step"
        if d1.judgment.delta != d2.judgment.delta:
            return False, "delta changed on a canonical step"
        return True, "ok"
    if not _sub_assign(d2.judgment.gamma, d1.judgment.gamma):
        return False, "gamma not contained"
    if not _sub_assign(d2.judgment.delta, d1.judgment.delta):
        return False, "delta not contained"
    return True, "ok"
