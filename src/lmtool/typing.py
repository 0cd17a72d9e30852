"""Simple types: judgments, syntax-directed checking, relevance, and the
subject-reduction harness.

Checking consumes caller environments for the free variables and names,
copied once at entry; every judgment of the produced derivation takes as
its contexts the environments of its clause cut to the free variables and
names of its subject.  The cut is made the first time a judgment's gamma
or delta is read, and kept: translation into nets reads only types and
subjects, so it pays for no context."""

from __future__ import annotations

from bisect import bisect_left
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
    free_idents,
    free_names,
    free_vars,
    print_object,
)
from .typing_util import StackType, split_arrow

ResultType = Union[Type, StackType, None]
Context = tuple[tuple[str, Type], ...]


class LMTypeError(Exception):
    pass


class AnnotationMissing(LMTypeError):
    pass


class Judgment:
    """gamma |- subject : type | delta.  gamma and delta are sorted assoc
    lists whose domains are the free variables and names of the subject.
    A judgment made by cut() keeps the environments of its clause and
    computes its contexts from them the first time either is read.
    Judgments compare by their four components."""

    __slots__ = ("_gamma", "_delta", "_envs", "subject", "type")

    def __init__(self, gamma: Context, delta: Context, subject: Object,
                 type: ResultType) -> None:
        self._gamma, self._delta, self._envs = gamma, delta, None
        self.subject = subject
        self.type = type  # a Type for terms, a StackType for stacks, None for commands

    @classmethod
    def cut(cls, genv: dict[str, Type], denv: dict[str, Type], subject: Object,
            type: ResultType) -> "Judgment":
        """The judgment whose contexts are genv and denv cut to the free
        variables and names of subject; neither dict may change after."""
        j = cls(None, None, subject, type)
        j._envs = genv, denv
        return j

    def _cut(self) -> None:
        genv, denv = self._envs
        free = sorted(free_idents(self.subject))
        # the names come first: their apostrophe sorts before "(", and a
        # variable starts with a letter or an underscore, which sort after it
        k = bisect_left(free, "(")
        self._gamma = tuple([(x, genv[x]) for x in free[k:]])
        self._delta = tuple([(a, denv[a]) for a in free[:k]])
        self._envs = None

    @property
    def gamma(self) -> Context:
        if self._envs is not None:
            self._cut()
        return self._gamma

    @property
    def delta(self) -> Context:
        if self._envs is not None:
            self._cut()
        return self._delta

    def _key(self) -> tuple:
        return self.gamma, self.delta, self.subject, self.type

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"Judgment(gamma={self.gamma!r}, delta={self.delta!r},"
                f" subject={self.subject!r}, type={self.type!r})")

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


def check_object(
    o: Object,
    gamma: Optional[dict[str, Type]] = None,
    delta: Optional[dict[str, Type]] = None,
) -> Derivation:
    """Check o against environments covering its free variables and names.
    The environments are copied, so a later change to them alters no
    judgment of the derivation."""
    return _check(o, dict(gamma or {}), dict(delta or {}))


def _derive(rule: str, o: Object, genv: dict[str, Type], denv: dict[str, Type],
            ty: ResultType, *children: Derivation) -> Derivation:
    """The judgment of o at type ty: its contexts are the environments cut to
    the free variables and names of o, so relevance holds by construction."""
    return Derivation(rule, Judgment.cut(genv, denv, o, ty), list(children))


def _check(o: Object, genv: dict[str, Type], denv: dict[str, Type]) -> Derivation:
    match o:
        case Var(x):
            if x not in genv:
                raise LMTypeError(f"no type for variable {x}")
            # the cut written out: free_idents caches no leaf's set, and
            # computing it at every variable slows checking by about a quarter
            a = genv[x]
            return Derivation("ax", Judgment(((x, a),), (), o, a))
        case App(f, u):
            df = _check(f, genv, denv)
            fty = df.judgment.type
            if not isinstance(fty, Arrow):
                raise LMTypeError(
                    f"application of a non-arrow: {print_object(f)} : {fty}"
                )
            du = _check(u, genv, denv)
            if du.judgment.type != fty.left:
                raise LMTypeError(
                    f"argument type mismatch: expected {fty.left},"
                    f" got {du.judgment.type}"
                )
            return _derive("app", o, genv, denv, fty.right, df, du)
        case Abs(x, ann, b):
            if ann is None:
                raise AnnotationMissing(f"abstraction binder {x} lacks a type")
            db = _check(b, {**genv, x: ann}, denv)
            return _derive("abs", o, genv, denv, Arrow(ann, db.judgment.type), db)
        case Mu(a, ann, b):
            if ann is None:
                raise AnnotationMissing(f"mu binder {a} lacks a type")
            db = _check(b, genv, {**denv, a: ann})
            return _derive("mu", o, genv, denv, ann, db)
        case Named(a, b):
            db = _check(b, genv, denv)
            ty = db.judgment.type
            if a not in denv:
                raise LMTypeError(f"no type for name {a}")
            if denv[a] != ty:
                raise LMTypeError(f"name {a} expects {denv[a]}, given {ty}")
            return _derive("name", o, genv, denv, None, db)
        case ESub(b, x, u):
            du = _check(u, genv, denv)
            db = _check(b, {**genv, x: du.judgment.type}, denv)
            return _derive("sub", o, genv, denv, db.judgment.type, db, du)
        case ERepl(b, nn, on, ann, s):
            if ann is None:
                raise AnnotationMissing(f"replacement binder {on} lacks a type")
            try:
                sty, bty = split_arrow(ann, len(stack_items(s)))
            except ValueError as e:
                raise LMTypeError(str(e)) from None
            if nn not in denv:
                raise LMTypeError(f"no type for name {nn}")
            if denv[nn] != bty:
                raise LMTypeError(
                    f"replacement name {nn} expects {denv[nn]}, concluded {bty}"
                )
            db = _check(b, genv, {**denv, on: ann})
            ds = _check(s, genv, denv)
            if ds.judgment.type != sty:
                raise LMTypeError(
                    f"stack type mismatch on {on}: annotation wants"
                    f" {[str(a) for a in sty]}"
                )
            return _derive("repl", o, genv, denv, None, db, ds)
        case EmptyStack():
            return _derive("st_h", o, genv, denv, ())
        case Push(h, tl):
            dh = _check(h, genv, denv)
            dt = _check(tl, genv, denv)
            sty = (dh.judgment.type,) + dt.judgment.type
            return _derive("st_t", o, genv, denv, sty, dh, dt)
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
