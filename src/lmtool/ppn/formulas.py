"""Polarized formulas for proof nets.

Output formulas O and their duals Q (anti-output) cover everything the
translation produces; negative wires carry O or ?Q, positive wires carry
Q or !O.  Negation is involutive by construction.

Formulas are hash-consed (Filliâtre & Conchon, "Type-safe modular
hash-consing", ML Workshop 2006): however a formula is built, by its class
or by trans_type, dual or input_of, one structure is one object.  So
equality and hashing go by identity and cost one step.  A formula keeps
its printed form, made once from its children's, and its dual, made with
it: building OIota("a") also builds QIota("a"), and each is the other's
dual.  The table of formulas only grows; it holds the formulas of the
types met so far.  Nothing assigns to a formula after it is built.
"""

from __future__ import annotations

from functools import cache
from typing import Union

from ..syntax import Arrow, Base, Type

# (class, *fields) -> the formula; the fields are strings and formulas,
# the latter hashed by identity, which interning makes structural
_TABLE: dict[tuple, "_Formula"] = {}


class _Formula:
    __slots__ = ("_text", "_dual")
    _FORMAT: str  # the printed form, from the fields' printed forms

    def __new__(cls, *fields):
        key = (cls, *fields)
        f = _TABLE.get(key)
        if f is None:
            f = _build(cls, fields)
            dual_cls, dual_fields = f._dual_of()
            g = _build(dual_cls, dual_fields)
            f._dual, g._dual = g, f
            _TABLE[key] = f
            _TABLE[(dual_cls, *dual_fields)] = g
        return f

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"


def _build(cls, fields: tuple) -> _Formula:
    f = object.__new__(cls)
    for name, value in zip(cls.__match_args__, fields):
        setattr(f, name, value)
    f._text = cls._FORMAT.format(*fields)
    return f


class OIota(_Formula):
    __slots__ = __match_args__ = ("name",)
    _FORMAT = "{}"

    def _dual_of(self):
        return QIota, (self.name,)


class OPar(_Formula):
    """?q par o."""

    __slots__ = __match_args__ = ("q", "o")
    _FORMAT = "(?{} # {})"

    def _dual_of(self):
        return QTen, (self.q._dual, self.o._dual)


class QIota(_Formula):
    __slots__ = __match_args__ = ("name",)
    _FORMAT = "{}^"

    def _dual_of(self):
        return OIota, (self.name,)


class QTen(_Formula):
    """!o tensor q."""

    __slots__ = __match_args__ = ("o", "q")
    _FORMAT = "(!{} * {})"

    def _dual_of(self):
        return OPar, (self.o._dual, self.q._dual)


class NWhy(_Formula):
    """?q as a standalone negative formula (an input)."""

    __slots__ = __match_args__ = ("q",)
    _FORMAT = "?{}"

    def _dual_of(self):
        return PBang, (self.q._dual,)


class PBang(_Formula):
    """!o, the principal formula of a box."""

    __slots__ = __match_args__ = ("o",)
    _FORMAT = "!{}"

    def _dual_of(self):
        return NWhy, (self.o._dual,)


OFormula = Union[OIota, OPar]
QFormula = Union[QIota, QTen]
Formula = Union[OIota, OPar, QIota, QTen, NWhy, PBang]


def dual(f: Formula) -> Formula:
    return f._dual


# the negations of output and anti-output formulas are their duals
neg_o = neg_q = dual


def is_negative(f: Formula) -> bool:
    return isinstance(f, (OIota, OPar, NWhy))


# memoized by type: one hash of the type, not a walk with a table lookup
# per level
@cache
def trans_type(a: Type) -> OFormula:
    """Girard's translation of simple types to output formulas."""
    match a:
        case Base(n):
            return OIota(n)
        case Arrow(l, r):
            return OPar(trans_type(l)._dual, trans_type(r))
    raise TypeError(a)


def input_of(a: Type) -> NWhy:
    """The formula of a lambda-variable wire: ?(A translated, negated)."""
    return NWhy(trans_type(a)._dual)
