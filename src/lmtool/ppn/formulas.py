"""Polarized formulas for proof nets.

Output formulas O and their duals Q (anti-output) cover everything the
translation produces; negative wires carry O or ?Q, positive wires carry
Q or !O.  Negation is involutive by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Union

from ..syntax import Arrow, Base, Type


@dataclass(frozen=True)
class OIota:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class OPar:
    """?q par o."""

    q: "QFormula"
    o: "OFormula"

    def __str__(self) -> str:
        return f"(?{self.q} # {self.o})"


@dataclass(frozen=True)
class QIota:
    name: str

    def __str__(self) -> str:
        return f"{self.name}^"


@dataclass(frozen=True)
class QTen:
    """!o tensor q."""

    o: "OFormula"
    q: "QFormula"

    def __str__(self) -> str:
        return f"(!{self.o} * {self.q})"


@dataclass(frozen=True)
class NWhy:
    """?q as a standalone negative formula (an input)."""

    q: "QFormula"

    def __str__(self) -> str:
        return f"?{self.q}"


@dataclass(frozen=True)
class PBang:
    """!o, the principal formula of a box."""

    o: "OFormula"

    def __str__(self) -> str:
        return f"!{self.o}"


OFormula = Union[OIota, OPar]
QFormula = Union[QIota, QTen]
Formula = Union[OIota, OPar, QIota, QTen, NWhy, PBang]


@cache
def neg_o(o: OFormula) -> QFormula:
    match o:
        case OIota(n):
            return QIota(n)
        case OPar(q, o2):
            return QTen(neg_q(q), neg_o(o2))
    raise TypeError(o)


@cache
def neg_q(q: QFormula) -> OFormula:
    match q:
        case QIota(n):
            return OIota(n)
        case QTen(o, q2):
            return OPar(neg_o(o), neg_q(q2))
    raise TypeError(q)


def dual(f: Formula) -> Formula:
    match f:
        case OIota(_) | OPar(_, _):
            return neg_o(f)
        case QIota(_) | QTen(_, _):
            return neg_q(f)
        case NWhy(q):
            return PBang(neg_q(q))
        case PBang(o):
            return NWhy(neg_o(o))
    raise TypeError(f)


def is_negative(f: Formula) -> bool:
    return isinstance(f, (OIota, OPar, NWhy))


@cache
def trans_type(a: Type) -> OFormula:
    """Girard's translation of simple types to output formulas."""
    match a:
        case Base(n):
            return OIota(n)
        case Arrow(l, r):
            return OPar(neg_o(trans_type(l)), trans_type(r))
    raise TypeError(a)


def input_of(a: Type) -> NWhy:
    """The formula of a lambda-variable wire: ?(A translated, negated)."""
    return NWhy(neg_o(trans_type(a)))
