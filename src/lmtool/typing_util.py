"""Small helpers on types shared by meta operations and the type checker."""

from __future__ import annotations

from typing import Optional

from .syntax import Arrow, Type

StackType = tuple[Type, ...]


def fold_stack_type(s: StackType, b: Type) -> Type:
    """fold(A1..An, B) = A1 -> ... -> An -> B; the empty fold is B itself."""
    out = b
    for a in reversed(s):
        out = Arrow(a, out)
    return out


def split_arrow(t: Type, n: int) -> tuple[StackType, Type]:
    """Split the first n arrows off t; raises if t has fewer."""
    parts: list[Type] = []
    for _ in range(n):
        if not isinstance(t, Arrow):
            raise ValueError(f"type {t} has fewer than {n} arrows")
        parts.append(t.left)
        t = t.right
    return tuple(parts), t


def codomain(t: Optional[Type], n: int) -> Optional[Type]:
    """What is left of t after n arguments; None when t is None or has
    fewer than n arrows."""
    try:
        return split_arrow(t, n)[1]
    except ValueError:
        return None
