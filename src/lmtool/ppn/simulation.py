"""Checking reduction steps and equivalences against the net semantics."""

from __future__ import annotations

from ..reduction import CANON, RuleTag
from ..syntax import Object, Type
from ..typing import check_object
from .canonical import net_equiv
from .rewrite import full_nf, mult_nf
from .translate import translate_derivation


def nets_of(o: Object, gamma: dict[str, Type], delta: dict[str, Type]):
    return translate_derivation(check_object(o, gamma, delta))


def simulation_check(
    o: Object,
    o2: Object,
    gamma: dict[str, Type],
    delta: dict[str, Type],
    tag: RuleTag | None = None,
) -> tuple[bool, str]:
    """The reduct's net must have the same cut-elimination normal form; for
    canonical-form steps (B, M, C, W) the multiplicative normal forms must
    already coincide."""
    n1 = nets_of(o, gamma, delta)
    n2 = nets_of(o2, gamma, delta)
    if not net_equiv(full_nf(n1), full_nf(n2)):
        return False, "full normal forms differ"
    if tag in CANON:
        if not net_equiv(mult_nf(n1), mult_nf(n2)):
            return False, "multiplicative normal forms differ on a canonical step"
    return True, "ok"


def soundness_check(
    lhs: Object,
    rhs: Object,
    gamma: dict[str, Type],
    delta: dict[str, Type],
) -> bool:
    """Equivalent canonical forms denote the same net up to multiplicative
    cuts and structural equality."""
    return net_equiv(
        mult_nf(nets_of(lhs, gamma, delta)), mult_nf(nets_of(rhs, gamma, delta))
    )
