"""Checking reduction steps and equivalences against the net semantics."""

from __future__ import annotations

from ..reduction import CANON, RuleTag
from ..syntax import Object, Type
from ..typing import check_object
from .canonical import equiv_owned
from .rewrite import MULT, normalize
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
    already coincide.  The nets are translated here, so they are
    normalized and compared in place; only a canonical step, which needs
    both normal forms of each net, copies them."""
    n1 = nets_of(o, gamma, delta)
    n2 = nets_of(o2, gamma, delta)
    canon_step = tag in CANON
    m1, m2 = (n1.copy(), n2.copy()) if canon_step else (None, None)
    if not equiv_owned(normalize(n1), normalize(n2)):
        return False, "full normal forms differ"
    if canon_step:
        if not equiv_owned(normalize(m1, MULT), normalize(m2, MULT)):
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
    return equiv_owned(
        normalize(nets_of(lhs, gamma, delta), MULT),
        normalize(nets_of(rhs, gamma, delta), MULT),
    )
