"""Seeded random generators for untyped objects.

These feed the property suites that do not need well-typed inputs
(commutation identities, canon idempotence, projection facts).  Typed
generation lives in generators.py.
"""

from __future__ import annotations

import random

from .syntax import (
    Abs,
    App,
    ESub,
    ERepl,
    Mu,
    Named,
    Object,
    Push,
    Var,
    barendregt,
    empty_stack,
)

_VARS = ["x", "y", "z", "w", "u1", "v1"]
_NAMES = ["'a", "'b", "'g", "'d", "'e1"]


# the shapes a term of size two or more draws from, each equally likely
_PURE = ("app", "abs", "mu", "app")
_EXPLICIT = ("app", "app", "abs", "mu", "sub")


def random_pure_term(rng: random.Random, size: int) -> Object:
    """A random lambda-mu term (no explicit operators), binders distinct."""
    return barendregt(_term(rng, size, _PURE))


def random_pure_command(rng: random.Random, size: int) -> Object:
    return barendregt(_command(rng, size, _PURE))


def random_pure_stack(rng: random.Random, size: int) -> Object:
    n = rng.randint(0, max(1, size // 2))
    s: Object = empty_stack()
    for _ in range(n):
        s = Push(_term(rng, max(1, size // 2), _PURE), s)
    return barendregt(s)


def random_pure_object(rng: random.Random, size: int) -> Object:
    if rng.random() < 0.5:
        return random_pure_term(rng, size)
    return random_pure_command(rng, size)


def random_object(rng: random.Random, size: int) -> Object:
    """A random object that may contain explicit operators."""
    return barendregt(raw_object(rng, size))


def raw_object(rng: random.Random, size: int) -> Object:
    """random_object's draw before its binders are refreshed: the same
    shape, drawn from rng in the same way, whose binders may repeat one
    another and its free identifiers."""
    if rng.random() < 0.6:
        return _term(rng, size, _EXPLICIT)
    return _command(rng, size, _EXPLICIT)


def _term(rng: random.Random, size: int, shapes: tuple[str, ...]) -> Object:
    if size <= 1:
        return Var(rng.choice(_VARS))
    match rng.choice(shapes):
        case "app":
            k = rng.randint(1, size - 1)
            return App(_term(rng, k, shapes), _term(rng, size - k, shapes))
        case "abs":
            return Abs(rng.choice(_VARS), None, _term(rng, size - 1, shapes))
        case "mu":
            return Mu(rng.choice(_NAMES), None, _command(rng, size - 1, shapes))
        case _:
            k = rng.randint(1, size - 1)
            return ESub(_term(rng, k, shapes), rng.choice(_VARS), _term(rng, size - k, shapes))


def _command(rng: random.Random, size: int, shapes: tuple[str, ...]) -> Object:
    """A named term; an explicit command of size three or more is a
    replacement half of the time."""
    if shapes is _PURE or size <= 2 or rng.random() < 0.5:
        return Named(rng.choice(_NAMES), _term(rng, max(1, size - 1), shapes))
    k = rng.randint(1, size - 1)
    new, old = rng.sample(_NAMES, 2)
    return ERepl(_command(rng, k, shapes), new, old, None, _stack(rng, size - k))


def _stack(rng: random.Random, size: int) -> Object:
    n = rng.randint(0, max(0, size // 2))
    s: Object = empty_stack()
    for _ in range(n):
        s = Push(_term(rng, max(1, size // 3), _EXPLICIT), s)
    return s
