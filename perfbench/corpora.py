"""The four workloads: how each corpus is built from a seed, the timed
verdict on one item, and the untimed checks of that verdict's output.

Every call into lmtool goes through a module attribute (``drivers.bisim_driver``,
not a name imported from it), so that the tracer in ``layers.py`` sees it.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

from lmtool import drivers, equivalence, generators, lmu, ppn, reduction, syntax
from lmtool import typing as ty
from lmtool.reduction import RuleTag
from lmtool.syntax import Abs, ERepl, ESub, Mu

# A generator that cannot fill a stratum within this many draws is broken.
MAX_DRAWS = 20000


@dataclass(frozen=True)
class Item:
    """One corpus entry.  ``known_fault`` names the program fault that makes
    this item's check fail on purpose; such items are counted as failed
    without making the run incorrect."""

    label: str
    data: tuple
    known_fault: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list[Item]]
    verdict: Callable[[Item], object]  # the timed part
    summary: Callable[[object], object]  # compared between passes
    check: Callable[[Item, object], Optional[str]]  # None when the output is right


def _seeds(rng: random.Random):
    while True:
        yield rng.randrange(10**9)


def _same_type(o, o2, gamma, delta) -> bool:
    t1 = ty.check_object(o, gamma, delta).judgment.type
    t2 = ty.check_object(o2, gamma, delta).judgment.type
    return t1 == t2


# ---------------------------------------------------------------------------
# bisim: one-axiom pairs checked by the strong-bisimulation driver

BISIM_PER_AXIOM = 17
# A pair's cost is the number of states its searches visit, and that has a
# heavy tail.  Two cheap structural counts predict it: the meaningful redexes
# of the left side (cost grows about fourfold per redex) and the first-step
# branching, the number of non-expansive axiom instances of all meaningful
# reducts of both sides (correlation 0.75-0.86 with the time of a pair).
# Every pair has two redexes, and its branching is at most about the median
# of its axiom's two-redex pairs, which cuts the tail (lower for pp, so that
# pp and exr pairs share the top decile and p90 does not rest on pp alone).
BISIM_REDEXES = 2
BISIM_MAX_BRANCHING = {"exs": 10, "exr": 16, "lin": 5, "pp": 16, "rho": 10, "theta": 11}


def first_step_branching(o, p) -> int:
    return sum(
        len(equivalence.axiom_instances(r, expansive=False))
        for side in (o, p)
        for _, _, r in reduction.meaningful_reducts(side)
    )


def build_bisim(seed: int, per_axiom: int = BISIM_PER_AXIOM) -> list[Item]:
    seeds = _seeds(random.Random(seed))
    items = []
    for ax in equivalence.AXIOMS:
        got = 0
        for _ in range(MAX_DRAWS):
            o, p, axiom = generators.gen_equiv_pair(seed=next(seeds), axiom=ax, size=9)
            if len(reduction.meaningful_redexes(o)) != BISIM_REDEXES:
                continue
            if first_step_branching(o, p) > BISIM_MAX_BRANCHING[ax]:
                continue
            items.append(Item(f"{ax}#{got}", (o, p, axiom)))
            got += 1
            if got == per_axiom:
                break
        else:
            raise RuntimeError(f"too few {ax} pairs in the bisim stratum")
    return items


def bisim_verdict(item: Item):
    o, p, axiom = item.data
    return drivers.bisim_driver(o, p, axiom)


def bisim_check(item: Item, rep) -> Optional[str]:
    o, p, axiom = item.data
    if not rep.ok:
        return "bisimulation fails: " + "; ".join(rep.details[:1])
    ok, diag = equivalence.check_certificate(o, equivalence.Certificate([axiom]), p)
    if not ok:
        return f"the recorded axiom does not replay: {diag}"
    return None


BISIM = Workload(
    "bisim", build_bisim, bisim_verdict, lambda rep: (rep.ok, rep.checked), bisim_check
)


# ---------------------------------------------------------------------------
# sigma-ren: sigma-related text pairs, parsed, canonicalized and joined by the
# equivalence extended with renaming, as `lmtool equiv --ren` does

SIGMA_SIZE = 3
# sigma4 and sigma5 pairs cost about a hundred times the others (0.2-0.5 s):
# eight of each keep a pass near 5 s and still hold the whole tail above p90.
SIGMA_PAIRS = {f"sigma{k}": 8 if k in (4, 5) else 15 for k in range(1, 9)}
# The expansive `ren` search enumerates subsets of every free name's
# occurrences, so its cost doubles per free name; at most two keeps it fixed.
SIGMA_MAX_FREE_NAMES = 2
SIGMA_BOUNDS = dict(max_states=20000, max_depth=12)  # criterion 3's bounds


def build_sigma(seed: int, pairs: dict[str, int] = SIGMA_PAIRS) -> list[Item]:
    seeds = _seeds(random.Random(seed))
    items = []
    for eq, count in pairs.items():
        got = 0
        for _ in range(MAX_DRAWS):
            o, p = drivers.sigma_pair(next(seeds), eq, size=SIGMA_SIZE)
            if len(syntax.free_names(reduction.canon(o))) > SIGMA_MAX_FREE_NAMES:
                continue
            texts = (syntax.print_object(o), syntax.print_object(p))
            items.append(Item(f"{eq}#{got}", texts + (o, p)))
            got += 1
            if got == count:
                break
        else:
            raise RuntimeError(f"no {eq} pairs with few free names")
    return items


def sigma_verdict(item: Item):
    lhs, rhs = item.data[:2]
    o = reduction.canon(syntax.parse(lhs))
    p = reduction.canon(syntax.parse(rhs))
    res = equivalence.equiv(o, p, include_ren=True, **SIGMA_BOUNDS)
    text = res.certificate.render() if res.equivalent else None
    return o, p, res, text


def sigma_check(item: Item, out) -> Optional[str]:
    lhs, rhs, o0, p0 = item.data
    o, p, res, _ = out
    if not any(syntax.alpha_eq(r, p0) for *_, r in lmu.sigma_instances(o0)):
        return "the pair is not one sigma step apart"
    if not (syntax.alpha_eq(syntax.parse(lhs), o0) and syntax.alpha_eq(syntax.parse(rhs), p0)):
        return "parse of print differs from the generated pair"
    if not res.equivalent:
        return "not equivalent within bounds"
    ok, diag = equivalence.check_certificate(o, res.certificate, p)
    if not ok:
        return f"certificate does not replay: {diag}"
    return None


SIGMA = Workload(
    "sigma-ren", build_sigma, sigma_verdict, lambda out: (out[2].status, out[3]), sigma_check
)


# ---------------------------------------------------------------------------
# nets: typed one-step reductions against cut elimination, and typed axiom
# pairs against multiplicative normal forms

NETS_STEPS = 300
NETS_PAIRS_PER_AXIOM = 20
NET_AXIOMS = equivalence.AXIOMS + (equivalence.REN_AXIOM,)

ERASURE_FAULT = (
    "simulation_check: erasing S or R step whose erased part holds an occurrence"
    " of a variable or name bound by a binder that survives the step"
)

# Fixed instances of that fault: (tag, source, child indices of the redex,
# environments).  The first three are S steps that drop the last occurrence
# of a lambda-bound variable: the smallest case, then steps 270 and 532 of
# drivers.typed_step_cases(seed=99, count=1000).  The other four are step k
# of typed_step_cases(seed, k + 1): S steps that drop one of several
# occurrences of a lambda-bound variable (seed 38, k 21) and the only
# occurrence of a mu-bound name (seed 252367528, k 126); R steps whose
# dropped stack or replacement name holds a lambda-bound variable (seed 30,
# k 313) or a mu-bound name (seed 1574527462, k 185).
KNOWN_FAULT_STEPS = (
    (RuleTag.S, r"\y:iB. f z[x\y]", (0, 1), {"f": "iA->iA", "z": "iA"}, {}),
    (
        RuleTag.S,
        r"\x1:iB. z2 (\x3:iB. z4 (z5 (\x6:iA. z5[x7\x1] z9[x8\x6])))",
        (0, 1, 0, 1, 1, 0, 0),
        {"z2": "(iB->iB)->iA", "z4": "iB->iB", "z5": "(iA->iB)->iB", "z9": "iA->iB"},
        {},
    ),
    (
        RuleTag.S,
        r"mu 'm1:iB. ['f2](\x3:iB. z4 z6[x5\x3] (mu 'm7:iA->iA. ['f8]z9)"
        r" (mu 'm10:iA->iA. ['f8]z11))",
        (0, 0, 0, 0, 0, 1),
        {"z4": "(iA->iB)->(iA->iA)->(iA->iA)->iA", "z6": "iA->iB", "z9": "iA", "z11": "iA"},
        {"'f2": "iB->iA", "'f8": "iA"},
    ),
    (
        RuleTag.S,
        r"['f1](\x2:iA. ((mu 'm5:iB->iA. ['m5]z6)[x4\x2] z8[x7\x2])"
        r"[x3\(mu 'm9:iA->iB. ['f10]z8) x2[x11\z12]])",
        (0, 0, 0, 1),
        {"z6": "iB->iA", "z8": "iB", "z12": "iA"},
        {"'f1": "iA->iA", "'f10": "iB"},
    ),
    (
        RuleTag.S,
        r"\x1:iA->iB. mu 'm2:iA. ['f3](z5 z6 z8[x7\z10[x9\mu 'm11:iA. ['m2]z12]])[x4\z13]",
        (0, 0, 0, 0, 1, 1),
        {"z5": "iA->iB->iB", "z6": "iA", "z8": "iB", "z10": "iB->iA", "z12": "iA", "z13": "iB->iB"},
        {"'f3": "iB"},
    ),
    (
        RuleTag.R,
        r"\x1:iB->iB. \x2:iA. z3 (mu 'm4:iB. (['f6]z7)['m4/'r5:(iB->iB)->(iA->iB)->iB\x1 . z8 . #])",
        (0, 0, 1, 0),
        {"z3": "iB->iA", "z7": "iB->iA", "z8": "iA->iB"},
        {"'f6": "iB->iA"},
    ),
    (
        RuleTag.R,
        r"\x1:iB->iB. mu 'm2:iB. ['f3]z4 (mu 'm5:iA. (['f7](mu 'm8:iA. ['f3]z9))['m2/'r6:iB\#])",
        (0, 0, 0, 1, 0),
        {"z4": "iA->iA", "z9": "iA"},
        {"'f3": "iA", "'f7": "iA"},
    ),
)


def _binder_uses(o) -> Counter:
    """Free occurrences in its scope of each identifier bound in o, summed
    over the binders of that identifier."""
    uses: Counter = Counter()
    for _, sub in syntax.positions(o):
        match sub:
            case Abs(x, _, body) | ESub(body, x, _):
                uses[x] += syntax.count_free_var(x, body)
            case Mu(a, _, body) | ERepl(body, _, a, _, _):
                uses[a] += syntax.count_free_name(a, body)
    return uses


def drops_bound_occurrence(o, o2) -> bool:
    """True for a step after which an identifier still bound has fewer
    occurrences: an erasing step whose erased part held one of them, the
    class of steps ERASURE_FAULT lives in."""
    before, after = _binder_uses(o), _binder_uses(o2)
    return any(x in before and n < before[x] for x, n in after.items())


def known_fault_steps() -> list[Item]:
    items = []
    for k, (tag, text, idxs, gamma, delta) in enumerate(KNOWN_FAULT_STEPS):
        o = syntax.parse(text, freshen=False)
        o2 = reduction.lm_step(o, tag, syntax.make_path(o, idxs))
        g = {x: syntax.parse_type(t) for x, t in gamma.items()}
        d = {a: syntax.parse_type(t) for a, t in delta.items()}
        items.append(Item(f"fault#{k}:{tag.value}", ("step", tag, o, o2, g, d), ERASURE_FAULT))
    return items


def build_nets(
    seed: int, steps: int = NETS_STEPS, pairs_per_axiom: int = NETS_PAIRS_PER_AXIOM
) -> list[Item]:
    # about one step in twenty is of the fault's class; a fifth more steps
    # than needed nearly always leaves enough
    count = steps + steps // 5
    while True:
        cases = drivers.typed_step_cases(seed, count)
        kept = [c for c in cases if not drops_bound_occurrence(c[1], c[2])]
        if len(kept) >= steps:
            break
        count *= 2
    items = [
        Item(f"step#{k}:{tag.value}", ("step", tag, o, o2, g, d))
        for k, (tag, o, o2, g, d) in enumerate(kept[:steps])
    ]
    for j, ax in enumerate(NET_AXIOMS):
        pairs = drivers.TypedPairs(seed * len(NET_AXIOMS) + j)
        for k in range(pairs_per_axiom):
            lhs, rhs, g, d = pairs.build(ax)
            items.append(Item(f"pair#{ax}{k}", ("pair", ax, lhs, rhs, g, d)))
    return items + known_fault_steps()


def nets_verdict(item: Item):
    kind, x, a, b, g, d = item.data
    if kind == "step":
        return ppn.simulation_check(a, b, g, d, x)
    return ppn.soundness_check(a, b, g, d)


def nets_check(item: Item, out) -> Optional[str]:
    kind, _, a, b, g, d = item.data
    if kind == "pair":
        return None if out else "the two sides have different multiplicative normal forms"
    if not _same_type(a, b, g, d):
        return "subject reduction fails"
    ok, diag = out
    return None if ok else diag


NETS = Workload("nets", build_nets, nets_verdict, lambda out: out, nets_check)


# ---------------------------------------------------------------------------
# confluence: typed terms whose whole plain reduction graph is explored

CONF_SIZE = 12  # criterion 4's size
# Graph size grows with the number of plain redexes in the source, so the
# corpus has fixed numbers of terms with 1..5 of them; the 4- and 5-redex
# strata are the larger, so that p90 falls inside the 5-redex one.
CONF_TERMS = {1: 60, 2: 60, 3: 60, 4: 150, 5: 150}
CONF_MAX_STATES = 10**4


def build_confluence(seed: int, terms: dict[int, int] = CONF_TERMS) -> list[Item]:
    seeds = _seeds(random.Random(seed))
    need = dict(terms)
    items = []
    for _ in range(MAX_DRAWS):
        o, g, d = generators.gen_typed(next(seeds), size=CONF_SIZE)
        r = len(reduction.lm_redexes(o))
        if need.get(r):
            need[r] -= 1
            items.append(Item(f"r{r}#{len(items)}", (o, g, d)))
            if not any(need.values()):
                return items
    raise RuntimeError("too few typed terms with 1..5 redexes")


def confluence_verdict(item: Item):
    return drivers.confluence_check(item.data[0], max_states=CONF_MAX_STATES)


def confluence_check(item: Item, out) -> Optional[str]:
    o, g, d = item.data
    ok, diag = out
    if not ok:
        return diag
    _, nfs = reduction.reduction_graph(o, max_states=CONF_MAX_STATES)
    if len({syntax.canonical_key(nf) for nf in nfs}) != 1:
        return "more than one normal form up to alpha"
    nf = nfs[0]
    if not syntax.alpha_eq(nf, reduction.reduce_to_nf(o)[0]):
        return "leftmost-outermost reduction reaches another normal form"
    if not _same_type(o, nf, g, d):
        return "the normal form has another type"
    return None


CONFLUENCE = Workload(
    "confluence", build_confluence, confluence_verdict, lambda out: out, confluence_check
)


WORKLOADS = {w.name: w for w in (BISIM, SIGMA, NETS, CONFLUENCE)}
