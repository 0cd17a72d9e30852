"""Command-line interface: parsing, normalization, equivalence search,
type checking, proof-net export, and the property-check drivers."""

from __future__ import annotations

import argparse
import sys

from . import drivers, equivalence, generators, lmu, reduction, typing as ty
from .reduction import BudgetExhausted, RuleTag, Trace
from .syntax import (
    ParseError,
    PathError,
    SortError,
    dotted,
    make_path,
    parse,
    parse_type,
    print_object,
)


def _parse_env(spec: str | None):
    gamma: dict = {}
    delta: dict = {}
    if spec:
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            name, _, tyt = item.partition(":")
            target = delta if name.startswith("'") else gamma
            target[name.strip()] = parse_type(tyt.strip())
    return gamma, delta


def _path_arg(o, spec: str):
    try:
        idxs = tuple(int(x) for x in spec.split(".") if x != "")
    except ValueError:
        raise PathError(f"not a dotted list of child indices: {spec!r}") from None
    return make_path(o, idxs)


def cmd_parse(args) -> int:
    o = parse(args.object, args.sort)
    print(print_object(o))
    return 0


def cmd_canon(args) -> int:
    o = parse(args.object, args.sort)
    trace = Trace(o, []) if args.trace else None
    print(print_object(reduction.canon(o, trace=trace)))
    if trace is not None:
        print(trace.render())
    return 0


def cmd_step(args) -> int:
    o = parse(args.object, args.sort)
    redexes = reduction.lm_redexes(o)
    if args.path is None:
        for tag, p in redexes:
            print(f"{tag.value} @ {dotted(p.steps)}")
        return 0
    p = _path_arg(o, args.path)
    matching = [tag for tag, q in redexes if q.steps == p.steps]
    if args.tag:
        tag = RuleTag(args.tag)
    elif matching:
        tag = matching[0]
    else:
        print("no redex at that path", file=sys.stderr)
        return 1
    try:
        out = reduction.lm_step(o, tag, p)
    except ValueError as e:  # the tag names no redex at that path
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(print_object(out))
    return 0


def cmd_reduce(args) -> int:
    o = parse(args.object, args.sort)
    try:
        nf, trace = reduction.reduce_to_nf(o, budget=args.budget, mode=args.mode)
    except BudgetExhausted:
        print("BUDGET-EXHAUSTED")
        return 1
    except ValueError as e:  # a budget below one
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(print_object(nf))
    if args.trace:
        print(trace.render())
    return 0


def cmd_meaningful(args) -> int:
    o = parse(args.object, args.sort)
    co = reduction.canon(o)
    if not args.quiet and print_object(co) != print_object(o):
        print(f"canonicalized to {print_object(co)}")
    for tag, p, res in reduction.meaningful_reducts(co):
        print(f"{tag.value} @ {dotted(p.steps)} => {print_object(res)}")
    return 0


def cmd_sigma(args) -> int:
    o = parse(args.object, args.sort)
    for axiom, orient, p, res in lmu.sigma_instances(o):
        arrow = "+" if orient == "LR" else "-"
        print(f"{axiom}{arrow} @ {dotted(p.steps)} => {print_object(res)}")
    return 0


def cmd_equiv(args) -> int:
    o = reduction.canon(parse(args.left, args.sort))
    p = reduction.canon(parse(args.right, args.sort))
    res = equivalence.equiv(
        o,
        p,
        max_states=args.max_states,
        max_depth=args.max_depth,
        include_ren=args.ren,
    )
    if args.stats:
        print(f"search: {res.states} states, {res.expanded} expanded, {res.built} rewrites built")
    if res.equivalent:
        print(res.certificate.render())
        print("EQUIVALENT")
        return 0
    print(f"NOT-WITHIN-BOUNDS ({res.reason})")
    return 1


def cmd_typecheck(args) -> int:
    o = parse(args.object, args.sort)
    gamma, delta = _parse_env(args.env)
    try:
        d = ty.check_object(o, gamma, delta)
    except ty.LMTypeError as e:
        print(f"ILL-TYPED: {e}")
        return 1
    print(d.render())
    return 0


def cmd_ppn(args) -> int:
    from .ppn import full_nf, mult_nf, translate_derivation

    o = parse(args.object, args.sort)
    gamma, delta = _parse_env(args.env)
    try:
        d = ty.check_object(o, gamma, delta)
    except ty.LMTypeError as e:
        print(f"ILL-TYPED: {e}")
        return 1
    net = translate_derivation(d)
    if args.nf == "mult":
        net = mult_nf(net)
    elif args.nf == "full":
        net = full_nf(net)
    dot = net.to_dot()
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(dot + "\n")
        print(f"wrote {args.dot}")
    else:
        print(dot)
    return 0


def cmd_simcheck(args) -> int:
    from .ppn import simulation_check

    bad = 0
    cases = drivers.typed_step_cases(args.seed, args.cases)
    for tag, o, o2, g, d in cases:
        ok, diag = simulation_check(o, o2, g, d, tag)
        if not ok:
            bad += 1
            print(f"violation ({tag.value}): {print_object(o)} -> {print_object(o2)}: {diag}")
    print(f"{len(cases)} steps checked, {bad} violations")
    print("PASS" if bad == 0 else "FAIL")
    return 0 if bad == 0 else 1


def cmd_bisim_check(args) -> int:
    import random

    rng = random.Random(args.seed)
    axioms = equivalence.AXIOMS
    per = max(1, args.cases // len(axioms))
    bad = checked = searches = nwb = hits = 0
    for ax in axioms:
        for _ in range(per):
            o, p, axiom = generators.gen_equiv_pair(
                seed=rng.randrange(10**9), axiom=ax, size=args.size
            )
            rep = drivers.bisim_driver(o, p, axiom)
            checked += rep.checked
            searches += rep.searches
            nwb += rep.not_within_bounds
            hits += rep.cache_hits
            if not rep.ok:
                bad += 1
                for dd in rep.details[:1]:
                    print(f"violation [{ax}]: {dd}")
    print(
        f"{per * len(axioms)} pairs, {checked} redex matches, {bad} violations,"
        f" {searches} searches ({nwb} not within bounds),"
        f" {hits} expansions from cache"
    )
    print("PASS" if bad == 0 else "FAIL")
    return 0 if bad == 0 else 1


def cmd_confluence_check(args) -> int:
    import random

    rng = random.Random(args.seed)
    bad = done = 0
    while done < args.cases:
        o, _, _ = generators.gen_typed(rng.randrange(10**9), size=args.size)
        ok, diag = drivers.confluence_check(o, max_states=args.max_states)
        if not ok:
            bad += 1
            print(f"violation: {print_object(o)}: {diag}")
        done += 1
    print(f"{done} terms checked, {bad} violations")
    print("PASS" if bad == 0 else "FAIL")
    return 0 if bad == 0 else 1


def cmd_gen(args) -> int:
    import random

    rng = random.Random(args.seed)
    for _ in range(args.cases):
        if args.typed:
            o, g, d = generators.gen_typed(rng.randrange(10**9), size=args.size)
            env = ",".join(
                [f"{k}:{v}" for k, v in sorted(g.items())]
                + [f"{k}:{v}" for k, v in sorted(d.items())]
            )
            print(f"{print_object(o)}  |  {env}")
        else:
            from .gen_random import random_object

            print(print_object(random_object(rng, args.size)))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="lmtool",
        description="lambda-mu calculus with explicit operators: normalization,"
        " equivalence, typing and proof nets",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--sort", choices=["term", "command", "stack"], default=None)
        return p

    p = add("parse", cmd_parse, help="parse and reprint an object")
    p.add_argument("object")

    p = add("canon", cmd_canon, help="canonical form")
    p.add_argument("object")
    p.add_argument("--trace", action="store_true")

    p = add("step", cmd_step, help="list plain redexes or fire one")
    p.add_argument("object")
    p.add_argument("--path", default=None, help="dotted child indices, e.g. 0.1")
    p.add_argument("--tag", default=None, choices=[t.value for t in RuleTag])

    p = add("reduce", cmd_reduce, help="reduce to normal form")
    p.add_argument("object")
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--mode", choices=["plain", "refined"], default="plain")
    p.add_argument("--trace", action="store_true")

    p = add("meaningful", cmd_meaningful, help="meaningful redexes and reducts")
    p.add_argument("object")
    p.add_argument("--quiet", action="store_true")

    p = add("sigma", cmd_sigma, help="sigma-equivalence instances")
    p.add_argument("object")

    p = add("equiv", cmd_equiv, help="bounded equivalence search")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--ren", action="store_true")
    p.add_argument("--max-states", type=int, default=20000)
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--stats", action="store_true", help="print the search's counts")

    p = add("typecheck", cmd_typecheck, help="check a typed object")
    p.add_argument("object")
    p.add_argument("--env", default=None, help="x:iA,'a:iB,... for free vars/names")

    p = add("ppn", cmd_ppn, help="translate to a proof net (DOT)")
    p.add_argument("object")
    p.add_argument("--env", default=None)
    p.add_argument("--dot", default=None, help="write DOT to this file")
    p.add_argument("--nf", choices=["none", "mult", "full"], default="none")

    p = add("simcheck", cmd_simcheck, help="net simulation property")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=50)

    p = add("bisim-check", cmd_bisim_check, help="strong bisimulation property")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=60)
    p.add_argument("--size", type=int, default=8)

    p = add("confluence-check", cmd_confluence_check, help="unique normal forms")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=50)
    p.add_argument("--size", type=int, default=10)
    p.add_argument("--max-states", type=int, default=10000)

    p = add("gen", cmd_gen, help="generate random objects")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=5)
    p.add_argument("--size", type=int, default=10)
    p.add_argument("--typed", action="store_true")

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, SortError, PathError, lmu.NotPureError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except reduction.NotCanonicalError as e:
        print(f"error: not canonical: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input too deep", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
