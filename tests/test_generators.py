import random

from lmtool import generators
from lmtool.equivalence import axiom_instances, equiv
from lmtool.gen_random import random_object
from lmtool.generators import axiom_choices, gen_equiv_pair, gen_typed
from lmtool.reduction import canon, is_canonical
from lmtool.syntax import alpha_eq, parse, print_object, sort_of
from lmtool.typing import check_object, relevance_check


def test_gen_typed_deterministic():
    a = gen_typed(424242, size=14)
    b = gen_typed(424242, size=14)
    assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]


def test_gen_typed_size_one_is_a_leaf():
    o, g, d = gen_typed(1, size=1)
    assert print_object(o).count(" ") <= 2


def test_gen_typed_all_check():
    rng = random.Random(77)
    for _ in range(150):
        o, g, d = gen_typed(rng.randrange(10**9), size=20)
        der = check_object(o, g, d)
        assert relevance_check(der)


def test_gen_equiv_pair_canonical_and_related_at_depth_one():
    rng = random.Random(88)
    for k in range(60):
        ax = ["exs", "exr", "lin", "pp", "rho", "theta"][k % 6]
        o, p, axiom = gen_equiv_pair(seed=rng.randrange(10**9), axiom=ax)
        assert axiom.name == ax
        assert is_canonical(o) and is_canonical(p)
        res = equiv(o, p, max_states=4000, max_depth=1)
        assert res.equivalent and len(res.certificate.steps) <= 1


def test_gen_equiv_pair_free_axiom_choice():
    found = set()
    rng = random.Random(99)
    for _ in range(40):
        o, p, axiom = gen_equiv_pair(seed=rng.randrange(10**9))
        found.add(axiom.name)
        assert is_canonical(o) and is_canonical(p)
        assert not alpha_eq(o, p) or axiom.name  # rewrites may alpha-coincide
    assert len(found) >= 3


def test_gen_equiv_pair_deterministic():
    a = gen_equiv_pair(seed=5, axiom="lin")
    b = gen_equiv_pair(seed=5, axiom="lin")
    assert alpha_eq(a[0], b[0]) and alpha_eq(a[1], b[1])


# --- the pair draw against the enumerate-then-filter reference -----------------


def ref_canonical_piece(rng, size, sort):
    """The piece draw that canonicalizes every draw before testing its sort."""
    while True:
        o = canon(random_object(rng, size))
        if sort_of(o) == sort:
            return o


def ref_gen_equiv_pair(seed, size, axiom):
    """gen_equiv_pair as it was: every instance of every axiom at every
    position enumerated and keyed, then the requested axiom's kept, the
    root's first."""
    rng = random.Random(seed)
    for _ in range(200):
        if axiom is None:
            o = canon(random_object(rng, size))
        else:
            o = generators._template(rng, axiom)
            if not is_canonical(o):
                continue
        insts = axiom_instances(o, include_ren=axiom == "ren")
        if axiom is not None:
            insts = [(ax, r) for ax, r in insts if ax.name == axiom]
            roots = [(ax, r) for ax, r in insts if ax.path == ()]
            insts = roots or insts
        if not insts:
            continue
        ax, r = insts[rng.randrange(len(insts))]
        return o, r, ax
    raise RuntimeError(f"could not build an instance of {axiom}")


def test_gen_equiv_pair_draws_what_the_reference_draws(monkeypatch):
    axioms = ("exs", "exr", "lin", "pp", "rho", "theta", "ren", None)
    cases = [(seed, size, ax) for ax in axioms for size in (8, 9) for seed in range(300)]
    got = [gen_equiv_pair(seed, size, ax) for seed, size, ax in cases]
    monkeypatch.setattr(generators, "_canonical_piece", ref_canonical_piece)
    for (seed, size, ax), (o, p, axiom) in zip(cases, got):
        ro, rp, raxiom = ref_gen_equiv_pair(seed, size, ax)
        assert print_object(o) == print_object(ro)
        assert print_object(p) == print_object(rp)
        # name, orientation, path and result key
        assert axiom == raxiom


def test_axiom_choices_falls_back_below_the_root():
    # the only rho instance is the [a] mu b. c under the abstraction and mu
    o = parse(r"\x. mu 'd. ['a] mu 'b. ['d] x", freshen=False)
    assert is_canonical(o)
    got = axiom_choices(o, "rho")
    assert [ax.path for ax, _ in got] == [(0, 0)]
    assert got == [(ax, r) for ax, r in axiom_instances(o) if ax.name == "rho"]
