"""The bisimulation driver against a reference copy of the driver it
replaced: each side reduced once and one expansion cache per call, filled
lazily and holding one name supply and one node memo, must leave every
report and every search outcome as they were."""

import gc
import random
import sys

import pytest

from lmtool import drivers, equivalence
from lmtool.drivers import BisimReport, bisim_driver
from lmtool.equivalence import (
    AXIOMS,
    Axiom,
    ExpansionCache,
    _keyed,
    _NodeMemo,
    _rewrites,
    axiom_instances,
    equiv,
)
from lmtool.generators import gen_equiv_pair
from lmtool.reduction import meaningful_redexes, meaningful_reducts
from lmtool.syntax import (
    Abs,
    App,
    Mu,
    Named,
    Var,
    canonical_key,
    dotted,
    parse,
    print_object,
    same_object,
    supply_for,
)


def ref_bisim_driver(o, p, axiom=None, max_states=1500, max_depth=6, search=equiv):
    """The driver before the shared cache: reducts of both sides computed in
    each direction, keys recomputed, every search on its own."""
    report = BisimReport(True, axiom)

    def match_side(a, b, side):
        bs = None
        for tag, path, a2 in meaningful_reducts(a):
            if bs is None:
                bs = [(b2, canonical_key(b2)) for _, _, b2 in meaningful_reducts(b)]
            ka = canonical_key(a2)
            found = False
            for b2, kb in bs:
                if ka == kb:
                    found = True
                    break
                res = search(
                    a2, b2, max_states=max_states, max_depth=max_depth, expansive=False
                )
                report.searches += 1
                if res.equivalent:
                    found = True
                    break
                report.not_within_bounds += 1
            report.checked += 1
            if not found:
                report.ok = False
                report.details.append(
                    f"{side}: step {tag.value} @"
                    f" {dotted(path)} of"
                    f" {print_object(a)} reaches {print_object(a2)},"
                    f" unmatched by {print_object(b)}"
                )

    match_side(o, p, "left")
    match_side(p, o, "right")
    return report


def outcome(res):
    cert = res.certificate.render() if res.certificate else None
    return res.status, res.states, res.reason, cert


def two_redex_pairs(per_axiom: int):
    """Pairs of the perfbench bisim stratum: gen_equiv_pair(size=9) pairs
    whose left side has two meaningful redexes."""
    out = []
    for i, ax in enumerate(AXIOMS):
        seed = 50000 + 1000 * i
        got = 0
        while got < per_axiom:
            o, p, axiom = gen_equiv_pair(seed=seed, axiom=ax, size=9)
            seed += 1
            if len(meaningful_redexes(o)) == 2:
                out.append((o, p, axiom))
                got += 1
    return out


@pytest.fixture(scope="module")
def pairs():
    return [
        gen_equiv_pair(seed=1000 * i + s, axiom=ax, size=9)
        for i, ax in enumerate(AXIOMS)
        for s in range(10)
    ] + two_redex_pairs(3)


def test_shared_search_matches_the_reference_driver(pairs, monkeypatch):
    searches: list = []
    expansions = [0]
    real_rewrites = equivalence._rewrites

    def recording_equiv(*args, **kwargs):
        res = equiv(*args, **kwargs)
        searches.append(outcome(res))
        return res

    def counting_rewrites(*args, **kwargs):
        expansions[0] += 1
        return real_rewrites(*args, **kwargs)

    # every expansion, cached or not, enumerates the one rewrite generator
    monkeypatch.setattr(equivalence, "_rewrites", counting_rewrites)
    monkeypatch.setattr(drivers, "equiv", recording_equiv)
    hits = failed = 0
    for o, p, axiom in pairs:
        searches.clear()
        expansions[0] = 0
        got = bisim_driver(o, p, axiom)
        got_searches, got_expansions = list(searches), expansions[0]

        searches.clear()
        expansions[0] = 0
        want = ref_bisim_driver(o, p, axiom, search=recording_equiv)

        assert (got.ok, got.axiom, got.checked, got.details) == (
            want.ok, want.axiom, want.checked, want.details
        )
        assert (got.searches, got.not_within_bounds) == (want.searches, want.not_within_bounds)
        assert got_searches == searches
        assert got.searches == len(searches)
        assert got.not_within_bounds == sum(s[0] != "equivalent" for s in searches)
        # every expansion the reference made is made or served from the cache
        assert got_expansions + got.cache_hits == expansions[0]
        hits += got.cache_hits
        failed += got.not_within_bounds
    assert hits > 100 and failed > 20


def test_cache_lives_for_one_driver_call(pairs):
    reports = [bisim_driver(o, p, axiom) for o, p, axiom in pairs]
    again = [bisim_driver(o, p, axiom) for o, p, axiom in reversed(pairs)]
    assert reports == list(reversed(again))
    assert sum(r.cache_hits for r in reports) > 0


def _pp_state(x: str, y: str):
    """['c](\\x. mu 'a. ['d](\\y. mu 'b. ['e]x)); pp swaps it only if x != y."""
    return Named("'c", Abs(x, None, Mu("'a", None, Named("'d", Abs(y, None, Mu(
        "'b", None, Named("'e", Var("x"))))))))


def test_alpha_equal_state_is_expanded_afresh():
    shadowing, distinct = _pp_state("x", "x"), _pp_state("z", "x")
    key = canonical_key(shadowing)
    assert canonical_key(distinct) == key and shadowing != distinct
    cache = ExpansionCache()

    first = as_axioms(cache.instances(key, shadowing))
    assert first == axiom_instances(shadowing, expansive=False)
    assert not any(ax.name == "pp" for ax, _ in first)
    # same key, other binder names: not served from the entry
    second = as_axioms(cache.instances(key, distinct))
    assert second == axiom_instances(distinct, expansive=False)
    assert any(ax.name == "pp" for ax, _ in second)
    assert cache.hits == 0
    # an equal state made of other nodes is served: the entry keeps the
    # state it was built for, and the results are the ones built then
    third = as_axioms(cache.instances(key, _pp_state("z", "x")))
    assert cache.entries[key].state is distinct
    assert [ax for ax, _ in third] == [ax for ax, _ in second]
    assert all(r3 is r2 for (_, r3), (_, r2) in zip(third, second))
    assert cache.hits == 1

    target = next(r for ax, r in second if ax.name == "pp")
    for o in (shadowing, distinct):
        shared = equiv(o, target, expansive=False, cache=cache)
        assert outcome(shared) == outcome(equiv(o, target, expansive=False))


def _deep_spine(binder: str, args: int = 2000):
    """(\\binder. x) y ... y with args arguments, built afresh."""
    o = Abs(binder, None, Var("x"))
    for _ in range(args):
        o = App(o, Var("y"))
    return o


def test_cache_compares_deep_states_without_recursion():
    # the dataclass == recurses once per spine node; 2,000 exceeds the
    # default recursion limit
    assert 2000 > sys.getrecursionlimit()
    state, equal, renamed = _deep_spine("z"), _deep_spine("z"), _deep_spine("w")
    assert same_object(state, equal) and not same_object(state, renamed)
    key = canonical_key(state)
    assert canonical_key(renamed) == key
    cache = ExpansionCache(state)
    cache.instances(key, state)
    cache.instances(key, equal)
    assert cache.hits == 1
    # same key, one deep binder renamed: expanded afresh
    cache.instances(key, renamed)
    assert cache.hits == 1 and cache.entries[key].state is renamed


def as_axioms(rewrites):
    """(Axiom, result) of each of the keyed rewrites, as axiom_instances
    gives them."""
    return [(Axiom(name, orient, path, key), res) for key, name, orient, path, res in rewrites]


def sequence(rewrites):
    """(axiom, orientation, path, result key) of each of the keyed
    rewrites."""
    return [(name, orient, path, key) for key, name, orient, path, _ in rewrites]


def eager(o):
    """The sequence of a fresh entry for o, built in full at once."""
    return sequence(_keyed(_rewrites(o, False, False, supply_for(o), _NodeMemo())))


def test_a_resumed_entry_yields_what_an_eager_enumeration_yields(monkeypatch):
    caches, resumed = [], []

    class Recording(ExpansionCache):
        def __init__(self, *objects):
            super().__init__(*objects)
            caches.append(self)

        def instances(self, key, o):
            entry = self.entries.get(key)
            if entry is not None and entry.state == o and entry.rest is not None:
                resumed.append((key, len(entry.built)))
            return super().instances(key, o)

    # the pairs of `lmtool bisim-check --cases 12 --seed 3`
    monkeypatch.setattr(drivers, "ExpansionCache", Recording)
    rng = random.Random(3)
    for ax in AXIOMS:
        for _ in range(2):
            o, p, axiom = gen_equiv_pair(seed=rng.randrange(10**9), axiom=ax)
            assert bisim_driver(o, p, axiom).ok
    assert len(resumed) >= 3
    part_built = 0
    for cache in caches:
        for key, entry in list(cache.entries.items()):
            part_built += entry.rest is not None
            got = sequence(cache.instances(key, entry.state))
            assert got == eager(entry.state)
            assert entry.rest is None and len(entry.built) == len(got)
    assert part_built > 0

    # an entry left after two rewrites is resumed where it stopped
    o = _pp_state("z", "x")
    cache = ExpansionCache(o)
    key = canonical_key(o)
    it = cache.instances(key, o)
    head = [next(it), next(it)]
    del it
    entry = cache.entries[key]
    assert entry.built == head and entry.rest is not None
    again = list(cache.instances(key, o))
    assert again[:2] == head and sequence(again) == eager(o)


def test_a_replaced_entry_frees_its_state_and_no_reused_id_is_served():
    """The memo is keyed by node identity.  A state whose entry an
    alpha-equal state with other binder names replaces is freed, and a
    later node may be given a freed node's id; the memo keeps every node it
    keys, so no node is served another node's list."""
    cache = ExpansionCache()
    key = canonical_key(_pp_state("x", "x"))
    target = next(r for ax, r in axiom_instances(_pp_state("z", "x"), expansive=False)
                  if ax.name == "pp")
    # the binders of each state: pp applies at the root exactly when they
    # differ; the state that replaces old differs from both others
    cases = [(("x", "x"), ("y", "x"), ("z", "x")), (("z", "x"), ("y", "x"), ("x", "x"))]
    for _ in range(30):
        for old_names, other_names, new_names in cases:
            old = _pp_state(*old_names)
            assert sequence(cache.instances(key, old)) == eager(old)
            list(cache.instances(key, _pp_state(*other_names)))
            del old
            gc.collect()
            o = _pp_state(*new_names)
            assert sequence(cache.instances(key, o)) == eager(o)
            shared = equiv(o, target, expansive=False, cache=cache)
            assert outcome(shared) == outcome(equiv(o, target, expansive=False))


def test_cache_serves_only_non_expansive_searches_without_ren():
    o = _pp_state("z", "x")
    for setting in ({}, {"expansive": False, "include_ren": True}):
        with pytest.raises(ValueError):
            equiv(o, o, cache=ExpansionCache(), **setting)


def test_unmatched_root_step_prints_root():
    rep = bisim_driver(parse(r"x[x\y]"), parse("y"))
    assert not rep.ok
    assert rep.details == [r"left: step S @ root of x1[x1\y] reaches y, unmatched by y"]
