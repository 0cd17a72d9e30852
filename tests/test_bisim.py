"""The bisimulation driver against a reference copy of the driver it
replaced.  The driver reduces each side once, shares one expansion cache
per call, filled lazily and holding one name supply and one node memo,
and runs one search per reduct towards all of the other side's
candidates at once, searching again per candidate when that one search
reaches none.  The reference runs one search per (reduct, candidate)
pair, in order, each on its own."""

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
    check_certificate,
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


def probe_pairs(k: int, count: int = 150):
    """Pairs k axiom steps apart: gen_equiv_pair(seed=s, axiom=AXIOMS[s % 6],
    size=7) for s < count, then k - 1 more steps, each a random pick from
    the axiom instances (both orientations, ren left out) of the last
    object, drawn with random.Random(s).  Each pair is (first, last)."""
    out = []
    for s in range(count):
        o, cur, _ = gen_equiv_pair(seed=s, axiom=AXIOMS[s % 6], size=7)
        rng = random.Random(s)
        for _ in range(k - 1):
            instances = axiom_instances(cur, include_ren=False, expansive=True)
            if not instances:
                break
            cur = rng.choice(instances)[1]
        out.append((o, cur))
    return out


@pytest.fixture(scope="module")
def probe():
    return {k: probe_pairs(k) for k in (3, 6)}


def criterion_1_pairs():
    """The 504 pairs of acceptance criterion 1."""
    rng = random.Random(20240811)
    return [gen_equiv_pair(seed=rng.randrange(10**9), axiom=ax, size=9)
            for ax in AXIOMS for _ in range(84)]


class Recorder:
    """drivers.equiv that records (input, targets, outcome) of each
    search."""

    def __init__(self):
        self.calls = []

    def __call__(self, o, p, *args, **kwargs):
        res = equiv(o, p, *args, **kwargs)
        self.calls.append((o, p, res))
        return res


def verdict(rep):
    return rep.ok, rep.axiom, rep.checked, rep.details


def test_shared_search_matches_the_reference_driver(pairs, monkeypatch):
    expanded: list = []
    real_rewrites = equivalence._rewrites

    def counting_rewrites(o, *args, **kwargs):
        expanded.append(o)
        return real_rewrites(o, *args, **kwargs)

    # every expansion, cached or not, enumerates the one rewrite generator
    monkeypatch.setattr(equivalence, "_rewrites", counting_rewrites)
    record = Recorder()
    monkeypatch.setattr(drivers, "equiv", record)
    got_searches = want_searches = failed = hits = 0
    for o, p, axiom in pairs:
        record.calls.clear()
        expanded.clear()
        got = bisim_driver(o, p, axiom)
        got_expanded = list(expanded)
        want = ref_bisim_driver(o, p, axiom)

        # the same reducts are matched: details name each unmatched one
        assert verdict(got) == verdict(want)
        assert got.searches == len(record.calls)
        assert got.not_within_bounds == sum(not res.equivalent for *_, res in record.calls)
        # the cache serves every repeat expansion: a state is expanded again
        # only after an alpha-equal state with other binder names replaced
        # its entry
        last: dict = {}
        for state in got_expanded:
            key = canonical_key(state)
            assert key not in last or not same_object(state, last[key])
            last[key] = state
        got_searches += got.searches
        want_searches += want.searches
        failed += got.not_within_bounds
        hits += got.cache_hits
    # no wrong candidate costs a search of its own
    assert hits > 0 and failed == 0 and got_searches < want_searches


# (k, seed) of the probe pairs where the one search reaches a candidate
# that no per-candidate search reaches within the bounds: the driver leaves
# fewer steps unmatched than the reference, and neither finds the pair ok
MORE_MATCHED = {(3, 12), (6, 1)}


def test_one_search_per_reduct_keeps_every_verdict(pairs, probe, monkeypatch):
    record = Recorder()
    monkeypatch.setattr(drivers, "equiv", record)
    cases = [(None, i, pair) for i, pair in enumerate(pairs + criterion_1_pairs())]
    cases += [(k, s, pair) for k, ps in probe.items() for s, pair in enumerate(ps)]
    retried = set()
    for k, s, pair in cases:
        got, want = bisim_driver(*pair), ref_bisim_driver(*pair)
        if (k, s) in MORE_MATCHED:
            assert not got.ok and not want.ok and got.checked == want.checked
            assert set(got.details) < set(want.details)
        else:
            assert verdict(got) == verdict(want), (k, s)
        if got.retries:
            retried.add((k, s))
    assert retried and all(k is not None for k, _ in retried)
    # every search with several targets that reached one replays to it
    several = [(o, p, res) for o, p, res in record.calls if len(p) > 1 and res.equivalent]
    assert len(several) > 500
    for o, p, res in several:
        assert check_certificate(o, res.certificate, p[res.target]) == (True, "ok")


def test_a_reduct_the_one_search_misses_is_searched_per_candidate(probe, monkeypatch):
    # the wider far side of the one search spends the depth bound that a
    # single candidate's search spends on the near side; both pairs match
    # at depth 12
    record = Recorder()
    monkeypatch.setattr(drivers, "equiv", record)
    for s in (62, 114):
        o, q = probe[6][s]
        record.calls.clear()
        rep = bisim_driver(o, q)
        assert rep.ok and rep.retries >= 1
        assert verdict(rep) == verdict(ref_bisim_driver(o, q))
        # a search towards several candidates failed, and then a search
        # towards one of them succeeded
        outcomes = [(len(p), res.equivalent) for _, p, res in record.calls]
        first = next(i for i, (n, found) in enumerate(outcomes) if n > 1 and not found)
        assert (1, True) in outcomes[first + 1:]
        assert rep.searches == len(outcomes)
        assert bisim_driver(o, q, max_depth=12).ok


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
