"""The bisimulation driver against a reference copy of the driver it
replaced: each side reduced once and one expansion cache per call must
leave every report and every search outcome as they were."""

import pytest

from lmtool import drivers, equivalence
from lmtool.drivers import BisimReport, bisim_driver
from lmtool.equivalence import AXIOMS, ExpansionCache, axiom_instances, equiv
from lmtool.generators import gen_equiv_pair
from lmtool.reduction import meaningful_reducts
from lmtool.syntax import Abs, Mu, Named, Var, canonical_key, print_object


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
                    f" {'.'.join(map(str, path.steps))} of"
                    f" {print_object(a)} reaches {print_object(a2)},"
                    f" unmatched by {print_object(b)}"
                )

    match_side(o, p, "left")
    match_side(p, o, "right")
    return report


def outcome(res):
    cert = res.certificate.render() if res.certificate else None
    return res.status, res.states, res.reason, cert


@pytest.fixture(scope="module")
def pairs():
    return [
        gen_equiv_pair(seed=1000 * i + s, axiom=ax, size=9)
        for i, ax in enumerate(AXIOMS)
        for s in range(10)
    ]


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

    first = cache.instances(key, shadowing)
    assert first == axiom_instances(shadowing, expansive=False)
    assert not any(ax.name == "pp" for ax, _ in first)
    # same key, other binder names: not served from the entry
    second = cache.instances(key, distinct)
    assert second == axiom_instances(distinct, expansive=False)
    assert any(ax.name == "pp" for ax, _ in second)
    assert cache.hits == 0
    # an equal state made of other nodes is served
    assert cache.instances(key, _pp_state("z", "x")) is second
    assert cache.hits == 1

    target = next(r for ax, r in second if ax.name == "pp")
    for o in (shadowing, distinct):
        shared = equiv(o, target, expansive=False, cache=cache)
        assert outcome(shared) == outcome(equiv(o, target, expansive=False))


def test_cache_serves_only_non_expansive_searches_without_ren():
    o = _pp_state("z", "x")
    for setting in ({}, {"expansive": False, "include_ren": True}):
        with pytest.raises(ValueError):
            equiv(o, o, cache=ExpansionCache(), **setting)
