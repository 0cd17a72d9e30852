"""Tests of the benchmark itself: wrong outputs are counted as failed, the
known net fault is failed but expected, per-layer counts repeat exactly,
and BENCHMARK.json names every metric the runs print."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import corpora  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from corpora import Item  # noqa: E402
from lmtool import syntax  # noqa: E402


def run_items(workload, items):
    r = run.Run(workload, seed=0)
    r.corpus = items
    r.timed_pass()
    r.timed_pass()
    return r.check()


def test_sigma_pair_with_a_renamed_free_variable_fails(monkeypatch):
    # the wrong pair is caught by the sigma-step check; small search bounds
    # only keep its hopeless search short
    monkeypatch.setattr(corpora, "SIGMA_BOUNDS", dict(max_states=300, max_depth=6))
    good = corpora.build_sigma(3, pairs={"sigma1": 1})[0]
    lhs, rhs, o, p = good.data
    x = sorted(syntax.free_vars(p))[0]
    p2 = syntax.rename_free_var(p, x, x + "renamed")
    bad = Item("bad", (lhs, syntax.print_object(p2), o, p2))
    attempted, failed, unexpected, expected = run_items(corpora.SIGMA, [good, bad])
    assert (attempted, failed) == (4, 2)
    assert [line.split(":")[0] for line in unexpected] == ["bad"] and not expected


def test_bisim_pair_with_an_unrelated_right_side_fails():
    items = corpora.build_bisim(3, per_axiom=1)
    theta = next(i for i in items if i.label.startswith("theta"))
    rho = next(i for i in items if i.label.startswith("rho"))
    o, _, axiom = theta.data
    bad = Item("bad", (o, rho.data[0], axiom))
    attempted, failed, unexpected, _ = run_items(corpora.BISIM, [theta, bad])
    assert (attempted, failed) == (4, 2)
    assert [line.split(":")[0] for line in unexpected] == ["bad"]


def test_known_net_fault_is_failed_but_expected():
    faults = corpora.known_fault_steps()
    assert all(corpora.drops_bound_occurrence(*i.data[2:4]) for i in faults)
    attempted, failed, unexpected, expected = run_items(corpora.NETS, faults)
    assert (attempted, failed) == (14, 14)
    assert not unexpected and len(expected) == 7


def test_seeded_net_steps_avoid_the_fault_class():
    items = corpora.build_nets(7, steps=60, pairs_per_axiom=1)
    steps = [i for i in items if i.data[0] == "step" and not i.known_fault]
    assert len(steps) == 60
    assert not any(corpora.drops_bound_occurrence(*i.data[2:4]) for i in steps)


def test_seeded_net_steps_pass_on_a_seed_that_hit_an_erasing_r_step():
    # seed 2093155974 draws an erasing R step that drops a lambda-bound
    # variable; the fault's class must keep it out of the seeded steps
    items = corpora.build_nets(2093155974, pairs_per_axiom=0)
    seeded = [i for i in items if not i.known_fault]
    assert len(seeded) == corpora.NETS_STEPS
    _, failed, unexpected, _ = run_items(corpora.NETS, seeded)
    assert failed == 0 and not unexpected


COUNT_SCRIPT = """
import json, sys
sys.path[:0] = ['src', 'perfbench']
import corpora, layers
small = {
    'bisim': lambda: corpora.build_bisim(5, per_axiom=1),
    'sigma-ren': lambda: corpora.build_sigma(5, pairs={f'sigma{k}': 1 for k in range(1, 9)}),
    'nets': lambda: corpora.build_nets(5, steps=20, pairs_per_axiom=1),
    'confluence': lambda: corpora.build_confluence(5, terms={r: 2 for r in range(1, 6)}),
}
tracer = layers.Tracer()
for name, build in small.items():
    tracer.phase = 'setup ' + name
    tracer.install()
    items = build()
    tracer.phase = name
    for item in items:
        corpora.WORKLOADS[name].verdict(item)
    tracer.uninstall()
out = {phase: [dict(tracer.calls[phase]), dict(tracer.counts[phase])] for phase in tracer.calls}
print(json.dumps(out, sort_keys=True))
"""


def traced_counts(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, "-c", COUNT_SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(out.stdout)


def test_layer_counts_repeat_across_runs_and_hash_seeds():
    first = traced_counts("0")
    assert first["bisim"][0]["equivalence.equiv"] > 0
    assert first["sigma-ren"][0]["syntax.parse"] == 16
    assert first["confluence"][1]["reduction.reduction_graph.states"] > 0
    assert traced_counts("0") == first
    assert traced_counts("12345") == first


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(corpora.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == dict(layers.metric_names())


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nets", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
