"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bisim --seed 1 --seconds 25 --trace 0

Run it from the repository root: it imports lmtool from ./src and fails
when that is missing.  One process, one thread, no subprocesses.

Untraced (--trace 0): the corpus is built from the seed, then timed in
passes over the whole corpus until --seconds have gone by (at least two
passes).  Before each pass gc.collect() runs; GC stays on.  A verdict's time
is its mean over the passes.  After a pass the corpus is built again, at
least once and then while the builds took under a tenth of the run; setup_s
is the median build.  Between verdicts, at most every 0.1 s, a fixed
calibration job is timed, and timing metrics are scaled by
CALIBRATION_REF_S / its mean time, which takes out how fast the shared
machine happened to run.  The outputs of the first pass are checked,
untimed, and every later pass must give the same verdicts.

Traced (--trace 1): untraced and traced passes alternate; the traced passes
give the per-layer metrics (unscaled), and their mean times against the
untraced ones give the tracing overhead, which goes to the result file.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the same goes, with details, to
perfbench/results/<workload>-seed<seed>[-trace].json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")

# The calibration job's mean time on a 2-core Xeon VM under Python 3.11;
# timing metrics are scaled to it.
CALIBRATION_REF_S = 0.003
CALIBRATE_EVERY_S = 0.1  # between verdicts, at most this often

MIN_PASSES = 2
MIN_BUILDS = 2
BUILD_SHARE = 0.1  # more builds while they took less than this share of the run

END_TO_END_UNITS = {
    "verdicts_per_s": "1/s",
    "verdict_ms.p50": "ms",
    "verdict_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_lmtool() -> None:
    """Put ./src first on the path and make sure lmtool comes from there."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "lmtool", "__init__.py")):
        sys.exit(f"run.py: no lmtool sources under {src}; run from the repository root")
    sys.path.insert(0, src)
    import lmtool

    if not os.path.abspath(lmtool.__file__).startswith(src + os.sep):
        sys.exit(f"run.py: lmtool was imported from {lmtool.__file__}, not {src}")


@dataclass(frozen=True)
class VerdictError:
    """A verdict that raised instead of returning."""

    reason: str


class Run:
    """One workload on one seed: builds, passes and their results."""

    def __init__(self, workload, seed: int):
        self.w = workload
        self.seed = seed
        self.corpus = None
        self.builds: list[float] = []
        self.same_inputs = True
        self.first_outputs: list = []
        self.times: list[list[float]] = []  # per pass, per verdict
        self.summaries: list[list] = []  # per pass, per verdict
        self.calib: list[float] = []  # calibration job times, in run order

    def build(self) -> None:
        gc.collect()
        t0 = time.perf_counter()
        corpus = self.w.build(self.seed)
        self.builds.append(time.perf_counter() - t0)
        if self.corpus is None:
            self.corpus = corpus
        elif corpus != self.corpus:
            self.same_inputs = False

    def timed_pass(self) -> tuple[list[float], float]:
        gc.collect()
        clock = time.perf_counter
        verdict, summary = self.w.verdict, self.w.summary
        times, summaries, outputs = [], [], []
        self.calib.append(calibrate())
        start = last_calib = clock()
        for item in self.corpus:
            if clock() - last_calib >= CALIBRATE_EVERY_S:
                self.calib.append(calibrate())
                last_calib = clock()
            t0 = clock()
            try:
                out = verdict(item)
            except Exception as e:  # counted as a failed verdict
                out = VerdictError(f"{type(e).__name__}: {e}")
            times.append(clock() - t0)
            summaries.append(out if isinstance(out, VerdictError) else summary(out))
            if not self.first_outputs:
                outputs.append(out)
        if not self.first_outputs:
            self.first_outputs = outputs
        self.summaries.append(summaries)
        return times, clock() - start

    def check(self) -> tuple[int, int, list[str], list[str]]:
        """(attempted, failed, unexpected failures, expected failures)."""
        problems = []
        for item, out in zip(self.corpus, self.first_outputs):
            problems.append(out.reason if isinstance(out, VerdictError) else self.w.check(item, out))
        failed = 0
        unexpected, expected = {}, {}
        for summaries in self.summaries:
            for item, problem, s, s0 in zip(self.corpus, problems, summaries, self.summaries[0]):
                if problem is None and s != s0:
                    problem = "verdict differs between passes"
                if problem is None:
                    continue
                failed += 1
                target = expected if item.known_fault else unexpected
                target[item.label] = f"{item.label}: {problem}"
        attempted = len(self.corpus) * len(self.summaries)
        return attempted, failed, list(unexpected.values()), list(expected.values())


def calibration_job() -> int:
    """Fixed pure-Python work that shares no code with lmtool: nested tuples,
    dict copies, recursion and hashing, the kind of work lmtool's checks do."""

    def tree(d):
        return (d,) if d == 0 else (d, tree(d - 1), tree(d - 1))

    def walk(t, env):
        if len(t) == 1:
            return env.get(t[0], t[0])
        inner = {**env, t[0]: f"%{len(env)}"}
        return hash((walk(t[1], inner), walk(t[2], env), t[0]))

    return walk(tree(10), {}) ^ walk(tree(10), {})


def calibrate() -> float:
    """Seconds the calibration job takes now, with GC off so that a
    collection of the corpus's objects does not land in it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        calibration_job()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def mean_times(times: list[list[float]]) -> list[float]:
    """Each verdict's mean time over the passes."""
    return [statistics.fmean(ts) for ts in zip(*times)]


def untraced(run: Run, seconds: float, details: dict) -> dict:
    start = time.perf_counter()
    deadline = start + seconds
    run.build()
    while True:
        times, took = run.timed_pass()
        run.times.append(times)
        elapsed = time.perf_counter() - start
        if len(run.builds) < MIN_BUILDS or sum(run.builds) < BUILD_SHARE * elapsed:
            run.build()
        if len(run.times) >= MIN_PASSES and deadline - time.perf_counter() < took / 2:
            break
    mean = mean_times(run.times)
    raw = {
        "verdicts_per_s": len(mean) / sum(mean),
        "verdict_ms.p50": statistics.median(mean) * 1e3,
        "verdict_ms.p90": statistics.quantiles(mean, n=10)[8] * 1e3,
        "setup_s": statistics.median(run.builds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # below 1 when the machine ran slower than the reference during the run
    scale = CALIBRATION_REF_S / statistics.fmean(run.calib)
    details["raw"] = raw
    details["calibration_s"] = run.calib
    values = {name: value * scale for name, value in raw.items()}
    values["verdicts_per_s"] = raw["verdicts_per_s"] / scale
    values["peak_rss_mb"] = raw["peak_rss_mb"]
    return values


def traced(run: Run, seconds: float, details: dict) -> dict:
    import layers

    tracer = layers.Tracer()
    deadline = time.perf_counter() + seconds
    tracer.install()
    run.build()
    tracer.uninstall()
    setup = tracer.take("setup")
    plain, traced_times, traced_layers = [], [], []
    while True:
        times, took_plain = run.timed_pass()
        plain.append(times)
        tracer.phase = "verdict"
        tracer.install()
        try:
            times, took_traced = run.timed_pass()
        finally:
            tracer.uninstall()
        traced_times.append(times)
        traced_layers.append(tracer.take("verdict"))
        if deadline - time.perf_counter() < (took_plain + took_traced) / 2:
            break
    run.times = plain + traced_times
    counts = [(calls, counters) for calls, _, counters in traced_layers]
    details["counts_repeat"] = all(c == counts[0] for c in counts)
    details["trace_overhead"] = sum(mean_times(traced_times)) / sum(mean_times(plain)) - 1
    details["traced_passes"] = len(traced_times)
    return layers.layer_metrics(setup, traced_layers)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    import_lmtool()
    import corpora

    if args.workload not in corpora.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(corpora.WORKLOADS)}")
    run = Run(corpora.WORKLOADS[args.workload], args.seed)
    details: dict = {}
    if args.trace:
        import layers

        values = traced(run, args.seconds, details)
        units = dict(layers.metric_names())
    else:
        values = untraced(run, args.seconds, details)
        units = END_TO_END_UNITS
    attempted, failed, unexpected, expected = run.check()
    correct = run.same_inputs and not unexpected and details.get("counts_repeat", True)

    raw = details.get("raw", {})
    for name, value in values.items():
        note = f" (as timed: {raw[name]:.6g})" if name in raw and raw[name] != value else ""
        print(f"{name}: {value:.6g} {units[name]}{note}")
    print(
        f"{args.workload} seed {args.seed}: {len(run.corpus)} verdicts x {len(run.times)}"
        f" passes, {attempted} attempted, {failed} failed"
    )
    if "trace_overhead" in details:
        print(f"tracing overhead: {details['trace_overhead']:+.1%} on the mean pass times")
    for line in unexpected[:5] + expected[:5]:
        print("failed", line)
    if not run.same_inputs:
        print("the corpus came out different when built again from the same seed")
    if not details.get("counts_repeat", True):
        print("per-layer counts differ between traced passes")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    with open(os.path.join(RESULTS, stem + ".json"), "w") as fh:
        json.dump(
            dict(
                result,
                workload=args.workload,
                seed=args.seed,
                verdicts=len(run.corpus),
                passes=len(run.times),
                builds_s=run.builds,
                failures=unexpected + expected,
                python=sys.version.split()[0],
                nproc=os.cpu_count(),
                **details,
            ),
            fh,
            indent=1,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
