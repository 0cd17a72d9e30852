"""Per-layer tracing for the traced run.

``Tracer.install()`` replaces each listed lmtool function by a wrapper at
every binding it has: the defining module and every module that imported
the name (``from .reduction import is_canonical`` copies it into
``equivalence``).  The benchmark itself calls lmtool only through module
attributes, so those bindings cover it.  Each wrapper counts calls and self
time (its duration minus the time of wrapped calls nested in it).  Results
stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

# The layers timed during the verdict passes, as <module>.<function>.
LAYERS = (
    "syntax.parse",
    "syntax.print_object",
    "syntax.canonical_key",
    "reduction.is_canonical",
    "reduction.canon",
    "reduction.meaningful_reducts",
    "reduction.meaningful_redexes",
    "reduction.lm_redexes",
    "reduction.plain_reducts",
    "reduction.reduction_graph",
    "equivalence.equiv",
    "equivalence.axiom_instances",
    "typing.check_object",
    "ppn.translate_derivation",
    "ppn.mult_nf",
    "ppn.full_nf",
    "ppn.net_equiv",
    "ppn.simulation_check",
    "ppn.soundness_check",
    "drivers.bisim_driver",
    "drivers.confluence_check",
)

# The corpus builders, traced during one build of the corpus.  Setup-phase
# metrics carry a "setup." prefix and cover the builders and the layers
# that dominate them.
BUILDERS = (
    "generators.gen_equiv_pair",
    "generators.gen_typed",
    "drivers.sigma_pair",
    "drivers.typed_step_cases",
    "drivers.TypedPairs.build",
)
SETUP_LAYERS = BUILDERS + (
    "equivalence.axiom_instances",
    "reduction.is_canonical",
    "reduction.canon",
    "reduction.meaningful_redexes",
    "reduction.lm_redexes",
    "syntax.canonical_key",
)

COUNTERS = (
    "equivalence.equiv.states",
    "equivalence.equiv.not_within_bounds",
    "equivalence.equiv.useful_ratio",
    "equivalence.axiom_instances.results",
    "reduction.reduction_graph.states",
    "drivers.bisim_retry_searches",
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, with its unit."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_ms", "ms")]
    for layer in SETUP_LAYERS:
        out += [(f"setup.{layer}.calls", "count"), (f"setup.{layer}.self_ms", "ms")]
    out += [(c, "ratio" if c.endswith("ratio") else "count") for c in COUNTERS]
    return out


def _resolve(qualname: str):
    """(owner, attribute, function) for "module.function" or
    "module.Class.method" inside lmtool."""
    parts = qualname.split(".")
    mod = importlib.import_module("lmtool." + parts[0])
    if len(parts) == 3:
        cls = getattr(mod, parts[1])
        return cls, parts[2], cls.__dict__[parts[2]]
    return mod, parts[1], getattr(mod, parts[1])


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.calls = defaultdict(lambda: defaultdict(int))  # phase -> layer -> n
        self.self_s = defaultdict(lambda: defaultdict(float))
        self.counts = defaultdict(lambda: defaultdict(int))  # phase -> counter -> n
        self._stack: list[float] = []  # child time of each open wrapped call
        self._bisim_budget: list[int] = []  # max_states of open bisim_driver calls
        self._patches: list[tuple[object, str, object]] = []

    # --- installing ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "lmtool" or name.startswith("lmtool."))
        ]
        for qualname in LAYERS + BUILDERS:
            owner, attr, fn = _resolve(qualname)
            wrapper = self._wrap(qualname, fn)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for m in modules:
                for name, val in list(vars(m).items()):
                    if val is fn:
                        self._patch(m, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, layer: str, fn):
        sig = inspect.signature(fn)
        tracer = self
        clock = time.perf_counter

        def bound(args, kwargs):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            return b.arguments

        def wrapper(*args, **kwargs):
            if layer == "drivers.bisim_driver":
                tracer._bisim_budget.append(bound(args, kwargs)["max_states"])
            stack = tracer._stack
            stack.append(0.0)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                phase = tracer.phase
                tracer.calls[phase][layer] += 1
                tracer.self_s[phase][layer] += dur - child
                if layer == "drivers.bisim_driver":
                    tracer._bisim_budget.pop()
            tracer._observe(layer, args, kwargs, res, bound)
            return res

        return wrapper

    def _observe(self, layer, args, kwargs, res, bound) -> None:
        c = self.counts[self.phase]
        if layer == "equivalence.equiv":
            c["equivalence.equiv.states"] += res.states
            c["equivalence.equiv.not_within_bounds"] += not res.equivalent
            c["equivalence.equiv.equivalent"] += res.equivalent
            # bisim_driver's slower retry raises max_states above its own budget
            if self._bisim_budget and bound(args, kwargs)["max_states"] > self._bisim_budget[-1]:
                c["drivers.bisim_retry_searches"] += 1
        elif layer == "equivalence.axiom_instances":
            c["equivalence.axiom_instances.results"] += len(res)
        elif layer == "reduction.reduction_graph":
            c["reduction.reduction_graph.states"] += len(res[0])

    # --- reading ---------------------------------------------------------

    def take(self, phase: str) -> tuple[dict, dict, dict]:
        """Remove and return (calls, self seconds, counters) of one phase."""
        return (
            dict(self.calls.pop(phase, {})),
            dict(self.self_s.pop(phase, {})),
            dict(self.counts.pop(phase, {})),
        )


def layer_metrics(setup: tuple, passes: list[tuple]) -> dict[str, float]:
    """Per-layer metrics from the traced build and the traced passes.

    Counts are per pass (every pass repeats the same work, so they agree);
    self times are per pass too, the median over the passes."""
    s_calls, s_self, _ = setup
    calls, _, counts = passes[0]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_ms"] = statistics.median(p[1].get(layer, 0.0) for p in passes) * 1e3
    for layer in SETUP_LAYERS:
        out[f"setup.{layer}.calls"] = s_calls.get(layer, 0)
        out[f"setup.{layer}.self_ms"] = s_self.get(layer, 0.0) * 1e3
    n_equiv = calls.get("equivalence.equiv", 0)
    for name in COUNTERS:
        out[name] = counts.get(name, 0)
    out["equivalence.equiv.useful_ratio"] = (
        counts.get("equivalence.equiv.equivalent", 0) / n_equiv if n_equiv else 0.0
    )
    return out
