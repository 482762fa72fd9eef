"""Spans at the package's module boundaries, installed from outside.

``install`` replaces every public function of each layer module, every
public method (and an explicitly written ``__eq__``) of the classes those
modules define, and the two certification suites of ``stein``, with a
timing wrapper. It then points every module attribute bound to an
original at its wrapper, including the names rebound by ``from .x import
y`` and the package namespace. Nothing is unwrapped: install only in a
process that runs one traced job.

Self time is a span's wall time minus the wall time of its child spans.
The sweep's thread pool runs spans in worker threads; their root spans
are serialised by one lock and counted as children of the span that is
waiting in the main thread. Under the interpreter lock those threads take
turns anyway, and serialising them makes self times partition wall time
instead of counting each thread's wait for the lock as its own work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("walks", "normal", "metrics", "stein", "characterization",
          "simulate", "cli")
SUITES = {"stein": ("_indicator_bound_report", "_lipschitz_bound_report")}
SCALAR_PROBED = ("normal.phi", "normal.cap_phi", "normal.normal_sf")
SCALAR_CALLERS = ("stein", "metrics")
LATENCIES = ("metrics.bound_check",)

# (name, unit) of every per-layer metric, in the order they are printed.
PER_LAYER = (
    ("walks.pmf_build_ms", "ms"),
    ("walks.float_cdf_ms", "ms"),
    ("walks.float_cdf_calls", "count"),
    ("walks.enumerate_ms", "ms"),
    ("walks.pmf_eq_ms", "ms"),
    ("walks.self_ms", "ms"),
    ("normal.scalar_calls", "count"),
    ("normal.self_ms", "ms"),
    ("metrics.kolmogorov_self_ms", "ms"),
    ("metrics.wasserstein_self_ms", "ms"),
    ("metrics.bound_check_p50_ms", "ms"),
    ("metrics.bound_check_p99_ms", "ms"),
    ("metrics.quantile_route_ms", "ms"),
    ("metrics.auxiliary_ms", "ms"),
    ("metrics.self_ms", "ms"),
    ("stein.indicator_suite_ms", "ms"),
    ("stein.lipschitz_suite_ms", "ms"),
    ("stein.solve_fh_self_ms", "ms"),
    ("stein.fz_calls", "count"),
    ("stein.solve_fh_calls", "count"),
    ("stein.mu_h_calls", "count"),
    ("stein.self_ms", "ms"),
    ("characterization.residuals_ms", "ms"),
    ("characterization.recover_ms", "ms"),
    ("characterization.self_ms", "ms"),
    ("simulate.walks_per_s", "1/s"),
    ("simulate.counts_ms", "ms"),
    ("simulate.self_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("trace.verdict_s", "s"),
    ("trace.untraced_verdict_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)

# The counters that must repeat exactly between two runs of one seed.
EXACT_COUNTERS = ("walks.float_cdf_calls", "normal.scalar_calls",
                  "stein.fz_calls", "stein.solve_fh_calls",
                  "stein.mu_h_calls")


class Tracer:
    def __init__(self):
        # per span name: [calls, self ns, local ns, inclusive ns], where self
        # excludes all child spans and local only those of other layers
        self.spans = {}
        self.layer_self_ns = Counter()
        self.latencies_ns = defaultdict(list)
        self.scalar_calls = 0
        self._local = threading.local()
        self._main_stack = []
        self._serial = threading.Lock()

    def _new_stack(self) -> list:
        is_main = threading.current_thread() is threading.main_thread()
        self._local.stack = self._main_stack if is_main else []
        return self._local.stack

    def wrap(self, fn, name: str, layer: str):
        import numpy as np

        clock = time.perf_counter_ns
        local_state = self._local
        main_stack = self._main_stack
        serial_lock = self._serial
        probe = name in SCALAR_PROBED
        latencies = self.latencies_ns[name] if name in LATENCIES else None
        stats = self.spans.setdefault(name, [0, 0, 0, 0])
        layer_self = self.layer_self_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            try:
                stack = local_state.stack
            except AttributeError:
                stack = self._new_stack()
            serial = not stack and stack is not main_stack
            if serial:
                serial_lock.acquire()
                parent = main_stack[-1] if main_stack else None
            else:
                parent = stack[-1] if stack else None
            if probe and parent is not None and parent[0] in SCALAR_CALLERS:
                x = args[0] if args else kwargs["x"]
                if type(x) is float or np.ndim(x) == 0:
                    self.scalar_calls += 1
            frame = [layer, 0, 0]  # layer, child ns, same-layer local ns
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                own = duration - frame[1]
                local = own + frame[2]
                stats[0] += 1
                stats[1] += own
                stats[2] += local
                stats[3] += duration
                layer_self[layer] += own
                if latencies is not None:
                    latencies.append(duration)
                if parent is not None:
                    parent[1] += duration
                    if parent[0] == layer:
                        parent[2] += local
                if serial:
                    serial_lock.release()

        return span

    def calls(self) -> dict:
        return {name: st[0] for name, st in self.spans.items() if st[0]}

    def layer_metrics(self, trials: int) -> dict:
        """Every per-layer metric the traced job determines."""
        def total(field, *names):
            return sum(self.spans[n][field] for n in names if n in self.spans)

        def count(name):
            return total(0, name)

        def ms(field, *names):
            return total(field, *names) / 1e6

        own, local, incl = 1, 2, 3

        def percentile(name, q):
            values = sorted(self.latencies_ns[name])
            if not values:
                return 0.0
            return values[min(len(values) - 1, int(q * len(values)))] / 1e6

        counts_s = total(incl, "simulate.empirical_pmf_counts") / 1e9
        out = {
            "walks.pmf_build_ms": ms(local, "walks.pmf_returns",
                                     "walks.pmf_max", "walks.pmf_halfmax",
                                     "walks.pmf_signchanges"),
            "walks.float_cdf_ms": ms(local,
                                     "walks.ExactPMF.float_cdf"),
            "walks.float_cdf_calls": count("walks.ExactPMF.float_cdf"),
            "walks.enumerate_ms": ms(local, "walks.brute_force_pmf"),
            "walks.pmf_eq_ms": ms(local, "walks.ExactPMF.__eq__"),
            "normal.scalar_calls": self.scalar_calls,
            "metrics.kolmogorov_self_ms": ms(own,
                                             "metrics.kolmogorov_exact"),
            "metrics.wasserstein_self_ms": ms(own,
                                              "metrics.wasserstein_exact"),
            "metrics.bound_check_p50_ms": percentile("metrics.bound_check",
                                                     0.50),
            "metrics.bound_check_p99_ms": percentile("metrics.bound_check",
                                                     0.99),
            "metrics.quantile_route_ms": ms(local,
                                            "metrics.wasserstein_quantile"),
            "metrics.auxiliary_ms": ms(local,
                                       "metrics.auxiliary_bounds"),
            "stein.indicator_suite_ms": ms(incl,
                                           "stein._indicator_bound_report"),
            "stein.lipschitz_suite_ms": ms(incl,
                                           "stein._lipschitz_bound_report"),
            "stein.solve_fh_self_ms": ms(own, "stein.solve_fh"),
            "stein.fz_calls": count("stein.fz"),
            "stein.solve_fh_calls": count("stein.solve_fh"),
            "stein.mu_h_calls": count("stein.mu_h"),
            "characterization.residuals_ms": ms(
                local, "characterization.indicator_residuals"),
            "characterization.recover_ms": ms(
                local, "characterization.recover_pmf"),
            "simulate.walks_per_s": trials / counts_s if counts_s else 0.0,
            "simulate.counts_ms": ms(local,
                                     "simulate.empirical_pmf_counts"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = self.layer_self_ns[layer] / 1e6
        return out


def _defined_in(fn, module) -> bool:
    return (inspect.isfunction(fn) and fn.__module__ == module.__name__
            and fn.__code__.co_filename == module.__file__)


def install(package) -> Tracer:
    """Wrap the layer boundaries of an imported package; return the tracer."""
    tracer = Tracer()
    modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
               for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if _defined_in(obj, module) and (
                    not attr.startswith("_") or attr in SUITES.get(layer, ())):
                wrappers[id(obj)] = tracer.wrap(obj, f"{layer}.{attr}", layer)
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for meth, fn in list(vars(obj).items()):
                    if _defined_in(fn, module) and (
                            not meth.startswith("_") or meth == "__eq__"):
                        setattr(obj, meth, tracer.wrap(
                            fn, f"{layer}.{obj.__name__}.{meth}", layer))
    for module in (package, *modules.values()):
        for attr, obj in list(vars(module).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                setattr(module, attr, wrapper)
    return tracer
