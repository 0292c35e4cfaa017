"""Per-layer tracing by wrapping latomo's public functions from outside.

A :class:`Tracer` patches each wrap point where its caller looks it up (for
example ``latomo.driver.ssatv2_pass`` and ``latomo.ssatv2.tv_value`` are
separate bindings), records call times and counts while installed, and puts
every binding back on uninstall.  A wrap point that no longer exists is
skipped, and the metrics that depend on it are reported as absent (``None``)
rather than failing the run.
"""

from __future__ import annotations

import importlib
import logging
import os
import time
import weakref
from collections import defaultdict

# (module, attribute path, event name).  Class attributes patch every instance.
WRAP_POINTS = (
    ("latomo.projector", "Projector.forward", "forward"),
    ("latomo.projector", "Projector.sart_update_view", "view_update"),
    ("latomo.tv", "backtracking_line_search", "line_search"),
    ("latomo.ssatv2", "backtracking_line_search", "line_search"),
    ("latomo.tv", "tv_value", "value"),
    ("latomo.ssatv2", "tv_value", "value"),
    ("latomo.tv", "tv_gradient", "gradient"),
    ("latomo.ssatv2", "tv_gradient", "gradient"),
    ("latomo.driver", "descent_steps", "reg"),
    ("latomo.driver", "ssatv1_pass", "ssatv1_pass"),
    ("latomo.driver", "ssatv2_pass", "ssatv2_pass"),
    ("latomo.driver", "make_pyramid_level", "level"),
    ("latomo.phantom", "rasterize", "rasterize"),
    ("latomo.cli", "rasterize", "rasterize"),
    ("latomo.phantom", "add_poisson_noise", "noise"),
    ("latomo.cli", "add_poisson_noise", "noise"),
    ("latomo.cli", "write_raw_image", "write"),
    ("latomo.cli", "write_raw", "write"),
    ("latomo.cli", "write_raw_sinogram", "write"),
    ("latomo.cli", "write_pgm16", "write"),
    ("latomo.cli", "write_pgm16_values", "write"),
    ("latomo.cli", "build_experiment", "config"),
)

# Per-layer metric -> (unit, events it needs).  Absent events make it None.
METRICS = {
    "projector.trace_s": ("s", {"forward"}),
    "projector.trace_rss_mb": ("MB", {"forward"}),
    "projector.forward_ms": ("ms", {"forward"}),
    "projector.sweep_ms": ("ms", {"view_update"}),
    "projector.view_update_us": ("us", {"view_update"}),
    "projector.view_updates": ("count", {"view_update"}),
    "tv.value_calls": ("count", {"line_search", "value"}),
    "tv.evals_per_step": ("evals/step", {"line_search", "value"}),
    "tv.gradient_ms": ("ms", {"gradient"}),
    "tv.line_search_ms": ("ms", {"line_search"}),
    "tv.failed_searches": ("count", {"line_search"}),
    "tv.steps_accepted": ("count", {"line_search"}),
    **{f"ssatv1.pass_ms.s{s}": ("ms", {"ssatv1_pass"}) for s in (1, 2, 4, 8, 16)},
    **{f"ssatv2.pass_ms.s{s}": ("ms", {"ssatv2_pass"}) for s in (1, 2, 4)},
    "ssatv2.level_ms": ("ms", {"level"}),
    "ssatv2.pullback_rises": ("count", {"ssatv2_pass"}),
    "ssatv2.rise_share": ("rises/step", {"ssatv2_pass"}),
    "driver.iter_ms": ("ms", set()),
    "driver.metrics_ms": ("ms", {"view_update", "reg", "ssatv1_pass", "ssatv2_pass"}),
    "driver.reg_ms": ("ms", {"view_update", "reg", "ssatv1_pass", "ssatv2_pass"}),
    "phantom.rasterize_ms": ("ms", {"rasterize"}),
    "phantom.noise_ms": ("ms", {"noise"}),
    "core.write_ms": ("ms", {"write"}),
    "cli.config_ms": ("ms", {"config"}),
    "trace.overhead_pct": ("%", set()),
}

PULLBACK_MESSAGE = "rose after pull-back"
_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE / 2**20


class _RiseCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.count = 0

    def emit(self, record):
        if PULLBACK_MESSAGE in record.getMessage():
            self.count += 1


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Installs the wraps for one workload repeat and turns what they saw
    into per-layer metrics."""

    def __init__(self):
        self.present: set[str] = set()
        self._saved = []
        self._traced = weakref.WeakSet()
        self._rises = _RiseCounter()
        self._log_state = None
        self.reset()

    def reset(self):
        self.busy = defaultdict(float)      # event -> seconds inside calls
        self.calls = defaultdict(int)       # event -> call count
        self.keyed = defaultdict(float)     # (event, scale) -> seconds
        self.trace = None                   # (seconds, RSS growth MB) of the first trace
        self.warm_forward = []
        self.sweeps, self.metrics, self.iters = [], [], []
        self.searches_failed = self.searches_ok = self.ssatv2_steps = 0
        self.values_in_search = 0
        self._depth = 0
        self._iter_start = self._first_view = self._last_view = self._last_reg = None
        self._rises.count = 0

    # -- install / uninstall ------------------------------------------------

    def __enter__(self):
        for module_name, path, event in WRAP_POINTS:
            try:
                owner, attr, original = _resolve(module_name, path)
            except (ImportError, AttributeError):
                continue
            self.present.add(event)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(event, original))
        log = logging.getLogger("latomo.ssatv2")
        self._log_state = (log.level, log.propagate)
        log.setLevel(logging.DEBUG)
        log.propagate = False
        log.addHandler(self._rises)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        log = logging.getLogger("latomo.ssatv2")
        log.removeHandler(self._rises)
        log.setLevel(self._log_state[0])
        log.propagate = self._log_state[1]

    def _wrap(self, event, original):
        clock = time.perf_counter
        tracer = self

        if event == "forward":
            def wrapper(projector, *args, **kwargs):
                first = projector not in tracer._traced
                rss = rss_mb() if first else 0.0
                start = clock()
                result = original(projector, *args, **kwargs)
                took = clock() - start
                if first:
                    tracer._traced.add(projector)
                    tracer.trace = tracer.trace or (took, rss_mb() - rss)
                else:
                    tracer.warm_forward.append(took)
                return result
            return wrapper

        if event == "view_update":
            def wrapper(*args, **kwargs):
                start = clock()
                if tracer._first_view is None:
                    tracer._first_view = start
                result = original(*args, **kwargs)
                tracer._last_view = end = clock()
                tracer.busy[event] += end - start
                tracer.calls[event] += 1
                return result
            return wrapper

        def wrapper(*args, **kwargs):
            tracer._depth += event == "line_search"
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._depth -= event == "line_search"
            end = clock()
            tracer.busy[event] += end - start
            tracer.calls[event] += 1
            tracer._observe(event, args, kwargs, result, end - start, end)
            return result
        return wrapper

    def _observe(self, event, args, kwargs, result, took, end):
        if event == "line_search":
            if result == 0.0:
                self.searches_failed += 1
            else:
                self.searches_ok += 1
        elif event == "value":
            self.values_in_search += self._depth > 0
        elif event in ("reg", "ssatv1_pass", "ssatv2_pass"):
            self._last_reg = end
            if event == "ssatv1_pass":
                scale = args[2] if len(args) > 2 else kwargs["s"]
                self.keyed[("ssatv1", scale)] += took
            elif event == "ssatv2_pass":
                level = args[1] if len(args) > 1 else kwargs["level"]
                self.keyed[("ssatv2", level.scale)] += took
                self.ssatv2_steps += len(result[1])

    # -- per-iteration boundaries (driven by run_reconstruction) ----------------

    def recon_start(self):
        self._iter_start = time.perf_counter()

    def iteration_end(self, index, values):
        end = time.perf_counter()
        if self._first_view is not None:
            self.sweeps.append(self._last_view - self._first_view)
            reg_end = max(self._last_view, self._last_reg or self._last_view)
            self.metrics.append(end - reg_end)
        self.iters.append(end - self._iter_start)
        self._iter_start = end
        self._first_view = self._last_reg = None

    # -- metrics ---------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Metrics for the repeat just traced.  A layer the workload never
        reached, or whose wrap point is gone, is None."""
        n_iter = len(self.iters)
        per_iter = 1e3 / n_iter if n_iter else None

        def mean_ms(values):
            return 1e3 * sum(values) / len(values) if values else None

        def busy_ms(event):
            return self.busy[event] * per_iter if self.calls[event] and per_iter else None

        def total_ms(event):
            return 1e3 * self.busy[event] if self.calls[event] else None

        searches = self.searches_ok + self.searches_failed
        iter_ms, sweep_ms, metrics_ms = mean_ms(self.iters), mean_ms(self.sweeps), mean_ms(self.metrics)
        reached_reg = self.calls["reg"] or self.calls["ssatv1_pass"] or self.calls["ssatv2_pass"]
        out = {
            "projector.trace_s": self.trace[0] if self.trace else None,
            "projector.trace_rss_mb": self.trace[1] if self.trace else None,
            "projector.forward_ms": mean_ms(self.warm_forward),
            "projector.sweep_ms": sweep_ms,
            "projector.view_update_us": (1e6 * self.busy["view_update"] / self.calls["view_update"]
                                         if self.calls["view_update"] else None),
            "projector.view_updates": self.calls["view_update"],
            "tv.value_calls": self.values_in_search if searches else None,
            "tv.evals_per_step": (self.values_in_search / self.searches_ok
                                  if self.searches_ok else None),
            "tv.gradient_ms": busy_ms("gradient"),
            "tv.line_search_ms": busy_ms("line_search"),
            "tv.failed_searches": self.searches_failed if searches else None,
            "tv.steps_accepted": self.searches_ok if searches else None,
            "ssatv2.level_ms": busy_ms("level"),
            "ssatv2.pullback_rises": self._rises.count if self.calls["ssatv2_pass"] else None,
            "ssatv2.rise_share": (self._rises.count / self.ssatv2_steps
                                  if self.ssatv2_steps else None),
            "driver.iter_ms": iter_ms,
            "driver.metrics_ms": metrics_ms if reached_reg else None,
            "driver.reg_ms": (iter_ms - sweep_ms - metrics_ms
                              if reached_reg and sweep_ms is not None else None),
            "phantom.rasterize_ms": total_ms("rasterize"),
            "phantom.noise_ms": total_ms("noise"),
            "core.write_ms": total_ms("write"),
            "cli.config_ms": total_ms("config"),
        }
        for variant, scales in (("ssatv1", (1, 2, 4, 8, 16)), ("ssatv2", (1, 2, 4))):
            for s in scales:
                took = self.keyed.get((variant, s))
                out[f"{variant}.pass_ms.s{s}"] = took * per_iter if took is not None and per_iter else None
        for name, (_, needs) in METRICS.items():
            if needs - self.present:
                out[name] = None
        return out
