"""In-memory spans around the calls into each homsim layer.

A traced round replaces each traced name in the module where its caller
looks it up (homsim.cli imports load_config, simulate_histogram and the
peak-area functions by name), records one span per call and puts every
name back afterwards. Spans carry the span that was open in the same
thread when they started, so a layer's self time is its duration minus
its children's. Block stages run in worker threads when n_jobs > 1; their
spans have no parent and their times add up across threads (busy time).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict

# (module, attribute, span name). Private block stages may disappear in a
# refactor; a name that is missing is reported as absent, not as an error.
PATCHES = [
    ("homsim.cli", "cmd_simulate", "cli.cmd"),
    ("homsim.cli", "cmd_sweep", "cli.cmd"),
    ("homsim.cli", "cmd_fit", "cli.cmd"),
    ("homsim.cli", "load_config", "config.load_config"),
    ("homsim.cli", "simulate_histogram", "montecarlo.simulate_histogram"),
    ("homsim.cli", "analytic_visibility", "montecarlo.analytic_visibility"),
    ("homsim.montecarlo", "analytic_visibility", "montecarlo.analytic_visibility"),
    ("homsim.montecarlo", "visibility_inhom_quadrature", "model.visibility_inhom_quadrature"),
    ("homsim.model", "integrate_1d", "specfun.integrate_1d"),
    ("homsim.cli", "peak_areas", "analysis.peak_areas"),
    ("homsim.cli", "g2_indist_double_pulse", "analysis.peak_areas"),
    ("homsim.fitting", "nlls", "fitting.nlls"),
    ("homsim.montecarlo", "_mode_detections", "montecarlo.mode_detections"),
    ("homsim.montecarlo", "_apply_detector", "montecarlo.detector"),
    ("homsim.montecarlo", "_correlate", "montecarlo.correlate"),
]


def _count(name, args, result):
    """Work counted at a span boundary."""
    if name == "fitting.nlls":
        return getattr(result, "iterations", 0)
    if name == "montecarlo.correlate":
        return len(args[0])  # detections after the detector model
    return 0


class Tracer:
    """Collects spans; install() patches the traced names, uninstall()
    restores them."""

    def __init__(self):
        self.spans = []  # (id, parent, name, thread, start, end, count)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []
        self.absent = set()

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def call(self, name, fn, *args, **kwargs):
        sid = next(self._ids)
        st = self._stack()
        parent = st[-1] if st else None
        st.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            st.pop()
        self.spans.append((sid, parent, name, threading.get_ident(), t0, t1,
                           _count(name, args, result)))
        return result

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self, modules):
        for mod_name, attr, name in PATCHES:
            mod = modules[mod_name]
            if not hasattr(mod, attr):
                self.absent.add(name)
                continue
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrapper(name, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def totals(self):
        """Per span name: summed duration, call count, summed work count;
        plus the self time of cli.cmd spans."""
        dur = defaultdict(float)
        calls = defaultdict(int)
        work = defaultdict(int)
        by_id = {}
        for sid, parent, name, _, t0, t1, cnt in self.spans:
            dur[name] += t1 - t0
            calls[name] += 1
            work[name] += cnt
            by_id[sid] = name
        child_of_cli = sum(t1 - t0 for _, parent, _, _, t0, t1, _ in self.spans
                           if parent is not None and by_id.get(parent) == "cli.cmd")
        return dur, calls, work, dur["cli.cmd"] - child_of_cli


class NullTracer:
    """Untraced rounds call straight through."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)
