"""Per-layer spans recorded from outside the package.

The tracer rebinds module attributes (``greenbound.cli.schur_decompose``,
``greenbound.green.matrix_exp``, ...) to wrappers that time each call, so
the package itself is unchanged.  A name imported into several modules is
rebound in each of them.  Spans stay in memory as flat lists and are only
aggregated when the run ends: a layer's self time is its span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import greenbound.bounds as bounds
import greenbound.cli as cli
import greenbound.green as green
import greenbound.matcore as matcore
import greenbound.schur as schur

# span name -> [(owner, attribute), ...]; the owner's attribute is rebound
TIMED = {
    "cli.load_matrix": [(cli, "load_matrix")],
    "cli.Problem": [(cli.Problem, "__init__")],
    "cli.Problem.row": [(cli.Problem, "row")],
    "schur.schur_decompose": [(cli, "schur_decompose"),
                              (schur, "schur_decompose")],
    "schur.hessenberg": [(schur, "hessenberg")],
    "green.spectral_projectors": [(green, "spectral_projectors")],
    "green.GreenKernel.at": [(green.GreenKernel, "at")],
    "green.matrix_exp": [(green, "matrix_exp")],
    "matcore.induced_norm": [(m, "induced_norm")
                             for m in (cli, green, schur, matcore, bounds)],
    "bounds.triangular_bound": [(bounds, "triangular_bound")],
    "bounds.entrywise_bound": [(bounds, "entrywise_bound")],
    "bounds.van_loan_bound": [(bounds, "van_loan_bound")],
    "bounds.qtds18_bound": [(bounds, "qtds18_bound")],
}
# called too often to time without distorting the caller; counted only
COUNTED = {"bounds.conv_power_closed": [(bounds, "conv_power_closed")]}


class Tracer:
    def __init__(self):
        self.names = []      # per span: name
        self.starts = []
        self.ends = []
        self.parents = []    # index of the enclosing span, or -1
        self.counts = Counter()
        self._stack = []
        self._saved = []

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a span named ``name``."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for name, sites in table.items():
                for owner, attr in sites:
                    orig = owner.__dict__[attr]
                    self._saved.append((owner, attr, orig))
                    setattr(owner, attr, make(name, orig))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def summary(self) -> dict:
        """name -> {"calls", "total_s", "self_s"} over all recorded spans."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, name in enumerate(self.names):
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
        for name, count in self.counts.items():
            out[name]["calls"] += count
        return dict(out)
