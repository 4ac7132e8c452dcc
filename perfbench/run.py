"""greenbound benchmark: verified throughput and per-layer timings.

    python3 perfbench/run.py --workload tri-bounds --seed 1 --seconds 25 --trace 0

Builds the seeded inputs of one workload (``inputs.py``), then repeats its
fixed call mix in whole passes, in this process, through the public CLI
(``greenbound.cli.main``) or the library, checking every output against
benchmark-side references (``reference.py``).  Passes repeat until
``--seconds`` have elapsed and at least 100 calls were made, so that the p90
latency has ten samples beyond it.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the machine, versions, sample counts and unscaled figures.

Every reported time is stated at a reference machine speed measured by
``SpeedProbe``; README.md explains why.

``--trace 0`` reports the end-to-end metrics with no instrumentation.
``--trace 1`` alternates plain and traced passes (``tracing.py``) and reports
per-layer self times and counts, per end-to-end call, plus the tracing
overhead.  See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the load comes from a single
# process and a second thread would compete with it on a 2-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_CALLS = 100        # p90 needs ten calls beyond it
MAX_MEASURE_S = 120.0  # stop adding passes here, whatever the call count
SETUP_REPS = 3         # fresh interpreters per set-up measurement
IMPORT_REPS = 3        # fresh interpreters per -X importtime reading
REF_PROBE_S = 7.5e-4   # probe time that defines the reference speed
PROBE_REPS = 9         # probe samples on each side of a fresh interpreter

E2E_UNITS = {"setup_s": "s", "calls_per_s": "1/s", "call_ms_p50": "ms",
             "call_ms_p90": "ms", "ok_frac": "frac", "peak_rss_mb": "MB"}
# per-layer self times reported per end-to-end call
LAYER_TIMES = (
    "cli.load_matrix", "cli.Problem", "cli.Problem.row",
    "schur.schur_decompose", "schur.hessenberg",
    "green.spectral_projectors", "green.GreenKernel.at", "green.matrix_exp",
    "matcore.induced_norm",
    "bounds.triangular_bound", "bounds.entrywise_bound",
    "bounds.van_loan_bound", "bounds.qtds18_bound",
)
LAYER_COUNTS = ("schur.schur_decompose", "green.GreenKernel.at",
                "green.matrix_exp", "matcore.induced_norm",
                "bounds.conv_power_closed")


class SpeedProbe:
    """Tracks the machine's speed with a fixed benchmark-side computation.

    On a shared virtual machine the same single-threaded code can run 1.5x
    to 2.5x slower for tens of seconds at a time, in CPU time as much as in
    wall time, and different kinds of work slow down at different moments.
    The probe times equal shares of the three kinds of work the package does
    at these sizes: Python loops over small complex numpy products,
    big-integer factorial ratios, and interpreter-bound float arithmetic.
    It shares no code with the package.  A time measured next to probe
    samples is multiplied by ``REF_PROBE_S / median(samples)``, stating it
    at the speed where the probe takes ``REF_PROBE_S``.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.start = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))

    def sample(self) -> float:
        np = self.np
        x = self.start.copy()
        acc = 0.0
        t0 = time.perf_counter()
        for _ in range(30):
            x = x @ x
            x /= np.abs(x).sum()
        for k in range(100):
            m = 20 + k % 40
            acc += math.factorial(2 * m) / (math.factorial(m) ** 2 * 1.5 ** m)
        for i in range(3000):
            acc += i * 0.5
        return time.perf_counter() - t0

    def samples(self) -> list:
        return [self.sample() for _ in range(PROBE_REPS)]

    @staticmethod
    def scale(samples) -> float:
        return REF_PROBE_S / statistics.median(samples)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def fresh(probe, args, flags=()) -> tuple[float, float, str]:
    """Run ``args`` in a fresh interpreter, which must exit 0.

    Returns its wall time, the speed scale from probes taken just before
    and just after it, and its stderr.
    """
    before = probe.samples()
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, *args], cwd=ROOT,
                          env=_env(), capture_output=True, text=True,
                          timeout=60)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"fresh interpreter exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return wall, probe.scale(before + probe.samples()), proc.stderr


def setup_seconds(probe, setup_call) -> list:
    """Scaled fresh-interpreter set-up times.  Call after this process has
    imported greenbound, which writes the bytecode caches a returning CLI
    user already has."""
    return [wall * scale for wall, scale, _ in
            (fresh(probe, setup_call) for _ in range(SETUP_REPS))]


def import_seconds(probe) -> dict:
    """Scaled cumulative import times from ``-X importtime``, medians of
    fresh runs."""
    samples = {"greenbound": [], "greenbound.oracles": []}
    interp = []
    for _ in range(IMPORT_REPS):
        _, scale, err = fresh(probe, ["-c", "import greenbound"],
                              ("-X", "importtime"))
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) * 1e-6 * scale)
        wall, scale, _ = fresh(probe, ["-c", "pass"])
        interp.append(wall * scale)
    return {
        "setup.interpreter_s": statistics.median(interp),
        "setup.import_greenbound_s": statistics.median(samples["greenbound"]),
        "setup.import_oracles_s":
            statistics.median(samples["greenbound.oracles"]),
    }


class Runner:
    """Runs calls in-process and keeps their verified outcomes."""

    def __init__(self):
        import numpy as np
        import greenbound.cli as cli
        import greenbound.green as green
        import reference

        self.np, self.cli, self.green, self.reference = np, cli, green, reference
        self.rel_err_max = 0.0
        self.failures = Counter()

    def _execute(self, call):
        if call.argv is not None:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(call.argv)
            return code, out.getvalue()
        a, omega, c, t = call.lib
        np = self.np
        return self.green.bounded_solution(
            a, lambda s: np.exp(1j * omega * s) * c, t)

    def call(self, call, tracer=None) -> tuple[float, bool]:
        """(latency in s, whether the output was verified)."""
        root = "cli.main" if call.argv is not None else "lib.bounded_solution"
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = self._execute(call)
            else:
                result = tracer.span(root, self._execute, call)
        except Exception as exc:  # a crash is a failed call, not a stop
            latency = time.perf_counter() - t0
            self.failures[f"{call.label}: {type(exc).__name__}: {exc}"] += 1
            return latency, False
        latency = time.perf_counter() - t0
        error, rel = self.reference.verify(call.expect, result)
        self.rel_err_max = max(self.rel_err_max, rel)
        if error is not None:
            self.failures[f"{call.label}: {error}"] += 1
        return latency, error is None


class Tally:
    """Outcomes of whole passes of the mix, times scaled per pass."""

    def __init__(self):
        self.latencies = []  # scaled latencies of verified calls
        self.attempted = 0
        self.busy = 0.0      # scaled time spent inside calls
        self.raw_busy = 0.0
        self.probes = []

    def run_pass(self, runner, probe, calls, tracer=None):
        samples, times, oks = [], [], []
        for call in calls:
            samples.append(probe.sample())
            latency, ok = runner.call(call, tracer)
            times.append(latency)
            oks.append(ok)
        scale = probe.scale(samples)
        self.latencies += [t * scale for t, ok in zip(times, oks) if ok]
        self.attempted += len(calls)
        self.busy += scale * sum(times)
        self.raw_busy += sum(times)
        self.probes += samples


def warm_up(runner, calls):
    """Run the smallest call of each command once, untimed, so lazy imports
    and first-call set-up inside numpy are done before measuring."""
    first = {}
    for call in sorted(calls, key=lambda c: c.n, reverse=True):
        first[call.label.split()[0]] = call
    for call in first.values():
        runner.call(call)
    runner.failures.clear()


def _passes(done):
    """Yield pass indices until ``done(passes, elapsed)`` or the time cap."""
    t0 = time.perf_counter()
    i = 0
    while True:
        yield i
        i += 1
        elapsed = time.perf_counter() - t0
        if done(i, elapsed) or elapsed >= MAX_MEASURE_S:
            return


def plain_run(work, seconds):
    runner = Runner()
    probe = SpeedProbe()
    setup = setup_seconds(probe, work.setup_call)
    warm_up(runner, work.calls)
    tally = Tally()
    for _ in _passes(lambda i, el: el >= seconds
                     and tally.attempted >= MIN_CALLS):
        tally.run_pass(runner, probe, work.calls)
    lat = tally.latencies
    ok = len(lat)
    values = {
        "setup_s": statistics.median(setup),
        "calls_per_s": ok / tally.busy,
        "call_ms_p50": statistics.median(lat) * 1e3 if ok else None,
        "call_ms_p90": (statistics.quantiles(lat, n=10, method="inclusive")[8]
                        * 1e3 if ok >= 2 else None),
        "ok_frac": ok / tally.attempted,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    info = {"setup_samples_s": setup,
            "unscaled_calls_per_s": ok / tally.raw_busy}
    return tally, runner, metrics, info


def traced_run(work, seconds):
    from tracing import Tracer
    import greenbound.schur as schur

    runner = Runner()
    probe = SpeedProbe()
    layer = import_seconds(probe)
    warm_up(runner, work.calls)
    plain, traced, tracer = Tally(), Tally(), Tracer()
    # odd passes are traced; alternating keeps drift out of the overhead
    for i in _passes(lambda i, el: el >= seconds and i >= 2):
        if i % 2 == 0:
            plain.run_pass(runner, probe, work.calls)
            continue
        tracer.install()
        try:
            traced.run_pass(runner, probe, work.calls, tracer)
        finally:
            tracer.uninstall()
    spans = tracer.summary()
    per_call = 1.0 / traced.attempted
    scale = SpeedProbe.scale(traced.probes)

    def rec(name):
        return spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    units = {}
    for name in LAYER_TIMES:
        layer[f"{name}.s"] = rec(name)["self_s"] * scale * per_call
    layer["cli.other.s"] = rec("cli.main")["self_s"] * scale * per_call
    for name in LAYER_COUNTS:
        layer[f"{name}.calls"] = rec(name)["calls"] * per_call
        units[f"{name}.calls"] = "count/call"
    at_calls = rec("green.GreenKernel.at")["calls"]
    layer["green.expm_per_at"] = (rec("green.matrix_exp")["calls"] / at_calls
                                  if at_calls else 0.0)
    units["green.expm_per_at"] = "ratio"
    layer["trace.overhead_frac"] = (
        (plain.attempted / plain.busy) / (traced.attempted / traced.busy) - 1.0)
    units["trace.overhead_frac"] = "frac"
    layer["green.exact_rel_err_max"] = runner.rel_err_max
    units["green.exact_rel_err_max"] = "rel"
    residuals = []
    for a in work.dense:  # Schur quality, outside every timed region
        form = schur.schur_decompose(a)
        residuals.append(max(schur.reconstruction_residual(a, form),
                             schur.unitarity_residual(form)))
    layer["schur.residual_max"] = max(residuals, default=0.0)
    units["schur.residual_max"] = "norm"
    metrics = {}
    for name, value in layer.items():
        unit = units.get(name, "s" if name.startswith("setup.") else "s/call")
        metrics[name] = {"value": value, "unit": unit}
    tally = Tally()
    tally.attempted = plain.attempted + traced.attempted
    tally.latencies = plain.latencies + traced.latencies
    tally.busy = plain.busy + traced.busy
    tally.probes = plain.probes + traced.probes
    info = {"spans": spans, "schur_residuals": residuals}
    return tally, runner, metrics, info


def machine_info() -> dict:
    import numpy as np
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "greenbound").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha, "src_sha256": digest.hexdigest(),
        "host": platform.node(), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
    }


def main(argv=None) -> int:
    import inputs

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "greenbound" / "__init__.py").is_file():
        print(f"error: no greenbound sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        work = inputs.build(args.workload, args.seed, workdir)
        run = traced_run if args.trace else plain_run
        tally, runner, metrics, info = run(work, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    failed = tally.attempted - len(tally.latencies)
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "calls_per_pass": len(work.calls), "attempted": tally.attempted,
        "latency_samples": len(tally.latencies),
        "failed_frac": failed / tally.attempted,
        "failures": dict(runner.failures.most_common(8)),
        "probe_ms_median": statistics.median(tally.probes) * 1e3,
        **info, **machine_info(),
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
