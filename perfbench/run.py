"""polyflat benchmark: one workload, one closed-loop caller, end-to-end or traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {verify-sweep,exact-faces,dual-solve}
                             --seed N --seconds S --trace {0,1}

The run times ``import polyflat`` plus input building in fresh interpreters
(``setup_s``), builds the inputs from the seed, warms up, then runs the same
items in whole passes until S seconds have gone by.  Items are timed in
process CPU time and divided by the time of a fixed reference workload
measured around them (``reference.py``); an item's time is the median of
its normalized times over the passes.  Every item is checked against an oracle;
failures are counted per operation kind, and ``correct`` is false when any
item fails.
With --trace 1 the same passes run again with spans around every layer, a
probe measures the known dual-layer defects, and the per-layer metrics
replace the end-to-end ones in the result.

The report goes to stdout; its last line is the JSON result
{"correct", "attempted", "failed", "metrics"}.  A checkout without polyflat's
sources is refused with exit code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter, process_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before numpy is first imported, here by reference.py

import reference  # noqa: E402
from reference import REFERENCE_S  # noqa: E402

SETUP_PROBES = 5
# CPU seconds of items between two reference measurements, and how many
# measurements on each side of an item make its local reference
REFERENCE_EVERY_S = 0.02
REFERENCE_SIDE = 5


class Recorder:
    """Times items, normalizes the times, checks every result and counts failures by kind.

    A workload runs the same items in every pass; the n-th item of a pass is
    item n.  Items are timed in CPU time, and the reference workload is timed
    before an item whenever REFERENCE_EVERY_S of item time has gone by since
    the last time.  A run of an item is normalized by its local reference,
    the median of the REFERENCE_SIDE reference times on each side of it, and
    counts as REFERENCE_S times the ratio.  An item's time is the median of
    its normalized runs.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.runs = defaultdict(list)  # (kind, item) -> [(CPU time, reference index)]
        self.units = {}  # (kind, item) -> work units of the item
        self.elapsed = defaultdict(list)  # kind -> every CPU time
        self.references = []  # every reference time, in order
        self.failures = Counter()  # (kind, reason) -> count
        self.tracebacks = {}
        self.item = 0
        self.since_reference = math.inf
        self.norm = None

    def start_pass(self):
        self.item = 0

    def reference(self):
        self.references.append(reference.reference_time())
        self.since_reference = 0.0

    def run(self, kind, call, check, units=1):
        """Time call(); check(result) returns None for a right answer, else why not."""
        if self.since_reference >= REFERENCE_EVERY_S:
            self.reference()
        tracer = self.tracer
        span = tracer.begin(kind) if tracer else None
        t0 = process_time()
        try:
            result = call()
            error = None
        except Exception as exc:  # a missing answer: counted, never dropped
            error = exc
        dt = process_time() - t0
        if tracer:
            tracer.finish(span)
        key = (kind, self.item)
        self.item += 1
        self.runs[key].append((dt, len(self.references)))
        self.units[key] = units
        self.elapsed[kind].append(dt)
        self.since_reference += dt
        if error is None:
            try:
                reason = check(result)
            except Exception as exc:
                error, reason = exc, f"check raised {type(exc).__name__}"
        else:
            reason = type(error).__name__
        if reason is not None:
            self.failures[(kind, reason)] += 1
            if error is not None:
                self.tracebacks.setdefault((kind, reason), "".join(
                    traceback.format_exception(type(error), error, error.__traceback__)))
        return reason is None

    def normalize(self):
        """Close the run: one more reference, then every item's normalized time."""
        self.reference()
        refs, side = self.references, REFERENCE_SIDE
        local = [statistics.median(refs[max(i - side, 0):i + side]) for i in range(len(refs) + 1)]
        self.norm = {key: statistics.median(dt / local[i] for dt, i in runs) * REFERENCE_S
                     for key, runs in self.runs.items()}

    @property
    def attempted(self):
        return sum(len(v) for v in self.elapsed.values())

    @property
    def failed(self):
        return sum(self.failures.values())

    def _items(self, prefix):
        return [key for key in self.norm
                if key[0] == prefix or key[0].startswith(prefix + "/")]

    def samples(self, prefix):
        """Normalized time of each item whose kind is `prefix` or below it."""
        return [self.norm[key] for key in self._items(prefix)]

    def rate(self, prefix):
        """Work units per second of normalized time, over the items below `prefix`."""
        items = self._items(prefix)
        return sum(self.units[k] for k in items) / sum(self.norm[k] for k in items)


TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)


def interquartile_mean(samples):
    """Mean of the middle half of the samples.

    Over items of mixed kinds the median rests on the one or two items in
    the middle; on exact-faces it moved about 1.5 times as much between runs
    as this mean.
    """
    xs = sorted(samples)
    q = len(xs) // 4
    return statistics.fmean(xs[q:len(xs) - q])


def tail(samples):
    """The highest percentile of TAIL_PERCENTILES with at least ten samples beyond it.

    Returns (value, percentile, n), nearest rank.
    """
    xs = sorted(samples)
    n = len(xs)
    p = next((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= 10), 50.0)
    return xs[max(math.ceil(p / 100.0 * n) - 1, 0)], p, n


def run_passes(workload, rec, seconds=None, passes=None):
    """Whole passes until `seconds` have gone by, or exactly `passes` of them."""
    t0 = perf_counter()
    k = 0
    while True:
        gc.collect()  # every pass starts from the same collector state
        rec.start_pass()
        workload.run_pass(rec, k)
        k += 1
        if (k == passes) if passes is not None else (perf_counter() - t0 >= seconds):
            wall_s = perf_counter() - t0
            rec.normalize()
            return wall_s, k


def measure_setup(workload, seed, workdir):
    """Median normalized import and input-building times over fresh interpreters."""
    env = dict(os.environ)
    probes = []
    for i in range(SETUP_PROBES):
        probe_dir = Path(workdir) / f"probe{i}"
        probe_dir.mkdir()
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ROOT), workload,
             str(seed), str(probe_dir)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(out.stdout.splitlines()[-1])
        scale = REFERENCE_S / probe["reference_s"]
        probes.append({k: probe[k] * scale for k in ("import_s", "inputs_s")})
    total = statistics.median(p["import_s"] + p["inputs_s"] for p in probes)
    return (total, statistics.median(p["import_s"] for p in probes),
            statistics.median(p["inputs_s"] for p in probes))


def machine_record():
    import numpy
    import sympy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={numpy.__version__} sympy={sympy.__version__}")


def metric_unit(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if "_per_" in name else "count"


def traced_run(wl, passes, wall_s, seed):
    """Replay `passes` passes with spans on every layer, then probe the known defects.

    Returns (recorder, metrics, table, probe counts).
    """
    import tracing
    import workloads

    tracer = tracing.Tracer()
    rec = Recorder(tracer)
    tracer.install()
    try:
        traced_wall_s, _ = run_passes(wl, rec, passes=passes)
    finally:
        tracer.uninstall()
    layers, table = tracer.summary(traced_wall_s)
    layers["trace.overhead_s"] = traced_wall_s - wall_s
    probe = workloads.defect_probe(seed)
    for fn, (_, failed) in probe.items():
        layers[f"dually_flat.{fn}.probe_failures"] = failed
    return rec, layers, table, probe


def print_report(args, wl, rec, e2e, setup, passes, wall_s):
    """The human-readable lines: run record, each workload's own figures, failures."""
    setup_s, import_s, inputs_s = setup
    names = wl.names
    lat = rec.samples(wl.latency)
    _, lat_pct, lat_n = tail(lat)
    print(f"# polyflat benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine: {machine_record()}")
    print("# load: closed loop, 1 caller, 1 thread; BLAS threads "
          + " ".join(f"{k}={v}" for k, v in BLAS_ENV.items()))
    cpu_s = sum(sum(ts) for ts in rec.elapsed.values())
    refs = sorted(rec.references)
    print(f"# timed: {passes} passes of the same {len(rec.norm)} items in {wall_s:.3f} s wall, "
          f"{cpu_s:.3f} s CPU; reference {len(refs)} times, min {1e3 * refs[0]:.4f} ms, "
          f"median {1e3 * statistics.median(refs):.4f} ms CPU")
    print(f"# times below are normalized (reference = {1e3 * REFERENCE_S:g} ms); an item "
          f"counts at the median of its runs")
    print(f"setup_s {setup_s:.6f} s  (median of {SETUP_PROBES} fresh interpreters: "
          f"import {import_s:.6f} s, inputs {inputs_s:.6f} s)")
    print(f"peak_rss_mb {e2e['peak_rss_mb'][0]:.3f} MB")
    print(f"fail_ratio {rec.failed / rec.attempted:.6f} ratio  ({rec.failed} of {rec.attempted})")
    print(f"{names['latency_p50']} {1e3 * statistics.median(lat):.6f} ms  (median of {lat_n} items, "
          f"interquartile mean {e2e['latency_norm_iqm_ms'][0]:.6f} ms)")
    print(f"{names['latency_tail']} {e2e['latency_norm_tail_ms'][0]:.6f} ms  "
          f"(p{lat_pct:g} of {lat_n} items, {lat_n - math.ceil(lat_pct / 100.0 * lat_n)} beyond)")
    if wl.throughput != wl.latency:
        print(f"{names['latency_rate']} {rec.rate(wl.latency):.6f} 1/s")
    print(f"{names['throughput']} {e2e['throughput_norm_per_s'][0]:.6f} 1/s")
    aux = rec.samples(wl.aux)
    print(f"{names['aux_p50']} {1e3 * statistics.median(aux):.6f} ms  (median of {len(aux)} items, "
          f"interquartile mean {e2e['aux_norm_iqm_ms'][0]:.6f} ms)")
    for kind in sorted(rec.elapsed):
        ts = rec.elapsed[kind]
        bad = sum(c for (k, _), c in rec.failures.items() if k == kind)
        print(f"kind {kind}: items={len(rec.samples(kind))} runs={len(ts)} "
              f"p50={1e3 * statistics.median(rec.samples(kind)):.4f} ms, "
              f"CPU time p50={1e3 * statistics.median(ts):.4f} ms, failed={bad}")
    for (kind, reason), count in sorted(rec.failures.items()):
        print(f"failure {kind}: {reason} x{count}")
    if hasattr(wl, "digest"):
        print(f"verdict_digest {wl.digest()}  ({len(wl.digests)} verdict files)")
    for (kind, reason), text in rec.tracebacks.items():
        print(f"{kind}: {reason}\n{text}", file=sys.stderr)


def _terminate(signum, frame):
    sys.exit(128 + signum)  # unwinds, so the work directory is removed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-sweep", "exact-faces", "dual-solve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    src = ROOT / "src"
    if not (src / "polyflat" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: no polyflat sources under {ROOT}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as workdir:
        setup = measure_setup(args.workload, args.seed, workdir)

        sys.path.insert(0, str(src))
        import polyflat

        if Path(polyflat.__file__).resolve().parent != src / "polyflat":
            print(f"error: polyflat imported from {polyflat.__file__}", file=sys.stderr)
            return 2
        import workloads

        wl_dir = Path(workdir) / "run"
        wl_dir.mkdir()
        wl = workloads.WORKLOADS[args.workload](str(ROOT), args.seed, str(wl_dir))
        wl.warmup(Recorder())
        rec = Recorder()
        wall_s, passes = run_passes(wl, rec, seconds=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = traced_run(wl, passes, wall_s, args.seed) if args.trace else None

    lat, aux = rec.samples(wl.latency), rec.samples(wl.aux)
    e2e = {
        "setup_s": (setup[0], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "latency_norm_iqm_ms": (1e3 * interquartile_mean(lat), "ms"),
        "latency_norm_tail_ms": (1e3 * tail(lat)[0], "ms"),
        "throughput_norm_per_s": (rec.rate(wl.throughput), "1/s"),
        "aux_norm_iqm_ms": (1e3 * interquartile_mean(aux), "ms"),
    }
    print_report(args, wl, rec, e2e, setup, passes, wall_s)
    correct = rec.failed == 0
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    if traced is not None:
        traced_rec, layers, table, probe = traced
        layers["setup.import_s"], layers["setup.inputs_s"] = setup[1], setup[2]
        correct = correct and traced_rec.failed == 0
        print(f"# traced: {passes} passes in {layers['trace.wall_s']:.3f} s, "
              f"overhead {layers['trace.overhead_s']:.3f} s, "
              f"self times sum to {layers['trace.self_sum_s']:.6f} s")
        for name, calls, own in table:
            print(f"span {name}: calls={calls} self={own:.6f} s")
        for fn, (attempted, failed) in probe.items():
            print(f"defect probe {fn}: {failed} of {attempted} failed")
        metrics = {name: {"value": value, "unit": metric_unit(name)}
                   for name, value in layers.items()}
    print(json.dumps({"correct": correct, "attempted": rec.attempted, "failed": rec.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
