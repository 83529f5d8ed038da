"""The measured process of one benchmark run; ``run.py`` starts it.

It runs in a process of its own so that its peak memory covers the
measurement alone, not the one-off staging build.  See README.md.
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

import run
import tracing
from hullforge.config import smoke_config
from workloads import WORKLOADS, derive

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
SERIAL_PROBE_HULLS = 4


def blas_facts() -> dict:
    """BLAS library, version and thread count as this process sees them
    (read, never set: OPENBLAS_NUM_THREADS and friends are left alone)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # workers = 0 in the config means a process pool of os.cpu_count() workers
    facts = {"blas": f"{blas.get('name')} {blas.get('version')}",
             "numpy": np.__version__, "workers": os.cpu_count(), "blas_threads": None}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                facts["blas_threads"] = fn()
                return facts
    return facts


def set_up(cls, seed: int, run_dir: Path, stage: Path, **kw):
    """Import the package in a fresh interpreter and stage the workload's
    inputs in a fresh output directory, SETUP_REPS times; (median s, the
    last workload)."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    times = []
    for k in range(SETUP_REPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hullforge.pipeline"],
                       env=env, check=True)
        wl = cls(seed, run_dir / f"{cls.name}-{k}", stage, **kw)
        wl.prepare()
        times.append(time.perf_counter() - start)
        if k < SETUP_REPS - 1:
            shutil.rmtree(wl.out)
    return statistics.median(times), wl


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.items = 0
        self.times: list[float] = []

    def run(self, req, tracer=None) -> float:
        """Run one request's commands in order; its wall time."""
        start = time.perf_counter()
        ok = True
        if tracer:
            tracer.request = req.ident
        for kind, op in req.ops:
            self.attempted += 1
            try:
                if tracer:
                    with tracer.span(f"pipeline.cmd_{kind}"):
                        op()
                else:
                    op()
            except Exception:
                self.failed += 1
                ok = False
                traceback.print_exc()
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        self.items += req.items if ok else 0
        return elapsed


def peak_rss_mb() -> float:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def measured(wl, seconds: float, tally: Tally) -> None:
    """Whole rounds of requests until ``seconds`` have passed."""
    start = time.perf_counter()
    rnd = 0
    while rnd == 0 or time.perf_counter() - start < seconds:
        for req in wl.requests(rnd):
            tally.run(req)
        rnd += 1


def traced(args, run_dir: Path, stage: Path, facts: dict, tally: Tally):
    """First request of every workload with spans on (the named one last),
    the layer probes, then the named workload's first request again
    untraced, for the overhead; neither side pays the process's warm-up."""
    first_case = {"cases": sorted(smoke_config().cases)[:1]}
    kw = lambda name: first_case if name == "design" else {}  # noqa: E731
    tracer = tracing.Tracer()
    tracing.install(tracer)
    done, traced_s = [], {}
    try:
        with warnings.catch_warnings(record=True) as surfaced:
            warnings.simplefilter("always")
            for name in sorted(WORKLOADS, key=lambda n: n == args.workload):
                wl = WORKLOADS[name](args.seed, run_dir / f"traced-{name}", stage,
                                     **kw(name))
                wl.prepare()
                traced_s[name] = tally.run(wl.requests(0)[0], tracer)
                done.append(wl)
            serial_s, serial_warnings = tracing.probe_serial_dataset(
                tracer, SERIAL_PROBE_HULLS, derive(args.seed, 0))
            rng = np.random.default_rng(args.seed)
            neural_probe = tracing.probe_neural(stage / "models", rng)
            sort_ms = tracing.probe_sort(rng, smoke_config().population)
    finally:
        tracer.uninstall()
    reference = WORKLOADS[args.workload](args.seed, run_dir / "untraced", stage,
                                         **kw(args.workload))
    reference.prepare()
    untraced_s = tally.run(reference.requests(0)[0])
    done.append(reference)
    overhead = traced_s[args.workload] / untraced_s - 1.0
    metrics = tracing.layer_metrics(
        tracer, serial_s=serial_s, serial_hulls=SERIAL_PROBE_HULLS,
        serial_warnings=serial_warnings, workers=facts["workers"],
        neural_probe=neural_probe, sort_ms=sort_ms, overhead=overhead)
    warned = Counter(w.category.__name__ for w in surfaced)
    tracer.dump(ROOT / ".bench-work" / "trace" / f"{args.workload}-seed{args.seed}.json",
                {"workload": args.workload, "seed": args.seed, "env": facts,
                 "untraced_request_s": untraced_s, "traced_request_s": traced_s,
                 "warnings_surfaced": dict(warned),
                 "metrics": {k: v for k, (v, _u) in metrics.items()}})
    return metrics, done


def main(argv=None) -> int:
    ap = run.parser()
    ap.add_argument("--stage", type=Path, required=True)
    args = ap.parse_args(argv)

    facts = blas_facts()
    print(f"env: {json.dumps(facts)}", flush=True)
    run_dir = ROOT / ".bench-work" / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    tally = Tally()
    try:
        if args.trace:
            metrics, done = traced(args, run_dir, args.stage, facts, tally)
        else:
            setup_s, wl = set_up(WORKLOADS[args.workload], args.seed, run_dir, args.stage)
            measured(wl, args.seconds, tally)
            metrics = {
                "setup_s": (setup_s, "s"),
                "items_per_s": (tally.items / sum(tally.times), "items/s"),
                "request_p50_s": (statistics.median(tally.times), "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
            done = [wl]
        rng = np.random.default_rng([args.seed, 1])
        fails = [f for wl in done for f in wl.check(rng)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for f in fails:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    print(f"requests: {len(tally.times)}, request seconds: "
          f"{[round(t, 3) for t in tally.times]}", flush=True)
    print(json.dumps({
        "correct": not fails, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
