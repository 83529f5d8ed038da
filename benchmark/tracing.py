"""Spans and counts at the layer boundaries, for the traced run.

Spans are recorded from the benchmark's own code: ``install`` replaces the
names each layer's caller looks up (``pipeline.load_weights``,
``dataset.resistance_grid``, ...) with wrappers that time the call, and
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.
Spans live in memory (name, start, end, parent, request id) and are written
out once, when the run ends.  Warnings raised inside a Michell call are
counted by category there, then re-issued, so the program's own filters
still decide whether they show.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import warnings
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from hullforge import dataset, diffusion, evaluate, hydro, neural, optimize, pipeline


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.michell_warnings: Counter = Counter()
        self.request: str | None = None
        self._stack: list[dict] = []
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "request": self.request,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "attrs": attrs, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str | None = None, *, attrs=None,
             count: str | None = None, errors: str | None = None,
             catch_warnings: bool = False) -> None:
        """Route ``owner.attr`` through a span (``name``) and/or a counter."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if count:
                tracer.counts[count] += 1
            try:
                if name is None:
                    return original(*args, **kwargs)
                with tracer.span(name, **(attrs(*args, **kwargs) if attrs else {})):
                    if not catch_warnings:
                        return original(*args, **kwargs)
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = original(*args, **kwargs)
                    for w in caught:
                        tracer.michell_warnings[w.category.__name__] += 1
                        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
                    return result
            except Exception:
                if errors:
                    tracer.counts[errors] += 1
                raise

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- queries -------------------------------------------------------------

    def durations(self, name: str, where=None) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and (where is None or where(s))]

    def parent_name(self, span: dict) -> str | None:
        return None if span["parent"] is None else self.spans[span["parent"]]["name"]

    def covered(self, root: dict, names) -> float:
        """Time under ``root`` spent in descendant spans named in ``names``
        (outermost matches only, so nested loaders are not counted twice)."""
        total, todo = 0.0, [root["id"]]
        children: dict[int, list] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        while todo:
            for s in children.get(todo.pop(), []):
                if s["name"] in names:
                    total += s["end"] - s["start"]
                else:
                    todo.append(s["id"])
        return total

    def dump(self, path: Path, extra: dict) -> None:
        t0 = min((s["start"] for s in self.spans), default=0.0)
        spans = [{**s, "start": s["start"] - t0, "end": s["end"] - t0}
                 for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**extra, "counts": dict(self.counts),
                                    "michell_warnings": dict(self.michell_warnings),
                                    "spans": spans}, indent=1, default=str))


LOADERS = ("dataset.read_csv", "dataset.load_normalizer", "neural.load_weights",
           "diffusion.load_denoiser")


def _sample_mode(_models, _cond, _speed, _loa, _n, *, gamma, lambda0, lambda1,
                 sched, **_kw):
    mode = "full" if lambda0 > 0 else "classifier-only" if gamma > 0 else "unguided"
    return {"mode": mode, "steps": sched.timesteps}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the pipeline commands cross."""
    w = tracer.wrap
    for attr, name in (("read_dataset_csv", "dataset.read_csv"),
                       ("write_dataset_csv", "dataset.write_csv"),
                       ("load_normalizer", "dataset.load_normalizer"),
                       ("load_weights", "neural.load_weights"),
                       ("save_weights", "neural.save_weights"),
                       ("load_denoiser", "diffusion.load_denoiser"),
                       ("save_denoiser", "diffusion.save_denoiser"),
                       ("audit_samples", "evaluate.audit_samples")):
        w(pipeline, attr, name)
    w(pipeline, "build_dataset", "dataset.build_dataset",
      attrs=lambda n, *a, **k: {"hulls": n})
    w(pipeline, "resistance_rows", "dataset.resistance_rows",
      attrs=lambda data, rng, n_rows, *a, **k: {"rows": n_rows})
    for attr in ("train_regressor", "train_classifier"):
        w(pipeline, attr, f"neural.{attr}", attrs=lambda x, y, cfg, **k: {"steps": cfg.steps})
    w(pipeline, "train_diffusion", "diffusion.train",
      attrs=lambda data, sched, cfg, **k: {"steps": cfg.steps})
    w(pipeline, "sample_guided", "diffusion.sample_guided", attrs=_sample_mode)
    w(pipeline, "nsga2", "optimize.nsga2",
      attrs=lambda problem, pop, gens, *a, **k: {"generations": gens})
    w(dataset, "measure_curves", "geometry.measure_curves", count="hulls")
    w(dataset, "resistance_grid", "hydro.resistance_grid")
    w(optimize, "measure_at", "geometry.measure_at")
    w(optimize, "evaluate_individual", "optimize.evaluate_individual",
      count="nsga_evaluations")
    w(optimize, "fast_nondominated_sort", "optimize.sort")
    w(evaluate, "audit_one", "evaluate.audit_one", count="audits",
      errors="audit_errors")
    for owner in (hydro, evaluate):
        w(owner, "centerplane_slopes", "geometry.centerplane_slopes")
        w(owner, "michell_wave_resistance", "hydro.michell_wave_resistance",
          count="michell_calls", catch_warnings=True)
    w(neural.Adam, "step", count="adam_steps")
    w(diffusion.DenoiserModel, "predict_noise", count="reverse_steps")


# ---------------------------------------------------------------------------
# Layer probes: public functions timed directly on the run's inputs


def median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probe_serial_dataset(tracer: Tracer, n: int, seed: int) -> tuple[float, int]:
    """(seconds, quadrature warnings) for ``build_dataset(..., workers=1)``:
    the first ``n`` hulls of the traced dataset request, in this process."""
    tracer.request = "probe-serial-dataset"
    before = tracer.michell_warnings["QuadratureAccuracyWarning"]
    with tracer.span("probe.serial_build_dataset", hulls=n) as rec:
        dataset.build_dataset(n, seed, workers=1)
    return (rec["end"] - rec["start"],
            tracer.michell_warnings["QuadratureAccuracyWarning"] - before)


def probe_neural(models_dir: Path, rng) -> dict:
    model = neural.load_weights(models_dir / "resistance.txt")
    out = {}
    for batch in (64, 1):
        x = rng.uniform(-1.0, 1.0, (batch, model.in_dim))
        out[f"forward_ms.b{batch}"] = 1e3 * median_time(lambda: model.forward(x), 41)
        out[f"input_gradient_ms.b{batch}"] = 1e3 * median_time(
            lambda: model.input_gradient(x), 41)
    return out


def probe_sort(rng, population: int) -> float:
    """ms for ``fast_nondominated_sort`` on 2 x population individuals,
    half of them feasible."""
    def pop():
        return [optimize.Individual(x=np.zeros(1), objectives=rng.uniform(size=2),
                                    violation=float(rng.uniform()) if i % 2 else 0.0)
                for i in range(2 * population)]
    pops = [pop() for _ in range(21)]
    return 1e3 * median_time(lambda: optimize.fast_nondominated_sort(pops.pop()), 21)


def layer_metrics(tr: Tracer, *, serial_s: float, serial_hulls: int,
                  serial_warnings: int, workers: int, neural_probe: dict, sort_ms: float,
                  overhead: float) -> dict:
    """Every per-layer metric, from the spans and the probes."""
    med = statistics.median
    m = {}
    serial = lambda s: s["request"] == "probe-serial-dataset"  # noqa: E731
    grids = tr.durations("hydro.resistance_grid", serial)
    m["hydro.resistance_grid_s"] = (med(grids), "s")
    m["hydro.michell_node_s"] = (med(
        [s["end"] - s["start"] for s in tr.spans
         if s["name"] == "hydro.michell_wave_resistance"
         and tr.parent_name(s) == "evaluate.audit_one"]), "s")
    calls = [s for s in tr.spans if s["name"] == "hydro.michell_wave_resistance"
             and serial(s)]
    m["hydro.michell_calls_per_hull"] = (len(calls) / serial_hulls, "count")
    m["hydro.quadrature_warnings"] = (
        serial_warnings / serial_hulls, "count")
    m["geometry.measure_curves_s"] = (med(tr.durations("geometry.measure_curves", serial)), "s")
    m["geometry.measure_at_s"] = (med(tr.durations("geometry.measure_at")), "s")
    m["geometry.centerplane_slopes_s"] = (med(tr.durations("geometry.centerplane_slopes")), "s")

    serial_rate = serial_hulls / serial_s
    pool = [s for s in tr.spans if s["name"] == "dataset.build_dataset"
            and not serial(s)]
    pool_rate = sum(s["attrs"]["hulls"] for s in pool) / sum(s["end"] - s["start"] for s in pool)
    m["dataset.serial_hulls_per_s"] = (serial_rate, "hulls/s")
    m["dataset.pool_hulls_per_s"] = (pool_rate, "hulls/s")
    m["dataset.pool_efficiency"] = (pool_rate / (workers * serial_rate), "share")
    m["dataset.read_csv_s"] = (med(tr.durations("dataset.read_csv")), "s")
    m["dataset.write_csv_s"] = (med(tr.durations("dataset.write_csv")), "s")
    rows = [s for s in tr.spans if s["name"] == "dataset.resistance_rows"]
    m["dataset.resistance_rows_per_s"] = (
        sum(s["attrs"]["rows"] for s in rows) / sum(s["end"] - s["start"] for s in rows),
        "rows/s")

    def per_step(span):
        return 1e3 * (span["end"] - span["start"]) / span["attrs"]["steps"]
    regressors = [s for s in tr.spans if s["name"] == "neural.train_regressor"]
    for net, span in zip(("resistance", "volume", "waterline"), regressors):
        m[f"neural.adam_step_ms.{net}"] = (per_step(span), "ms")
    m["neural.adam_step_ms.classifier"] = (per_step(
        next(s for s in tr.spans if s["name"] == "neural.train_classifier")), "ms")
    for key, value in neural_probe.items():
        m[f"neural.{key}"] = (value, "ms")
    m["neural.load_weights_s"] = (med(tr.durations("neural.load_weights")), "s")
    m["neural.save_weights_s"] = (med(tr.durations("neural.save_weights")), "s")

    m["diffusion.train_step_ms"] = (per_step(
        next(s for s in tr.spans if s["name"] == "diffusion.train")), "ms")
    reverse = {}
    for s in tr.spans:
        if s["name"] == "diffusion.sample_guided":
            reverse[s["attrs"]["mode"]] = per_step(s)
    for mode, value in reverse.items():
        m[f"diffusion.reverse_step_ms.{mode}"] = (value, "ms")
    m["diffusion.guidance_share"] = (
        (reverse["full"] - reverse["unguided"]) / reverse["full"], "share")
    m["diffusion.load_denoiser_s"] = (med(tr.durations("diffusion.load_denoiser")), "s")

    runs = [s for s in tr.spans if s["name"] == "optimize.nsga2"]
    nsga_s = sum(s["end"] - s["start"] for s in runs)
    evals = sum(1 for s in tr.spans if s["name"] == "optimize.evaluate_individual"
                and tr.parent_name(s) == "optimize.nsga2")
    m["optimize.generation_s"] = (nsga_s / sum(s["attrs"]["generations"] for s in runs), "s")
    m["optimize.evaluations_per_s"] = (evals / nsga_s, "evals/s")
    m["optimize.sort_ms"] = (sort_ms, "ms")

    audits = sum(1 for s in tr.spans if s["name"] == "evaluate.audit_one")
    m["evaluate.audit_s"] = (sum(tr.durations("evaluate.audit_samples")) / audits, "s")
    m["evaluate.audit_errors"] = (tr.counts["audit_errors"], "count")

    for kind in ("gen_dataset", "train", "sample", "optimize", "evaluate"):
        m[f"pipeline.cmd_s.{kind}"] = (med(tr.durations(f"pipeline.cmd_{kind}")), "s")
    samples = [s for s in tr.spans if s["name"] == "pipeline.cmd_sample"]
    m["pipeline.load_share"] = (
        sum(tr.covered(s, LOADERS) for s in samples)
        / sum(s["end"] - s["start"] for s in samples), "share")
    m["trace.overhead_share"] = (overhead, "share")
    return m
