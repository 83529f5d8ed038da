"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The pipeline-level criteria run against a full desk-scale artifact set
(4096-hull dataset, trained models, 512-sample batches, NSGA-II runs for
all five bundled cases).  Building that set takes minutes (379 s cold on
2 cores; README gives the per-stage times), so it is cached under
.acceptance-cache/ keyed by the config hash and a hash of the package
sources, and reused across sessions; each stage is written atomically, so
a partial cache resumes cleanly.

A cold build does not fit in one test run, so the ``desk`` fixture only
checks that every stage is there; if one is missing, the desk-backed
criteria fail at setup, naming the missing stages.  Build (or resume) the
cache ahead of time with ``python scripts/build_artifacts.py``.
"""

import csv
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from hullforge.config import PipelineConfig, cache_key, smoke_config
from hullforge.dataset import (read_dataset_csv,
                               load_normalizer, resistance_rows,
                               sample_infeasible_vector, stack_records)
from hullforge.diffusion import (ConditioningVector, GuidanceModels,
                                 forward_noise, linear_schedule, sample_guided)
from hullforge.geometry import (DRAFT_MARKS, SlopeField, centerplane_slopes,
                                measure_curves)
from hullforge.hydro import (FlowCondition, froude_speed, ittc_line,
                             michell_wave_resistance)
from hullforge.neural import TrainConfig, accuracy, r_squared
from hullforge.pipeline import (SAMPLE_MODES, _load_models,
                                _split_records, cmd_run_all, pipeline_stages)

CACHE_ROOT = Path(__file__).resolve().parent.parent / ".acceptance-cache"


def _report(num, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE CRITERION {num:02d}: {tag}  {detail}")
    assert passed, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="session")
def desk():
    cfg = PipelineConfig()
    out = CACHE_ROOT / f"desk-{cache_key(cfg)}"
    missing = [name for name, _, marker in pipeline_stages(cfg, out)
               if not marker.exists()]
    if missing:
        pytest.fail(f"desk cache {out} lacks {len(missing)} stage(s) "
                    f"({', '.join(missing)}); build it with "
                    f"`python scripts/build_artifacts.py` (379 s cold on "
                    f"2 cores)", pytrace=False)
    return cfg, out


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader)


# -- criterion 1: geometry closed forms ---------------------------------------

def test_criterion_01_box_geometry_oracle(box_hull):
    start = time.perf_counter()
    curves = measure_curves(box_hull)
    elapsed = time.perf_counter() - start
    t = DRAFT_MARKS
    b, d = 0.1, 0.05
    vol_ok = np.allclose(curves.vol, b * d * t, rtol=1e-6)
    area_ok = np.allclose(curves.area, b + 2 * d * t + 2 * b * d * t, rtol=1e-6)
    wl_ok = np.allclose(curves.wl, 1.0, atol=1e-9)
    _report(1, vol_ok and area_ok and wl_ok and elapsed < 1.0,
            f"V/SA/WL closed forms at 100 marks, {elapsed:.2f}s")


# -- criterion 2: Michell properties ------------------------------------------

def test_criterion_02_michell_properties(wedge_hull):
    start = time.perf_counter()
    field = centerplane_slopes(wedge_hull, 0.5, 512, 48)
    cond = FlowCondition(speed=0.3 * froude_speed(1.0, 1.0), loa=1.0,
                         tstar=0.5)
    zero = michell_wave_resistance(
        SlopeField(field.x, field.z, np.zeros_like(field.dydx)), cond)
    base = michell_wave_resistance(field, cond)
    scaled = michell_wave_resistance(
        SlopeField(field.x, field.z, 1.7 * field.dydx), cond)
    beam_ok = abs(scaled - 1.7**2 * base) <= 1e-6 * scaled

    refine_ok, worst = True, 0.0
    for fn in (0.15, 0.30, 0.45):
        c = FlowCondition(speed=fn * froude_speed(1.0, 1.0), loa=1.0,
                          tstar=0.5)
        production = michell_wave_resistance(
            centerplane_slopes(wedge_hull, 0.5, 512, 48), c, n_theta=384)
        doubled = michell_wave_resistance(
            centerplane_slopes(wedge_hull, 0.5, 1024, 96), c, n_theta=768)
        change = abs(doubled - production) / doubled
        worst = max(worst, change)
        refine_ok &= change < 0.01
    elapsed = time.perf_counter() - start
    _report(2, zero == 0.0 and beam_ok and refine_ok and elapsed < 30.0,
            f"zero-field exact, beam^2 1e-6, worst refinement {worst:.3%}, "
            f"{elapsed:.1f}s")


# -- criterion 3: ITTC spot values ---------------------------------------------

def test_criterion_03_ittc_spot_values():
    ok = (abs(ittc_line(1e9) - 1.5306e-3) <= 1e-7
          and abs(ittc_line(1e7) - 3.0e-3) <= 1e-7)
    _report(3, ok, f"C_f(1e9)={ittc_line(1e9):.6e}, "
                   f"C_f(1e7)={ittc_line(1e7):.6e}")


# -- criterion 4: gradient fidelity on the trained architectures ---------------

def test_criterion_04_gradient_fidelity(desk):
    cfg, out = desk
    models = _load_models(out)
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    probes = {
        "resistance": (models.resistance, 16),
        "volume": (models.volume, 14),
        "waterline": (models.waterline, 14),
        "classifier": (models.classifier, 13),
    }
    h = 1e-4
    for name, (model, dim) in probes.items():
        x = rng.uniform(-0.8, 0.8, (3, dim))
        grad = model.input_gradient(x)
        for j in range(dim):
            xp, xm = x.copy(), x.copy()
            xp[:, j] += h
            xm[:, j] -= h
            fd = (model.predict(xp) - model.predict(xm)) / (2 * h)
            rel = np.abs(grad[:, j] - fd) / np.maximum(np.abs(fd), 1e-10)
            worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    _report(4, worst < 1e-4 and elapsed < 10.0,
            f"worst relative error {worst:.2e} over 4 architectures, "
            f"{elapsed:.1f}s")


# -- criterion 5: surrogate quality at n=4096 -----------------------------------

def test_criterion_05_surrogate_quality(desk):
    cfg, out = desk
    table = read_dataset_csv(out / "dataset" / "hulls.csv")
    normalizer = load_normalizer(out / "dataset" / "normalizer.txt")
    models = _load_models(out)
    _train, held = _split_records(int(table.feasible.sum()), cfg.seed)
    held_stack = stack_records(table, held, normalizer)
    xv, yv = resistance_rows(held_stack, np.random.default_rng(123), 8192)
    r2 = r_squared(models.resistance, xv, yv)

    rng = np.random.default_rng(321)
    fresh_bad = [sample_infeasible_vector(rng) for _ in range(len(held))]
    xb = normalizer.normalize(np.array([p.shape for p in fresh_bad]))
    xf = held_stack.norm_shapes
    xc = np.vstack([xf, xb])
    yc = np.concatenate([np.ones(len(held)), np.zeros(len(fresh_bad))])
    acc = accuracy(models.classifier, xc, yc)

    _report(5, r2 >= 0.95 and acc >= 0.90,
            f"held-out R2={r2:.4f} (>=0.95), classifier accuracy={acc:.4f} "
            f"(>=0.90)")


# -- criterion 6: diffusion sanity ----------------------------------------------

def test_criterion_06_diffusion_sanity(desk):
    cfg, out = desk
    sched = linear_schedule(cfg.timesteps)
    rng = np.random.default_rng(6)
    x0 = np.array([0.4, -0.2, 0.9])
    draws = np.array([forward_noise(x0, sched.timesteps,
                                    rng.standard_normal(3), sched)
                      for _ in range(10_000)])
    var = draws.var(axis=0)
    marginal_ok = bool(np.abs(draws.mean(axis=0)).max() < 0.05
                       and np.all((var > 0.9) & (var < 1.1)))

    from test_diffusion import _toy_batch
    from hullforge.diffusion import train_denoiser
    toy_sched = linear_schedule(200)
    toy = train_denoiser(_toy_batch, x_dim=2, cond_dim=1, sched=toy_sched,
                         cfg=TrainConfig(batch_size=128, steps=3000, seed=3),
                         hidden=(64, 64), embed_dim=16).model

    class Raw:
        tstar, log_v = 0.5, 0.0

        def as_array(self):
            return np.array([0.0])

    samples = sample_guided(GuidanceModels(denoiser=toy), Raw(), 1.0, 1.0,
                            256, gamma=0.0, lambda0=0.0, lambda1=0.0,
                            sched=toy_sched, seed=11)
    in_mode = float(np.mean(np.linalg.norm(samples - [-2.0, 0.0], axis=1)
                            <= 3 * 0.2 * math.sqrt(2)))

    models = _load_models(out)
    cond = ConditioningVector.from_case(cfg.cases["frigate"])
    a = sample_guided(models, cond, cfg.cases["frigate"].speed, 127.0, 4,
                      gamma=0.0, lambda0=0.0, lambda1=0.0, sched=sched, seed=9)
    b = sample_guided(GuidanceModels(denoiser=models.denoiser), cond, 1.0, 1.0,
                      4, gamma=0.0, lambda0=0.0, lambda1=0.0, sched=sched, seed=9)
    bitwise_ok = np.array_equal(a, b)
    _report(6, marginal_ok and in_mode >= 0.95 and bitwise_ok,
            f"terminal marginals ok={marginal_ok}, toy in-mode rate "
            f"{in_mode:.1%} (>=95%), guidance-off bitwise={bitwise_ok}")


# -- criteria 7, 8, 10: per-case pipeline results --------------------------------

def _load_audits(out, case, mode):
    rows = _read_csv(out / "evaluate" / case / f"audit_{mode}.csv")
    feas = [r for r in rows if r["feasible"] == "1"]
    return rows, feas


def test_criterion_07_direction_of_effect(desk):
    cfg, out = desk
    wins = 0
    details = []
    for case in sorted(cfg.cases):
        comparison = {r["arm"]: r for r in
                      _read_csv(out / "evaluate" / case / "comparison.csv")}
        full_count = int(comparison["full"]["n_low_rt_5pct"])
        cls_count = int(comparison["classifier-only"]["n_low_rt_5pct"])

        def band_median(mode):
            _rows, feas = _load_audits(out, case, mode)
            vals = [float(r["simulated_rt"]) for r in feas
                    if abs(float(r["vol_err"])) <= 0.05]
            return float(np.median(vals)) if vals else math.inf

        med_full = band_median("full")
        med_ung = band_median("unguided")
        ok = full_count > cls_count and med_full < med_ung
        wins += ok
        details.append(f"{case}: low-RT {full_count} vs {cls_count}, "
                       f"median {med_full:.3g} vs {med_ung:.3g} "
                       f"{'OK' if ok else 'MISS'}")
    _report(7, wins >= 4, f"{wins}/5 cases show the guided advantage; "
            + "; ".join(details))


def test_criterion_08_conditioning_adherence(desk):
    cfg, out = desk
    ok = True
    details = []
    for case in sorted(cfg.cases):
        summary = {r["arm"]: r for r in
                   _read_csv(out / "evaluate" / case / "summary.csv")}
        row = summary["unguided"]
        vol_mean = abs(float(row["vol_err_mean"]))
        depth_mean = abs(float(row["depth_err_mean"]))
        band = float(row["volume_in_band_5pct"])
        case_ok = vol_mean <= 0.10 and depth_mean <= 0.05
        ok &= case_ok
        details.append(f"{case}: |vol mean|={vol_mean:.3f}, "
                       f"|depth mean|={depth_mean:.3f}, "
                       f"eta_5pct={band:.2f} {'OK' if case_ok else 'MISS'}")
    _report(8, ok, "; ".join(details))


def test_criterion_09_nsga_correctness(desk):
    from test_optimize import (_brute_force_ranks, _hypervolume, _ind,
                               _schaffer_problem)
    from hullforge.optimize import fast_nondominated_sort, nsga2

    pop = nsga2(_schaffer_problem(), pop_size=80, generations=60, seed=7)
    front = [(p.objectives[0], p.objectives[1]) for p in pop if p.rank == 0]
    hv = _hypervolume(front)
    hv_ok = hv >= 0.98 * (40.0 / 3.0)

    objs = [(1.0, 5.0), (5.0, 1.0), (2.0, 6.0), (6.0, 2.0), (7.0, 7.0)]
    hand = [_ind(a, b) for a, b in objs]
    fast_nondominated_sort(hand)
    ranks_ok = [p.rank for p in hand] == _brute_force_ranks(objs) == [0, 0, 1, 1, 2]

    cfg, out = desk
    elitist_ok = True
    for case in sorted(cfg.cases):
        rows = _read_csv(out / "optimize" / case / "history.csv")
        best = [float(r["best_rt"]) for r in rows if r["best_rt"] != "nan"]
        elitist_ok &= all(b <= a + 1e-9 for a, b in zip(best, best[1:]))
        elitist_ok &= len(rows) == cfg.generations
    _report(9, hv_ok and ranks_ok and elitist_ok,
            f"hypervolume {hv:.4f}/{40/3:.4f}, hand ranks ok={ranks_ok}, "
            f"elitist monotone over {cfg.generations} generations in all "
            f"cases={elitist_ok}")


def test_criterion_10_surrogate_exploitation(desk):
    from hullforge.dataset import read_meta

    cfg, out = desk
    ok = True
    details = []
    for case in sorted(cfg.cases):
        meta = read_meta(out / "evaluate" / case / "exploitation.meta")
        corr = float(meta["corr_full"])
        ratio = meta.get("nsga_best_sim_over_surrogate", "n/a")
        case_ok = corr >= 0.9
        ok &= case_ok
        details.append(f"{case}: corr={corr:.3f} "
                       f"(optimizer sim/surrogate ratio {ratio}, reported)")
    _report(10, ok, "; ".join(details))


# -- trained-model invariants beyond the numbered criteria ------------------------

def test_trained_volume_model_monotone_tendency(desk, box_hull):
    """Predicted log-volume should rise with draft on >= 90% of probe steps
    (statistical: the network is unconstrained)."""
    cfg, out = desk
    models = _load_models(out)
    normalizer = load_normalizer(out / "dataset" / "normalizer.txt")
    x = normalizer.normalize(box_hull.shape)
    tgrid = np.linspace(0.05, 1.0, 40)
    inputs = np.column_stack([np.tile(x, (40, 1)), tgrid])
    pred = models.volume.predict(inputs)
    rising = np.mean(np.diff(pred) > 0)
    print(f"volume-model monotone fraction on box probe: {rising:.2f}")
    assert rising >= 0.9


def test_feasibility_rate_trend_and_predicted_resistance(desk):
    """Classifier-only sampling keeps feasibility at least as high as full
    guidance on average, while full guidance lowers the batch's median
    predicted resistance versus unguided sampling."""
    cfg, out = desk
    rates = {"full": [], "classifier-only": []}
    med_pred = {"full": [], "unguided": []}
    for case in sorted(cfg.cases):
        summary = {r["arm"]: r for r in
                   _read_csv(out / "evaluate" / case / "summary.csv")}
        for arm in rates:
            rates[arm].append(float(summary[arm]["feasibility_rate"]))
        for arm in med_pred:
            _rows, feas = _load_audits(out, case, arm)
            med_pred[arm].append(float(np.median(
                [float(r["surrogate_rt"]) for r in feas])))
    assert np.mean(rates["classifier-only"]) >= np.mean(rates["full"])
    lower = sum(f < u for f, u in zip(med_pred["full"], med_pred["unguided"]))
    assert lower >= 4


# -- criterion 11: end-to-end smoke ----------------------------------------------

def _tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != ".lock"}


def test_criterion_11_smoke_reproducible(tmp_path):
    cfg = smoke_config()
    times = []
    outs = []
    for name in ("run-a", "run-b"):
        out = tmp_path / name
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cmd_run_all(cfg, out)
        times.append(time.perf_counter() - start)
        outs.append(out)

    manifests = list(outs[0].rglob("manifest.txt"))
    expected = 2 + len(cfg.cases) * (len(SAMPLE_MODES) + 2)
    manifests_ok = len(manifests) == expected

    a, b = _tree_bytes(outs[0]), _tree_bytes(outs[1])
    identical = a.keys() == b.keys() and all(a[k] == b[k] for k in a)
    time_ok = max(times) < 600.0
    _report(11, manifests_ok and identical and time_ok,
            f"{len(manifests)}/{expected} manifests, byte-identical reruns="
            f"{identical}, slowest run {max(times):.0f}s (<600s)")
