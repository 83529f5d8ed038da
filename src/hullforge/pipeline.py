"""End-to-end commands: dataset build, training, sampling, optimization,
evaluation.  Each command writes a self-contained artifact directory with a
manifest (config hash, seeds, checksums of every emitted file, no
timestamps), first into a temp path and moved into place on success, so
reruns with identical inputs are byte-identical and interrupted runs leave
nothing half-written.
"""

from __future__ import annotations

import fcntl
import hashlib
import math
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import (HOLDOUT_FRACTION, PipelineConfig, TestCase, WaterConstants,
                     config_hash)
from .dataset import (build_dataset, classifier_rows, fit_normalizer,
                      geometry_rows, load_normalizer, pool_map,
                      read_dataset_csv, read_meta, resistance_rows,
                      save_normalizer, stack_records, write_dataset_csv,
                      write_meta)
from .diffusion import (ConditioningVector, GuidanceModels, linear_schedule,
                        load_denoiser, sample_guided, save_denoiser,
                        train_diffusion)
from .errors import ConfigurationError, DependencyError
from .evaluate import (AUDIT_COLUMNS, TOLERANCE_BANDS, audit_samples,
                       audit_stats, compare, fit_pca2, kde)
from .geometry import (read_hull_csv, write_csv, write_flagged_csv,
                       write_hull_csv)
from .neural import (TrainConfig, TrainResult, accuracy, load_weights,
                     r_squared, save_weights, train_classifier,
                     train_regressor)
from .optimize import make_hull_problem, nsga2

SAMPLE_MODES = ("full", "classifier-only", "unguided")

MODEL_FILES = {
    "resistance": "resistance.txt",
    "volume": "volume.txt",
    "waterline": "waterline.txt",
    "classifier": "classifier.txt",
    "denoiser": "denoiser.txt",
}
# the `train --which` group that writes each archive
MODEL_GROUPS = {"resistance": "regressors", "volume": "regressors",
                "waterline": "regressors", "classifier": "classifier",
                "denoiser": "diffusion"}


def _loss_file(name: str) -> str:
    """The training-loss curve that ``train`` writes beside an archive."""
    return f"loss_{name}.csv"


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(directory: Path, cfg: PipelineConfig, command: str,
                    seeds: dict) -> None:
    lines = [f"command = {command}", f"config_hash = {config_hash(cfg)}",
             f"version = {__version__}"]
    for key in sorted(seeds):
        lines.append(f"seed.{key} = {seeds[key]}")
    for path in sorted(directory.rglob("*")):
        if path.is_file() and path.name != "manifest.txt":
            rel = path.relative_to(directory)
            lines.append(f"sha256.{rel} = {_sha256(path)}")
    (directory / "manifest.txt").write_text("\n".join(lines) + "\n")


@contextmanager
def _atomic_dir(target: Path):
    """Stage outputs in <target>.tmp and swap into place on success."""
    target = Path(target)
    tmp = target.with_name(target.name + ".tmp")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    try:
        yield tmp
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if target.exists():
        shutil.rmtree(target)
    os.replace(tmp, target)


@contextmanager
def _lock(out_dir: Path):
    """Hold ``<out_dir>/.lock`` for one stage.

    Ownership is an exclusive ``flock`` on the file, which the kernel drops
    when its holder dies, so a lock left behind by a crashed run (a bare pid
    that nobody holds) is reclaimed.  A file that does not hold a pid was not
    written by this function and still blocks.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / ".lock"
    while True:
        fd = os.open(lock, os.O_CREAT | os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise ConfigurationError(
                f"output directory {out_dir} is locked by another run") from None
        try:
            same_file = os.stat(lock).st_ino == os.fstat(fd).st_ino
        except FileNotFoundError:
            same_file = False
        if same_file:
            break
        os.close(fd)   # the holder released and removed it; lock the new one
    try:
        owner = os.read(fd, 64).strip()
        if owner and not owner.isdigit():
            raise ConfigurationError(
                f"output directory {out_dir} is locked by another run "
                f"({lock} holds {owner[:32].decode(errors='replace')!r}; "
                f"remove it if that run is dead)")
        # write first, then cut a longer stale pid to length: ext4's
        # auto_da_alloc flushes a file truncated to zero and rewritten when
        # it is closed, which blocks every stage's release for tens of ms
        pid = str(os.getpid()).encode()
        os.pwrite(fd, pid, 0)
        os.ftruncate(fd, len(pid))
        try:
            yield
        finally:
            lock.unlink(missing_ok=True)
    finally:
        os.close(fd)


def _require(path: Path, hint: str) -> Path:
    if not Path(path).exists():
        raise DependencyError(f"missing {path}; run `{hint}` first")
    return Path(path)


def _seed_int(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Commands


def cmd_gen_dataset(cfg: PipelineConfig, out_dir) -> Path:
    out_dir = Path(out_dir)
    target = out_dir / "dataset"
    with _lock(out_dir), _atomic_dir(target) as tmp:
        table = build_dataset(
            cfg.n_hulls, cfg.seed, n_theta=cfg.theta_nodes,
            nx=cfg.plane_nx, nz=cfg.plane_nz,
            workers=cfg.workers)
        normalizer = fit_normalizer(table.shapes[table.feasible],
                                    min_samples=min(64, cfg.n_hulls))
        write_dataset_csv(table, tmp / "hulls.csv")
        save_normalizer(normalizer, tmp / "normalizer.txt")
        write_meta(tmp / "dataset.meta", {
            "seed": cfg.seed,
            "n_feasible": cfg.n_hulls,
            "n_infeasible": cfg.n_hulls,
            "scheme": "separable-13",
            "rho": WaterConstants.rho, "g": WaterConstants.g, "nu": WaterConstants.nu,
            "theta_nodes": cfg.theta_nodes,
            "plane_nx": cfg.plane_nx, "plane_nz": cfg.plane_nz,
        })
        _write_manifest(tmp, cfg, "gen-dataset", {"dataset": cfg.seed})
    return target


def _load_normalizer(out_dir: Path):
    ds_dir = _require(Path(out_dir) / "dataset", "gen-dataset")
    return load_normalizer(_require(ds_dir / "normalizer.txt", "gen-dataset"))


def _load_dataset(out_dir: Path):
    """The dataset table (read-only, parsed once per distinct content of
    ``hulls.csv``) and the normalizer."""
    normalizer = _load_normalizer(out_dir)
    path = _require(Path(out_dir) / "dataset" / "hulls.csv", "gen-dataset")
    return _memoized("dataset", path, _sha256(path)), normalizer


def _split_records(n_feasible: int, seed):
    """Ascending (training, held-out) indices among the feasible rows: the
    held-out ones are the first ``HOLDOUT_FRACTION`` of a permutation."""
    rng = np.random.default_rng(_seed_int(seed, 11))
    n_hold = max(1, int(n_feasible * HOLDOUT_FRACTION))
    held = np.sort(rng.permutation(n_feasible)[:n_hold])
    return np.setdiff1d(np.arange(n_feasible), held), held


@dataclass(frozen=True)
class _TrainJob:
    """One network of ``cmd_train`` and its training inputs."""

    name: str            # a MODEL_FILES key
    tc: TrainConfig
    inputs: tuple        # regressors: x, y, held-out x, y; classifier: x, y;
                         # denoiser: stacked data, noise schedule


def _train_jobs(cfg: PipelineConfig, which: str, table, normalizer) -> list[_TrainJob]:
    """Every network of the ``which`` group with its inputs, longest first.

    The rows are drawn in one fixed order (resistance, then geometry from
    the same generator, then classifier), whatever order the jobs run in.
    """
    train_rows, held_rows = _split_records(int(table.feasible.sum()), cfg.seed)
    data = stack_records(table, train_rows, normalizer)
    jobs = []

    def add(name, tag, steps, *inputs):
        tc = TrainConfig(batch_size=cfg.batch_size, steps=steps,
                         seed=_seed_int(cfg.seed, tag))
        jobs.append(_TrainJob(name, tc, inputs))

    if which in ("regressors", "all"):
        held = stack_records(table, held_rows, normalizer)
        rng = np.random.default_rng(_seed_int(cfg.seed, 21))
        n_rows = cfg.rows_per_hull * data.n
        n_held = min(8192, 32 * held.n)
        x, y = resistance_rows(data, rng, n_rows)
        xv, yv = resistance_rows(held, np.random.default_rng(_seed_int(cfg.seed, 22)),
                                 n_held)
        add("resistance", 1, cfg.resistance_steps, x, y, xv, yv)
        xg, logv, wl = geometry_rows(data, rng, n_rows // 2)
        xgv, logvv, wlv = geometry_rows(held, np.random.default_rng(_seed_int(cfg.seed, 23)),
                                        n_held)
        add("volume", 2, cfg.volume_steps, xg, logv, xgv, logvv)
        add("waterline", 3, cfg.waterline_steps, xg, wl, xgv, wlv)

    if which in ("classifier", "all"):
        add("classifier", 4, cfg.classifier_steps,
            *classifier_rows(table, train_rows, normalizer))

    if which in ("diffusion", "all"):
        add("denoiser", 5, cfg.diffusion_steps, data, linear_schedule(cfg.timesteps))

    # longest first, so the workers finish close together
    return sorted(jobs, key=lambda job: -job.tc.steps)


def _train_one(job: _TrainJob, cfg: PipelineConfig, out: Path) -> TrainResult:
    """Train one network and write its archive and its loss curve
    (``step, loss``) into ``out``."""
    hidden = (cfg.hidden_units,) * cfg.hidden_layers
    path = out / MODEL_FILES[job.name]
    if job.name == "denoiser":
        res = train_diffusion(*job.inputs, job.tc, hidden=hidden)
        save_denoiser(res.model, path)
    else:
        train = train_classifier if job.name == "classifier" else train_regressor
        res = train(*job.inputs[:2], job.tc, hidden=hidden)
        save_weights(res.model, path)
    write_csv(out / _loss_file(job.name), ("step", "loss"), res.loss_history)
    return res


def _job_metrics(job: _TrainJob, res) -> dict:
    """A trained network's ``metrics.meta`` entries."""
    if job.name == "denoiser":
        return {}
    if job.name == "classifier":
        return {"classifier_train_accuracy": accuracy(res.model, *job.inputs)}
    _, _, xv, yv = job.inputs
    return {f"{job.name}_r2": r_squared(res.model, xv, yv)}


def cmd_train(cfg: PipelineConfig, out_dir, which: str = "all") -> Path:
    """Train the requested model group: regressors | classifier | diffusion | all.

    Every job's inputs (training rows, noise schedule) are built first, so a
    bad setting fails before any training; the networks then train in
    parallel, in ``pool_map`` threads of this process (``cfg.workers``).
    """
    if which not in ("regressors", "classifier", "diffusion", "all"):
        raise ConfigurationError(f"unknown training group {which!r}")
    out_dir = Path(out_dir)
    jobs = _train_jobs(cfg, which, *_load_dataset(out_dir))
    target = out_dir / "models"
    trained = {job.name for job in jobs}
    prior, prior_metrics = {}, {}
    if target.exists():   # keep already-trained groups when retraining one
        for name, fname in MODEL_FILES.items():
            if name not in trained and (target / fname).exists():
                prior[name] = {f: (target / f).read_bytes()
                               for f in (fname, _loss_file(name))
                               if (target / f).exists()}
        if (target / "metrics.meta").exists():
            prior_metrics = read_meta(target / "metrics.meta")

    metrics = {}
    with _lock(out_dir), _atomic_dir(target) as tmp:
        results = pool_map(partial(_train_one, cfg=cfg, out=tmp), jobs,
                           cfg.workers, threads=True)
        # here, not in the worker threads: these forward passes over every
        # held-out or training row make the stage's largest arrays, and glibc
        # keeps what a thread frees in that thread's own arena
        for job, res in zip(jobs, results):
            metrics.update(_job_metrics(job, res))

        for name, files in prior.items():   # carry over untouched groups
            for fname, data in files.items():
                (tmp / fname).write_bytes(data)
            metrics.update({key: val for key, val in prior_metrics.items()
                            if key.startswith(f"{name}_")})

        write_meta(tmp / "metrics.meta", metrics)
        _write_manifest(tmp, cfg, f"train:{which}", {"master": cfg.seed})
    return target


def _model_digests(out_dir: Path, names) -> dict:
    """sha256 of each named archive; a missing one names the group that
    trains it."""
    mdir = _require(Path(out_dir) / "models", "train")
    return {name: _sha256(_require(mdir / fname,
                                   f"train --which {MODEL_GROUPS[name]}"))
            for name, fname in MODEL_FILES.items() if name in names}


# Parsed files for the life of the process: name ("dataset" or a MODEL_FILES
# key) -> (sha256 of the file's bytes, its parse).  The same dataset and five
# archives serve every case, so each command reuses what an earlier one
# parsed; other bytes under a name replace its entry, so the memo never
# holds more than one dataset table and len(MODEL_FILES) models.
_PARSED: dict[str, tuple[str, object]] = {}


def _parse_read_only(path: Path, name: str):
    """Parse one file and freeze its arrays: through the memo, every later
    command shares them."""
    if name == "dataset":
        parsed = read_dataset_csv(path)
        arrays = vars(parsed).values()
    else:
        parsed = (load_denoiser if name == "denoiser" else load_weights)(path)
        arrays = parsed.params()
    for arr in arrays:
        arr.flags.writeable = False
    return parsed


def _memoized(name: str, path: Path, digest: str):
    """``path``, whose bytes hash to ``digest``, parsed under ``name``: from
    the memo when it holds those bytes, else parsed and memoized."""
    cached, parsed = _PARSED.get(name, (None, None))
    if cached != digest:
        parsed = _parse_read_only(path, name)
        _PARSED[name] = (digest, parsed)
    return parsed


def _load_models(out_dir: Path, *, need=tuple(MODEL_FILES),
                 digests=None) -> GuidanceModels:
    """The networks named in ``need``, each archive parsed once per distinct
    content.  ``digests`` (from ``_model_digests``) spares a caller that has
    already hashed the archives a second read."""
    if digests is None:
        digests = _model_digests(out_dir, need)
    mdir = Path(out_dir) / "models"
    loaded = {name: _memoized(name, mdir / MODEL_FILES[name], digests[name])
              for name in need}
    return GuidanceModels(
        denoiser=loaded.get("denoiser"),
        feasibility=loaded.get("classifier"),
        resistance=loaded.get("resistance"),
        volume=loaded.get("volume"),
        waterline=loaded.get("waterline"),
    )


# the networks each guidance coefficient (gamma, lambda0, lambda1) queries
GUIDANCE_NETS = (("classifier",), ("resistance", "waterline"), ("volume",))


def _mode_coefficients(cfg: PipelineConfig, mode: str):
    if mode == "full":
        return cfg.gamma, cfg.lambda0, cfg.lambda1
    if mode == "classifier-only":
        return cfg.gamma, 0.0, 0.0
    if mode == "unguided":
        return 0.0, 0.0, 0.0
    raise ConfigurationError(f"unknown sampling mode {mode!r}; "
                             f"expected one of {SAMPLE_MODES}")


def _case(cfg: PipelineConfig, name: str) -> TestCase:
    if name not in cfg.cases:
        raise ConfigurationError(f"unknown test case {name!r}; "
                                 f"bundled: {sorted(cfg.cases)}")
    return cfg.cases[name]


def cmd_sample(cfg: PipelineConfig, out_dir, case_name: str, mode: str = "full",
               n: int | None = None, seed: int | None = None) -> Path:
    case = _case(cfg, case_name)
    n = cfg.n_samples if n is None else n
    if n < 1:
        raise ConfigurationError(f"sample count must be >= 1, got {n}")
    gamma, lam0, lam1 = _mode_coefficients(cfg, mode)
    out_dir = Path(out_dir)
    normalizer = _load_normalizer(out_dir)
    need = ["denoiser"]
    for coef, nets in zip((gamma, lam0, lam1), GUIDANCE_NETS):
        if coef > 0:
            need.extend(nets)
    # every archive is hashed into provenance.meta, so all must exist
    digests = _model_digests(out_dir, MODEL_FILES)
    models = _load_models(out_dir, need=need, digests=digests)
    seed = _seed_int(cfg.seed, 31, sorted(cfg.cases).index(case_name),
                     SAMPLE_MODES.index(mode)) if seed is None else seed

    cond = ConditioningVector.from_case(case)
    sched = linear_schedule(cfg.timesteps)
    vectors = sample_guided(models, cond, case.speed, case.loa, n, gamma=gamma,
                            lambda0=lam0, lambda1=lam1, sched=sched, seed=seed)
    shapes = normalizer.denormalize(vectors)

    target = out_dir / "samples" / case_name / mode
    with _lock(out_dir), _atomic_dir(target) as tmp:
        write_hull_csv(tmp / "hulls.csv", case.loa, shapes)
        write_meta(tmp / "provenance.meta", {
            "case": case_name, "mode": mode, "n": n, "seed": seed,
            "gamma": gamma, "lambda0": lam0, "lambda1": lam1,
            "cond_tstar": cond.tstar, "cond_log_v": cond.log_v,
            "cond_beam_ratio": cond.beam_ratio, "cond_depth_ratio": cond.depth_ratio,
            **{f"model_sha256_{k}": digests[k] for k in MODEL_FILES},
        })
        _write_manifest(tmp, cfg, f"sample:{case_name}:{mode}", {"sample": seed})
    return target


def cmd_optimize(cfg: PipelineConfig, out_dir, case_name: str,
                 seed: int | None = None) -> Path:
    case = _case(cfg, case_name)
    out_dir = Path(out_dir)
    table, normalizer = _load_dataset(out_dir)
    models = _load_models(out_dir, need=("resistance", "waterline"))
    seed = _seed_int(cfg.seed, 41, sorted(cfg.cases).index(case_name)) \
        if seed is None else seed

    feas = table.shapes[table.feasible]
    if len(feas) < cfg.population:
        raise DependencyError(
            f"dataset has {len(feas)} feasible hulls; population needs "
            f"{cfg.population}")
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(feas), cfg.population, replace=False)
    initial = normalizer.normalize(feas[pick])

    problem = make_hull_problem(case, models.resistance, models.waterline,
                                normalizer)
    history = []
    pop = nsga2(problem, cfg.population, cfg.generations, _seed_int(seed, 1),
                initial=initial, history=history)

    target = out_dir / "optimize" / case_name
    with _lock(out_dir), _atomic_dir(target) as tmp:
        write_csv(tmp / "history.csv",
                  ("gen", "n_feasible", "best_rt", "mean_rt", "mean_violation"),
                  [(h["gen"], h["n_feasible"], h["best_rt"], h["mean_rt"],
                    h["mean_violation"]) for h in history])
        write_hull_csv(tmp / "population.csv", case.loa,
                       normalizer.denormalize(np.array([ind.x for ind in pop])),
                       pred_rt=np.array([ind.objectives[0] for ind in pop]),
                       violation=np.array([ind.violation for ind in pop]))
        write_meta(tmp / "optimize.meta", {
            "case": case_name, "seed": seed, "population": cfg.population,
            "generations": cfg.generations,
        })
        _write_manifest(tmp, cfg, f"optimize:{case_name}", {"nsga": seed})
    return target


def _read_vectors(path: Path, hint: str, normalizer, *extra):
    """The normalized shapes of a hull CSV that ``hint`` writes with the
    ``extra`` columns."""
    return normalizer.normalize(read_hull_csv(_require(path, hint), *extra)[1])


def _pearson(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or a.std() == 0 or b.std() == 0:
        return math.nan
    return float(np.corrcoef(a, b)[0, 1])


def cmd_evaluate(cfg: PipelineConfig, out_dir, case_name: str) -> Path:
    case = _case(cfg, case_name)
    out_dir = Path(out_dir)
    table, normalizer = _load_dataset(out_dir)
    models = _load_models(out_dir, need=("resistance", "waterline"))

    vectors = {mode: _read_vectors(out_dir / "samples" / case_name / mode / "hulls.csv",
                                   f"sample --case {case_name} --mode {mode}",
                                   normalizer)
               for mode in SAMPLE_MODES}
    vectors["nsga2"] = _read_vectors(out_dir / "optimize" / case_name / "population.csv",
                                     f"optimize --case {case_name}", normalizer,
                                     "pred_rt", "violation")
    arms = {arm: audit_samples(vec, case, models.resistance, models.waterline,
                               normalizer, n_theta=cfg.theta_nodes,
                               plane_nx=cfg.plane_nx, plane_nz=cfg.plane_nz)
            for arm, vec in vectors.items()}
    nsga = arms["nsga2"]

    target = out_dir / "evaluate" / case_name
    with _lock(out_dir), _atomic_dir(target) as tmp:
        summary_rows = []
        for mode, audits in arms.items():
            write_flagged_csv(tmp / f"audit_{mode}.csv", ("feasible", *AUDIT_COLUMNS),
                              audits.feasible,
                              np.column_stack([getattr(audits, c) for c in AUDIT_COLUMNS]))
            summary_rows.append((mode, *audit_stats(audits).values()))
            if audits.simulated_rt.size >= 2:
                grid, density = kde(audits.simulated_rt)
                write_csv(tmp / f"kde_{mode}.csv", ("rt", "density"),
                          zip(grid.tolist(), density.tolist()))
        write_csv(tmp / "summary.csv",
                  ("arm", "n", "feasibility_rate", "vol_err_mean", "vol_err_std",
                   "beam_err_mean", "beam_err_std", "depth_err_mean",
                   "depth_err_std", "volume_in_band_5pct"), summary_rows)

        comparison_rows = []
        for mode in SAMPLE_MODES:
            report = compare(arms[mode], nsga)
            comparison_rows.append(
                (mode, report.nsga_min_rt,
                 *[report.counts[t] for t in TOLERANCE_BANDS],
                 report.sample_min_rt if report.sample_min_rt is not None else "",
                 report.delta_rt if report.delta_rt is not None else ""))
        write_csv(tmp / "comparison.csv",
                  ("arm", "nsga_min_rt", "n_low_rt_1pct", "n_low_rt_5pct",
                   "n_low_rt_10pct", "sample_min_rt_5pct", "delta_rt"),
                  comparison_rows)

        # diversity view: PCA frame fitted on every feasible dataset hull,
        # the held-out ones included
        train_norm = normalizer.normalize(table.shapes[table.feasible])
        pca = fit_pca2(train_norm)
        pca_rows = []
        for group, mat in (("dataset", train_norm), *vectors.items()):
            for p in pca.project(mat):
                pca_rows.append((group, float(p[0]), float(p[1])))
        write_csv(tmp / "pca.csv", ("group", "pc1", "pc2"), pca_rows)

        # surrogate-exploitation observables
        ratios = {}
        if nsga.simulated_rt.size:
            best = np.argmin(nsga.simulated_rt)
            ratios["nsga_best_sim_over_surrogate"] = float(
                nsga.simulated_rt[best] / nsga.surrogate_rt[best])
        for mode in SAMPLE_MODES:
            ratios[f"corr_{mode}"] = _pearson(arms[mode].surrogate_rt,
                                              arms[mode].simulated_rt)
        write_meta(tmp / "exploitation.meta", ratios)
        _write_manifest(tmp, cfg, f"evaluate:{case_name}", {})
    return target


def pipeline_stages(cfg: PipelineConfig, out_dir) -> list:
    """(name, run, artifact dir) for every stage of run-all, in build order.

    Dataset, training, then samples + optimization + evaluation per case.
    A stage is complete once its artifact directory exists.
    """
    out_dir = Path(out_dir)
    stages = [("dataset", partial(cmd_gen_dataset, cfg, out_dir),
               out_dir / "dataset"),
              ("train", partial(cmd_train, cfg, out_dir, "all"),
               out_dir / "models")]
    for case_name in sorted(cfg.cases):
        for mode in SAMPLE_MODES:
            stages.append((f"sample:{case_name}:{mode}",
                           partial(cmd_sample, cfg, out_dir, case_name, mode),
                           out_dir / "samples" / case_name / mode))
        stages.append((f"optimize:{case_name}",
                       partial(cmd_optimize, cfg, out_dir, case_name),
                       out_dir / "optimize" / case_name))
        stages.append((f"evaluate:{case_name}",
                       partial(cmd_evaluate, cfg, out_dir, case_name),
                       out_dir / "evaluate" / case_name))
    return stages


def cmd_run_all(cfg: PipelineConfig, out_dir) -> list:
    """Run every stage of :func:`pipeline_stages`; returns their artifact dirs."""
    return [run() for _, run, _ in pipeline_stages(cfg, out_dir)]
