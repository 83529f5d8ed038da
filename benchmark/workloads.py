"""The three workloads: inputs drawn from ``--seed``, requests, checks.

A request is what a user waits for: one ``cmd_gen_dataset`` call
(``dataset``), one ``cmd_train(..., "all")`` call (``train``), or one
case's five commands (``design``).  A round is the same list of requests in
every run, with seeds drawn from (run seed, round); runs repeat whole rounds.
Requests call the ``pipeline.cmd_*`` commands in-process with the machine's
default BLAS threading and the program's default worker count.
"""

from __future__ import annotations

import dataclasses
import shutil
from pathlib import Path

import numpy as np

import checks
from hullforge.config import PipelineConfig, smoke_config
from hullforge.pipeline import (SAMPLE_MODES, cmd_evaluate, cmd_gen_dataset,
                                cmd_optimize, cmd_sample, cmd_train)

DATASET_HULLS = 16       # two 8-hull chunks, one per worker of the 2-core pool
# desk step counts (20000, 8000, 8000, 5000, 24000) scaled down 50 times; at
# 100 times the run-to-run spread of a single request was 12%
TRAIN_STEPS = dict(resistance_steps=400, volume_steps=160, waterline_steps=160,
                   classifier_steps=100, diffusion_steps=480)
DESIGN_SAMPLES = 32


def derive(seed: int, *parts: int) -> int:
    """A program seed drawn from the run seed and a request's coordinates."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


@dataclasses.dataclass
class Request:
    ident: str
    ops: list              # [(command kind, zero-argument callable)]
    items: int


class Workload:
    name = ""

    def __init__(self, seed: int, out: Path, stage: Path):
        self.seed, self.out, self.stage = seed, Path(out), Path(stage)

    def prepare(self) -> None:
        """Stage inputs into the fresh output directory (timed as set-up)."""
        self.out.mkdir(parents=True)

    def requests(self, rnd: int) -> list[Request]:
        raise NotImplementedError

    def check(self, rng) -> list[str]:
        raise NotImplementedError


class DatasetWorkload(Workload):
    """Desk-resolution Michell grids for 16 random hulls per request."""

    name = "dataset"

    def requests(self, rnd):
        cfg = PipelineConfig(n_hulls=DATASET_HULLS, seed=derive(self.seed, rnd))
        out = self.out / f"r{rnd}"
        return [Request(f"dataset-r{rnd}", [("gen_dataset",
                        lambda: cmd_gen_dataset(cfg, out))], DATASET_HULLS)]

    def check(self, rng):
        fails = checks.check_manifests(self.out)
        csvs = sorted(self.out.glob("r*/dataset/hulls.csv"))
        if not csvs:                     # every request failed; counted there
            return fails
        header = checks.read_rows(csvs[0])[0].keys()
        nodes = [c for c, _t, fn in checks.grid_nodes(header) if fn >= 0.15]
        for path in csvs:
            rows = rng.choice(DATASET_HULLS, 2, replace=False)
            fails += checks.check_grid_nodes(
                path, [(int(i), str(rng.choice(nodes))) for i in rows])
            fails += checks.check_curve_volumes(
                path, [(int(i), int(rng.integers(1, 101))) for i in rows])
        return fails


class TrainWorkload(Workload):
    """All five networks at the desk shapes, step counts scaled down."""

    name = "train"

    def __init__(self, seed, out, stage):
        super().__init__(seed, out, stage)
        self.trained = []          # (output directory, training seed)

    def prepare(self):
        super().prepare()
        shutil.copytree(self.stage / "dataset", self.out / "dataset")

    def requests(self, rnd):
        cfg = dataclasses.replace(smoke_config(), seed=derive(self.seed, rnd),
                                  **TRAIN_STEPS)
        out = self.out / f"r{rnd}"
        shutil.copytree(self.out / "dataset", out / "dataset")
        self.trained.append((out, cfg.seed))
        return [Request(f"train-r{rnd}", [("train",
                        lambda: cmd_train(cfg, out, "all"))], sum(TRAIN_STEPS.values()))]

    def check(self, rng):
        fails = []
        for out, seed in self.trained:
            if not (out / "models").is_dir():    # a failed request wrote nothing
                continue
            fails += checks.check_manifests(out / "models")
            fails += checks.check_training(out, seed)
        return fails


class DesignWorkload(Workload):
    """Per case: three guided sample batches, NSGA-II, then the audits."""

    name = "design"

    def __init__(self, seed, out, stage, cases=None):
        super().__init__(seed, out, stage)
        # smoke settings, but 32 hulls per sample batch (smoke: 64), so that
        # one round of all five cases takes about 45 s
        self.cfg = dataclasses.replace(smoke_config(), n_samples=DESIGN_SAMPLES)
        self.cases = sorted(self.cfg.cases) if cases is None else cases

    def prepare(self):
        super().prepare()
        for part in ("dataset", "models"):
            shutil.copytree(self.stage / part, self.out / part)

    def requests(self, rnd):
        cfg, out = self.cfg, self.out
        reqs = []
        for ci, case in enumerate(self.cases):
            ops = [("sample", lambda case=case, mode=mode, s=derive(self.seed, rnd, ci, mi):
                    cmd_sample(cfg, out, case, mode, seed=s))
                   for mi, mode in enumerate(SAMPLE_MODES)]
            # NSGA-II keeps the program's own seed: with some seeds no hull of
            # its final population audits as feasible and cmd_evaluate raises
            ops.append(("optimize", lambda case=case: cmd_optimize(cfg, out, case)))
            ops.append(("evaluate", lambda case=case: cmd_evaluate(cfg, out, case)))
            reqs.append(Request(f"design-r{rnd}-{case}", ops,
                                len(SAMPLE_MODES) * cfg.n_samples))
        return reqs

    def check(self, rng):
        out, fails = self.out, []
        normalizer = out / "dataset" / "normalizer.txt"
        for case in self.cases:
            for part in ([f"samples/{case}/{m}" for m in SAMPLE_MODES]
                         + [f"optimize/{case}", f"evaluate/{case}"]):
                if (out / part).is_dir():    # a failed command wrote nothing
                    fails += checks.check_manifest(out / part)
            if not (out / "evaluate" / case).is_dir():
                continue
            fails += checks.check_comparison(out / "evaluate" / case)
            fails += checks.check_elitism(out / "optimize" / case / "history.csv")
            # volume error on a few rows of every arm, R_T on one feasible row
            for mode in SAMPLE_MODES:
                fails += checks.check_audit_rows(
                    self.cfg.cases[case], out / "samples" / case / mode / "hulls.csv",
                    out / "evaluate" / case / f"audit_{mode}.csv", normalizer,
                    rng.choice(self.cfg.n_samples, 4, replace=False), resistance=False)
        case = str(rng.choice(self.cases))
        mode = str(rng.choice(SAMPLE_MODES))
        audit = out / "evaluate" / case / f"audit_{mode}.csv"
        feasible = [i for i, r in enumerate(checks.read_rows(audit))
                    if r["feasible"] == "1"] if audit.is_file() else []
        if feasible:
            fails += checks.check_audit_rows(
                self.cfg.cases[case], out / "samples" / case / mode / "hulls.csv",
                audit, normalizer, [int(rng.choice(feasible))])
        return fails


WORKLOADS = {w.name: w for w in (DatasetWorkload, TrainWorkload, DesignWorkload)}
