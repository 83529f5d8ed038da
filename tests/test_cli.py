import configparser
import csv
import fcntl
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from hullforge import neural, pipeline
from hullforge.cli import main
from hullforge.config import (PipelineConfig, config_hash, default_cases,
                              dump_config, load_config, smoke_config)
from hullforge.dataset import read_dataset_csv, read_meta
from hullforge.errors import (ConfigurationError, RepresentationError,
                              TrainingError)
from hullforge.geometry import HULL_FIELDS
from conftest import malform_archive


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "hullforge.cli", *args],
                          capture_output=True, text=True)


def micro_config(tmp_path, n_hulls=4):
    path = tmp_path / "micro.cfg"
    path.write_text(f"""
[dataset]
n_hulls = {n_hulls}
seed = 77
rows_per_hull = 16

[michell]
theta_nodes = 96
plane_nx = 128
plane_nz = 24

[network]
hidden_layers = 1
hidden_units = 16
batch_size = 16
resistance_steps = 40
volume_steps = 30
waterline_steps = 30
classifier_steps = 30
diffusion_steps = 40

[schedule]
timesteps = 40

[sampling]
n_samples = 6

[optimize]
population = 4
generations = 2
""")
    return path


# -- config file handling -----------------------------------------------------

def test_default_cases_table():
    cases = default_cases()
    assert set(cases) == {"supercarrier", "kayak", "neopanamax", "frigate",
                          "ropax"}
    sc = cases["supercarrier"]
    assert (sc.loa, sc.boa, sc.draft, sc.depth) == (333.0, 42.1, 11.3, 29.6)
    assert sc.volume == 97_561.0 and sc.speed == 16.0
    kayak = cases["kayak"]
    assert (kayak.loa, kayak.speed) == (3.8, 1.50)


def test_load_config_roundtrip(tmp_path):
    path = micro_config(tmp_path)
    cfg = load_config(path)
    assert cfg.n_hulls == 4 and cfg.seed == 77
    assert cfg.timesteps == 40
    assert config_hash(cfg) == config_hash(load_config(path))
    assert "n_hulls = 4" in dump_config(cfg)
    with pytest.raises(FrozenInstanceError):
        cfg.seed = 78


# a typo, and the five settings that are config.py constants, not keys
@pytest.mark.parametrize("section, key", [
    ("dataset", "banana"), ("dataset", "holdout_fraction"),
    ("network", "learning_rate"), ("schedule", "beta_start"),
    ("schedule", "beta_end"), ("schedule", "embed_dim")])
def test_load_config_rejects_unknown_key(tmp_path, section, key):
    path = tmp_path / "bad.cfg"
    path.write_text(f"[{section}]\n{key} = 1\n")
    with pytest.raises(ConfigurationError, match=f"unknown config key {section}.{key}"):
        load_config(path)


def test_load_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[dataset]\nn_hulls = 4\n\n[warp]\nspeed = 9\n")
    with pytest.raises(ConfigurationError, match="warp"):
        load_config(path)


def test_load_config_custom_case(tmp_path):
    path = tmp_path / "case.cfg"
    path.write_text("""
[case:skiff]
loa = 6.0
boa = 1.8
draft = 0.3
depth = 0.8
volume = 1.2
speed = 2.5
""")
    cfg = load_config(path)
    assert "skiff" in cfg.cases and "kayak" in cfg.cases
    assert cfg.cases["skiff"].tstar == pytest.approx(0.375)


def test_workers_must_not_be_negative():
    assert PipelineConfig(workers=0).workers == 0   # one per CPU
    with pytest.raises(ConfigurationError, match="dataset.workers"):
        PipelineConfig(workers=-1)


def test_case_validation():
    from hullforge.config import TestCase

    with pytest.raises(ConfigurationError):
        TestCase("bad", 10.0, 3.0, 2.0, 1.5, 5.0, 2.0)   # draft > depth


def test_smoke_config_is_small():
    cfg = smoke_config()
    assert cfg.n_hulls == 64
    assert cfg.n_samples == 64


def test_bundled_config_files_match_the_code_defaults():
    configs = Path(__file__).resolve().parent.parent / "configs"
    assert config_hash(load_config(configs / "smoke.cfg")) \
        == config_hash(smoke_config()) == "6523a304ef680c27"
    assert config_hash(load_config(configs / "desk.cfg")) \
        == config_hash(PipelineConfig()) == "95c64b9a45deda37"


def test_every_knob_round_trips_through_its_one_section(tmp_path):
    changed = {f.name: f.default + 2 if isinstance(f.default, int) else 2 * f.default
               for f in fields(PipelineConfig) if f.name != "cases"}
    cfg = PipelineConfig(**changed)
    text = dump_config(cfg)
    path = tmp_path / "all.cfg"
    path.write_text(text)
    assert load_config(path) == cfg

    parser = configparser.ConfigParser()
    parser.read_string(text)
    homes = [key for section in parser.sections() if not section.startswith("case:")
             for key in parser[section]]
    assert sorted(homes) == sorted(changed)   # each knob in exactly one section

    path.write_text("[water]\nrho = 1000.0\n")
    with pytest.raises(ConfigurationError, match=r"\[water\]"):
        load_config(path)


@pytest.mark.parametrize("key, value", [("population", 3), ("plane_nx", 4),
                                        ("seed", "-1"), ("n_samples", 0),
                                        ("n_hulls", 1)])
def test_cli_rejects_a_bad_value_before_any_work(tmp_path, capsys, key, value):
    path = micro_config(tmp_path)
    path.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", path.read_text(),
                           flags=re.M))
    out = tmp_path / "out"
    assert main(["gen-dataset", "--config", str(path), "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_a_non_numeric_case_value(tmp_path, capsys):
    path = micro_config(tmp_path)
    path.write_text(path.read_text() + "\n[case:barge]\nloa = abc\nboa = 10\n"
                    "draft = 2\ndepth = 3\nvolume = 500\nspeed = 3\n")
    out = tmp_path / "out"
    assert main(["gen-dataset", "--config", str(path), "--out", str(out)]) == 1
    assert "error: bad value for case:barge.loa: 'abc'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_a_negative_seed_flag(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["gen-dataset", "--config", str(micro_config(tmp_path)),
                 "--out", str(out), "--seed", "-1"]) == 1
    assert "dataset.seed" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sample_rejects_a_count_below_one(tmp_path, capsys):
    """-n 0 would write an empty batch that `evaluate` cannot audit, and
    -n -1 would fail inside the sampler; both stop before anything is
    written."""
    cfg = micro_config(tmp_path)
    out = tmp_path / "out"
    assert main(["gen-dataset", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    for n in ("0", "-1"):
        assert main(["sample", "--case", "kayak", "--config", str(cfg),
                     "--out", str(out), "-n", n]) == 1
        assert "sample count" in capsys.readouterr().err
    assert not (out / "samples").exists()


# -- CLI behaviour -------------------------------------------------------------

def test_cli_help():
    result = run_cli("--help")
    assert result.returncode == 0
    assert "gen-dataset" in result.stdout


def test_cli_unknown_config_key_is_usage_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[dataset]\nwhoops = 3\n")
    code = main(["gen-dataset", "--config", str(bad),
                 "--out", str(tmp_path / "out")])
    assert code == 1


def test_cli_missing_dependency_is_exit_2(tmp_path):
    code = main(["sample", "--case", "kayak", "--out", str(tmp_path / "empty")])
    assert code == 2


def test_cli_missing_archive_names_its_training_group(tmp_path, capsys):
    cfg = micro_config(tmp_path)
    out = tmp_path / "out"
    assert main(["gen-dataset", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    (out / "models" / "waterline.txt").unlink()
    capsys.readouterr()
    code = main(["optimize", "--case", "kayak", "--config", str(cfg),
                 "--out", str(out)])
    assert code == 2
    assert "train --which regressors" in capsys.readouterr().err


def test_cli_retraining_one_group_keeps_the_other_metrics(tmp_path):
    """`train --which classifier` carries the other archives over, and
    their metrics.meta entries with them."""
    cfg = micro_config(tmp_path)
    out = tmp_path / "out"
    assert main(["gen-dataset", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    before = read_meta(out / "models" / "metrics.meta")
    assert {"resistance_r2", "resistance_loss", "volume_r2",
            "waterline_r2"} <= set(before)
    assert main(["train", "--which", "classifier", "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert read_meta(out / "models" / "metrics.meta") == before


def test_optimize_artifact_layout(tmp_path):
    """history.csv has one row per generation; population.csv holds the
    hull columns, the surrogate R_T and a non-negative violation."""
    cfg = micro_config(tmp_path)
    out = tmp_path / "out"
    assert main(["gen-dataset", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["optimize", "--case", "kayak", "--config", str(cfg),
                 "--out", str(out)]) == 0
    conf = load_config(cfg)
    with open(out / "optimize" / "kayak" / "history.csv", newline="") as fh:
        history = list(csv.reader(fh))
    assert history[0] == ["gen", "n_feasible", "best_rt", "mean_rt",
                          "mean_violation"]
    assert [row[0] for row in history[1:]] == [str(g)
                                               for g in range(conf.generations)]
    with open(out / "optimize" / "kayak" / "population.csv", newline="") as fh:
        population = list(csv.reader(fh))
    assert population[0] == list(HULL_FIELDS) + ["pred_rt", "violation"]
    assert len(population) == 1 + conf.population
    assert all(float(row[-1]) >= 0.0 for row in population[1:])


@pytest.mark.parametrize("cell, reason", [("abc", "could not convert"),
                                          (None, "15 cells, expected 16")],
                         ids=["non-numeric", "truncated"])
def test_cli_evaluate_rejects_a_malformed_population(micro_models, tmp_path,
                                                     capsys, cell, reason):
    """The population is read as a hull CSV: a bad row is an `error:` line
    naming the file, exit 1, not a traceback."""
    cfg, out = micro_config(tmp_path), tmp_path / "out"
    shutil.copytree(micro_models[1], out)
    for mode in pipeline.SAMPLE_MODES:
        assert main(["sample", "--case", "kayak", "--mode", mode,
                     "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["optimize", "--case", "kayak", "--config", str(cfg),
                 "--out", str(out)]) == 0
    path = out / "optimize" / "kayak" / "population.csv"
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    lines[2] = ",".join([cell, *cells[1:]] if cell else cells[:-1])
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["evaluate", "--case", "kayak", "--config", str(cfg),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad hull row on line 3")
    assert reason in err and str(path) in err


def test_cli_unknown_case_is_usage_error(tmp_path, capsys):
    cfg = micro_config(tmp_path)
    code = main(["optimize", "--case", "atlantis", "--config", str(cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "atlantis" in capsys.readouterr().err


def test_cli_gen_dataset_deterministic(tmp_path):
    cfg = micro_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-dataset", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["gen-dataset", "--config", str(cfg), "--out", str(out_b)]) == 0
    hull_a = (out_a / "dataset" / "hulls.csv").read_bytes()
    hull_b = (out_b / "dataset" / "hulls.csv").read_bytes()
    assert hull_a == hull_b
    manifest = (out_a / "dataset" / "manifest.txt").read_text()
    assert "config_hash" in manifest and "sha256.hulls.csv" in manifest


def test_sampling_mode_coefficients():
    from hullforge.pipeline import _mode_coefficients

    cfg = PipelineConfig()
    assert _mode_coefficients(cfg, "full") == (0.2, 0.3, 0.3)
    assert _mode_coefficients(cfg, "classifier-only") == (0.2, 0.0, 0.0)
    assert _mode_coefficients(cfg, "unguided") == (0.0, 0.0, 0.0)
    with pytest.raises(ConfigurationError):
        _mode_coefficients(cfg, "turbo")


def test_cli_lock_blocks_concurrent_runs(tmp_path):
    cfg = micro_config(tmp_path)
    out = tmp_path / "locked"
    out.mkdir()
    (out / ".lock").write_text("busy")
    code = main(["gen-dataset", "--config", str(cfg), "--out", str(out)])
    assert code == 1


def test_cli_lock_left_by_dead_run_is_reclaimed(tmp_path):
    cfg = micro_config(tmp_path)
    out = tmp_path / "stale"
    out.mkdir()
    (out / ".lock").write_text("916")   # pid of a crashed run, no flock held
    code = main(["gen-dataset", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "dataset" / "hulls.csv").exists()
    assert not (out / ".lock").exists()


def test_cli_lock_held_by_live_run_blocks(tmp_path, capsys):
    cfg = micro_config(tmp_path)
    out = tmp_path / "held"
    out.mkdir()
    fd = os.open(out / ".lock", os.O_CREAT | os.O_RDWR)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        os.write(fd, str(os.getpid()).encode())
        code = main(["gen-dataset", "--config", str(cfg), "--out", str(out)])
    finally:
        os.close(fd)
    assert code == 1
    assert "locked by another run" in capsys.readouterr().err
    assert not (out / "dataset").exists()


def test_lock_released_after_exception_in_stage(tmp_path):
    from hullforge.pipeline import _lock

    out = tmp_path / "crashy"
    with pytest.raises(RuntimeError):
        with _lock(out):
            assert (out / ".lock").read_text() == str(os.getpid())
            raise RuntimeError("stage failed")
    assert not (out / ".lock").exists()
    with _lock(out):
        pass


def test_lock_reclaimed_from_longer_stale_pid_holds_only_our_pid(tmp_path):
    from hullforge.pipeline import _lock

    out = tmp_path / "stale-long"
    out.mkdir()
    stale = "99999999999"   # longer than any pid, no flock held
    assert len(stale) > len(str(os.getpid()))
    (out / ".lock").write_text(stale)
    with _lock(out):
        assert (out / ".lock").read_text() == str(os.getpid())
    assert not (out / ".lock").exists()


def test_cli_train_reruns_byte_identical(tmp_path, monkeypatch, capsys):
    """No wall-clock value reaches the models/ tree: the second run sees a
    clock that jumps 1000 s per reading and must still write the same bytes."""
    cfg = micro_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-dataset", "--config", str(cfg), "--out", str(out_a)]) == 0
    shutil.copytree(out_a, out_b)
    assert main(["train", "--config", str(cfg), "--out", str(out_a)]) == 0

    ticks = iter(range(1_000_000_000, 2_000_000_000, 1000))
    for name in ("time", "perf_counter", "monotonic"):
        monkeypatch.setattr(time, name, lambda: float(next(ticks)))
    assert main(["train", "--config", str(cfg), "--out", str(out_b)]) == 0
    monkeypatch.undo()

    def tree(root):
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    models_a, models_b = tree(out_a / "models"), tree(out_b / "models")
    assert "metrics.meta" in models_a
    assert models_a == models_b
    assert "train finished in" in capsys.readouterr().err


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_cli_train_bad_schedule_fails_before_training(tmp_path, monkeypatch, capsys):
    path = micro_config(tmp_path)
    path.write_text(path.read_text().replace("timesteps = 40", "timesteps = 5"))
    out = tmp_path / "out"
    assert main(["gen-dataset", "--config", str(path), "--out", str(out)]) == 0

    def never(*_args, **_kwargs):
        pytest.fail("a network trained before the schedule was checked")

    monkeypatch.setattr(pipeline, "train_regressor", never)
    assert main(["train", "--config", str(path), "--out", str(out)]) == 3
    assert "betas" in capsys.readouterr().err
    assert not (out / "models").exists()


def test_cli_train_worker_count_does_not_change_models(tmp_path):
    path = micro_config(tmp_path)
    out = {1: tmp_path / "serial", 2: tmp_path / "pool"}
    assert main(["gen-dataset", "--config", str(path), "--out", str(out[1])]) == 0
    shutil.copytree(out[1], out[2])
    trees = {}
    for workers, root in out.items():
        cfg = tmp_path / f"workers{workers}.cfg"
        cfg.write_text(path.read_text().replace(
            "rows_per_hull = 16", f"rows_per_hull = 16\nworkers = {workers}"))
        assert main(["train", "--config", str(cfg), "--out", str(root)]) == 0
        tree = _tree(root / "models")
        # the config hash covers the workers key; every checksum must agree
        tree["manifest.txt"] = re.sub(rb"config_hash = \w+\n", b"", tree["manifest.txt"])
        trees[workers] = tree
    assert sorted(trees[1]) == sorted(
        ["manifest.txt", "metrics.meta", *pipeline.MODEL_FILES.values(),
         *(f"loss_{name}.csv" for name in pipeline.MODEL_FILES)])
    assert trees[1] == trees[2]


def test_cli_train_failure_in_a_worker_is_exit_3(tmp_path, monkeypatch, capsys):
    path = micro_config(tmp_path)
    out = tmp_path / "out"
    assert main(["gen-dataset", "--config", str(path), "--out", str(out)]) == 0

    def diverge(*_args, **_kwargs):
        raise TrainingError("diverged in a pool worker")

    # the networks train in threads of this process, which see the patch
    monkeypatch.setattr(neural, "_train", diverge)
    threads = threading.enumerate()
    assert main(["train", "--config", str(path), "--out", str(out)]) == 3
    assert "diverged in a pool worker" in capsys.readouterr().err
    assert threading.enumerate() == threads      # every worker was joined
    assert not (out / "models").exists() and not (out / "models.tmp").exists()
    assert not (out / ".lock").exists()
    monkeypatch.undo()
    assert main(["train", "--config", str(path), "--out", str(out)]) == 0


def test_cli_sample_parses_only_the_models_its_mode_uses(tmp_path):
    """unguided sampling reads the denoiser only, but every archive is
    hashed into provenance.meta, so a missing one is still exit 2."""
    cfg = micro_config(tmp_path)
    out = tmp_path / "out"
    assert main(["gen-dataset", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    resistance = out / "models" / "resistance.txt"
    resistance.write_text("not an archive\n")
    sample = ["sample", "--case", "kayak", "--config", str(cfg), "--out", str(out)]
    assert main([*sample, "--mode", "unguided"]) == 0
    assert main([*sample, "--mode", "full"]) == 1
    resistance.unlink()
    assert main([*sample, "--mode", "unguided"]) == 2


def test_cli_sample_rejects_a_schedule_other_than_the_denoisers(micro_models,
                                                                tmp_path, capsys):
    """A denoiser trained on the micro config's 40 steps is not sampled on
    a 60-step schedule: exit 1, naming both counts, and no samples."""
    out = tmp_path / "out"
    shutil.copytree(micro_models[1], out)
    path = micro_config(tmp_path)
    path.write_text(path.read_text().replace("timesteps = 40", "timesteps = 60"))
    assert main(["sample", "--case", "kayak", "--mode", "unguided",
                 "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "40-step" in err and "60 steps" in err
    assert not (out / "samples").exists()


# -- parsed-model memo ----------------------------------------------------------

@pytest.fixture(scope="module")
def micro_models(tmp_path_factory):
    """The micro config and an output directory holding its dataset and models."""
    root = tmp_path_factory.mktemp("micro")
    cfg = micro_config(root)
    out = root / "out"
    assert main(["gen-dataset", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    return load_config(cfg), out


@pytest.fixture
def parses(monkeypatch):
    """An empty memo, and the archive names parsed through it, in order."""
    monkeypatch.setattr(pipeline, "_PARSED", {})
    names = []
    for loader in ("load_weights", "load_denoiser"):
        def counted(path, _real=getattr(pipeline, loader)):
            names.append(Path(path).name)
            return _real(path)
        monkeypatch.setattr(pipeline, loader, counted)
    return names


def test_sample_parses_each_archive_once_per_process(micro_models, parses, tmp_path):
    """A second output directory holding the same models is served from the
    memo, and writes the bytes a fresh parse wrote."""
    cfg, src = micro_models
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    shutil.copytree(src, out_a)
    shutil.copytree(src, out_b)
    pipeline.cmd_sample(cfg, out_a, "kayak", "full")
    assert sorted(parses) == sorted(pipeline.MODEL_FILES.values())
    parses.clear()
    pipeline.cmd_sample(cfg, out_b, "kayak", "full")
    assert parses == []
    assert _tree(out_a / "samples") == _tree(out_b / "samples")


def test_retrained_archive_is_parsed_again(micro_models, parses, tmp_path):
    cfg, src = micro_models
    out = tmp_path / "out"
    shutil.copytree(src, out)
    before = pipeline._load_models(out).resistance
    pipeline.cmd_train(replace(cfg, seed=cfg.seed + 1), out, "regressors")
    after = pipeline._load_models(out).resistance
    fresh = neural.load_weights(out / "models" / "resistance.txt")
    assert not np.array_equal(before.weights[0], after.weights[0])
    for got, want in zip(after.weights + after.biases, fresh.weights + fresh.biases):
        assert np.array_equal(got, want)
    # the regressors were parsed again; classifier and denoiser bytes did not change
    assert sorted(parses) == sorted([*pipeline.MODEL_FILES.values(), "resistance.txt",
                                     "volume.txt", "waterline.txt"])
    # cmd_train read the dataset through the same memo
    assert sorted(pipeline._PARSED) == sorted([*pipeline.MODEL_FILES, "dataset"])


def test_memoized_arrays_are_read_only(micro_models, parses):
    models = pipeline._load_models(micro_models[1])
    den = models.denoiser
    nets = (models.resistance, models.volume, models.waterline,
            models.feasibility, den.mlp)
    arrays = [den.cond_w, den.cond_b,
              *(arr for net in nets for arr in (*net.weights, *net.biases))]
    assert arrays and not any(arr.flags.writeable for arr in arrays)
    with pytest.raises(ValueError, match="read-only"):
        models.resistance.weights[0][0, 0] = 0.0


def test_train_writes_a_loss_curve_per_network(micro_models, tmp_path):
    """models/loss_<name>.csv holds (step, loss) at step 0 and the last step
    (the micro runs are shorter than 200 steps); the manifest lists each,
    and `train --which` carries the other groups' curves over."""
    cfg, src = micro_models
    models = src / "models"
    steps = {"resistance": cfg.resistance_steps, "volume": cfg.volume_steps,
             "waterline": cfg.waterline_steps, "classifier": cfg.classifier_steps,
             "denoiser": cfg.diffusion_steps}
    manifest = (models / "manifest.txt").read_text()
    for name in pipeline.MODEL_FILES:
        with open(models / f"loss_{name}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "loss"]
        assert [int(r[0]) for r in rows[1:]] == [0, steps[name] - 1]
        assert all(math.isfinite(float(r[1])) for r in rows[1:])
        assert f"sha256.loss_{name}.csv = " in manifest
    out = tmp_path / "out"
    shutil.copytree(src, out)
    pipeline.cmd_train(replace(cfg, seed=cfg.seed + 1), out, "classifier")
    before, after = _tree(models), _tree(out / "models")
    assert after["loss_classifier.csv"] != before["loss_classifier.csv"]
    for name in ("resistance", "volume", "waterline", "denoiser"):
        assert after[f"loss_{name}.csv"] == before[f"loss_{name}.csv"]


@pytest.fixture
def dataset_parses(monkeypatch):
    """An empty memo, and the dataset files parsed through it, in order."""
    monkeypatch.setattr(pipeline, "_PARSED", {})
    paths = []

    def counted(path, _real=pipeline.read_dataset_csv):
        paths.append(Path(path))
        return _real(path)

    monkeypatch.setattr(pipeline, "read_dataset_csv", counted)
    return paths


def test_dataset_is_parsed_once_per_process_and_content(micro_models,
                                                        dataset_parses, tmp_path):
    """A second command on the same bytes, in another output directory,
    parses nothing; changed bytes are parsed again."""
    cfg, src = micro_models
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    shutil.copytree(src, out_a)
    shutil.copytree(src, out_b)
    pipeline.cmd_optimize(cfg, out_a, "kayak")
    assert dataset_parses == [out_a / "dataset" / "hulls.csv"]
    pipeline.cmd_optimize(cfg, out_b, "kayak")
    assert len(dataset_parses) == 1
    assert _tree(out_a / "optimize") == _tree(out_b / "optimize")

    path = out_b / "dataset" / "hulls.csv"
    lines = path.read_text().splitlines()
    lines[-2], lines[-1] = lines[-1], lines[-2]    # two infeasible rows swap
    path.write_text("\n".join(lines) + "\n")
    table = pipeline._load_dataset(out_b)[0]
    assert dataset_parses == [out_a / "dataset" / "hulls.csv", path]
    assert np.array_equal(table.shapes, read_dataset_csv(path).shapes)


def test_memoized_dataset_is_read_only(micro_models, dataset_parses):
    table = pipeline._load_dataset(micro_models[1])[0]
    arrays = list(vars(table).values())
    assert len(arrays) == 7 and not any(arr.flags.writeable for arr in arrays)
    with pytest.raises(ValueError, match="read-only"):
        table.shapes[0, 0] = 0.0


def test_corrupt_archive_raises_on_every_call(micro_models, parses, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(micro_models[1], out)
    path = out / "models" / "resistance.txt"
    malform_archive(path, "non-numeric")
    for _ in range(2):
        with pytest.raises(RepresentationError, match="resistance.txt"):
            pipeline._load_models(out, need=("resistance",))
    assert parses == ["resistance.txt"] * 2 and "resistance" not in pipeline._PARSED
