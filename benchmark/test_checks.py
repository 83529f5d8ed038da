"""Fast tests of the benchmark's correctness checks and its tracer.

Each check passes on an artifact the program wrote (or on values computed
from first principles) and fails on a deliberately corrupted copy.

    python3 -m pytest benchmark/test_checks.py
"""

import csv
import hashlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from hullforge import hydro  # noqa: E402
from hullforge.config import PipelineConfig, TestCase  # noqa: E402
from hullforge.dataset import fit_normalizer, save_normalizer  # noqa: E402
from hullforge.geometry import (HullParams, SHAPE_NAMES, centerplane_slopes,  # noqa: E402
                                measure_at, measure_curves)
from hullforge.pipeline import cmd_gen_dataset, cmd_train  # noqa: E402

REFERENCE = dict(beam_ratio=0.12, depth_ratio=0.1, run_frac=0.3,
                 entrance_frac=0.35, run_fullness=1.5, entrance_fullness=2.0,
                 section_fullness=2.5, deadrise_frac=0.2, bow_rake=0.1,
                 stern_rake=0.05, bulb_len=0.0, bulb_radius=0.0, bulb_height=0.0)


def hull(loa=1.0, **overrides):
    values = {**REFERENCE, **overrides}
    return HullParams(loa, np.array([values[n] for n in SHAPE_NAMES]))


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def hull_row(params):
    return [repr(float(params.loa))] + [repr(float(v)) for v in params.shape]


def program_rw(params, tstar, speed):
    cond = hydro.FlowCondition(speed=speed, loa=params.loa, tstar=tstar)
    return hydro.michell_wave_resistance(centerplane_slopes(params, tstar, 512, 48),
                                         cond, n_theta=384)


# -- Michell brute force ---------------------------------------------------


def test_brute_force_is_exactly_zero_on_a_zero_field():
    x, z = np.linspace(0.0, 50.0, 256), -np.linspace(0.0, 2.0, 32) ** 2
    assert checks.michell_field(np.zeros((256, 32)), x, z, 5.0) == 0.0


def test_brute_force_scales_with_beam_squared():
    base = checks.michell_hull(hull(20.0), 0.5, 4.0, nx=512, nz=32, n_theta=256)
    wide = checks.michell_hull(hull(20.0, beam_ratio=0.36), 0.5, 4.0,
                               nx=512, nz=32, n_theta=256)
    assert wide / base == pytest.approx(9.0, rel=1e-9)


def test_grid_node_check_accepts_program_value_and_rejects_corruption(tmp_path):
    params = hull()
    tstar, fn = 0.5, 0.3
    speed = fn * math.sqrt(checks.G * checks.waterline_length(params, tstar))
    rw = program_rw(params, tstar, speed)
    header = ("loa",) + SHAPE_NAMES + ("rw_0.50_0.30",)
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    write_csv(good, header, [hull_row(params) + [repr(rw)]])
    write_csv(bad, header, [hull_row(params) + [repr(rw * 1.05)]])
    assert checks.check_grid_nodes(good, [(0, "rw_0.50_0.30")]) == []
    assert checks.check_grid_nodes(bad, [(0, "rw_0.50_0.30")])


# -- volume, ITTC friction and R_T ------------------------------------------


def test_displaced_volume_of_a_box_is_exact():
    box = hull(run_frac=0.0, entrance_frac=0.0, run_fullness=1.0,
               entrance_fullness=1.0, section_fullness=1.0, deadrise_frac=0.0,
               bow_rake=0.0, stern_rake=0.0, beam_ratio=0.1, depth_ratio=0.05)
    assert checks.displaced_volume(box, 0.4) == pytest.approx(0.1 * 0.05 * 0.4, rel=1e-12)


def test_curve_volume_check_rejects_corruption(tmp_path):
    params = hull()
    vol = measure_curves(params).vol[49]          # draft mark 50
    header = ("loa",) + SHAPE_NAMES + ("vol_050",)
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    write_csv(good, header, [hull_row(params) + [repr(float(vol))]])
    write_csv(bad, header, [hull_row(params) + [repr(float(vol) * 1.03)]])
    assert checks.check_curve_volumes(good, [(0, 50)]) == []
    assert checks.check_curve_volumes(bad, [(0, 50)])


def test_ittc_friction_matches_the_correlation_line():
    cond = hydro.FlowCondition(speed=7.0, loa=80.0, tstar=0.5)
    assert checks.ittc_friction(7.0, 80.0, 0.9, 0.7) == pytest.approx(
        hydro.friction_resistance(cond, 0.7, 0.9), rel=1e-12)


def test_audit_check_rejects_corrupt_resistance_and_volume(tmp_path):
    case = TestCase("probe", 60.0, 7.2, 2.4, 6.0, 400.0, 6.0)
    params = hull(60.0, bulb_len=0.03, bulb_radius=0.04, bulb_height=0.03)
    tstar = case.draft / (params.depth_ratio * case.loa)
    vol, area, wl = measure_at(params, tstar)
    vol_err = (vol * case.loa**3 - case.volume) / case.volume
    cond = hydro.FlowCondition(speed=case.speed, loa=case.loa, tstar=tstar)
    rt = program_rw(params, tstar, case.speed) + hydro.friction_resistance(cond, area, wl)
    write_csv(tmp_path / "hulls.csv", ("loa",) + SHAPE_NAMES, [hull_row(params)])
    header = ("feasible", "vol_err", "beam_err", "depth_err", "surrogate_rt", "simulated_rt")
    for name, row in (("good", (1, vol_err, 0, 0, 1.0, rt)),
                      ("bad_rt", (1, vol_err, 0, 0, 1.0, rt * 1.05)),
                      ("bad_vol", (1, vol_err + 0.03, 0, 0, 1.0, rt))):
        write_csv(tmp_path / f"{name}.csv", header, [row])
    # a two-knot map is linear, so the audit's round trip keeps the hull
    save_normalizer(fit_normalizer(np.array([params.shape - 1, params.shape + 1]),
                                   min_samples=2), tmp_path / "normalizer.txt")

    def run(name):
        return checks.check_audit_rows(case, tmp_path / "hulls.csv",
                                       tmp_path / f"{name}.csv",
                                       tmp_path / "normalizer.txt", [0])
    assert run("good") == []
    assert run("bad_rt") and run("bad_vol")


# -- comparison recount, elitism, manifests --------------------------------


AUDIT_HEADER = ("feasible", "vol_err", "beam_err", "depth_err", "surrogate_rt",
                "simulated_rt")
COMPARISON_HEADER = ("arm", "nsga_min_rt", "n_low_rt_1pct", "n_low_rt_5pct",
                     "n_low_rt_10pct", "sample_min_rt_5pct", "delta_rt")


def test_comparison_recount_rejects_corruption(tmp_path):
    write_csv(tmp_path / "audit_nsga2.csv", AUDIT_HEADER,
              [(1, 0.0, 0, 0, 1, 10.0), (1, 0.0, 0, 0, 1, 12.0), (0, "", "", "", "", "")])
    write_csv(tmp_path / "audit_full.csv", AUDIT_HEADER,
              [(1, 0.005, 0, 0, 1, 8.0), (1, 0.03, 0, 0, 1, 9.0),
               (1, 0.2, 0, 0, 1, 5.0), (0, "", "", "", "", "")])
    write_csv(tmp_path / "audit_unguided.csv", AUDIT_HEADER, [(1, 0.5, 0, 0, 1, 1.0)])
    good = [("full", 10.0, 1, 2, 2, 8.0, -0.2), ("unguided", 10.0, 0, 0, 0, "", "")]
    write_csv(tmp_path / "comparison.csv", COMPARISON_HEADER, good)
    assert checks.check_comparison(tmp_path) == []
    for i, j, value in ((0, 3, 3), (0, 6, -0.25), (1, 5, 1.0)):
        rows = [list(r) for r in good]
        rows[i][j] = value
        write_csv(tmp_path / "comparison.csv", COMPARISON_HEADER, rows)
        assert checks.check_comparison(tmp_path), (i, j)


@pytest.mark.parametrize("best, ok", [
    (("nan", "nan", 5.0, 4.0, 4.0), True),
    ((5.0, 6.0), False),
    ((5.0, "nan"), False),
])
def test_elitism_check(tmp_path, best, ok):
    write_csv(tmp_path / "history.csv", ("gen", "best_rt"), enumerate(best))
    assert (checks.check_elitism(tmp_path / "history.csv") == []) == ok


def test_manifest_check_rejects_changed_and_missing_files(tmp_path):
    (tmp_path / "a.txt").write_text("alpha\n")
    (tmp_path / "b.txt").write_text("beta\n")
    lines = ["command = probe"] + [
        f"sha256.{n} = {hashlib.sha256((tmp_path / n).read_bytes()).hexdigest()}"
        for n in ("a.txt", "b.txt")]
    (tmp_path / "manifest.txt").write_text("\n".join(lines) + "\n")
    assert checks.check_manifest(tmp_path) == []
    (tmp_path / "a.txt").write_text("alpha!\n")
    assert checks.check_manifest(tmp_path)
    (tmp_path / "a.txt").write_text("alpha\n")
    (tmp_path / "b.txt").unlink()
    assert checks.check_manifest(tmp_path)


# -- trained models ----------------------------------------------------------


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("micro")
    cfg = PipelineConfig(n_hulls=32, seed=5, rows_per_hull=16, workers=1,
                         theta_nodes=33, plane_nx=32, plane_nz=8,
                         hidden_layers=2, hidden_units=32, batch_size=64,
                         resistance_steps=1500, volume_steps=1500,
                         waterline_steps=1500, classifier_steps=800,
                         diffusion_steps=800, timesteps=50)
    cmd_gen_dataset(cfg, out)
    cmd_train(cfg, out, "all")
    return out, cfg


def corrupt_last_bias(path, value):
    """Set every entry of the archive's last bias vector to ``value``."""
    lines = Path(path).read_text().splitlines()
    lines[-1] = " ".join([repr(value)] * len(lines[-1].split()))
    Path(path).write_text("\n".join(lines) + "\n")


def test_training_check_passes_on_a_real_training(trained):
    out, cfg = trained
    assert checks.check_training(out, cfg.seed) == []


@pytest.mark.parametrize("archive, value", [
    ("volume", 50.0), ("waterline", 50.0), ("resistance", 50.0),
    ("classifier", -50.0), ("denoiser", 5.0)])
def test_training_check_rejects_a_corrupted_model(trained, tmp_path, archive, value):
    out, cfg = trained
    copy = tmp_path / "run"
    for part in ("dataset", "models"):
        (copy / part).mkdir(parents=True)
        for f in (out / part).iterdir():
            (copy / part / f.name).write_bytes(f.read_bytes())
    corrupt_last_bias(copy / "models" / f"{archive}.txt", value)
    fails = checks.check_training(copy, cfg.seed)
    assert any(f.startswith(archive) for f in fails), fails


# -- tracer ------------------------------------------------------------------


class Box:
    @staticmethod
    def leaf(x):
        return x + 1

    @staticmethod
    def fails():
        raise ValueError("boom")


def test_tracer_records_nested_spans_and_restores_originals():
    tr = tracing.Tracer()
    original = Box.leaf
    tr.wrap(Box, "leaf", "leaf", count="leaves", attrs=lambda x: {"x": x})
    tr.wrap(Box, "fails", "fails", errors="errors")
    tr.request = "r1"
    with tr.span("root") as root:
        assert Box.leaf(1) == 2
        with pytest.raises(ValueError):
            Box.fails()
    tr.uninstall()
    assert Box.leaf is original
    assert [s["name"] for s in tr.spans] == ["root", "leaf", "fails"]
    assert all(s["request"] == "r1" for s in tr.spans)
    assert tr.spans[1]["parent"] == root["id"] and tr.spans[1]["attrs"] == {"x": 1}
    assert tr.counts == {"leaves": 1, "errors": 1}
    assert 0 < tr.covered(root, {"leaf"}) <= root["end"] - root["start"]
