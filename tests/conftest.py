import numpy as np
import pytest

from hullforge.cli import main
from hullforge.config import load_config
from hullforge.geometry import HullParams, SHAPE_NAMES
from hullforge.neural import Adam


def make_hull(loa=50.0, **overrides) -> HullParams:
    """Midpoint-of-box hull with zero bulb, overridable per parameter."""
    base = {
        "beam_ratio": 0.26, "depth_ratio": 0.16, "run_frac": 0.325,
        "entrance_frac": 0.325, "run_fullness": 2.25, "entrance_fullness": 2.25,
        "section_fullness": 3.25, "deadrise_frac": 0.25, "bow_rake": 0.15,
        "stern_rake": 0.15, "bulb_len": 0.0, "bulb_radius": 0.0,
        "bulb_height": 0.0,
    }
    base.update(overrides)
    return HullParams(loa, np.array([base[n] for n in SHAPE_NAMES]))


# Ways to break the second row of an archive's first float block (line 3:
# the archive header, the block header, then one line per row).
MALFORMED_BLOCKS = {
    "truncated": lambda lines: lines[:3],
    "missing-value": lambda lines: [*lines[:3], lines[3].rsplit(" ", 1)[0], *lines[4:]],
    "non-numeric": lambda lines: [*lines[:3], "x" + lines[3], *lines[4:]],
}


def malform_archive(path, case: str) -> None:
    """Rewrite the archive at ``path`` broken in the way MALFORMED_BLOCKS[case] names."""
    lines = path.read_text().splitlines()
    path.write_text("\n".join(MALFORMED_BLOCKS[case](lines)) + "\n")


@pytest.fixture
def adam_dtypes(monkeypatch) -> list:
    """Per Adam step, the set of dtypes of its parameters, gradients and
    both moments, seen inside the step."""
    seen = []
    real = Adam.step

    def step(self, grads):
        seen.append({a.dtype for a in (*self.params, *grads, *self.m, *self.v)})
        return real(self, grads)

    monkeypatch.setattr(Adam, "step", step)
    return seen


@pytest.fixture
def reference_hull():
    return make_hull()


@pytest.fixture
def box_hull():
    """Degenerate no-taper prism: y = b/2 over the whole unit box."""
    return make_hull(100.0, beam_ratio=0.1, depth_ratio=0.05, run_frac=0.0,
                     entrance_frac=0.0, run_fullness=1.0, entrance_fullness=1.0,
                     section_fullness=1.0, deadrise_frac=0.0, bow_rake=0.0,
                     stern_rake=0.0)


@pytest.fixture
def wedge_hull():
    """Prismatic hull with linear tapers: piecewise-constant slope field."""
    return make_hull(1.0, beam_ratio=0.12, depth_ratio=0.08, run_frac=0.45,
                     entrance_frac=0.45, run_fullness=1.0, entrance_fullness=1.0,
                     section_fullness=1.0, deadrise_frac=0.0, bow_rake=0.0,
                     stern_rake=0.0)


@pytest.fixture(scope="session")
def mini_table():
    """A small but real dataset (64 feasible + 64 infeasible rows)."""
    from hullforge.dataset import build_dataset

    return build_dataset(64, seed=2024, workers=2)


@pytest.fixture(scope="session")
def mini_normalizer(mini_table):
    from hullforge.dataset import fit_normalizer

    return fit_normalizer(mini_table.shapes[mini_table.feasible])


@pytest.fixture(scope="session")
def mini_stacked(mini_table, mini_normalizer):
    from hullforge.dataset import stack_records

    return stack_records(mini_table, np.arange(64), mini_normalizer)


def micro_config(tmp_path, n_hulls=4):
    """A config file for a pipeline run in seconds: tiny networks, a
    40-step schedule, 6 samples per batch."""
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


@pytest.fixture(scope="session")
def micro_models(tmp_path_factory):
    """The micro config and an output directory holding its dataset and models."""
    root = tmp_path_factory.mktemp("micro")
    cfg = micro_config(root)
    out = root / "out"
    assert main(["gen-dataset", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    return load_config(cfg), out
