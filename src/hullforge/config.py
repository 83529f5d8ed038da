"""Pipeline configuration: water constants, test cases, tunable knobs.

Config files are flat ``key = value`` text with ``[section]`` headers
(parsed with :mod:`configparser`).  Every knob is a ``PipelineConfig``
field that names its section and has a documented default; unknown
sections or keys are rejected so typos fail loudly.  Settings that no
caller varies (the holdout share, learning rate, beta range and embedding
width) are module constants, not knobs.  This module imports only
``errors``, so every other module can take shared defaults from it.
"""

import configparser
import hashlib
import io
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigurationError


class WaterConstants:
    """Seawater at 15 C, the water of every design case.

    The simulation papers this pipeline follows do not state water
    constants, so they are pinned here; ``gen-dataset`` records them in
    ``dataset.meta``.
    """

    rho = 1025.0   # kg/m^3
    g = 9.81       # m/s^2
    nu = 1.19e-6   # m^2/s


# Axes of the per-hull wave-resistance grid: 4 draft ratios x 7 Froude numbers.
# The five bundled cases sit at length Froude numbers 0.17-0.41, above 0.15.
GRID_DRAFTS = (0.25, 0.33, 0.50, 0.67)
GRID_FROUDE = (0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45)

# Sampling ranges for resistance-model training rows; FROUDE_RANGE is the
# grid's Froude axis, so no row clamps to its edge.
TSTAR_RANGE = (0.25, 0.67)
FROUDE_RANGE = (GRID_FROUDE[0], GRID_FROUDE[-1])
LOG10_LOA_RANGE = (0.47, 2.65)
LOA_RANGE = (3.0, 450.0)   # also the dataset's LOA draw and the feasibility box

# Share of the feasible hulls held out of training (at least one): the
# regressors' R^2 is measured on them.
HOLDOUT_FRACTION = 0.125

# Draft-ratio range used when conditioning the generative model.
COND_TSTAR_RANGE = (0.01, 1.0)

# Michell quadrature resolution.  Doubling every resolution (theta nodes, nx,
# nz) moves the grid values of the first 32 desk hulls by at most 0.7% at
# Fn >= 0.30, 1.0% at Fn 0.25, 1.7% at 0.20 and 1.9% at 0.15 (largest change
# per Froude column).  The x direction dominates the error (slope kinks get
# smeared by sampling); the z integral is exact per cell and converges by
# nz ~ 48.
THETA_NODES = 384
PLANE_NX = 512
PLANE_NZ = 48

# Network and diffusion shapes: every network has HIDDEN_LAYERS tanh layers
# of HIDDEN_UNITS units and trains by minibatch Adam on BATCH_SIZE rows at
# LEARNING_RATE; the denoiser embeds timestep and conditioning in EMBED_DIM
# dimensions, under a linear beta schedule stated for 1000 steps.
HIDDEN_LAYERS = 4
HIDDEN_UNITS = 256
HIDDEN = (HIDDEN_UNITS,) * HIDDEN_LAYERS
BATCH_SIZE = 256
LEARNING_RATE = 1e-3
EMBED_DIM = 32
TIMESTEPS = 1000
BETA_START = 1e-4
BETA_END = 0.02


@dataclass(frozen=True)
class TestCase:
    """Target principal dimensions and design speed for one design task."""

    __test__ = False   # domain type, not a pytest class

    name: str
    loa: float      # m
    boa: float      # m
    draft: float    # m
    depth: float    # m
    volume: float   # m^3 displaced at the target draft
    speed: float    # m/s

    def __post_init__(self):
        vals = (self.loa, self.boa, self.draft, self.depth, self.volume, self.speed)
        if any(v <= 0 for v in vals):
            raise ConfigurationError(f"test case {self.name!r}: all dimensions must be positive")
        if self.draft >= self.depth:
            raise ConfigurationError(f"test case {self.name!r}: draft must be below depth")

    @property
    def tstar(self) -> float:
        return self.draft / self.depth

    def dimension_errors(self, shape) -> tuple:
        """(beam_err, depth_err, t*) of a raw shape vector at this case's LOA:
        the relative errors of its beam and depth against the targets, and
        the draft ratio t* = draft / (depth_ratio * LOA) that floats it at
        the target draft (past the deck when t* > 1)."""
        depth = shape[1] * self.loa     # shape[0], shape[1]: beam and depth ratios
        return ((shape[0] * self.loa - self.boa) / self.boa,
                (depth - self.depth) / self.depth, self.draft / depth)


def default_cases() -> dict[str, TestCase]:
    """The five bundled design test cases (real-ship-inspired dimensions)."""
    cases = [
        TestCase("supercarrier", 333.0, 42.1, 11.3, 29.6, 97_561.0, 16.0),
        TestCase("kayak", 3.8, 0.787, 0.15, 0.438, 0.166, 1.50),
        TestCase("neopanamax", 366.0, 50.0, 15.2, 40.0, 182_114.0, 10.3),
        TestCase("frigate", 127.0, 16.0, 6.90, 11.0, 4_488.0, 14.4),
        TestCase("ropax", 72.0, 20.0, 3.2, 4.8, 3_917.0, 6.17),
    ]
    return {c.name: c for c in cases}


def _knob(section: str, default):
    """A PipelineConfig field read from and written to ``[section]``."""
    return field(default=default, metadata={"section": section})


@dataclass(frozen=True)
class PipelineConfig:
    """Every tunable knob.  Frozen, so the checks of ``__post_init__`` hold
    for the life of the object; derive a variant with ``dataclasses.replace``."""

    n_hulls: int = _knob("dataset", 4096)       # feasible hulls; as many infeasible vectors are added
    seed: int = _knob("dataset", 20240811)
    rows_per_hull: int = _knob("dataset", 128)  # resistance-training rows drawn per hull
    workers: int = _knob("dataset", 0)          # gen-dataset processes, train threads; 0 -> one per CPU

    theta_nodes: int = _knob("michell", THETA_NODES)
    plane_nx: int = _knob("michell", PLANE_NX)
    plane_nz: int = _knob("michell", PLANE_NZ)

    hidden_layers: int = _knob("network", HIDDEN_LAYERS)
    hidden_units: int = _knob("network", HIDDEN_UNITS)
    batch_size: int = _knob("network", BATCH_SIZE)
    resistance_steps: int = _knob("network", 20000)
    volume_steps: int = _knob("network", 8000)
    waterline_steps: int = _knob("network", 8000)
    classifier_steps: int = _knob("network", 5000)
    diffusion_steps: int = _knob("network", 24000)

    timesteps: int = _knob("schedule", TIMESTEPS)

    gamma: float = _knob("guidance", 0.2)
    lambda0: float = _knob("guidance", 0.3)
    lambda1: float = _knob("guidance", 0.3)

    n_samples: int = _knob("sampling", 512)

    population: int = _knob("optimize", 100)
    generations: int = _knob("optimize", 200)

    # [case:<name>] sections
    cases: dict[str, TestCase] = field(default_factory=default_cases)

    def __post_init__(self):
        if self.n_hulls < 2:   # the holdout takes one, training needs another
            raise ConfigurationError("dataset.n_hulls must be >= 2")
        if self.seed < 0:
            raise ConfigurationError("dataset.seed must be >= 0")
        if self.batch_size < 1 or min(self.resistance_steps, self.volume_steps,
                                      self.waterline_steps, self.classifier_steps,
                                      self.diffusion_steps) < 1:
            raise ConfigurationError("network batch size and step counts must be >= 1")
        if self.workers < 0:
            raise ConfigurationError("dataset.workers must be >= 0")
        if min(self.plane_nx, self.plane_nz) < 8:
            raise ConfigurationError("michell.plane_nx and plane_nz must be >= 8")
        if self.n_samples < 1:
            raise ConfigurationError("sampling.n_samples must be >= 1")
        if self.population < 4:
            raise ConfigurationError("optimize.population must be >= 4")
        for name in ("gamma", "lambda0", "lambda1"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"guidance.{name} must be >= 0")


def _schema() -> dict:
    """section -> the PipelineConfig fields stored there, in declaration order."""
    schema = {}
    for f in fields(PipelineConfig):
        if "section" in f.metadata:
            schema.setdefault(f.metadata["section"], {})[f.name] = f
    return schema


_SCHEMA = _schema()
_CASE_KEYS = {"loa", "boa", "draft", "depth", "volume", "speed"}


def _parse(section: str, key: str, kind, raw: str):
    """``kind(raw)``, or a ConfigurationError naming the section and key."""
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigurationError(f"bad value for {section}.{key}: {raw!r}") from exc


def load_config(path) -> PipelineConfig:
    """Parse and validate a config file, filling unset keys with defaults."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(str(path))
    if not read:
        raise ConfigurationError(f"config file not found: {path}")
    values, cases = {}, default_cases()
    for section in parser.sections():
        if section.startswith("case:"):
            name = section.split(":", 1)[1]
            got = dict(parser.items(section))
            unknown = set(got) - _CASE_KEYS
            if unknown:
                raise ConfigurationError(f"[{section}] unknown keys: {sorted(unknown)}")
            missing = _CASE_KEYS - set(got)
            if missing:
                raise ConfigurationError(f"[{section}] missing keys: {sorted(missing)}")
            cases[name] = TestCase(name, **{k: _parse(section, k, float, v)
                                            for k, v in got.items()})
            continue
        if section not in _SCHEMA:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigurationError(f"unknown config key {section}.{key}")
            values[key] = _parse(section, key, _SCHEMA[section][key].type, raw)
    return PipelineConfig(**values, cases=cases)


def dump_config(cfg: PipelineConfig) -> str:
    """Canonical text rendering of a config (used for hashing and manifests)."""
    out = io.StringIO()
    for section, keys in _SCHEMA.items():
        out.write(f"[{section}]\n")
        for key in keys:
            out.write(f"{key} = {getattr(cfg, key)!r}\n".replace("'", ""))
        out.write("\n")
    for name in sorted(cfg.cases):
        c = cfg.cases[name]
        out.write(f"[case:{name}]\n")
        for key in sorted(_CASE_KEYS):
            out.write(f"{key} = {getattr(c, key)!r}\n")
        out.write("\n")
    return out.getvalue()


def config_hash(cfg: PipelineConfig) -> str:
    return hashlib.sha256(dump_config(cfg).encode()).hexdigest()[:16]


def cache_key(cfg: PipelineConfig) -> str:
    """``config_hash`` plus a hash of the package sources, so a cached
    artifact set is never reused by code other than the code that built it."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return f"{config_hash(cfg)}-{digest.hexdigest()[:16]}"


def smoke_config() -> PipelineConfig:
    """A small configuration for end-to-end smoke runs (minutes, not hours)."""
    cfg = PipelineConfig(
        n_hulls=64,
        seed=7,
        rows_per_hull=64,
        resistance_steps=1200,
        volume_steps=800,
        waterline_steps=800,
        classifier_steps=800,
        diffusion_steps=1500,
        timesteps=250,
        n_samples=64,
        population=24,
        generations=12,
    )
    return cfg
