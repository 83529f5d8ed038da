"""Pipeline configuration: water constants, test cases, tunable knobs.

Config files are flat ``key = value`` text with ``[section]`` headers
(parsed with :mod:`configparser`).  Every knob has a documented default;
unknown sections or keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigurationError

# Seawater at 15 C.  The simulation papers this pipeline follows do not state
# water constants, so they are pinned here and recorded in every manifest.
@dataclass(frozen=True)
class WaterConstants:
    rho: float = 1025.0   # kg/m^3
    g: float = 9.81       # m/s^2
    nu: float = 1.19e-6   # m^2/s


# Axes of the per-hull wave-resistance grid: 4 draft ratios x 8 Froude numbers.
GRID_DRAFTS = (0.25, 0.33, 0.50, 0.67)
GRID_FROUDE = (0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45)

# Sampling ranges for resistance-model training rows.
TSTAR_RANGE = (0.25, 0.67)
FROUDE_RANGE = (0.05, 0.45)
LOG10_LOA_RANGE = (0.47, 2.65)
LOA_RANGE = (3.0, 450.0)

# Draft-ratio range used when conditioning the generative model.
COND_TSTAR_RANGE = (0.01, 1.0)


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


@dataclass
class PipelineConfig:
    # [dataset]
    n_hulls: int = 4096          # feasible hulls; an equal count of infeasible vectors is added
    seed: int = 20240811
    rows_per_hull: int = 128     # resistance-training rows drawn per hull
    holdout_fraction: float = 0.125
    workers: int = 0             # 0 -> use all CPUs

    # [water]
    water: WaterConstants = field(default_factory=WaterConstants)

    # [michell] quadrature defaults (see hydro module notes on sizing)
    theta_nodes: int = 384
    plane_nx: int = 512
    plane_nz: int = 48

    # [network]
    hidden_layers: int = 4
    hidden_units: int = 256
    batch_size: int = 256
    learning_rate: float = 1e-3
    resistance_steps: int = 20000
    volume_steps: int = 8000
    waterline_steps: int = 8000
    classifier_steps: int = 5000
    diffusion_steps: int = 24000

    # [schedule]
    timesteps: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02
    embed_dim: int = 32

    # [guidance]
    gamma: float = 0.2
    lambda0: float = 0.3
    lambda1: float = 0.3

    # [sampling]
    n_samples: int = 512

    # [optimize]
    population: int = 100
    generations: int = 200

    # [case:*]
    cases: dict[str, TestCase] = field(default_factory=default_cases)

    def __post_init__(self):
        if self.n_hulls < 1:
            raise ConfigurationError("dataset.n_hulls must be >= 1")
        if self.batch_size < 1 or min(self.resistance_steps, self.volume_steps,
                                      self.waterline_steps, self.classifier_steps,
                                      self.diffusion_steps) < 1:
            raise ConfigurationError("network batch size and step counts must be >= 1")
        if not 0.0 < self.holdout_fraction < 0.5:
            raise ConfigurationError("dataset.holdout_fraction must be in (0, 0.5)")
        for name in ("gamma", "lambda0", "lambda1"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"guidance.{name} must be >= 0")


# section -> {key: (attr, type)} for the flat config file format
_SCHEMA = {
    "dataset": {
        "n_hulls": ("n_hulls", int),
        "seed": ("seed", int),
        "rows_per_hull": ("rows_per_hull", int),
        "holdout_fraction": ("holdout_fraction", float),
        "workers": ("workers", int),
    },
    "water": {"rho": ("water.rho", float), "g": ("water.g", float), "nu": ("water.nu", float)},
    "michell": {
        "theta_nodes": ("theta_nodes", int),
        "plane_nx": ("plane_nx", int),
        "plane_nz": ("plane_nz", int),
    },
    "network": {
        "hidden_layers": ("hidden_layers", int),
        "hidden_units": ("hidden_units", int),
        "batch_size": ("batch_size", int),
        "learning_rate": ("learning_rate", float),
        "resistance_steps": ("resistance_steps", int),
        "volume_steps": ("volume_steps", int),
        "waterline_steps": ("waterline_steps", int),
        "classifier_steps": ("classifier_steps", int),
        "diffusion_steps": ("diffusion_steps", int),
    },
    "schedule": {
        "timesteps": ("timesteps", int),
        "beta_start": ("beta_start", float),
        "beta_end": ("beta_end", float),
        "embed_dim": ("embed_dim", int),
    },
    "guidance": {
        "gamma": ("gamma", float),
        "lambda0": ("lambda0", float),
        "lambda1": ("lambda1", float),
    },
    "sampling": {"n_samples": ("n_samples", int)},
    "optimize": {"population": ("population", int), "generations": ("generations", int)},
}

_CASE_KEYS = {"loa", "boa", "draft", "depth", "volume", "speed"}


def load_config(path) -> PipelineConfig:
    """Parse and validate a config file, filling unset keys with defaults."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(str(path))
    if not read:
        raise ConfigurationError(f"config file not found: {path}")
    cfg = PipelineConfig()
    water = dict(rho=cfg.water.rho, g=cfg.water.g, nu=cfg.water.nu)
    cases = dict(cfg.cases)

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
            cases[name] = TestCase(name, **{k: float(v) for k, v in got.items()})
            continue
        if section not in _SCHEMA:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigurationError(f"unknown config key {section}.{key}")
            attr, typ = _SCHEMA[section][key]
            try:
                val = typ(raw)
            except ValueError as exc:
                raise ConfigurationError(f"bad value for {section}.{key}: {raw!r}") from exc
            if attr.startswith("water."):
                water[attr.split(".", 1)[1]] = val
            else:
                setattr(cfg, attr, val)

    cfg.water = WaterConstants(**water)
    cfg.cases = cases
    cfg.__post_init__()
    return cfg


def dump_config(cfg: PipelineConfig) -> str:
    """Canonical text rendering of a config (used for hashing and manifests)."""
    out = io.StringIO()
    for section, keys in _SCHEMA.items():
        out.write(f"[{section}]\n")
        for key, (attr, _typ) in keys.items():
            if attr.startswith("water."):
                val = getattr(cfg.water, attr.split(".", 1)[1])
            else:
                val = getattr(cfg, attr)
            out.write(f"{key} = {val!r}\n".replace("'", ""))
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


def smoke_config(seed: int = 7) -> PipelineConfig:
    """A small configuration for end-to-end smoke runs (minutes, not hours)."""
    cfg = PipelineConfig(
        n_hulls=64,
        seed=seed,
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
