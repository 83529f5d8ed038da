"""Conditional tabular denoising diffusion with optional guidance.

The denoiser is a plain MLP over [x_t, e] where e is a sinusoidal timestep
embedding summed with a learned linear embedding of the conditioning
vector.  Sampling follows the guided update literally, including the
(1 - gamma) attenuation of the noise term and the classifier gradient
added outside the sigma_t scaling:

    x_{t-1} = (x_t - (1-a_t)/sqrt(1-abar_t) eps_hat) / sqrt(a_t)
              + sigma_t Z (1-gamma) + gamma grad f
              - lambda0 grad P_ct - lambda1 grad (V - P_v)^2

Guidance gradients are evaluated on the normalized parameter scale, and
the volume term lives on the log10 scale where the volume regressor is
trained.  The Froude number fed to the resistance model is recomputed
every step from the waterline regressor via F_n = U / sqrt(g WL LOA).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import (BETA_END, BETA_START, COND_TSTAR_RANGE, EMBED_DIM, HIDDEN,
                     TIMESTEPS, TestCase)
from .dataset import _interp_marks, surrogate_rows
from .errors import (ConfigurationError, DomainError, RepresentationError,
                     TrainingError)
from .neural import (TRAIN_DTYPE, Adam, MlpModel, TrainConfig, TrainResult,
                     _loss_and_delta, init_mlp, read_block, read_mlp,
                     read_sizes, records_loss, write_block, write_mlp)


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step beta/alpha tables; index with t in [1, T]."""

    betas: np.ndarray

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=float)
        object.__setattr__(self, "betas", betas)
        if np.any((betas <= 0) | (betas >= 1)):
            raise DomainError("betas must lie in (0, 1)")
        abar = np.cumprod(1.0 - betas)
        if np.any(np.diff(abar) >= 0):
            raise DomainError("cumulative alpha must be strictly decreasing")
        if abar[-1] >= 0.01:
            raise DomainError(f"terminal cumulative alpha {abar[-1]:.4f} is too "
                              "large; increase T or the beta range")
        object.__setattr__(self, "_alphas", 1.0 - betas)
        object.__setattr__(self, "_abar", abar)
        object.__setattr__(self, "_sigmas", np.sqrt(betas))

    @property
    def timesteps(self) -> int:
        return self.betas.size

    def alpha(self, t: int) -> float:
        return float(self._alphas[t - 1])

    def alpha_bar(self, t: int) -> float:
        return float(self._abar[t - 1])

    def sigma(self, t: int) -> float:
        return float(self._sigmas[t - 1])


def linear_schedule(timesteps: int = TIMESTEPS) -> NoiseSchedule:
    """Linear beta schedule from BETA_START to BETA_END; the range is stated
    for 1000 steps and is rescaled by 1000/T for other step counts so the
    terminal noise level stays comparable."""
    scale = 1000.0 / timesteps
    return NoiseSchedule(np.linspace(scale * BETA_START, scale * BETA_END,
                                     timesteps))


def forward_noise(x0, t, eps, sched: NoiseSchedule):
    """x_t = sqrt(abar_t) x0 + sqrt(1 - abar_t) eps.

    ``t`` is one timestep, or an array of one timestep per row of ``x0``.
    """
    t = np.asarray(t)
    if np.any((t < 1) | (t > sched.timesteps)):
        raise DomainError(f"timestep outside 1..{sched.timesteps}: {t}")
    x0 = np.asarray(x0, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if x0.shape != eps.shape:
        raise RepresentationError("noise draw must match the sample shape")
    if t.ndim and t.shape != x0.shape[:-1]:
        raise RepresentationError("timesteps must be one per row of the sample")
    ab = sched._abar[t - 1][..., None] if t.ndim else sched._abar[t - 1]
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


@dataclass(frozen=True)
class ConditioningVector:
    """Targets handed to the denoiser: draft ratio, log10 volume, beam, depth.

    Volume is the LOA-normalized displaced volume; beam and depth are the
    LOA ratios, so the vector is scale-free like the design parameters.
    """

    tstar: float
    log_v: float
    beam_ratio: float
    depth_ratio: float

    def __post_init__(self):
        lo, hi = COND_TSTAR_RANGE
        if not lo <= self.tstar <= hi:
            raise DomainError(f"conditioning draft ratio must be in [{lo}, {hi}]")

    def as_array(self) -> np.ndarray:
        return np.array([self.tstar, self.log_v, self.beam_ratio, self.depth_ratio])

    @classmethod
    def from_case(cls, case: TestCase) -> "ConditioningVector":
        return cls(tstar=case.tstar,
                   log_v=math.log10(case.volume / case.loa**3),
                   beam_ratio=case.boa / case.loa,
                   depth_ratio=case.depth / case.loa)


@dataclass
class DenoiserModel:
    """Noise-prediction network with learned conditioning embedding."""

    mlp: MlpModel
    cond_w: np.ndarray       # (embed_dim, cond_dim)
    cond_b: np.ndarray       # (embed_dim,)
    x_dim: int
    cond_dim: int
    embed_dim: int
    timesteps: int

    def time_embedding(self, t) -> np.ndarray:
        """Sinusoidal embedding of integer timesteps, shape (..., embed_dim)."""
        t = np.asarray(t, dtype=float)
        half = self.embed_dim // 2
        freqs = np.exp(-math.log(10000.0) * np.arange(half) / half)
        ang = t[..., None] * freqs
        return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)

    def astype(self, dtype) -> "DenoiserModel":
        """A copy with every weight and bias cast to ``dtype``."""
        return replace(self, mlp=self.mlp.astype(dtype),
                       cond_w=self.cond_w.astype(dtype),
                       cond_b=self.cond_b.astype(dtype))

    def _stack(self, x, t, cond):
        """The network input [x_t, e] in the weights' dtype, and the
        conditioning rows; the time embedding is taken in float64."""
        dtype = self.cond_w.dtype
        x = np.atleast_2d(np.asarray(x, dtype=dtype))
        cond = np.asarray(cond, dtype=dtype)
        if cond.ndim == 1:
            cond = np.broadcast_to(cond, (x.shape[0], cond.size))
        emb = self.time_embedding(np.broadcast_to(np.asarray(t, dtype=float),
                                                  (x.shape[0],)))
        emb = emb.astype(dtype, copy=False) + cond @ self.cond_w.T + self.cond_b
        return np.concatenate([x, emb], axis=1), cond

    def predict_noise(self, x, t, cond) -> np.ndarray:
        inp, _ = self._stack(x, t, cond)
        return self.mlp.forward(inp)


def init_denoiser(x_dim: int, cond_dim: int, sched: NoiseSchedule,
                  hidden=HIDDEN, embed_dim: int = EMBED_DIM,
                  seed: int = 0) -> DenoiserModel:
    if embed_dim % 2:
        raise ConfigurationError("embedding dimension must be even")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 303]))
    mlp = init_mlp(x_dim + embed_dim, hidden, x_dim, "linear", rng)
    scale = 1.0 / math.sqrt(cond_dim)
    cond_w = rng.uniform(-scale, scale, (embed_dim, cond_dim))
    return DenoiserModel(mlp=mlp, cond_w=cond_w, cond_b=np.zeros(embed_dim),
                         x_dim=x_dim, cond_dim=cond_dim, embed_dim=embed_dim,
                         timesteps=sched.timesteps)


def train_denoiser(draw_batch, x_dim: int, cond_dim: int, sched: NoiseSchedule,
                   cfg: TrainConfig, hidden=HIDDEN,
                   embed_dim: int = EMBED_DIM) -> TrainResult:
    """Generic noise-prediction training, in ``neural.TRAIN_DTYPE``.

    ``draw_batch(rng, size)`` returns (x0, cond) arrays.  Each step draws
    fresh timesteps and noise, forms x_t, and descends on the noise MSE;
    gradients flow into the conditioning embedding as well.  The noise is
    cast to TRAIN_DTYPE as drawn; x_t is formed in float64 and rounded
    once, into the stacked network input.  The weights train as a
    TRAIN_DTYPE copy, and the result holds the denoiser in float64, with
    the noise MSE recorded as ``neural._train`` records its loss.
    """
    model = init_denoiser(x_dim, cond_dim, sched, hidden, embed_dim,
                          cfg.seed).astype(TRAIN_DTYPE)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 404]))
    params = [*model.mlp.weights, *model.mlp.biases, model.cond_w, model.cond_b]
    opt = Adam(params)
    history = []
    for step in range(cfg.steps):
        x0, cond = draw_batch(rng, cfg.batch_size)
        t = rng.integers(1, sched.timesteps + 1, x0.shape[0])
        eps = rng.standard_normal(x0.shape).astype(TRAIN_DTYPE)
        xt = forward_noise(x0, t, eps, sched)

        inp, cond_arr = model._stack(xt, t, cond)
        acts = model.mlp._forward_cached(inp)
        loss, delta = _loss_and_delta(acts[-1], eps, "mse")
        if not np.isfinite(loss):
            raise TrainingError(f"diffusion training diverged at step {step}")
        dws, dbs, dinp = model.mlp._backward(acts, delta)
        demb = dinp[:, model.x_dim:]
        dcond_w = demb.T @ cond_arr
        dcond_b = demb.sum(axis=0)
        opt.step([*dws, *dbs, dcond_w, dcond_b])
        if records_loss(step, cfg.steps):
            history.append((step, loss))
    return TrainResult(model=model.astype(np.float64), final_loss=loss,
                       loss_history=history)


def train_diffusion(data, sched: NoiseSchedule, cfg: TrainConfig,
                    hidden=HIDDEN, embed_dim: int = EMBED_DIM) -> TrainResult:
    """Train the hull denoiser on a stacked feasible dataset.

    Each batch item pairs a normalized design vector with a conditioning
    vector assembled at a random draft: [t*, log10 V(t*), beam, depth].
    """
    if data.n < 1:
        raise TrainingError("diffusion training needs at least one feasible record")
    beam = data.shapes[:, 0]
    depth = data.shapes[:, 1]

    def draw_batch(rng, size):
        idx = rng.integers(0, data.n, size)
        tstar = rng.uniform(*COND_TSTAR_RANGE, size)
        vol = _interp_marks(data.vols, idx, tstar)
        cond = np.column_stack([tstar, np.log10(vol), beam[idx], depth[idx]])
        return data.norm_shapes[idx], cond

    return train_denoiser(draw_batch, x_dim=data.norm_shapes.shape[1], cond_dim=4,
                          sched=sched, cfg=cfg, hidden=hidden, embed_dim=embed_dim)


@dataclass
class GuidanceModels:
    """Trained models used during sampling; optional ones may be None."""

    denoiser: DenoiserModel
    feasibility: MlpModel | None = None   # logistic feasibility classifier
    resistance: MlpModel | None = None    # [x, t*, F_n, log LOA] -> C_T
    volume: MlpModel | None = None        # [x, t*] -> log10 V
    waterline: MlpModel | None = None     # [x, t*] -> WL


def sample_guided(models: GuidanceModels, cond: ConditioningVector,
                  speed: float, loa: float, n: int, *, gamma: float,
                  lambda0: float, lambda1: float, sched: NoiseSchedule,
                  seed: int) -> np.ndarray:
    """Reverse diffusion with feasibility / resistance / volume guidance.

    Returns (n, x_dim) raw normalized design vectors; callers denormalize
    and validate.  With all coefficients zero this is exactly unguided
    conditional sampling (and consumes the same random stream, so the
    trajectories agree bitwise).
    """
    if min(gamma, lambda0, lambda1) < 0:
        raise ConfigurationError("guidance coefficients must be >= 0")
    if gamma > 0 and models.feasibility is None:
        raise ConfigurationError("gamma > 0 needs a feasibility classifier")
    if lambda0 > 0 and (models.resistance is None or models.waterline is None):
        raise ConfigurationError("lambda0 > 0 needs resistance and waterline models")
    if lambda1 > 0 and models.volume is None:
        raise ConfigurationError("lambda1 > 0 needs a volume model")
    den = models.denoiser
    if den.timesteps != sched.timesteps:
        raise ConfigurationError(f"denoiser was trained on a {den.timesteps}-step "
                                 f"schedule, asked to sample on {sched.timesteps} steps")
    rng = np.random.default_rng(seed)
    if n == 0:
        return np.zeros((0, den.x_dim))

    c = cond.as_array()
    x = rng.standard_normal((n, den.x_dim))
    tcol = np.full((n, 1), cond.tstar)
    for t in range(sched.timesteps, 0, -1):
        z = rng.standard_normal(x.shape) if t > 1 else np.zeros_like(x)
        eps_hat = den.predict_noise(x, t, c)
        a_t = sched.alpha(t)
        ab_t = sched.alpha_bar(t)
        mean = (x - (1.0 - a_t) / math.sqrt(1.0 - ab_t) * eps_hat) / math.sqrt(a_t)
        step = mean + sched.sigma(t) * z * (1.0 - gamma)
        if gamma > 0:
            step += gamma * models.feasibility.input_gradient(x)
        if lambda0 > 0:
            inp = surrogate_rows(models.waterline, x, cond.tstar, speed, loa)
            step -= lambda0 * models.resistance.input_gradient(inp)[:, :den.x_dim]
        if lambda1 > 0:
            v_hat, grad_v = models.volume.value_and_input_gradient(
                np.hstack([x, tcol]))
            step -= lambda1 * 2.0 * (v_hat - cond.log_v)[:, None] * grad_v[:, :den.x_dim]
        x = step
    return x


# ---------------------------------------------------------------------------
# Denoiser archive: conditioning-embedding blocks followed by the MLP blocks.


def save_denoiser(model: DenoiserModel, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"denoiser {model.x_dim} {model.cond_dim} {model.embed_dim} "
                 f"{model.timesteps}\n")
        write_block(fh, "CW", model.cond_w)
        write_block(fh, "cb", model.cond_b)
        write_mlp(fh, model.mlp)


def load_denoiser(path) -> DenoiserModel:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 5 or header[0] != "denoiser":
            raise RepresentationError(f"not a denoiser archive: {path}")
        x_dim, cond_dim, embed_dim, timesteps = read_sizes(header[1:], path)
        cond_w = read_block(fh, "CW", (embed_dim, cond_dim), path)
        cond_b = read_block(fh, "cb", (embed_dim,), path)
        mlp = read_mlp(fh, path)
    return DenoiserModel(mlp=mlp, cond_w=cond_w, cond_b=cond_b, x_dim=x_dim,
                         cond_dim=cond_dim, embed_dim=embed_dim,
                         timesteps=timesteps)
