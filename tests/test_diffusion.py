import csv
import shutil
import warnings

import numpy as np
import pytest

from hullforge.config import SAMPLE_STEPS
from hullforge.dataset import read_meta
from hullforge.diffusion import (ConditioningVector, DenoiserModel,
                                 GuidanceModels, NoiseSchedule, forward_noise,
                                 init_denoiser, linear_schedule, load_denoiser,
                                 sample_guided, save_denoiser, strided_steps,
                                 train_denoiser, train_diffusion)
from hullforge.errors import (ConfigurationError, DomainError,
                             RepresentationError, TrainingError)
from hullforge.neural import MlpModel, TrainConfig, init_mlp
from hullforge.pipeline import SAMPLE_MODES, cmd_evaluate, cmd_optimize, cmd_sample
from conftest import MALFORMED_BLOCKS, malform_archive


@pytest.fixture(scope="module")
def sched():
    return linear_schedule(1000)


def test_schedule_invariants(sched):
    assert sched.timesteps == 1000
    abars = sched.alpha_bars
    assert abars.shape == (1000,)
    assert np.all(np.diff(abars) < 0)
    assert abars[-1] < 0.01
    assert all(0 < sched.alphas[t - 1] < 1 for t in (1, 500, 1000))
    assert sched.sigmas[0] == pytest.approx(np.sqrt(sched.betas[0]))


def test_schedule_rejects_bad_betas():
    with pytest.raises(DomainError):
        NoiseSchedule(np.array([0.5, -0.1]))
    with pytest.raises(DomainError):
        NoiseSchedule(np.array([1e-6, 1e-6]))   # barely noised: abar too large


def test_forward_noise_formula(sched):
    x0 = np.array([0.5, -0.25, 1.0])
    betas = sched.betas
    for t in (1, 400, 1000):
        ab = np.prod(1.0 - betas[:t])
        got = forward_noise(x0, t, np.zeros(3), sched)
        assert np.allclose(got, np.sqrt(ab) * x0, rtol=1e-12)
    norms = [np.linalg.norm(forward_noise(x0, t, np.zeros(3), sched))
             for t in range(1, 1001, 50)]
    assert np.all(np.diff(norms) < 0)


def test_forward_noise_marginal_statistics(sched):
    rng = np.random.default_rng(99)
    x0 = np.array([0.3, -0.7, 0.1])
    draws = np.array([forward_noise(x0, 1000, rng.standard_normal(3), sched)
                      for _ in range(10_000)])
    assert np.abs(draws.mean(axis=0)).max() < 0.05
    var = draws.var(axis=0)
    assert np.all((var > 0.9) & (var < 1.1))


def test_forward_noise_domain_and_arity(sched):
    with pytest.raises(DomainError):
        forward_noise(np.zeros(3), 0, np.zeros(3), sched)
    with pytest.raises(DomainError):
        forward_noise(np.zeros(3), 1001, np.zeros(3), sched)


def test_forward_noise_array_of_timesteps_matches_rows(sched):
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal((6, 3))
    eps = rng.standard_normal((6, 3))
    t = np.array([1, 2, 250, 500, 999, 1000])
    rows = np.array([forward_noise(x0[i], int(t[i]), eps[i], sched)
                     for i in range(t.size)])
    assert np.array_equal(forward_noise(x0, t, eps, sched), rows)
    for bad in (0, 1001):
        with pytest.raises(DomainError):
            forward_noise(x0, np.array([1, 2, bad, 4, 5, 6]), eps, sched)
    with pytest.raises(RepresentationError):   # one timestep per row
        forward_noise(x0[:, 0], t, eps[:, 0], sched)


def _toy_batch(rng, size):
    """Two tight 2-D blobs; conditioning is the blob id."""
    labels = rng.integers(0, 2, size)
    centers = np.where(labels[:, None] == 0, [-2.0, 0.0], [2.0, 0.0])
    return centers + 0.2 * rng.standard_normal((size, 2)), labels[:, None].astype(float)


def test_toy_conditional_recovery():
    sched = linear_schedule(200)
    model = train_denoiser(_toy_batch, x_dim=2, cond_dim=1, sched=sched,
                           cfg=TrainConfig(batch_size=128, steps=3000, seed=3),
                           hidden=(64, 64), embed_dim=16).model
    models = GuidanceModels(denoiser=model)
    cond = ConditioningVector(tstar=0.5, log_v=0.0, beam_ratio=0.1,
                              depth_ratio=0.1)
    # reuse the machinery with a raw conditioning array via a tiny shim
    samples = sample_guided(models, _RawCond([0.0]), speed=1.0, loa=1.0,
                            n=256, gamma=0.0, lambda0=0.0, lambda1=0.0,
                            sched=sched, seed=11)
    dist = np.linalg.norm(samples - [-2.0, 0.0], axis=1)
    assert np.mean(dist <= 3 * 0.2 * np.sqrt(2)) >= 0.95


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e300], ids=["nan", "inf", "1e300"])
def test_denoiser_divergence_names_step(monkeypatch, value):
    """A NaN batch, or one float32 cannot hold, at step 3 stops training
    there, before its backprop, and no numpy warning is raised on the way."""
    steps = iter(range(10))
    backprops = []
    backward = MlpModel._backward
    monkeypatch.setattr(MlpModel, "_backward",
                        lambda self, *args: backprops.append(1) or backward(self, *args))

    def draw_batch(rng, size):
        x0, cond = _toy_batch(rng, size)
        if next(steps) == 3:
            x0[5] = value
        return x0, cond

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingError, match="at step 3$"):
            train_denoiser(draw_batch, x_dim=2, cond_dim=1, sched=linear_schedule(50),
                           cfg=TrainConfig(batch_size=16, steps=10, seed=1),
                           hidden=(8,), embed_dim=4)
    assert len(backprops) == 3


class _RawCond:
    """Conditioning stand-in for non-hull experiments."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)
        self.tstar = 0.5
        self.log_v = 0.0

    def as_array(self):
        return self._values


def test_training_improves_denoising(mini_stacked):
    sched = linear_schedule(100)
    cfg = TrainConfig(batch_size=64, steps=400, seed=1)
    model = train_diffusion(mini_stacked, sched, cfg, hidden=(32, 32),
                            embed_dim=8).model
    rng = np.random.default_rng(0)
    idx = rng.integers(0, mini_stacked.n, 128)
    x0 = mini_stacked.norm_shapes[idx]
    cond = np.column_stack([np.full(128, 0.5),
                            np.log10(mini_stacked.vols[idx][:, 49]),
                            mini_stacked.shapes[idx][:, 0],
                            mini_stacked.shapes[idx][:, 1]])
    t = rng.integers(1, 101, 128)
    eps = rng.standard_normal(x0.shape)
    ab = sched.alpha_bars[t - 1][:, None]
    xt = np.sqrt(ab) * x0 + np.sqrt(1 - ab) * eps
    trained_loss = float(np.mean((model.predict_noise(xt, t, cond) - eps) ** 2))
    fresh = init_denoiser(13, 4, sched, hidden=(32, 32), embed_dim=8, seed=77)
    fresh_loss = float(np.mean((fresh.predict_noise(xt, t, cond) - eps) ** 2))
    assert trained_loss < fresh_loss


def test_sampling_deterministic_and_shaped(mini_stacked):
    sched = linear_schedule(50)
    cfg = TrainConfig(batch_size=32, steps=100, seed=2)
    model = train_diffusion(mini_stacked, sched, cfg, hidden=(16,), embed_dim=8).model
    models = GuidanceModels(denoiser=model)
    cond = ConditioningVector(tstar=0.4, log_v=-2.5, beam_ratio=0.2,
                              depth_ratio=0.1)
    off = dict(gamma=0.0, lambda0=0.0, lambda1=0.0, sched=sched, seed=5)
    a = sample_guided(models, cond, 1.0, 1.0, 8, **off)
    b = sample_guided(models, cond, 1.0, 1.0, 8, **off)
    assert a.shape == (8, 13)
    assert np.array_equal(a, b)
    assert sample_guided(models, cond, 1.0, 1.0, 0, **off).shape == (0, 13)


def test_guidance_off_equivalence_bitwise(mini_stacked):
    sched = linear_schedule(50)
    cfg = TrainConfig(batch_size=32, steps=100, seed=2)
    model = train_diffusion(mini_stacked, sched, cfg, hidden=(16,), embed_dim=8).model
    cond = ConditioningVector(tstar=0.4, log_v=-2.5, beam_ratio=0.2,
                              depth_ratio=0.1)
    guided = sample_guided(GuidanceModels(denoiser=model), cond, speed=5.0,
                           loa=50.0, n=6, gamma=0.0, lambda0=0.0, lambda1=0.0,
                           sched=sched, seed=21)
    plain = sample_guided(GuidanceModels(denoiser=model), cond, speed=1.0,
                          loa=1.0, n=6, gamma=0.0, lambda0=0.0, lambda1=0.0,
                          sched=sched, seed=21)
    assert np.array_equal(guided, plain)


@pytest.mark.parametrize("coefs,missing", [((0.0, 0.0, 0.0), "denoiser"),
                                           ((0.2, 0.0, 0.0), "classifier"),
                                           ((0.0, 1.0, 0.0), "resistance, waterline"),
                                           ((0.0, 0.0, 1.0), "volume")],
                         ids=["unguided", "gamma", "lambda0", "lambda1"])
def test_missing_guidance_model_is_configuration_error(coefs, missing):
    """Every sample needs the denoiser; a positive coefficient, the
    networks GUIDANCE_NETS lists for it.  The error names them."""
    sched = linear_schedule(50)
    den = None if missing == "denoiser" else init_denoiser(13, 4, sched, hidden=(16,),
                                                           embed_dim=8)
    cond = ConditioningVector(tstar=0.4, log_v=-2.5, beam_ratio=0.2,
                              depth_ratio=0.1)
    gamma, lambda0, lambda1 = coefs
    with pytest.raises(ConfigurationError, match=f"needs the {missing} network"):
        sample_guided(GuidanceModels(denoiser=den), cond, speed=5.0, loa=50.0, n=2,
                      gamma=gamma, lambda0=lambda0, lambda1=lambda1, sched=sched, seed=1)


def test_guidance_terms_change_samples(mini_stacked, mini_normalizer):
    rng = np.random.default_rng(31)
    sched = linear_schedule(50)
    den = train_diffusion(mini_stacked, sched,
                          TrainConfig(batch_size=32, steps=100, seed=2),
                          hidden=(16,), embed_dim=8).model
    classifier = init_mlp(13, (16,), 1, "sigmoid", rng)
    resistance = init_mlp(16, (16,), 1, "linear", rng)
    volume = init_mlp(14, (16,), 1, "linear", rng)
    waterline = init_mlp(14, (16,), 1, "linear", rng)
    models = GuidanceModels(den, classifier, resistance, volume, waterline)
    cond = ConditioningVector(tstar=0.4, log_v=-2.5, beam_ratio=0.2,
                              depth_ratio=0.1)
    plain = sample_guided(models, cond, 5.0, 50.0, 4, gamma=0.0, lambda0=0.0,
                          lambda1=0.0, sched=sched, seed=3)
    nudged = sample_guided(models, cond, 5.0, 50.0, 4, gamma=0.1, lambda0=0.1,
                           lambda1=0.1, sched=sched, seed=3)
    assert not np.allclose(plain, nudged)


@pytest.mark.parametrize("timesteps", [50, 100, 101, 250, 1000])
def test_sampler_runs_the_denoiser_once_per_walked_step(timesteps, monkeypatch):
    """The walk starts at T, ends at 1, strictly decreases and has
    min(T, SAMPLE_STEPS) steps, only the last with zero variance; the
    sampler's cost is one denoiser call per walked step."""
    sched = linear_schedule(timesteps)
    den = init_denoiser(13, 4, sched, hidden=(16,), embed_dim=8)
    calls = []
    real = DenoiserModel.predict_noise

    def counted(self, x, t, cond):
        calls.append(t)
        return real(self, x, t, cond)
    monkeypatch.setattr(DenoiserModel, "predict_noise", counted)
    cond = ConditioningVector(tstar=0.4, log_v=-2.5, beam_ratio=0.2,
                              depth_ratio=0.1)
    sample_guided(GuidanceModels(denoiser=den), cond, 1.0, 1.0, 3, gamma=0.0,
                  lambda0=0.0, lambda1=0.0, sched=sched, seed=1)
    ts, alphas, variances = strided_steps(sched)
    assert calls == ts.tolist()
    assert len(calls) == alphas.size == variances.size == min(timesteps, SAMPLE_STEPS)
    assert (calls[0], calls[-1]) == (timesteps, 1)
    assert np.all(np.diff(calls) < 0)
    assert variances[-1] == 0.0 and np.all(variances[:-1] > 0)


def test_stride_one_walk_is_the_ddpm_posterior():
    """With T <= SAMPLE_STEPS every trained step is walked, a' is alpha_t
    and the variance is (1 - abar_{t-1}) / (1 - abar_t) beta_t."""
    sched = linear_schedule(50)
    ts, alphas, variances = strided_steps(sched)
    assert ts.tolist() == list(range(50, 0, -1))
    abar_prev = np.append(1.0, sched.alpha_bars[:-1])[ts - 1]
    posterior = (1 - abar_prev) / (1 - sched.alpha_bars[ts - 1]) * sched.betas[ts - 1]
    np.testing.assert_allclose(alphas, 1 - sched.betas[ts - 1], rtol=1e-12)
    np.testing.assert_allclose(variances, posterior, rtol=1e-9, atol=1e-15)


class _ConstantGuide:
    """A guidance network stub: each of its terms contributes ``scale`` per
    coordinate before its coefficient and the step's variance."""

    def __init__(self, scale, log_v):
        self.scale, self.log_v = scale, log_v

    def input_gradient(self, x):
        return np.full(np.shape(x), self.scale)

    def predict(self, x):
        return np.ones(len(x))

    def value_and_input_gradient(self, x):
        return np.full(len(x), self.log_v + self.scale / 2), np.ones(np.shape(x))


class _ZeroNoise:
    x_dim, timesteps = 2, 250

    def predict_noise(self, x, t, cond):
        return np.zeros_like(x)


def test_guidance_terms_are_scaled_by_each_steps_variance():
    """With a zero-noise denoiser each step maps x to x / sqrt(a'), so the
    gap between unit and zero guidance gradients follows
    d <- d / sqrt(a') + var (gamma - lambda0 - lambda1) along the walk."""
    sched = linear_schedule(_ZeroNoise.timesteps)
    cond = ConditioningVector(tstar=0.4, log_v=-2.5, beam_ratio=0.2,
                              depth_ratio=0.1)
    coefs = dict(gamma=0.1, lambda0=0.2, lambda1=0.3)

    def run(scale):
        guide = _ConstantGuide(scale, cond.log_v)
        models = GuidanceModels(_ZeroNoise(), guide, guide, guide, guide)
        return sample_guided(models, cond, 5.0, 50.0, 3, **coefs, sched=sched, seed=4)
    gap = 0.0
    for a, var in zip(*strided_steps(sched)[1:]):
        gap = gap / np.sqrt(a) + var * (coefs["gamma"] - coefs["lambda0"] - coefs["lambda1"])
    np.testing.assert_allclose(run(1.0) - run(0.0), gap, rtol=1e-9)


def test_sampler_health_counters_reach_the_artifacts(micro_models, tmp_path):
    """provenance.meta records the walked step count and the share of
    normalized coordinates outside [-1, 1]; summary.csv counts each arm's
    quadrature warnings."""
    cfg, src = micro_models
    out = tmp_path / "out"
    shutil.copytree(src, out)
    for mode in SAMPLE_MODES:
        cmd_sample(cfg, out, "kayak", mode)
        meta = read_meta(out / "samples" / "kayak" / mode / "provenance.meta")
        assert int(meta["sample_steps"]) == min(cfg.timesteps, SAMPLE_STEPS)
        assert 0.0 <= float(meta["out_of_box_share"]) <= 1.0
    cmd_optimize(cfg, out, "kayak")
    with open(cmd_evaluate(cfg, out, "kayak") / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["arm"] for r in rows] == [*SAMPLE_MODES, "nsga2"]
    assert all(int(r["quadrature_warnings"]) >= 0 for r in rows)


def test_denoiser_archive_roundtrip(tmp_path, mini_stacked):
    sched = linear_schedule(50)
    model = train_diffusion(mini_stacked, sched,
                            TrainConfig(batch_size=32, steps=50, seed=4),
                            hidden=(16,), embed_dim=8).model
    path = tmp_path / "denoiser.txt"
    save_denoiser(model, path)
    back = load_denoiser(path)
    x = np.random.default_rng(0).standard_normal((5, 13))
    cond = np.tile([0.5, -2.5, 0.2, 0.1], (5, 1))
    assert np.array_equal(back.predict_noise(x, 17, cond),
                          model.predict_noise(x, 17, cond))


def test_denoiser_trains_in_float32_and_returns_float64(adam_dtypes, tmp_path,
                                                       mini_stacked):
    sched = linear_schedule(50)
    result = train_diffusion(mini_stacked, sched,
                             TrainConfig(batch_size=16, steps=3, seed=4),
                             hidden=(16,), embed_dim=8)
    assert adam_dtypes == [{np.dtype(np.float32)}] * 3
    assert [step for step, _ in result.loss_history] == [0, 2]
    den = result.model
    arrays = [den.cond_w, den.cond_b, *den.mlp.weights, *den.mlp.biases]
    for arr in arrays:
        assert arr.dtype == np.float64
        assert np.array_equal(arr.astype(np.float32).astype(np.float64), arr)
    path = tmp_path / "denoiser.txt"
    save_denoiser(den, path)
    back = load_denoiser(path)
    for got, want in zip([back.cond_w, back.cond_b, *back.mlp.weights,
                          *back.mlp.biases], arrays):
        assert np.array_equal(got, want)
    # inference stays float64
    assert den.predict_noise(np.zeros((2, 13)), 7, [0.5, -2.5, 0.2, 0.1]).dtype \
        == np.float64


@pytest.mark.parametrize("old,new", [(" tanh linear", " relu linear"),
                                     ("W0 ", "W1 "),
                                     ("denoiser 3 2 4 50", "denoiser 3 2"),
                                     ("denoiser 3 2 4 50", "denoiser 3 x 4 50")],
                         ids=["activation", "tag", "header", "size"])
def test_denoiser_archive_rejects_bad_blocks(tmp_path, old, new):
    model = init_denoiser(3, 2, linear_schedule(50), hidden=(4,), embed_dim=4)
    path = tmp_path / "denoiser.txt"
    save_denoiser(model, path)
    path.write_text(path.read_text().replace(old, new, 1))
    with pytest.raises(RepresentationError):
        load_denoiser(path)


def test_denoiser_header_must_agree_with_its_network(tmp_path):
    """x_dim is read off the network; a header that says otherwise is not
    loaded (it used to fail only at the first reverse step)."""
    path = tmp_path / "denoiser.txt"
    save_denoiser(init_denoiser(3, 2, linear_schedule(50), hidden=(4,),
                                embed_dim=4), path)
    assert load_denoiser(path).x_dim == 3
    path.write_text(path.read_text().replace("denoiser 3 2 4 50", "denoiser 4 2 4 50", 1))
    with pytest.raises(RepresentationError, match=r"header .*denoiser\.txt"):
        load_denoiser(path)


@pytest.mark.parametrize("case", MALFORMED_BLOCKS)
def test_denoiser_archive_rejects_a_malformed_block(tmp_path, case):
    """Never numpy's bare ValueError: the error names the block and the file."""
    path = tmp_path / "denoiser.txt"
    save_denoiser(init_denoiser(3, 2, linear_schedule(50), hidden=(4,),
                                embed_dim=4), path)
    malform_archive(path, case)
    with pytest.raises(RepresentationError, match=r"block CW .*denoiser\.txt"):
        load_denoiser(path)


def test_conditioning_vector_from_case():
    from hullforge.config import default_cases

    case = default_cases()["kayak"]
    cond = ConditioningVector.from_case(case)
    assert cond.tstar == pytest.approx(0.15 / 0.438)
    assert cond.beam_ratio == pytest.approx(0.787 / 3.8)
    assert cond.log_v == pytest.approx(np.log10(0.166 / 3.8**3))
