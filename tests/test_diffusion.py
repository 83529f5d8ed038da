import warnings

import numpy as np
import pytest

from hullforge.diffusion import (ConditioningVector, GuidanceModels,
                                 NoiseSchedule, forward_noise, init_denoiser,
                                 linear_schedule, load_denoiser, sample_guided,
                                 save_denoiser, train_denoiser, train_diffusion)
from hullforge.errors import (ConfigurationError, DomainError,
                             RepresentationError, TrainingError)
from hullforge.neural import MlpModel, TrainConfig, init_mlp
from conftest import MALFORMED_BLOCKS, malform_archive


@pytest.fixture(scope="module")
def sched():
    return linear_schedule(1000)


def test_schedule_invariants(sched):
    assert sched.timesteps == 1000
    abars = np.array([sched.alpha_bar(t) for t in range(1, 1001)])
    assert np.all(np.diff(abars) < 0)
    assert abars[-1] < 0.01
    assert all(0 < sched.alpha(t) < 1 for t in (1, 500, 1000))
    assert sched.sigma(1) == pytest.approx(np.sqrt(sched.betas[0]))


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


def test_denoiser_divergence_names_step(monkeypatch):
    """A NaN batch at step 3 stops training there, before its backprop,
    and no numpy warning is raised on the way."""
    steps = iter(range(10))
    backprops = []
    backward = MlpModel._backward
    monkeypatch.setattr(MlpModel, "_backward",
                        lambda self, *args: backprops.append(1) or backward(self, *args))

    def draw_batch(rng, size):
        x0, cond = _toy_batch(rng, size)
        if next(steps) == 3:
            x0[5] = np.nan
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
    ab = np.array([sched.alpha_bar(int(ti)) for ti in t])[:, None]
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


def test_missing_guidance_model_is_configuration_error(mini_stacked):
    sched = linear_schedule(50)
    model = train_diffusion(mini_stacked, sched,
                            TrainConfig(batch_size=32, steps=50, seed=2),
                            hidden=(16,), embed_dim=8).model
    cond = ConditioningVector(tstar=0.4, log_v=-2.5, beam_ratio=0.2,
                              depth_ratio=0.1)
    with pytest.raises(ConfigurationError):
        sample_guided(GuidanceModels(denoiser=model), cond, speed=5.0,
                      loa=50.0, n=2, gamma=0.2, lambda0=0.0, lambda1=0.0,
                      sched=sched, seed=1)


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
