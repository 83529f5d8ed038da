import numpy as np
import pytest

from hullforge.errors import RepresentationError, TrainingError
from hullforge.neural import (TRAIN_DTYPE, MlpModel, TrainConfig,
                              accuracy, init_mlp, load_weights, r_squared,
                              save_weights, train_classifier, train_regressor)
from conftest import MALFORMED_BLOCKS, malform_archive


def linear_model(w, b=0.0):
    w = np.asarray(w, dtype=float)[:, None]
    return MlpModel(sizes=(w.shape[0], 1), weights=[w],
                    biases=[np.array([b])], head="linear")


def test_single_linear_layer_dot_product():
    model = linear_model([1.0, 2.0])
    assert model.predict([[3.0, 4.0]])[0] == pytest.approx(11.0)


def test_zero_weight_model_returns_bias():
    rng = np.random.default_rng(0)
    model = init_mlp(4, (8, 8), 1, "linear", rng)
    for w in model.weights:
        w[:] = 0.0
    model.biases[-1][:] = 2.5
    out = model.predict(rng.normal(size=(10, 4)))
    assert np.allclose(out, 2.5)


def test_forward_deterministic():
    rng = np.random.default_rng(1)
    model = init_mlp(6, (32, 32), 1, "linear", rng)
    x = rng.normal(size=(5, 6))
    assert np.array_equal(model.forward(x), model.forward(x))


def test_forward_arity_check():
    model = linear_model([1.0, 2.0])
    with pytest.raises(RepresentationError):
        model.forward(np.zeros((3, 5)))


def test_regressor_learns_linear_map():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, (100, 1))
    y = 2.0 * x[:, 0]
    result = train_regressor(x, y, TrainConfig(batch_size=32, steps=6000,
                                               seed=5), hidden=(32, 32))
    xv = rng.uniform(-0.9, 0.9, (50, 1))
    pred = result.model.predict(xv)
    assert float(np.mean((pred - 2.0 * xv[:, 0]) ** 2)) < 1e-4


def test_training_descends():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(512, 3))
    y = np.sin(x).sum(axis=1)
    result = train_regressor(x, y, TrainConfig(batch_size=64, steps=2000,
                                               seed=1), hidden=(32, 32))
    first = result.loss_history[0][1]
    assert result.loss_history[-1][1] < first


def test_training_reproducible():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(256, 2))
    y = x[:, 0] * x[:, 1]
    cfg = TrainConfig(batch_size=32, steps=400, seed=9)
    a = train_regressor(x, y, cfg, hidden=(16,))
    b = train_regressor(x, y, cfg, hidden=(16,))
    for wa, wb in zip(a.model.weights, b.model.weights):
        assert np.array_equal(wa, wb)


def test_training_divergence_names_step():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(64, 2))
    y = rng.normal(size=64)
    y[17] = np.inf
    with pytest.raises(TrainingError, match="step"):
        train_regressor(x, y, TrainConfig(batch_size=64, steps=50, seed=0),
                        hidden=(8,))


@pytest.mark.parametrize("train", [train_regressor, train_classifier])
def test_training_steps_run_in_float32(adam_dtypes, train):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(40, 3))
    y = (x[:, 0] > 0).astype(float)
    train(x, y, TrainConfig(batch_size=16, steps=5, seed=1), hidden=(8, 8))
    assert TRAIN_DTYPE == np.float32
    assert adam_dtypes == [{np.dtype(np.float32)}] * 5


def test_trained_model_is_float64_holding_float32_values(tmp_path):
    rng = np.random.default_rng(9)
    x = rng.normal(size=(64, 3))
    result = train_regressor(x, np.sin(x).sum(axis=1),
                             TrainConfig(batch_size=16, steps=30, seed=2),
                             hidden=(8, 8))
    arrays = [*result.model.weights, *result.model.biases]
    for arr in arrays:
        assert arr.dtype == np.float64
        assert np.array_equal(arr.astype(np.float32).astype(np.float64), arr)
    path = tmp_path / "model.txt"
    save_weights(result.model, path)
    back = load_weights(path)
    for got, want in zip([*back.weights, *back.biases], arrays):
        assert np.array_equal(got, want)
    save_weights(back, tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_loss_history_every_200_steps_and_the_last():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(32, 2))
    result = train_regressor(x, x[:, 0], TrainConfig(batch_size=8, steps=402, seed=0),
                             hidden=(4,))
    assert [step for step, _ in result.loss_history] == [0, 200, 400, 401]
    assert all(isinstance(loss, float) and np.isfinite(loss)
               for _, loss in result.loss_history)


def test_classifier_separable_blobs():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(300, 2)) * 0.3 + [-2.0, 0.0]
    b = rng.normal(size=(300, 2)) * 0.3 + [2.0, 0.0]
    x = np.vstack([a, b])
    y = np.concatenate([np.zeros(300), np.ones(300)])
    result = train_classifier(x, y, TrainConfig(batch_size=64, steps=1500,
                                                seed=2), hidden=(16, 16))
    assert accuracy(result.model, x, y) >= 0.98
    probs = result.model.predict(x)
    assert np.all((probs > 0) & (probs < 1))


def test_classifier_rejects_single_class():
    x = np.random.default_rng(0).normal(size=(50, 2))
    with pytest.raises(TrainingError):
        train_classifier(x, np.ones(50), TrainConfig(steps=10))


def test_input_gradient_linear_model_is_weights():
    model = linear_model([1.5, -2.0, 0.25])
    grad = model.input_gradient(np.zeros((2, 3)))
    assert np.allclose(grad, [1.5, -2.0, 0.25])


def test_input_gradient_constant_model_is_zero():
    rng = np.random.default_rng(1)
    model = init_mlp(3, (8,), 1, "linear", rng)
    model.weights[-1][:] = 0.0
    grad = model.input_gradient(rng.normal(size=(4, 3)))
    assert np.allclose(grad, 0.0)


@pytest.mark.parametrize("head", ["linear", "sigmoid"])
def test_input_gradient_matches_finite_differences(head):
    rng = np.random.default_rng(13)
    model = init_mlp(5, (32, 32, 32), 1, head, rng)
    x = rng.normal(size=(3, 5))
    grad = model.input_gradient(x)
    h = 1e-4
    for j in range(5):
        xp, xm = x.copy(), x.copy()
        xp[:, j] += h
        xm[:, j] -= h
        fd = (model.predict(xp) - model.predict(xm)) / (2 * h)
        rel = np.abs(grad[:, j] - fd) / np.maximum(np.abs(fd), 1e-10)
        assert rel.max() < 1e-4


def test_weight_archive_roundtrip(tmp_path):
    rng = np.random.default_rng(21)
    model = init_mlp(4, (8, 8), 1, "sigmoid", rng)
    path = tmp_path / "model.txt"
    save_weights(model, path)
    back = load_weights(path)
    assert back.sizes == model.sizes and back.head == "sigmoid"
    x = rng.normal(size=(6, 4))
    assert np.array_equal(back.forward(x), model.forward(x))


def test_weight_archive_validates_shapes(tmp_path):
    rng = np.random.default_rng(22)
    model = init_mlp(3, (4,), 1, "linear", rng)
    path = tmp_path / "model.txt"
    save_weights(model, path)
    text = path.read_text().replace("W0 3 4", "W0 3 5")
    path.write_text(text)
    with pytest.raises(RepresentationError):
        load_weights(path)
    path.write_text("mlp\n")
    with pytest.raises(RepresentationError):
        load_weights(path)


@pytest.mark.parametrize("case", MALFORMED_BLOCKS)
def test_weight_archive_rejects_a_malformed_block(tmp_path, case):
    """Never numpy's bare ValueError: the error names the block and the file."""
    path = tmp_path / "model.txt"
    save_weights(init_mlp(3, (4,), 1, "linear", np.random.default_rng(23)), path)
    malform_archive(path, case)
    with pytest.raises(RepresentationError, match=r"block W0 .*model\.txt"):
        load_weights(path)


def test_weight_archive_rejects_non_integer_size(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("mlp 3 x tanh linear\n")
    with pytest.raises(RepresentationError, match="non-integer size"):
        load_weights(path)


def test_r_squared_perfect_fit():
    model = linear_model([3.0])
    x = np.linspace(-1, 1, 20)[:, None]
    assert r_squared(model, x, 3.0 * x[:, 0]) == pytest.approx(1.0)
