"""Dense feed-forward networks with hand-rolled backprop.

Hidden layers use tanh (smooth, with a strictly positive derivative
everywhere, so guidance gradients never die); the output head is linear
for regression or logistic for classification, and it alone sets the
training loss (mean-squared error or binary cross-entropy).  Forward passes
run through ``MlpModel._forward_cached``; backward passes, training's and
the input gradients that guide sampling, share one tanh step.

Every network, the denoiser too, trains through ``fit``, the one
minibatch-Adam loop, bit-reproducible for a fixed seed and BLAS thread
count; a trainer supplies only its step (batch, forward, loss, backprop).
Training runs in ``TRAIN_DTYPE`` (float32): rows that float32 cannot hold
are rejected, the rows and a working copy of the weights are cast once,
and every step's arrays stay in float32.  The trained network comes back
in float64, each value float32-exact; inference and the text archives are
float64.  While the pipeline trains networks in ``dataset.pool_map``
threads the process runs one BLAS thread.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import BATCH_SIZE, HIDDEN, LEARNING_RATE
from .errors import RepresentationError, TrainingError

HEADS = ("linear", "sigmoid")
ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8   # Kingma & Ba's defaults
TRAIN_DTYPE = np.float32   # training arithmetic; inference and archives: float64
LOSS_EVERY = 200           # fit records the loss every LOSS_EVERY steps and at the last


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _through_tanh(delta, act) -> None:
    """The tanh reverse step, in place: ``delta *= 1 - act**2``.  Callers
    rebind ``delta`` to the new layer's array first, so the old one is
    freed before ``slope`` exists (pool threads' heaps stay untrimmed)."""
    slope = act ** 2
    delta *= np.subtract(1.0, slope, out=slope)


@dataclass
class MlpModel:
    """Weights, biases and activation tags for one dense network."""

    sizes: tuple
    weights: list           # weights[i]: (sizes[i], sizes[i+1])
    biases: list            # biases[i]: (sizes[i+1],)
    head: str = "linear"

    def __post_init__(self):
        if self.head not in HEADS:
            raise RepresentationError(f"unknown head {self.head!r}")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (self.sizes[i], self.sizes[i + 1]) or b.shape != (self.sizes[i + 1],):
                raise RepresentationError("weight shapes disagree with layer sizes")

    in_dim = property(lambda self: self.sizes[0])
    out_dim = property(lambda self: self.sizes[-1])

    def astype(self, dtype) -> "MlpModel":
        """A copy with its weights and biases cast to ``dtype``."""
        return replace(self, weights=[w.astype(dtype) for w in self.weights],
                       biases=[b.astype(dtype) for b in self.biases])

    def params(self) -> list:
        """Every weight and bias array, in the order ``_backward`` gives
        their gradients."""
        return [*self.weights, *self.biases]

    def _check(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.in_dim:
            raise RepresentationError(
                f"model expects {self.in_dim} inputs, got {x.shape[1]}")
        return x

    def forward(self, x) -> np.ndarray:
        """(n, out_dim) head outputs (probabilities for the sigmoid head)."""
        out = self._forward_cached(self._check(x))[-1]
        return _sigmoid(out) if self.head == "sigmoid" else out

    def predict(self, x) -> np.ndarray:
        """forward() squeezed to a 1-D vector for single-output models."""
        out = self.forward(x)
        return out[:, 0] if self.out_dim == 1 else out

    def _forward_cached(self, x):
        """Every layer's output, the input first: what backprop needs."""
        acts = [x]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w
            z += b
            acts.append(np.tanh(z, out=z) if i < last else z)
        return acts

    def value_and_input_gradient(self, x):
        """predict(x) and the exact reverse-mode d(output)/d(input), rowwise,
        from one forward pass; scalar heads only.

        For the sigmoid head this is the gradient of the probability, not
        of the logit.
        """
        if self.out_dim != 1:
            raise RepresentationError("input_gradient needs a scalar output")
        acts = self._forward_cached(self._check(x))
        out = acts[-1]
        delta = np.ones((out.shape[0], 1))
        if self.head == "sigmoid":
            out = _sigmoid(out)
            delta = delta * out * (1.0 - out)
        for i in range(len(self.weights) - 1, -1, -1):
            delta = delta @ self.weights[i].T
            if i > 0:
                _through_tanh(delta, acts[i])
        return out[:, 0], delta

    def input_gradient(self, x) -> np.ndarray:
        """The gradient half of value_and_input_gradient."""
        return self.value_and_input_gradient(x)[1]

    def _backward(self, acts, dout):
        """The gradients of ``params()`` and of the input, given
        ``_forward_cached``'s activations and dL/d(output)."""
        dws = [None] * len(self.weights)
        dbs = [None] * len(self.weights)
        delta = dout
        for i in range(len(self.weights) - 1, -1, -1):
            dws[i] = acts[i].T @ delta
            dbs[i] = delta.sum(axis=0)
            delta = delta @ self.weights[i].T
            if i > 0:
                _through_tanh(delta, acts[i])
        return [*dws, *dbs], delta


def init_mlp(in_dim: int, hidden: tuple, out_dim: int, head: str,
             rng: np.random.Generator) -> MlpModel:
    """Xavier-uniform initialization (suits the tanh hidden layers)."""
    sizes = (in_dim, *hidden, out_dim)
    weights, biases = [], []
    for a, b in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (a + b))
        weights.append(rng.uniform(-bound, bound, (a, b)))
        biases.append(np.zeros(b))
    return MlpModel(sizes=sizes, weights=weights, biases=biases, head=head)


@dataclass
class TrainConfig:
    batch_size: int = BATCH_SIZE
    steps: int = 20000
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.steps < 1:
            raise TrainingError("batch size and step count must be >= 1")


@dataclass
class TrainResult:
    model: object           # MlpModel, or the denoiser's DenoiserModel
    loss_history: list      # (step, loss) pairs


class Adam:
    """Per-parameter adaptive steps at LEARNING_RATE; operates on a flat
    list of arrays."""

    def __init__(self, params):
        self.params = params
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads):
        self.t += 1
        b1t = 1.0 - ADAM_B1**self.t
        b2t = 1.0 - ADAM_B2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= ADAM_B1
            m += (1.0 - ADAM_B1) * g
            v *= ADAM_B2
            v += (1.0 - ADAM_B2) * g * g
            p -= LEARNING_RATE * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)


def _loss_and_delta(z, yb, head):
    """The loss of ``head`` (linear: mean-squared error; sigmoid: binary
    cross-entropy) and dL/dz at the pre-head layer, averaged over the batch."""
    if head == "linear":
        resid = z - yb
        loss = float(np.mean(resid**2))
        delta = 2.0 * resid / resid.size
    else:
        p = _sigmoid(z)
        eps = 1e-12
        loss = float(np.mean(-(yb * np.log(p + eps) + (1 - yb) * np.log(1 - p + eps))))
        delta = (p - yb) / z.shape[0]     # BCE through the sigmoid
    return loss, delta


def fit(model, step, cfg: TrainConfig, rng) -> TrainResult:
    """The one minibatch-Adam loop: ``cfg.steps`` steps on a TRAIN_DTYPE
    copy of ``model`` (an MlpModel or a DenoiserModel), handed back in float64.

    ``step(work, rng)``, given the copy, draws a batch and returns its loss
    and a function that gives the gradients of ``work.params()``.  The loss
    is checked before that function runs, so a diverged batch is never
    backpropagated.
    """
    # Lifetimes that keep a pool thread's heap from being trimmed and faulted
    # back in every step (cmd_train took ten times the page faults without
    # them): the float64 weights go here unless the caller holds them, and a
    # step's gradients live until the next step's exist.
    model = model.astype(TRAIN_DTYPE)
    opt = Adam(model.params())
    history = []
    for i in range(cfg.steps):
        loss, gradients = step(model, rng)
        if not np.isfinite(loss):
            raise TrainingError(f"training loss diverged at step {i}")
        grads = gradients()
        opt.step(grads)
        if i % LOSS_EVERY == 0 or i == cfg.steps - 1:
            history.append((i, loss))
    return TrainResult(model=model.astype(np.float64), loss_history=history)


def representable(arr) -> bool:
    """Whether every value of ``arr`` is finite in TRAIN_DTYPE; casting others warns."""
    return bool(np.all(np.abs(arr) <= np.finfo(TRAIN_DTYPE).max))


def _train(model: MlpModel, x, y, cfg: TrainConfig) -> TrainResult:
    """``fit`` on the loss of ``model.head``."""
    if not (representable(x) and representable(y)):
        raise TrainingError("training rows not finite in float32, rejected before step 0")
    x = np.asarray(x, dtype=TRAIN_DTYPE)
    y = np.asarray(y, dtype=TRAIN_DTYPE)
    if y.ndim == 1:
        y = y[:, None]
    if x.shape[0] != y.shape[0] or x.shape[0] < 1:
        raise TrainingError("training arrays must share a positive row count")

    def step(work, rng):
        idx = rng.integers(0, x.shape[0], min(cfg.batch_size, x.shape[0]))
        acts = work._forward_cached(x[idx])
        loss, delta = _loss_and_delta(acts[-1], y[idx], work.head)
        return loss, lambda: work._backward(acts, delta)[0]

    return fit(model, step, cfg, np.random.default_rng(cfg.seed))


def train_regressor(x, y, cfg: TrainConfig, *, hidden=HIDDEN) -> TrainResult:
    """Minibatch Adam on mean-squared error from a fresh Xavier net."""
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 101]))
    out_dim = 1 if np.asarray(y).ndim == 1 else np.asarray(y).shape[1]
    model = init_mlp(x.shape[1], hidden, out_dim, "linear", rng)
    return _train(model, x, y, cfg)


def train_classifier(x, y, cfg: TrainConfig, *, hidden=HIDDEN) -> TrainResult:
    """Binary cross-entropy training of a logistic-output network."""
    y = np.asarray(y, dtype=float)
    classes = np.unique(y)
    if classes.size < 2:
        raise TrainingError("classifier training needs both classes present")
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 202]))
    model = init_mlp(x.shape[1], hidden, 1, "sigmoid", rng)
    return _train(model, x, y, cfg)


def r_squared(model: MlpModel, x, y) -> float:
    y = np.asarray(y, dtype=float).ravel()
    pred = model.predict(x)
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - ss_res / ss_tot


def accuracy(model: MlpModel, x, y) -> float:
    pred = model.predict(x) >= 0.5
    return float(np.mean(pred == (np.asarray(y).ravel() >= 0.5)))


# ---------------------------------------------------------------------------
# Portable text weight archive: a header line with the layer sizes and
# activation tags, then one row-major float block per matrix/vector.


def write_block(fh, tag: str, arr) -> None:
    """One float block: ``tag rows cols`` and a line per row for a matrix,
    ``tag size`` and one line for a vector."""
    arr = np.asarray(arr, dtype=float)
    fh.write(f"{tag} {' '.join(map(str, arr.shape))}\n")
    for row in np.atleast_2d(arr):
        fh.write(" ".join(map(repr, row.tolist())) + "\n")


def read_block(fh, tag: str, shape: tuple, source) -> np.ndarray:
    """A block written by write_block, checked against ``tag`` and ``shape``;
    ``source`` names the archive in errors."""
    head = fh.readline().split()
    if head != [tag, *map(str, shape)]:
        raise RepresentationError(f"expected block {tag} of shape {shape}, "
                                  f"got {' '.join(head)!r}: {source}")
    rows = []
    for i in range(shape[0] if len(shape) == 2 else 1):
        fields = fh.readline().split()
        if len(fields) != shape[-1]:
            raise RepresentationError(
                f"block {tag} row {i} has {len(fields)} values, expected "
                f"{shape[-1]}: {source}")
        try:
            rows.append(np.array(fields, dtype=float))
        except ValueError:
            raise RepresentationError(
                f"non-numeric value in block {tag} row {i}: {source}") from None
    return np.array(rows) if len(shape) == 2 else rows[0]


def read_sizes(fields, source) -> tuple:
    """Integer sizes from an archive header; anything else is not an archive."""
    try:
        return tuple(int(v) for v in fields)
    except ValueError:
        raise RepresentationError(
            f"non-integer size in archive header {' '.join(fields)!r}: {source}") from None


def write_mlp(fh, model: MlpModel) -> None:
    """The MLP block: the header line, then W{i} and b{i} per layer."""
    fh.write(f"mlp {' '.join(map(str, model.sizes))} tanh {model.head}\n")
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        write_block(fh, f"W{i}", w)
        write_block(fh, f"b{i}", b)


def read_mlp(fh, source) -> MlpModel:
    """An MLP block written by write_mlp; tags and shapes are checked."""
    header = fh.readline().split()
    if len(header) < 4 or header[0] != "mlp":
        raise RepresentationError(f"not a weight archive: {source}")
    if header[-2] != "tanh":
        raise RepresentationError(f"unsupported activation {header[-2]!r}")
    sizes = read_sizes(header[1:-2], source)
    weights, biases = [], []
    for i in range(len(sizes) - 1):
        weights.append(read_block(fh, f"W{i}", sizes[i:i + 2], source))
        biases.append(read_block(fh, f"b{i}", sizes[i + 1:i + 2], source))
    return MlpModel(sizes=sizes, weights=weights, biases=biases, head=header[-1])


def save_weights(model: MlpModel, path) -> None:
    with open(path, "w") as fh:
        write_mlp(fh, model)


def load_weights(path) -> MlpModel:
    with open(path) as fh:
        return read_mlp(fh, path)
