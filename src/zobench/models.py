"""Toy model zoo: forward-only losses, analytic gradients, synthetic data.

Every model exposes ``loss`` (all a zeroth-order optimizer needs),
an analytic ``grad`` (for first-order baselines and for oracle checks
against central differences), and ``predict`` where it makes sense.

The sequence classifier is the stand-in for an acoustic model: a per-frame
affine feature extractor with tanh, a normalization layer with learnable
gain/bias, mean pooling over frames, and a softmax head.  Its schema is
partitioned into ``feat.*``, ``norm.*`` and ``head.*`` groups so test-time
adaptation can target the extractor and normalization parameters only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .params import ParamSet
from .streams import GaussianStream, check_int, thread_stream

__all__ = [
    "Batch", "Model", "BatchSampler", "StreamSample", "DataGenConfig",
    "quadratic_bowl", "logistic_regression", "mlp_classifier",
    "seq_classifier", "entropy_objective",
    "gen_data", "gen_shifted_stream", "make_model", "accuracy",
    "sample_scores", "save_dataset", "load_dataset",
]

_LN_EPS = 1e-5


@dataclass
class Batch:
    """Inputs plus optional integer labels (absent for adaptation batches)."""

    inputs: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape[0] != self.inputs.shape[0]:
                raise ValueError("inputs and labels disagree on batch size")

    def __len__(self):
        return self.inputs.shape[0]

    def without_labels(self) -> "Batch":
        return Batch(self.inputs, None)


@dataclass
class Model:
    """Forward-only loss evaluator with optional analytic-gradient oracle."""

    name: str
    schema: list  # [(param name, shape tuple)]
    loss: Callable[[ParamSet, Batch], float]
    grad: Optional[Callable[[ParamSet, Batch], ParamSet]] = None
    predict: Optional[Callable[[ParamSet, Batch], np.ndarray]] = None
    init: Optional[Callable[[int], ParamSet]] = None
    # the softmax network behind a classifier; None for other losses
    core: Optional["_SoftmaxCore"] = None


# ---------------------------------------------------------------------------
# quadratic bowl
# ---------------------------------------------------------------------------

def quadratic_bowl(eigenvalues, b=None) -> Model:
    """L(theta) = 0.5 theta' A theta - b' theta with A = diag(eigenvalues).

    The spectrum must be strictly positive.  grad = A theta - b exactly;
    the minimizer is b / eigenvalues elementwise.
    """
    eig = np.asarray(eigenvalues, dtype=np.float64)
    if eig.ndim != 1 or np.any(eig <= 0):
        raise ValueError("spectrum must be a 1-D array of positive eigenvalues")
    d = eig.shape[0]
    bvec = np.zeros(d) if b is None else np.asarray(b, dtype=np.float64)
    if bvec.shape != (d,):
        raise ValueError("b must match the spectrum dimension")

    def loss(params: ParamSet, batch: Batch = None) -> float:
        t = params["theta"]
        return float(0.5 * t @ (eig * t) - bvec @ t)

    def grad(params: ParamSet, batch: Batch = None) -> ParamSet:
        t = params["theta"]
        return ParamSet([("theta", eig * t - bvec)])

    def init(seed: int) -> ParamSet:
        t = GaussianStream(seed).normal((d,))
        return ParamSet([("theta", t)])

    return Model(name="quadratic", schema=[("theta", (d,))],
                 loss=loss, grad=grad, init=init)


# ---------------------------------------------------------------------------
# softmax classifiers
# ---------------------------------------------------------------------------

def _softmax(scores: np.ndarray) -> np.ndarray:
    s = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(s)
    return e / e.sum(axis=1, keepdims=True)


def _ce_from_scores(scores: np.ndarray, labels: np.ndarray) -> float:
    s = scores - scores.max(axis=1, keepdims=True)
    logz = np.log(np.exp(s).sum(axis=1))
    return float(np.mean(logz - s[np.arange(len(labels)), labels]))


def _ce_dscores(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    p = _softmax(scores)
    p[np.arange(len(labels)), labels] -= 1.0
    return p / len(labels)


def _entropy_from_scores(scores: np.ndarray) -> float:
    p = _softmax(scores)
    logp = np.log(np.clip(p, 1e-300, None))
    return float(np.mean(-(p * logp).sum(axis=1)))


def _entropy_dscores(scores: np.ndarray) -> np.ndarray:
    p = _softmax(scores)
    logp = np.log(np.clip(p, 1e-300, None))
    h_row = -(p * logp).sum(axis=1, keepdims=True)
    return -p * (logp + h_row) / scores.shape[0]


class _SoftmaxCore:
    """Shared machinery: scores + hand-coded backprop to parameter grads.

    Subclasses implement forward() returning (scores, cache) and
    backward() mapping d(objective)/d(scores) to a gradient ParamSet.
    Cross-entropy and entropy objectives differ only in dscores.
    """

    name = "core"
    schema: list = []

    def forward(self, params: ParamSet, x: np.ndarray):
        raise NotImplementedError

    def backward(self, params: ParamSet, x: np.ndarray,
                 dscores: np.ndarray, cache) -> ParamSet:
        raise NotImplementedError

    def init(self, seed: int) -> ParamSet:
        raise NotImplementedError


class _LogisticCore(_SoftmaxCore):
    def __init__(self, d: int, classes: int):
        self.d, self.classes = d, classes
        self.name = "logistic"
        self.schema = [("weight", (d, classes)), ("bias", (classes,))]

    def forward(self, params, x):
        return x @ params["weight"] + params["bias"], None

    def backward(self, params, x, dscores, cache):
        return ParamSet([
            ("weight", x.T @ dscores),
            ("bias", dscores.sum(axis=0)),
        ])

    def init(self, seed):
        # zero init: uniform predictive distribution before training
        return ParamSet([
            ("weight", np.zeros((self.d, self.classes))),
            ("bias", np.zeros(self.classes)),
        ])


class _MLPCore(_SoftmaxCore):
    def __init__(self, d: int, hidden: int, classes: int):
        self.d, self.hidden, self.classes = d, hidden, classes
        self.name = "mlp"
        self.schema = [
            ("layer1.weight", (d, hidden)), ("layer1.bias", (hidden,)),
            ("head.weight", (hidden, classes)), ("head.bias", (classes,)),
        ]

    def forward(self, params, x):
        h = np.tanh(x @ params["layer1.weight"] + params["layer1.bias"])
        scores = h @ params["head.weight"] + params["head.bias"]
        return scores, h

    def backward(self, params, x, dscores, cache):
        h = cache
        dh = dscores @ params["head.weight"].T
        dpre = dh * (1.0 - h * h)
        return ParamSet([
            ("layer1.weight", x.T @ dpre),
            ("layer1.bias", dpre.sum(axis=0)),
            ("head.weight", h.T @ dscores),
            ("head.bias", dscores.sum(axis=0)),
        ])

    def init(self, seed):
        s = GaussianStream(seed)
        w1 = s.normal((self.d, self.hidden)) / math.sqrt(self.d)
        b1 = s.normal((self.hidden,)) * 0.1
        return ParamSet([
            ("layer1.weight", w1), ("layer1.bias", b1),
            ("head.weight", np.zeros((self.hidden, self.classes))),
            ("head.bias", np.zeros(self.classes)),
        ])


class _SeqCore(_SoftmaxCore):
    """Frame-wise affine + tanh, layer normalization, mean pool, softmax head.

    Inputs have shape [batch, frames, feat_dim].  The head is applied per
    frame; pooled class scores are the mean of the frame scores (the same
    thing as pooling then scoring, since both maps are linear).  The
    entropy objective is evaluated over the frame-level distributions,
    which is what gives a single-utterance adaptation episode more than
    one distribution to work with.
    """

    def __init__(self, frames: int, feat_dim: int, classes: int, hidden: int = 8):
        self.frames, self.feat_dim = frames, feat_dim
        self.classes, self.hidden = classes, hidden
        self.name = "seq"
        self.schema = [
            ("feat.weight", (feat_dim, hidden)), ("feat.bias", (hidden,)),
            ("norm.gain", (hidden,)), ("norm.bias", (hidden,)),
            ("head.weight", (hidden, classes)), ("head.bias", (classes,)),
        ]

    def _hidden(self, params, x):
        a = np.tanh(x @ params["feat.weight"] + params["feat.bias"])
        mu = a.mean(axis=-1, keepdims=True)
        var = a.var(axis=-1, keepdims=True)
        std = np.sqrt(var + _LN_EPS)
        xhat = (a - mu) / std
        y = params["norm.gain"] * xhat + params["norm.bias"]
        return a, xhat, std, y

    def _input_grads(self, params, x, dy, a, xhat, std):
        """Backprop dL/dy through layer norm and tanh to feat/norm grads."""
        dxhat = dy * params["norm.gain"]
        mean_dx = dxhat.mean(axis=-1, keepdims=True)
        mean_dxx = (dxhat * xhat).mean(axis=-1, keepdims=True)
        da = (dxhat - mean_dx - xhat * mean_dxx) / std
        dpre = da * (1.0 - a * a)
        return [
            ("feat.weight", np.einsum("bfd,bfh->dh", x, dpre)),
            ("feat.bias", dpre.sum(axis=(0, 1))),
            ("norm.gain", (dy * xhat).sum(axis=(0, 1))),
            ("norm.bias", dy.sum(axis=(0, 1))),
        ]

    def forward(self, params, x):
        a, xhat, std, y = self._hidden(params, x)
        pooled = y.mean(axis=1)
        scores = pooled @ params["head.weight"] + params["head.bias"]
        return scores, (a, xhat, std, y, pooled)

    def backward(self, params, x, dscores, cache):
        a, xhat, std, y, pooled = cache
        dpooled = dscores @ params["head.weight"].T
        dy = np.broadcast_to(dpooled[:, None, :] / self.frames,
                             y.shape).copy()
        entries = self._input_grads(params, x, dy, a, xhat, std)
        entries += [
            ("head.weight", pooled.T @ dscores),
            ("head.bias", dscores.sum(axis=0)),
        ]
        return ParamSet(entries)

    def entropy_forward(self, params, x):
        """Frame-level scores, one softmax distribution per (sample, frame)."""
        a, xhat, std, y = self._hidden(params, x)
        frame_scores = y @ params["head.weight"] + params["head.bias"]
        b, f, c = frame_scores.shape
        return frame_scores.reshape(b * f, c), (a, xhat, std, y)

    def entropy_backward(self, params, x, dflat, cache):
        a, xhat, std, y = cache
        ds = dflat.reshape(y.shape[0], self.frames, -1)
        dy = ds @ params["head.weight"].T
        entries = self._input_grads(params, x, dy, a, xhat, std)
        entries += [
            ("head.weight", np.einsum("bfh,bfc->hc", y, ds)),
            ("head.bias", ds.sum(axis=(0, 1))),
        ]
        return ParamSet(entries)

    def init(self, seed):
        s = GaussianStream(seed)
        wf = s.normal((self.feat_dim, self.hidden)) / math.sqrt(self.feat_dim)
        bf = s.normal((self.hidden,)) * 0.1
        return ParamSet([
            ("feat.weight", wf), ("feat.bias", bf),
            ("norm.gain", np.ones(self.hidden)),
            ("norm.bias", np.zeros(self.hidden)),
            ("head.weight", np.zeros((self.hidden, self.classes))),
            ("head.bias", np.zeros(self.classes)),
        ])


def _model_from_core(core: _SoftmaxCore) -> Model:
    def loss(params, batch):
        scores, _ = core.forward(params, batch.inputs)
        return _ce_from_scores(scores, batch.labels)

    def grad(params, batch):
        scores, cache = core.forward(params, batch.inputs)
        return core.backward(params, batch.inputs,
                             _ce_dscores(scores, batch.labels), cache)

    def predict(params, batch):
        scores, _ = core.forward(params, batch.inputs)
        return _softmax(scores)

    return Model(name=core.name, schema=core.schema, loss=loss, grad=grad,
                 predict=predict, init=core.init, core=core)


def logistic_regression(d: int, classes: int) -> Model:
    if d < 1 or classes < 2:
        raise ValueError("need d >= 1 and classes >= 2")
    return _model_from_core(_LogisticCore(d, classes))


def mlp_classifier(d: int, hidden: int, classes: int) -> Model:
    if d < 1 or hidden < 1 or classes < 2:
        raise ValueError("need positive dims and classes >= 2")
    return _model_from_core(_MLPCore(d, hidden, classes))


def seq_classifier(frames: int, feat_dim: int, classes: int,
                   hidden: int = 8) -> Model:
    if frames < 1 or feat_dim < 1 or classes < 2:
        raise ValueError("need positive dims and classes >= 2")
    return _model_from_core(_SeqCore(frames, feat_dim, classes, hidden))


# ---------------------------------------------------------------------------
# entropy objective (unlabeled adaptation)
# ---------------------------------------------------------------------------

def entropy_objective(model: Model) -> Model:
    """The same network with loss/grad replaced by predictive entropy.

    The loss is the mean Shannon entropy (nats) of the model's predictive
    distributions: over the frame-level distributions for the sequence
    classifier, over the per-sample ones for flat classifiers.
    """
    core = model.core
    if core is None:
        raise ValueError(f"model {model.name!r} has no predictive distribution")
    framewise = hasattr(core, "entropy_forward")

    def loss(params, batch):
        if batch.labels is not None:
            raise ValueError("entropy objective expects an unlabeled batch")
        if framewise:
            scores, _ = core.entropy_forward(params, batch.inputs)
        else:
            scores, _ = core.forward(params, batch.inputs)
        return _entropy_from_scores(scores)

    def grad(params, batch):
        if framewise:
            scores, cache = core.entropy_forward(params, batch.inputs)
            return core.entropy_backward(params, batch.inputs,
                                         _entropy_dscores(scores), cache)
        scores, cache = core.forward(params, batch.inputs)
        return core.backward(params, batch.inputs,
                             _entropy_dscores(scores), cache)

    return Model(name=model.name + "-entropy", schema=model.schema,
                 loss=loss, grad=grad, predict=model.predict, init=model.init,
                 core=core)


def accuracy(model: Model, params: ParamSet, batch: Batch) -> float:
    p = model.predict(params, batch)
    return float(np.mean(p.argmax(axis=1) == batch.labels))


def save_dataset(path, batch: Batch) -> None:
    """Snapshot a dataset in the same container format as parameter sets.

    Labels are widened to float64 for storage and restored to int64 on
    load; the container holds uniform-width real tensors only.
    """
    entries = [("inputs", batch.inputs)]
    if batch.labels is not None:
        entries.append(("labels", batch.labels.astype(np.float64)))
    ParamSet(entries).save(path)


def load_dataset(path) -> Batch:
    ps = ParamSet.load(path)
    labels = ps["labels"].astype(np.int64) if "labels" in ps.names else None
    return Batch(ps["inputs"], labels)


def sample_scores(model: Model, params: ParamSet, batch: Batch) -> np.ndarray:
    """Per-sample accuracy scores in [0, 1], one entry per batch row.

    Flat classifiers score each sample 0 or 1 (argmax against the label).
    The sequence classifier scores a sample by the fraction of frames
    whose frame-level prediction matches the label, the desk-scale analog
    of token-level error rates on an utterance.
    """
    if batch.labels is None:
        raise ValueError("sample_scores needs labels")
    core = model.core
    if core is not None and hasattr(core, "entropy_forward"):
        flat, _ = core.entropy_forward(params, batch.inputs)
        b = batch.inputs.shape[0]
        frame_scores = flat.reshape(b, -1, flat.shape[-1])
        hits = frame_scores.argmax(axis=-1) == batch.labels[:, None]
        return hits.mean(axis=1)
    p = model.predict(params, batch)
    return (p.argmax(axis=1) == batch.labels).astype(np.float64)


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

@dataclass
class DataGenConfig:
    task: str = "logistic"          # quadratic | logistic | mlp | seq
    dim: int = 20
    hidden: int = 16
    frames: int = 12
    feat_dim: int = 8
    classes: int = 3
    n_train: int = 512
    n_test: int = 256
    noise_sigma: float = 0.0        # additive Gaussian noise on stream inputs
    shift_scale: float = 1.0        # fixed affine domain shift on stream inputs
    shift_bias: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("dim", "hidden", "frames", "feat_dim", "classes",
                     "n_train", "n_test", "seed"):
            check_int(name, getattr(self, name), 0 if name == "seed" else 1)
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")


@dataclass
class StreamSample:
    """One unlabeled utterance-like sample plus its held-out ground truth."""

    sample_id: int
    inputs: np.ndarray
    label: int

    def batch(self) -> Batch:
        return Batch(self.inputs[None, ...], None)


def make_model(cfg: DataGenConfig) -> Model:
    if cfg.task == "quadratic":
        return quadratic_bowl(np.linspace(1.0, 2.0, cfg.dim))
    if cfg.task == "logistic":
        return logistic_regression(cfg.dim, cfg.classes)
    if cfg.task == "mlp":
        return mlp_classifier(cfg.dim, cfg.hidden, cfg.classes)
    if cfg.task == "seq":
        return seq_classifier(cfg.frames, cfg.feat_dim, cfg.classes,
                              hidden=cfg.hidden)
    raise ValueError(f"unknown task {cfg.task!r}")


# per-task input scales: the seq task lives at utterance-like amplitudes
# where additive noise of sigma ~ 1e-2 is a real degradation
_SEQ_PROTO_SCALE = 1e-2
_SEQ_WITHIN_SD = 1e-2


def _class_prototypes(cfg: DataGenConfig, stream: GaussianStream):
    if cfg.task == "seq":
        # one feature vector per class, repeated across frames: frames are
        # independent noisy observations of the class signature
        base = _SEQ_PROTO_SCALE * stream.normal((cfg.classes, cfg.feat_dim))
        return np.broadcast_to(base[:, None, :],
                               (cfg.classes, cfg.frames, cfg.feat_dim)).copy()
    return 2.0 * stream.normal((cfg.classes, cfg.dim))


def _draw_split(cfg: DataGenConfig, protos, stream: GaussianStream,
                n: int) -> Batch:
    labels = stream.integers(0, cfg.classes, size=n)
    within = _SEQ_WITHIN_SD if cfg.task == "seq" else 1.0
    x = protos[labels] + within * stream.normal(protos[labels].shape)
    return Batch(x, labels)


def gen_data(cfg: DataGenConfig):
    """Deterministic (train, test) split for the configured task."""
    if cfg.task == "quadratic":
        raise ValueError("quadratic task needs no dataset")
    proto_stream = GaussianStream(cfg.seed, substream=0)
    protos = _class_prototypes(cfg, proto_stream)
    train = _draw_split(cfg, protos, GaussianStream(cfg.seed, substream=1),
                        cfg.n_train)
    test = _draw_split(cfg, protos, GaussianStream(cfg.seed, substream=2),
                       cfg.n_test)
    return train, test


def gen_shifted_stream(cfg: DataGenConfig, n_samples: int):
    """Single-sample stream from the test distribution, with domain shift.

    Each sample's clean inputs x are replaced by
    shift_scale * x + shift_bias + noise_sigma * N(0, 1).
    noise_sigma=0 together with the identity shift reproduces the clean
    stream bit-exactly.
    """
    proto_stream = GaussianStream(cfg.seed, substream=0)
    protos = _class_prototypes(cfg, proto_stream)
    clean = _draw_split(cfg, protos, GaussianStream(cfg.seed, substream=3),
                        n_samples)
    noise_stream = GaussianStream(cfg.seed, substream=4)
    samples = []
    for i in range(n_samples):
        x = clean.inputs[i]
        if cfg.shift_scale != 1.0 or cfg.shift_bias != 0.0:
            x = cfg.shift_scale * x + cfg.shift_bias
        if cfg.noise_sigma > 0.0:
            x = x + cfg.noise_sigma * noise_stream.normal(x.shape)
        samples.append(StreamSample(i, x, int(clean.labels[i])))
    return samples


class BatchSampler:
    """Deterministic minibatch draws: batch(index) is a pure function.

    index -> rows are chosen with replacement using a Philox substream
    keyed by (seed, index), so fresh-per-query and shared-per-step batch
    modes can address the same sampler without interfering.
    """

    def __init__(self, dataset: Batch, batch_size: int, seed: int):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.dataset = dataset
        self.batch_size = min(batch_size, len(dataset))
        self.seed = seed

    def draw(self, index: int) -> Batch:
        rows = thread_stream(self.seed, index).integers(
            0, len(self.dataset), size=self.batch_size)
        labels = None if self.dataset.labels is None else self.dataset.labels[rows]
        return Batch(self.dataset.inputs[rows], labels)
