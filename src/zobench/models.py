"""Toy model zoo: forward-only losses, analytic gradients, synthetic data.

Every model exposes ``loss`` (all a zeroth-order optimizer needs) and
an analytic ``loss_and_grad`` (for first-order baselines and for oracle
checks against central differences).  A forward reads a weight it
multiplies as ``params.matmul(x, name)``, which is ``x @ params[name]``
on a ParamSet and lets a ZO probe answer without building the perturbed
weight.
``loss_and_grad`` takes both from one forward, and its loss has the
bits of ``loss``'s: its kernels share the softmax's pieces
between loss and gradient only where the arithmetic stays the same.
Its gradient is one zeroed set in the parameters' layout, in the
backward's dtype (``ParamSet.zeros``), which the backward fills tensor
by tensor through ``out=``: the gradient is held once, never packed
from per-tensor arrays.  Every ``init`` builds its set the same way,
one zeroed set laid out by ``ParamSet.from_shapes`` with each random
tensor drawn and scaled in its view, so it allocates nothing else the
set's size.

The sequence classifier is the stand-in for an acoustic model: a per-frame
affine feature extractor with tanh, a normalization layer with learnable
gain/bias, mean pooling over frames, and a softmax head.  Its parameters
are named in ``feat.*``, ``norm.*`` and ``head.*`` groups so test-time
adaptation can target the extractor and normalization parameters only.
A classifier keeps its network as ``Model.core``, whose ``entropy_forward``
gives one distribution per sample, or per frame for the sequence model.

Hot-path reductions call ``_mean`` and the ufunc ``.reduce`` methods, not
the Python wrappers ``np.mean``, ``np.var``, ``np.clip``, ``.max`` and
``.sum``, which cost more than the arithmetic on these small arrays.  The
results stay bit-identical to those functions' (``_mean`` sums then divides
by the count; layer norm centres once and averages the squares, as
``np.var`` does); ``test_loss_kernels_match_numpy_reference`` pins that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .params import ParamSet
from .streams import GaussianStream, check_int, check_real, thread_stream

__all__ = [
    "Batch", "Model", "BatchSampler", "StreamSample", "DataGenConfig",
    "quadratic_bowl", "logistic_regression", "mlp_classifier",
    "seq_classifier", "entropy_objective",
    "gen_data", "gen_shifted_stream", "make_model", "accuracy",
    "sample_scores",
]

_LN_EPS = 1e-5


def _mean(a, axis=None, keepdims=False):
    """``np.mean`` of a float array, summed and divided in the same order."""
    n = a.size if axis is None else a.shape[axis]
    return np.add.reduce(a, axis=axis, keepdims=keepdims) / n


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


@dataclass
class Model:
    """Forward-only loss evaluator with an optional analytic gradient:
    ``loss_and_grad(params, batch)`` gives ``(loss, grads)`` from one
    forward."""

    name: str
    loss: Callable[[ParamSet, Batch], float]
    loss_and_grad: Optional[
        Callable[[ParamSet, Batch], tuple[float, ParamSet]]] = None
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

    def loss_and_grad(params: ParamSet, batch: Batch = None):
        t = params["theta"]
        at = eig * t
        grads = params.zeros(at.dtype)
        np.subtract(at, bvec, out=grads["theta"])
        return float(0.5 * t @ at - bvec @ t), grads

    def init(seed: int) -> ParamSet:
        """theta ~ N(0, I), drawn straight into the set's buffer."""
        params = ParamSet.from_shapes([("theta", (d,))])
        GaussianStream(seed).normal((d,), out=params["theta"])
        return params

    return Model(name="quadratic", loss=loss, loss_and_grad=loss_and_grad,
                 init=init)


# ---------------------------------------------------------------------------
# softmax classifiers
# ---------------------------------------------------------------------------

def _softmax(scores: np.ndarray) -> np.ndarray:
    s = scores - np.maximum.reduce(scores, axis=1, keepdims=True)
    e = np.exp(s)
    return e / np.add.reduce(e, axis=1, keepdims=True)


def _ce_from_scores(scores: np.ndarray, labels: np.ndarray) -> float:
    s = scores - np.maximum.reduce(scores, axis=1, keepdims=True)
    logz = np.log(np.add.reduce(np.exp(s), axis=1))
    return float(_mean(logz - s[np.arange(len(labels)), labels]))


def _ce_and_dscores(scores: np.ndarray, labels: np.ndarray):
    """``_ce_from_scores`` and its gradient, softmax rows from one exp."""
    s = scores - np.maximum.reduce(scores, axis=1, keepdims=True)
    e = np.exp(s)
    z = np.add.reduce(e, axis=1, keepdims=True)
    rows = np.arange(len(labels))
    loss = float(_mean(np.log(z[:, 0]) - s[rows, labels]))
    p = e / z
    p[rows, labels] -= 1.0
    return loss, p / len(labels)


# p's floor under the log, per width: 1e-300 is 0 in float32, whose
# smallest normal number takes its place
_LOG_FLOOR = {np.dtype(np.float64): 1e-300,
              np.dtype(np.float32): np.finfo(np.float32).tiny}


def _p_logp(scores: np.ndarray):
    """Softmax rows and their logs, floored so that 0 * log 0 reads 0."""
    p = _softmax(scores)
    return p, np.log(np.maximum(p, _LOG_FLOOR[p.dtype]))


def _entropy_from_scores(scores: np.ndarray) -> float:
    p, logp = _p_logp(scores)
    return float(_mean(-np.add.reduce(p * logp, axis=1)))


def _entropy_and_dscores(scores: np.ndarray):
    """``_entropy_from_scores`` and its gradient from one softmax."""
    p, logp = _p_logp(scores)
    h_row = -np.add.reduce(p * logp, axis=1, keepdims=True)
    return float(_mean(h_row[:, 0])), -p * (logp + h_row) / scores.shape[0]


class _SoftmaxCore:
    """Shared machinery: scores + hand-coded backprop to parameter grads.

    Subclasses implement init(seed), forward() returning (scores, cache)
    and backward(), which maps d(objective)/d(scores) to the parameters'
    gradients and writes each into its tensor of ``grads``, a zeroed set
    in the parameters' layout (``ParamSet.zeros``) that the caller builds
    in dscores' dtype, through the ``out=`` of ``np.matmul``,
    ``np.einsum`` or ``np.add.reduce``: no gradient array is built apart
    from it.  Cross-entropy and entropy objectives differ only in
    dscores.  The entropy_* pair, over the rows the entropy objective and
    ``sample_scores`` read, is that same pair unless overridden.
    """

    name = "core"

    def entropy_forward(self, params: ParamSet, x: np.ndarray):
        return self.forward(params, x)

    def entropy_backward(self, params: ParamSet, x: np.ndarray,
                         dscores: np.ndarray, cache, grads: ParamSet):
        self.backward(params, x, dscores, cache, grads)


class _LogisticCore(_SoftmaxCore):
    def __init__(self, d: int, classes: int):
        self.d, self.classes = d, classes
        self.name = "logistic"

    def forward(self, params, x):
        return params.matmul(x, "weight") + params["bias"], None

    def backward(self, params, x, dscores, cache, grads):
        np.matmul(x.T, dscores, out=grads["weight"])
        np.add.reduce(dscores, axis=0, out=grads["bias"])

    def init(self, seed):
        """Zeros: a uniform predictive distribution before training."""
        return ParamSet.from_shapes([("weight", (self.d, self.classes)),
                                     ("bias", (self.classes,))])


def _draw_affine(params: ParamSet, seed: int, weight: str, bias: str):
    """Draw ``params[weight]`` then ``params[bias]`` from one stream of
    ``seed``, each into its view: the weight's normals divided by the
    square root of its fan-in, the bias's times 0.1, both in place."""
    s = GaussianStream(seed)
    w, b = params[weight], params[bias]
    s.normal(w.shape, out=w)
    w /= math.sqrt(w.shape[0])
    s.normal(b.shape, out=b)
    b *= 0.1


class _MLPCore(_SoftmaxCore):
    """One tanh hidden layer, then a softmax head.

    ``forward`` holds one batch x hidden array, ``h``, built in place
    (matmul, then bias, then tanh) and kept as the cache, and one array
    of scores, the bias added in place; ``backward`` builds ``dpre`` in
    one array beside ``dh``.  Each in-place step is the elementwise
    operation of ``tanh(x @ W1 + b1)`` and ``dh * (1 - h * h)``, so the
    bytes are theirs.
    """

    def __init__(self, d: int, hidden: int, classes: int):
        self.d, self.hidden, self.classes = d, hidden, classes
        self.name = "mlp"

    def forward(self, params, x):
        h = params.matmul(x, "layer1.weight")
        h += params["layer1.bias"]
        np.tanh(h, out=h)
        scores = params.matmul(h, "head.weight")
        scores += params["head.bias"]
        return scores, h

    def backward(self, params, x, dscores, cache, grads):
        h = cache
        dh = dscores @ params["head.weight"].T
        dpre = h * h
        np.subtract(1.0, dpre, out=dpre)
        np.multiply(dh, dpre, out=dpre)
        np.matmul(x.T, dpre, out=grads["layer1.weight"])
        np.add.reduce(dpre, axis=0, out=grads["layer1.bias"])
        np.matmul(h.T, dscores, out=grads["head.weight"])
        np.add.reduce(dscores, axis=0, out=grads["head.bias"])

    def init(self, seed):
        """layer1 drawn in place (:func:`_draw_affine`), the head zeros."""
        d, h, c = self.d, self.hidden, self.classes
        params = ParamSet.from_shapes([("layer1.weight", (d, h)), ("layer1.bias", (h,)),
                                       ("head.weight", (h, c)), ("head.bias", (c,))])
        _draw_affine(params, seed, "layer1.weight", "layer1.bias")
        return params


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

    def _hidden(self, params, x):
        a = np.tanh(params.matmul(x, "feat.weight") + params["feat.bias"])
        d = a - _mean(a, -1, True)
        std = np.sqrt(_mean(d * d, -1, True) + _LN_EPS)
        xhat = d / std
        y = params["norm.gain"] * xhat + params["norm.bias"]
        return a, xhat, std, y

    def _input_grads(self, params, x, dy, a, xhat, std, grads):
        """Backprop dL/dy through layer norm and tanh into grads' feat/norm
        tensors."""
        dxhat = dy * params["norm.gain"]
        mean_dx = _mean(dxhat, -1, True)
        mean_dxx = _mean(dxhat * xhat, -1, True)
        da = (dxhat - mean_dx - xhat * mean_dxx) / std
        dpre = da * (1.0 - a * a)
        np.einsum("bfd,bfh->dh", x, dpre, out=grads["feat.weight"])
        np.add.reduce(dpre, axis=(0, 1), out=grads["feat.bias"])
        np.add.reduce(dy * xhat, axis=(0, 1), out=grads["norm.gain"])
        np.add.reduce(dy, axis=(0, 1), out=grads["norm.bias"])

    def forward(self, params, x):
        a, xhat, std, y = self._hidden(params, x)
        pooled = _mean(y, 1)
        scores = params.matmul(pooled, "head.weight") + params["head.bias"]
        return scores, (a, xhat, std, y, pooled)

    def backward(self, params, x, dscores, cache, grads):
        a, xhat, std, y, pooled = cache
        dpooled = dscores @ params["head.weight"].T
        dy = np.broadcast_to(dpooled[:, None, :] / self.frames,
                             y.shape).copy()
        self._input_grads(params, x, dy, a, xhat, std, grads)
        np.matmul(pooled.T, dscores, out=grads["head.weight"])
        np.add.reduce(dscores, axis=0, out=grads["head.bias"])

    def entropy_forward(self, params, x):
        """Frame-level scores, one softmax distribution per (sample, frame)."""
        a, xhat, std, y = self._hidden(params, x)
        frame_scores = params.matmul(y, "head.weight") + params["head.bias"]
        b, f, c = frame_scores.shape
        return frame_scores.reshape(b * f, c), (a, xhat, std, y)

    def entropy_backward(self, params, x, dflat, cache, grads):
        a, xhat, std, y = cache
        ds = dflat.reshape(y.shape[0], self.frames, -1)
        dy = ds @ params["head.weight"].T
        self._input_grads(params, x, dy, a, xhat, std, grads)
        np.einsum("bfh,bfc->hc", y, ds, out=grads["head.weight"])
        np.add.reduce(ds, axis=(0, 1), out=grads["head.bias"])

    def init(self, seed):
        """feat drawn in place (:func:`_draw_affine`), the norm gain
        ones, the norm bias and head zeros."""
        f, h, c = self.feat_dim, self.hidden, self.classes
        params = ParamSet.from_shapes([
            ("feat.weight", (f, h)), ("feat.bias", (h,)), ("norm.gain", (h,)),
            ("norm.bias", (h,)), ("head.weight", (h, c)), ("head.bias", (c,))])
        _draw_affine(params, seed, "feat.weight", "feat.bias")
        params["norm.gain"][...] = 1.0
        return params


def _model_from_core(core: _SoftmaxCore) -> Model:
    def loss(params, batch):
        scores, _ = core.forward(params, batch.inputs)
        return _ce_from_scores(scores, batch.labels)

    def loss_and_grad(params, batch):
        scores, cache = core.forward(params, batch.inputs)
        loss, dscores = _ce_and_dscores(scores, batch.labels)
        grads = params.zeros(dscores.dtype)
        core.backward(params, batch.inputs, dscores, cache, grads)
        return loss, grads

    return Model(name=core.name, loss=loss, loss_and_grad=loss_and_grad,
                 init=core.init, core=core)


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

def _core(model: Model) -> "_SoftmaxCore":
    """``model.core``; ValueError for a model without one."""
    if model.core is None:
        raise ValueError(f"model {model.name!r} has no predictive distribution")
    return model.core


def entropy_objective(model: Model) -> Model:
    """The same network with loss/loss_and_grad replaced by predictive entropy.

    The loss is the mean Shannon entropy (nats) of the distributions the
    core's ``entropy_forward`` gives: the frame-level ones for the
    sequence classifier, the per-sample ones for flat classifiers.
    Raises ValueError for a model without a core.
    """
    core = _core(model)

    def loss(params, batch):
        if batch.labels is not None:
            raise ValueError("entropy objective expects an unlabeled batch")
        scores, _ = core.entropy_forward(params, batch.inputs)
        return _entropy_from_scores(scores)

    def loss_and_grad(params, batch):
        if batch.labels is not None:
            raise ValueError("entropy objective expects an unlabeled batch")
        scores, cache = core.entropy_forward(params, batch.inputs)
        loss, dscores = _entropy_and_dscores(scores)
        grads = params.zeros(dscores.dtype)
        core.entropy_backward(params, batch.inputs, dscores, cache, grads)
        return loss, grads

    return Model(name=model.name + "-entropy", loss=loss,
                 loss_and_grad=loss_and_grad, init=model.init, core=core)


def accuracy(model: Model, params: ParamSet, batch: Batch) -> float:
    scores, _ = _core(model).forward(params, batch.inputs)
    return float(np.mean(scores.argmax(axis=1) == batch.labels))


def sample_scores(model: Model, params: ParamSet, batch: Batch) -> np.ndarray:
    """Per-sample accuracy scores in [0, 1], one entry per batch row.

    A sample scores the fraction of its ``entropy_forward`` rows whose
    argmax matches the label: 0 or 1 for flat classifiers, its fraction
    of correct frames (the desk-scale analog of token accuracy) for the
    sequence classifier.  Raises ValueError without labels or a core.
    """
    if batch.labels is None:
        raise ValueError("sample_scores needs labels")
    flat, _ = _core(model).entropy_forward(params, batch.inputs)
    rows = flat.reshape(len(batch), -1, flat.shape[-1])
    return (rows.argmax(axis=-1) == batch.labels[:, None]).mean(axis=1)


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
        for name in ("noise_sigma", "shift_scale", "shift_bias"):
            check_real(name, getattr(self, name))
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
    x = protos[labels] + within * stream.normal((n,) + protos.shape[1:])
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
