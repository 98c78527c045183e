"""A large set's update split between two threads.

Above ``CHUNK`` elements, where the machine has a second CPU and numpy's
OpenBLAS is found, a query's probes mark where each seed's stream is at
the set's middle element, and ``axpy`` hands the update from there on to
one worker thread.  Every element gets the same additions in the same
order as in the one-thread pass, so the two must agree bit for bit.
Each test here decides the split itself (``_can_split`` patched), so it
runs the same way on any machine.
"""

import threading

import numpy as np
import pytest

from zobench import params as P
from zobench import zo
from zobench.models import BatchSampler, DataGenConfig, Model, gen_data, make_model
from zobench.params import CHUNK, ParamSet, axpy
from zobench.samplers import SamplerKind
from zobench.seedlog import SeedLogHeader, SeedLogWriter, read_log, replay, revert
from zobench.zo import NumericError, ZOConfig


def _mlp(dim, hidden, classes, dtype=np.float64):
    cfg = DataGenConfig(task="mlp", dim=dim, hidden=hidden, classes=classes,
                        n_train=64, n_test=8, seed=0)
    model = make_model(cfg)
    init = model.init(0)
    if dtype != np.float64:
        init = ParamSet((name, arr.astype(dtype)) for name, arr in init.items())
    return model, BatchSampler(gen_data(cfg)[0], 8, seed=0).draw, init


def _reader(shapes):
    """A model that reads a 2-D tensor as the mlp reads a weight, through
    ``matmul`` with a fixed input, and any other by indexing it."""
    rng = np.random.default_rng(0)
    inputs = {name: rng.normal(size=(3, shape[0]))
              for name, shape in shapes if len(shape) == 2}

    def loss(params, batch):
        return sum(float(np.tanh(params.matmul(inputs[name], name)
                                 if name in inputs else params[name]).sum())
                   for name, _ in shapes)

    init = ParamSet((name, np.linspace(-1.0, 1.0, int(np.prod(shape)))
                     .reshape(shape)) for name, shape in shapes)
    return Model(name="reader", loss=loss), lambda index: None, init


# (name, set-up, split tensor, split offset)
CASES = {
    # layer1.weight, 512 x 2048, drawn 8 rows (16,384 elements) a piece
    "mlp-512-2048-10": (lambda: _mlp(512, 2048, 10), 0, 535_557),
    # layer1.weight, 300 x 257 (77,100 elements), drawn 63 rows a piece
    "mlp-300-257-3": (lambda: _mlp(300, 257, 3), 0, 39_065),
    # layer1.weight, 5 x 17000, each row drawn in two slices
    "mlp-5-17000-3": (lambda: _mlp(5, 17000, 3), 0, 76_501),
    # the middle element is the first of "b"
    "boundary": (lambda: _reader([("a", (200, 200)), ("b", (40_000,))]), 1, 0),
    # has_uint32 and uinteger carry half a word across the split
    "mlp-300-257-3-f32": (lambda: _mlp(300, 257, 3, np.float32), 0, 39_065),
}


def _train(monkeypatch, case, split, config):
    """``zo.train`` from the case's initial set, built with the split on or
    off; returns the trained set."""
    monkeypatch.setattr(P, "_can_split", lambda: split)
    make, tensor, offset = CASES[case]
    model, source, init = make()
    assert init._split == ((tensor, offset) if split else None)
    zo.train(model, source, config, init)
    assert ("split" in init._plans) == (split and config.sampler.variant == "full")
    assert init._marks == {}  # each update takes its step's marks
    return init


@pytest.mark.parametrize("combine", ["accumulate", "mean"])
@pytest.mark.parametrize("q", [1, 3])
@pytest.mark.parametrize("case", list(CASES))
def test_split_update_equals_the_sequential_one(monkeypatch, case, q, combine):
    config = ZOConfig(epsilon=1e-3, lr=0.05, q=q, steps=3, combine=combine,
                      master_seed=11)
    split = _train(monkeypatch, case, True, config)
    assert split.num_elements() > CHUNK
    assert split.equals_bitwise(_train(monkeypatch, case, False, config))


def test_lowrank_kinds_take_the_sequential_update(monkeypatch):
    # a low-rank probe draws each tensor whole through its sampler and
    # marks nothing, so its update runs on one thread
    config = ZOConfig(epsilon=1e-3, lr=0.05, q=3, steps=3, master_seed=11,
                      sampler=SamplerKind.lowrank(2, normalize=True))
    split = _train(monkeypatch, "mlp-300-257-3", True, config)
    assert split.equals_bitwise(_train(monkeypatch, "mlp-300-257-3", False, config))


@pytest.mark.parametrize("q", [1, 3])
def test_replay_of_a_split_run_is_the_live_run(monkeypatch, tmp_path, q):
    # replay and revert have no marks and run on one thread; a full-width
    # log holds the live terms, so replay rebuilds the split run exactly
    monkeypatch.setattr(P, "_can_split", lambda: True)
    model, source, init = _mlp(300, 257, 3)
    live = init.copy()
    config = ZOConfig(epsilon=1e-3, lr=0.05, q=q, steps=4, master_seed=11)
    header = SeedLogHeader.from_config(config, init.schema_hash, pg_width=8)
    with SeedLogWriter(tmp_path / "run.zolog", header) as writer:
        zo.train(model, source, config, live, log_writer=writer)
    assert "split" in live._plans
    log = read_log(tmp_path / "run.zolog")
    rebuilt = replay(init, log)
    assert rebuilt.equals_bitwise(live) and "split" not in rebuilt._plans
    assert revert(rebuilt, log).max_abs_diff(init) <= 1e-6


def test_a_term_without_a_mark_takes_the_sequential_update(monkeypatch):
    monkeypatch.setattr(P, "_can_split", lambda: True)
    model, _, init = _reader([("a", (200, 200)), ("b", (40_000,))])
    expected = init.copy()
    zo.rge_proj_grad(model, init, None, 5, 1e-3)
    assert list(init._marks) == [5]
    axpy(init, [0.5, -0.25], [5, 6])  # 6 was never probed
    assert list(init._plans) == [True] and init._marks == {}
    axpy(expected, [0.5, -0.25], [5, 6])
    assert init.equals_bitwise(expected)


def test_a_set_keeps_a_bounded_number_of_marks(monkeypatch):
    # probing without updating drops the marks each time _MARKS are held
    monkeypatch.setattr(P, "_can_split", lambda: True)
    model, _, init = _reader([("a", (200, 200)), ("b", (40_000,))])
    for seed in range(P._MARKS + 5):
        zo.rge_proj_grad(model, init, None, seed, 1e-3)
    assert list(init._marks) == list(range(P._MARKS, P._MARKS + 5))


def test_concurrent_split_updates_match_sequential(monkeypatch):
    # more threads than cores train separate sets at once, each update
    # sharing the one worker: every set must end as on one thread
    import sys

    monkeypatch.setattr(P, "_can_split", lambda: True)
    shapes = [("a", (200, 200)), ("b", (40_000,))]

    def run(master_seed, out):
        model, source, init = _reader(shapes)
        zo.train(model, source, ZOConfig(q=2, steps=3, master_seed=master_seed),
                 init)
        out[master_seed] = init

    expected, got = {}, {}
    for master_seed in range(4):
        run(master_seed, expected)
    threads = [threading.Thread(target=run, args=(master_seed, got))
               for master_seed in range(4)]
    blas = P._openblas_threads()
    count = blas and blas[0]()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    # overlapping runs share one hold: the last to end restores the count
    assert (blas and blas[0]()) == count
    for master_seed, params in expected.items():
        assert "split" in params._plans
        assert got[master_seed].equals_bitwise(params)


@pytest.mark.parametrize("query", [0, 2])
def test_numeric_error_leaves_theta_and_no_marks(monkeypatch, query):
    monkeypatch.setattr(P, "_can_split", lambda: True)
    model, source, init = _mlp(300, 257, 3)
    calls = []

    def loss(p, b):
        calls.append(None)
        return float("nan") if len(calls) == 2 * query + 1 else model.loss(p, b)

    before = init.copy()
    config = ZOConfig(epsilon=1e-3, lr=0.05, q=3, steps=1, master_seed=11)
    with pytest.raises(NumericError) as exc:
        zo.zo_step(Model(name="nan", loss=loss), init, source, config, 0)
    assert exc.value.query == query
    assert init.equals_bitwise(before)
    assert init._marks == {}


def test_the_pool_holds_one_worker(monkeypatch):
    monkeypatch.setattr(P, "_can_split", lambda: True)
    model, source, init = _reader([("a", (200, 200)), ("b", (40_000,))])
    for master_seed in range(3):
        zo.train(model, source, ZOConfig(q=2, steps=2, master_seed=master_seed),
                 init)
    workers = [t for t in threading.enumerate()
               if t.name.startswith("zobench-axpy")]
    assert len(workers) == 1


def test_small_sets_never_split():
    # a set at or below CHUNK elements keeps the one-thread update
    for shapes in ([("w", (CHUNK,))], [("w", (256, 255)), ("b", (256,))]):
        assert ParamSet.from_shapes(shapes)._split is None


def test_train_restores_the_openblas_thread_count(monkeypatch):
    # zo.train on a set it may split holds OpenBLAS at one thread and
    # gives the caller's count back, whether it returns or raises
    blas = P._openblas_threads()
    if blas is None:
        pytest.skip("numpy's OpenBLAS was not found")
    get, put = blas
    monkeypatch.setattr(P, "_can_split", lambda: True)
    model, source, init = _mlp(300, 257, 3)
    seen = []

    def loss(p, b):
        seen.append(get())
        return float("nan") if len(seen) == 7 else model.loss(p, b)

    counting = Model(name="blas", loss=loss)
    config = ZOConfig(epsilon=1e-3, lr=0.05, q=1, steps=3, master_seed=11)
    original = get()
    try:
        put(2)
        zo.train(counting, source, config, init)
        assert get() == 2
        with pytest.raises(NumericError):
            zo.train(counting, source, config, init)
        assert get() == 2
    finally:
        put(original)
    assert seen == [1] * 8  # the failing query still evaluates both probes
