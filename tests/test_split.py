"""A large set's work on the module's worker thread.

Above ``CHUNK`` elements, where the machine has a second CPU and numpy's
OpenBLAS is found, a set may use the one worker thread: inside
``zo.train`` its full-kind update runs there as one job, left pending
while the next step's first probe draws, and a probe's product with a
wide weight draws z's pieces there while the caller multiplies them.
Every element gets the same additions in the same order as in the
one-thread pass, and every product the same pieces, so the two must
agree bit for bit.  Each test here decides whether the set may use the
worker (``_can_split`` patched), so it runs the same way on any machine
that has the OpenBLAS ``zo.train`` holds.
"""

import threading

import numpy as np
import pytest

from zobench import params as P
from zobench import zo
from zobench.models import BatchSampler, DataGenConfig, Model, gen_data, make_model
from zobench.params import CHUNK, ParamSet
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


def _inputs(shapes, lead=(3,), dtype=np.float64):
    """A fixed input of shape ``lead + (rows,)`` per 2-D tensor, by name."""
    rng = np.random.default_rng(0)
    return {name: rng.normal(size=lead + shape[:1]).astype(dtype)
            for name, shape in shapes if len(shape) == 2}


def _reader(shapes, lead=(3,), dtype=np.float64):
    """A model that reads a 2-D tensor as the mlp reads a weight, through
    ``matmul`` with its input from :func:`_inputs`, and any other by
    indexing it."""
    inputs = _inputs(shapes, lead, dtype)

    def loss(params, batch):
        return sum(float(np.tanh(params.matmul(inputs[name], name)
                                 if name in inputs else params[name]).sum())
                   for name, _ in shapes)

    init = ParamSet((name, np.linspace(-1.0, 1.0, int(np.prod(shape)),
                                       dtype=dtype).reshape(shape))
                    for name, shape in shapes)
    return Model(name="reader", loss=loss), lambda index: None, init


# whether zo.train can hold OpenBLAS, and so leave an update on the worker
BLAS = P._openblas_threads() is not None

# the set-up of each case
CASES = {
    # layer1.weight, 512 x 2048, drawn 8 rows (16,384 elements) a piece
    "mlp-512-2048-10": lambda: _mlp(512, 2048, 10),
    # layer1.weight, 300 x 257 (77,100 elements), drawn 63 rows a piece
    "mlp-300-257-3": lambda: _mlp(300, 257, 3),
    # layer1.weight, 5 x 17000, each row drawn in two slices
    "mlp-5-17000-3": lambda: _mlp(5, 17000, 3),
    # two tensors, neither above CHUNK
    "boundary": lambda: _reader([("a", (200, 200)), ("b", (40_000,))]),
    "mlp-300-257-3-f32": lambda: _mlp(300, 257, 3, np.float32),
}


def _train(monkeypatch, case, split, config):
    """``zo.train`` from the case's initial set, built with the worker
    on or off; returns the trained set."""
    monkeypatch.setattr(P, "_can_split", lambda: split)
    model, source, init = CASES[case]()
    assert init._threaded == split
    zo.train(model, source, config, init)
    assert ("worker" in init._plans) == (
        split and BLAS and config.sampler.variant == "full")
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
    # a low-rank z is drawn whole through its sampler, so its update
    # runs on the calling thread
    config = ZOConfig(epsilon=1e-3, lr=0.05, q=3, steps=3, master_seed=11,
                      sampler=SamplerKind.lowrank(2, normalize=True))
    split = _train(monkeypatch, "mlp-300-257-3", True, config)
    assert split.equals_bitwise(_train(monkeypatch, "mlp-300-257-3", False, config))


@pytest.mark.parametrize("q", [1, 3])
def test_replay_of_a_split_run_is_the_live_run(monkeypatch, tmp_path, q):
    # replay and revert run on the calling thread; a full-width log
    # holds the live terms, so replay rebuilds the run exactly
    monkeypatch.setattr(P, "_can_split", lambda: True)
    model, source, init = _mlp(300, 257, 3)
    live = init.copy()
    config = ZOConfig(epsilon=1e-3, lr=0.05, q=q, steps=4, master_seed=11)
    header = SeedLogHeader.from_config(config, init.schema_hash, pg_width=8)
    with SeedLogWriter(tmp_path / "run.zolog", header) as writer:
        zo.train(model, source, config, live, log_writer=writer)
    assert ("worker" in live._plans) == BLAS
    log = read_log(tmp_path / "run.zolog")
    rebuilt = replay(init, log)
    assert rebuilt.equals_bitwise(live) and "worker" not in rebuilt._plans
    assert revert(rebuilt, log).max_abs_diff(init) <= 1e-6


def test_concurrent_split_updates_match_sequential(monkeypatch):
    # more threads than cores train separate sets at once, each update
    # sharing the one worker: every set must end as on one thread
    import sys

    shapes = [("a", (200, 200)), ("b", (40_000,))]

    def run(master_seed, out):
        model, source, init = _reader(shapes)
        zo.train(model, source, ZOConfig(q=2, steps=3, master_seed=master_seed),
                 init)
        out[master_seed] = init

    expected, got = {}, {}
    monkeypatch.setattr(P, "_can_split", lambda: False)
    for master_seed in range(4):
        run(master_seed, expected)
    monkeypatch.setattr(P, "_can_split", lambda: True)
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
        assert ("worker" in got[master_seed]._plans) == BLAS
        assert got[master_seed].equals_bitwise(params)


@pytest.mark.parametrize("query", [0, 2])
def test_numeric_error_leaves_theta_and_no_marks(monkeypatch, query):
    # a lone step's update runs on the calling thread: none is pending
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
    assert init._pending is None


def test_the_pool_holds_one_worker(monkeypatch):
    monkeypatch.setattr(P, "_can_split", lambda: True)
    model, source, init = _reader([("a", (200, 200)), ("b", (40_000,))])
    for master_seed in range(3):
        zo.train(model, source, ZOConfig(q=2, steps=2, master_seed=master_seed),
                 init)
    workers = [t for t in threading.enumerate()
               if t.name.startswith("zobench-axpy")]
    assert len(workers) == 1


def test_small_sets_never_split(monkeypatch):
    # a set at or below CHUNK elements never uses the worker
    monkeypatch.setattr(P, "_can_split", lambda: True)
    for shapes in ([("w", (CHUNK,))], [("w", (256, 255)), ("b", (256,))]):
        assert not ParamSet.from_shapes(shapes)._threaded
    assert ParamSet.from_shapes([("w", (CHUNK + 1,))])._threaded


def test_train_restores_the_openblas_thread_count(monkeypatch):
    # zo.train on a set that may use the worker holds OpenBLAS at one
    # thread and gives the caller's count back, whether it returns or raises
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


# Inside zo.train an update is left pending on the worker while the next
# step's first probe draws; the first read of theta settles it.
def _deferring(monkeypatch):
    """Worker on, and skip unless ``zo.train`` can leave an update pending:
    it does so inside its OpenBLAS hold, which needs the library."""
    if not BLAS:
        pytest.skip("numpy's OpenBLAS was not found")
    monkeypatch.setattr(P, "_can_split", lambda: True)


def _left_pending(monkeypatch):
    """Whether each ``axpy`` call left its set's update pending, in order."""
    left, axpy_ = [], P.axpy

    def spy(params, *args):
        axpy_(params, *args)
        left.append(params._pending is not None)

    monkeypatch.setattr(P, "axpy", spy)
    return left


def _steps(model, params, source, config, steps):
    """``steps`` lone ``zo_step`` calls, none leaving its update pending;
    their records."""
    records = []
    for t in range(steps):
        records += zo.zo_step(model, params, source, config, t)
        assert params._pending is None
    return records


@pytest.mark.parametrize("q", [1, 2, 4])
def test_train_equals_a_loop_of_zo_steps(monkeypatch, q):
    _deferring(monkeypatch)
    config = ZOConfig(epsilon=1e-3, lr=0.05, q=q, steps=4, master_seed=11)
    model, source, live = _mlp(300, 257, 3)
    left = _left_pending(monkeypatch)
    records, _ = zo.train(model, source, config, live)
    assert left == [True] * 4 and live._pending is None
    _, _, looped = _mlp(300, 257, 3)
    del left[:]
    assert _steps(model, looped, source, config, 4) == records
    assert left == [False] * 4
    assert live.equals_bitwise(looped)


@pytest.mark.parametrize("k", [1, 2])
def test_a_nan_step_leaves_the_steps_before_it(monkeypatch, k):
    # both losses of step k are NaN and read nothing, so step k - 1's
    # update is still pending when the run raises; its end settles it
    _deferring(monkeypatch)
    get, put = P._openblas_threads()
    config = ZOConfig(epsilon=1e-3, lr=0.05, q=1, steps=4, master_seed=11)
    model, source, init = _mlp(300, 257, 3)
    _, _, expected = _mlp(300, 257, 3)
    records = _steps(model, expected, source, config, k)
    calls = []

    def loss(p, b):
        calls.append(None)
        return float("nan") if len(calls) > 2 * k else model.loss(p, b)

    original = get()
    try:
        put(2)
        with pytest.raises(NumericError) as exc:
            zo.train(Model(name="nan", loss=loss), source, config, init)
        assert get() == 2
    finally:
        put(original)
    assert exc.value.step == k and exc.value.records == records
    assert init._pending is None and init.equals_bitwise(expected)


def test_a_worker_error_is_raised_once(monkeypatch):
    # the worker fails as it begins step 1's update: the run raises it
    # once, as step 2 first reads theta, with step 0's update in the set,
    # and the set keeps training after it
    _deferring(monkeypatch)
    get, put = P._openblas_threads()
    config = ZOConfig(epsilon=1e-3, lr=0.05, q=2, steps=3, master_seed=11)
    model, source, live = _mlp(300, 257, 3)
    _, _, expected = _mlp(300, 257, 3)
    _steps(model, expected, source, config, 1)
    add, begun = P._add_terms, []

    def failing(*args):
        begun.append(None)
        if len(begun) == 2:
            raise RuntimeError("step 1")
        add(*args)

    original = get()
    try:
        put(2)
        with monkeypatch.context() as patch:
            patch.setattr(P, "_add_terms", failing)
            with pytest.raises(RuntimeError, match="step 1"):
                zo.train(model, source, config, live)
        assert get() == 2
    finally:
        put(original)
    assert live._pending is None and len(begun) == 2
    assert live.equals_bitwise(expected)
    _pool_works()
    zo.train(model, source, config, live)
    assert live._pending is None


def test_only_train_leaves_an_update_pending(monkeypatch, tmp_path):
    # replay and revert, and every update of a set at or below CHUNK,
    # finish inside their axpy call
    _deferring(monkeypatch)
    model, source, init = _mlp(300, 257, 3)
    live = init.copy()
    config = ZOConfig(epsilon=1e-3, lr=0.05, q=2, steps=2, master_seed=11)
    header = SeedLogHeader.from_config(config, init.schema_hash, pg_width=8)
    with SeedLogWriter(tmp_path / "run.zolog", header) as writer:
        zo.train(model, source, config, live, log_writer=writer)
    left = _left_pending(monkeypatch)
    log = read_log(tmp_path / "run.zolog")
    assert revert(replay(init, log), log)._pending is None
    model, source, small = _mlp(20, 16, 4)
    assert not small._threaded
    zo.train(model, source, config, small)
    assert left == [False] * 4


def test_only_train_runs_the_update_on_the_worker(monkeypatch, tmp_path):
    # inside zo.train each step's update is one worker job; a lone step,
    # replay and revert add their terms on the calling thread
    _deferring(monkeypatch)
    add, pool, threads, jobs = P._add_terms, P._worker, [], []

    def spy(*args):
        threads.append(threading.current_thread().name)
        add(*args)

    class Pool:  # the module's pool, recording each job it is handed
        def submit(self, fn, *args):
            jobs.append(fn)
            return pool().submit(fn, *args)

    monkeypatch.setattr(P, "_add_terms", spy)
    monkeypatch.setattr(P, "_worker", Pool)
    model, source, init = _mlp(300, 257, 3)
    live = init.copy()
    config = ZOConfig(epsilon=1e-3, lr=0.05, q=2, steps=3, master_seed=11)
    header = SeedLogHeader.from_config(config, init.schema_hash, pg_width=8)
    with SeedLogWriter(tmp_path / "run.zolog", header) as writer:
        zo.train(model, source, config, live, log_writer=writer)
    assert len(threads) == jobs.count(spy) == 3
    assert all(name.startswith("zobench-axpy") for name in threads)
    del threads[:], jobs[:]
    zo.zo_step(model, live, source, config, 3)
    log = read_log(tmp_path / "run.zolog")
    revert(replay(init, log), log)
    assert len(threads) == 3 and spy not in jobs
    assert set(threads) == {threading.current_thread().name}


# A probe's product with a wide weight, on a set that may use the worker:
# the worker thread draws z's pieces while the caller multiplies them.
# (shapes, lead dimensions of x, dtype); the first tensor is multiplied
PRODUCTS = {
    # 63 rows a piece, 300 = 4 * 63 + 48
    "rows-not-a-multiple": ([("w", (300, 257)), ("b", (257,))], (5,), np.float64),
    # each row drawn in two slices
    "row-slices": ([("w", (5, 17_000))], (3,), np.float64),
    # the set is above CHUNK only with "b", which is indexed
    "split-in-another": ([("a", (200, 200)), ("b", (40_000,))], (3,), np.float64),
    "3-d-x": ([("w", (300, 257))], (2, 4), np.float64),
    "float32": ([("w", (300, 257))], (5,), np.float32),
}


def _fill_threads(monkeypatch):
    """The name of the thread of every Gaussian fill, until ``monkeypatch``
    is undone."""
    from zobench import samplers

    names, fill = [], samplers.gaussian_fill

    def spy(*args):
        names.append(threading.current_thread().name)
        return fill(*args)

    monkeypatch.setattr(samplers, "gaussian_fill", spy)
    return names


def _product(monkeypatch, case, split):
    """The case's ``product`` output, eps (x @ z), on a set built with the
    worker on or off, and the threads its fills ran on."""
    shapes, lead, dtype = PRODUCTS[case]
    name = shapes[0][0]
    with monkeypatch.context() as patch:
        patch.setattr(P, "_can_split", lambda: split)
        _, _, init = _reader(shapes, lead, dtype)
        names = _fill_threads(patch)
        with init.probes(7, 1e-3) as (plus, _):
            out = plus._draws.product(_inputs(shapes, lead, dtype)[name],
                                      name, init[name])
    return out, set(names)


@pytest.mark.parametrize("case", list(PRODUCTS))
def test_pipelined_product_equals_the_one_thread_one(monkeypatch, case):
    ahead, threads = _product(monkeypatch, case, True)
    assert all(name.startswith("zobench-axpy") for name in threads)
    here, threads = _product(monkeypatch, case, False)
    assert threads == {threading.current_thread().name}
    assert ahead.dtype == here.dtype and np.array_equal(ahead, here)
    # and a step through it: the probes' products and the update
    shapes, lead, dtype = PRODUCTS[case]
    trained = []
    for split in (True, False):
        monkeypatch.setattr(P, "_can_split", lambda: split)
        model, source, init = _reader(shapes, lead, dtype)
        zo.train(model, source, ZOConfig(q=2, steps=2, master_seed=3), init)
        assert ("worker" in init._plans) == (split and BLAS)
        trained.append(init)
    assert trained[0].equals_bitwise(trained[1])


def _within(seconds, fn):
    """Run ``fn`` on a thread; its exception, or a failure if it hangs."""
    box = []

    def run():
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            box.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), "the call hung"
    return box[0] if box else None


def _pool_works():
    assert P._worker().submit(int, 5).result(timeout=10) == 5


def test_a_draw_that_fails_on_the_worker_reaches_the_caller(monkeypatch):
    # "b" is indexed first, then the product of "w" fails on its third
    # piece, drawn on the worker
    from zobench import samplers

    monkeypatch.setattr(P, "_can_split", lambda: True)
    shapes = [("b", (100_000,)), ("w", (300, 257))]
    model, source, init = _reader(shapes)
    before, fill, worker = init.copy(), samplers.gaussian_fill, []

    def failing(*args):
        if threading.current_thread().name.startswith("zobench-axpy"):
            worker.append(None)
            if len(worker) == 3:
                raise RuntimeError("third piece")
        return fill(*args)

    monkeypatch.setattr(samplers, "gaussian_fill", failing)
    exc = _within(30, lambda: zo.rge_proj_grad(model, init, None, 5, 1e-3))
    assert isinstance(exc, RuntimeError) and str(exc) == "third piece"
    assert len(worker) == 3 and init.equals_bitwise(before)
    monkeypatch.setattr(samplers, "gaussian_fill", fill)
    _pool_works()
    # the next step still uses the worker, with the bytes of the
    # one-thread one
    config = ZOConfig(q=2, steps=1, master_seed=3)
    zo.train(model, source, config, init)
    assert ("worker" in init._plans) == BLAS
    monkeypatch.setattr(P, "_can_split", lambda: False)
    model, source, expected = _reader(shapes)
    zo.train(model, source, config, expected)
    assert init.equals_bitwise(expected)


class _FailingInput(np.ndarray):
    """An input whose third slice raises, as the product takes the rows
    of each piece: an error on the caller's side mid-product."""

    def __getitem__(self, key):
        self.slices = getattr(self, "slices", 0) + 1
        if self.slices == 3:
            raise RuntimeError("third slice")
        return np.asarray(self)[key]


def test_a_caller_error_stops_the_worker(monkeypatch):
    # 2000 x 40 is drawn in 8 pieces of 256 rows; the caller fails on
    # the third, and the worker, at most two pieces ahead, stops there
    monkeypatch.setattr(P, "_can_split", lambda: True)
    shapes = [("w", (2000, 40))]
    _, _, init = _reader(shapes)
    x = _inputs(shapes)["w"].view(_FailingInput)
    names = _fill_threads(monkeypatch)

    def product():
        with init.probes(7, 1e-3) as (plus, _):
            plus._draws.product(x, "w", init["w"])

    exc = _within(30, product)
    assert isinstance(exc, RuntimeError) and str(exc) == "third slice"
    drawn = len(names)
    _pool_works()
    assert len(names) == drawn  # the worker has ended: no piece after it
    assert 0 < drawn < 8
    # the pool draws the next product whole
    ahead, threads = _product(monkeypatch, "rows-not-a-multiple", True)
    here, _ = _product(monkeypatch, "rows-not-a-multiple", False)
    assert np.array_equal(ahead, here)
