import hashlib

import numpy as np
import pytest

from zobench.params import ParamSet, axpy
from zobench.samplers import (FULL, SamplerKind, alloc_tracker,
                              sample_for_tensor, sample_lowrank)
from zobench.streams import GaussianStream, gaussian_fill


def test_sampler_kind_validation():
    with pytest.raises(ValueError):
        SamplerKind("banana")
    with pytest.raises(ValueError):
        SamplerKind.lowrank(0)
    assert FULL.variant == "full"
    assert SamplerKind.lowrank(4).rank == 4


def test_full_kind_takes_no_rank_or_normalize():
    with pytest.raises(ValueError):
        SamplerKind("full", rank=3)
    with pytest.raises(ValueError):
        SamplerKind("full", normalize=True)
    assert SamplerKind() == FULL == SamplerKind("full", rank=0)


def test_gaussian_fill_deterministic():
    a = gaussian_fill(GaussianStream(1), (4, 5))
    b = gaussian_fill(GaussianStream(1), (4, 5))
    np.testing.assert_array_equal(a, b)


def test_lowrank_rank_bound():
    z = sample_lowrank(GaussianStream(2), 30, 20, 4)
    s = np.linalg.svd(z, compute_uv=False)
    assert np.all(s[4:] < 1e-10 * s[0])


def test_lowrank_rank_clipped_to_min_dim():
    z = sample_lowrank(GaussianStream(2), 3, 20, 10)
    assert np.linalg.matrix_rank(z) <= 3


def test_lowrank_entry_variance():
    r = 6
    draws = np.array([sample_lowrank(GaussianStream(s), 8, 8, r)
                      for s in range(4000)])
    var = draws.var()
    assert abs(var - r) / r < 0.1


def test_lowrank_normalized_entry_variance():
    r = 6
    draws = np.array([sample_lowrank(GaussianStream(s), 8, 8, r, normalize=True)
                      for s in range(4000)])
    assert abs(draws.var() - 1.0) < 0.1


def test_lowrank_argument_validation():
    with pytest.raises(ValueError):
        sample_lowrank(GaussianStream(0), 0, 4, 2)
    with pytest.raises(ValueError):
        sample_lowrank(GaussianStream(0), 4, 4, 0)


def test_1d_fallback_matches_full_stream():
    kind = SamplerKind.lowrank(3)
    z = sample_for_tensor(GaussianStream(9), (50,), kind)
    full = gaussian_fill(GaussianStream(9), (50,))
    np.testing.assert_array_equal(z, full)


def test_singleton_matrix_fallback():
    kind = SamplerKind.lowrank(3)
    z = sample_for_tensor(GaussianStream(9), (1, 50), kind)
    full = gaussian_fill(GaussianStream(9), (1, 50))
    np.testing.assert_array_equal(z, full)


def test_rank3_tensor_sampled_as_matrix_stack():
    kind = SamplerKind.lowrank(2)
    z = sample_for_tensor(GaussianStream(3), (10, 12, 4), kind)
    assert z.shape == (10, 12, 4)
    for idx in range(4):
        s = np.linalg.svd(z[:, :, idx], compute_uv=False)
        assert np.all(s[2:] < 1e-10 * s[0])


def test_full_kind_ignores_shape_dispatch():
    z = sample_for_tensor(GaussianStream(3), (6, 6), FULL)
    full = gaussian_fill(GaussianStream(3), (6, 6))
    np.testing.assert_array_equal(z, full)


# digests taken before the low-rank draws without ``out`` stopped
# reporting their result to alloc_tracker: the bytes did not move
_LOWRANK_SHA256 = {
    "stack": "91b7d18cbfdc7176bd39b71b7e209107a036384a10f978d67c61254e92759513",
    "normalized": "96762ad1d07701165e9497482f7400b303055caaf731f1cee343e2207ccdfb0a",
}


def test_lowrank_draw_bytes_are_pinned():
    stack = sample_for_tensor(GaussianStream(3), (10, 12, 4),
                              SamplerKind.lowrank(2))
    normalized = sample_for_tensor(GaussianStream(4), (7, 9),
                                   SamplerKind.lowrank(3, normalize=True))
    for name, z in (("stack", stack), ("normalized", normalized)):
        assert hashlib.sha256(z.tobytes()).hexdigest() == _LOWRANK_SHA256[name]


def _tracked(fn):
    """Run ``fn()``; return the transient peak and the bytes left reported."""
    alloc_tracker.enabled = True
    alloc_tracker.reset()
    try:
        fn()
        return alloc_tracker.peak, alloc_tracker.active
    finally:
        alloc_tracker.enabled = False
        alloc_tracker.reset()


def test_alloc_tracker_accounting():
    out = np.empty((30, 20))
    alloc_tracker.enabled = True
    alloc_tracker.reset()
    try:
        sample_lowrank(GaussianStream(0), 30, 20, 4, out=out)
        factors = (30 + 20) * 4 * out.itemsize
        assert alloc_tracker.active == 0
        assert alloc_tracker.peak == factors
        gaussian_fill(GaussianStream(0), (100,))
        assert alloc_tracker.peak == factors  # peak is sticky until reset
    finally:
        alloc_tracker.enabled = False
        alloc_tracker.reset()


def test_alloc_tracker_disabled_by_default():
    alloc_tracker.reset()
    sample_lowrank(GaussianStream(0), 30, 20, 4)
    assert alloc_tracker.active == alloc_tracker.peak == 0


def _draw_cases():
    """``(draw(stream, out), out shape)`` for every public draw and update:
    each draw with and without ``out``, and axpy's three call forms."""
    lowrank = SamplerKind.lowrank(2)
    draws = [("gaussian_fill", (50,),
              lambda s, out: gaussian_fill(s, (50,), out=out)),
             ("sample_lowrank", (6, 6),
              lambda s, out: sample_lowrank(s, 6, 6, 2, out=out))]
    for kind in (FULL, lowrank):
        for shape in ((50,), (1, 50), (6, 6), (10, 12, 4)):
            draws.append((f"sample_for_tensor-{kind.variant}-"
                          + "x".join(map(str, shape)), shape,
                          lambda s, out, shape=shape, kind=kind:
                          sample_for_tensor(s, shape, kind, out=out)))
    cases = [pytest.param(draw, shape if with_out else None,
                          id=f"{name}-{'out' if with_out else 'new'}")
             for name, shape, draw in draws for with_out in (False, True)]
    for name, args in (("term", (0.5, 7)),
                       ("adjacent-seeds", ([0.5, -0.25], [7, 7])),
                       ("lowrank", (0.5, 7, lowrank))):
        cases.append(pytest.param(
            lambda s, out, args=args: axpy(ParamSet([
                ("w", np.ones((10, 12, 4))), ("b", np.ones(5))]), *args),
            None, id=f"axpy-{name}"))
    return cases


@pytest.mark.parametrize("draw, out_shape", _draw_cases())
def test_every_draw_frees_its_reports(draw, out_shape):
    # the tracker counts transients only: a returned draw is the caller's
    out = None if out_shape is None else np.empty(out_shape)
    _, active = _tracked(lambda: draw(GaussianStream(1), out))
    assert active == 0


@pytest.mark.parametrize("with_out", [False, True], ids=["new", "out"])
def test_stacked_lowrank_peak_counts_one_slice_and_its_factors(with_out):
    m, n, r = 10, 12, 2
    out = np.empty((m, n, 4)) if with_out else None
    peak, _ = _tracked(lambda: sample_for_tensor(
        GaussianStream(3), (m, n, 4), SamplerKind.lowrank(r), out=out))
    assert peak == (m * n + (m + n) * r) * 8 == 1312
