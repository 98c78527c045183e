import numpy as np
import pytest

from zobench.samplers import (FULL, SamplerKind, alloc_tracker,
                              sample_for_tensor, sample_full, sample_lowrank)
from zobench.streams import GaussianStream


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


def test_sample_full_deterministic():
    a = sample_full(GaussianStream(1), (4, 5))
    b = sample_full(GaussianStream(1), (4, 5))
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
    full = sample_full(GaussianStream(9), (50,))
    np.testing.assert_array_equal(z, full)


def test_singleton_matrix_fallback():
    kind = SamplerKind.lowrank(3)
    z = sample_for_tensor(GaussianStream(9), (1, 50), kind)
    full = sample_full(GaussianStream(9), (1, 50))
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
    full = sample_full(GaussianStream(3), (6, 6))
    np.testing.assert_array_equal(z, full)


def test_alloc_tracker_accounting():
    alloc_tracker.enabled = True
    alloc_tracker.reset()
    try:
        z = sample_full(GaussianStream(0), (100,))
        assert alloc_tracker.active == z.nbytes
        assert alloc_tracker.peak == z.nbytes
        alloc_tracker.free(z.nbytes)
        assert alloc_tracker.active == 0
        assert alloc_tracker.peak == z.nbytes  # peak is sticky until reset
    finally:
        alloc_tracker.enabled = False
        alloc_tracker.reset()


def test_alloc_tracker_disabled_by_default():
    alloc_tracker.reset()
    sample_full(GaussianStream(0), (100,))
    assert alloc_tracker.active == 0
