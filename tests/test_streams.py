import numpy as np
import pytest

from zobench.streams import (GaussianStream, check_int, check_real,
                             gaussian_fill, thread_stream)


def test_same_seed_same_stream():
    a = GaussianStream(7).normal((100,))
    b = GaussianStream(7).normal((100,))
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = GaussianStream(7).normal((100,))
    b = GaussianStream(8).normal((100,))
    assert not np.array_equal(a, b)


def test_substreams_are_independent_of_consumption():
    # substream 1 yields the same values no matter how much substream 0 drew
    s0 = GaussianStream(3, substream=0)
    s0.normal((1000,))
    fresh = GaussianStream(3, substream=1).normal((10,))
    also = GaussianStream(3, substream=1).normal((10,))
    assert np.array_equal(fresh, also)


def test_golden_values_pin_the_generator():
    # frozen from the pinned Philox + ziggurat stream; a change here means
    # previously written seed logs no longer replay to the same parameters
    v = GaussianStream(0).normal(4)
    expected = np.array([0.15929546600623282, -1.7741885208017214,
                         1.3265118818830892, 1.2048090979493156])
    np.testing.assert_array_equal(v, expected)

    v = GaussianStream(12345, substream=7).normal(3)
    expected = np.array([-0.16609734794103043, 1.0505799526112878,
                         1.0975804094733415])
    np.testing.assert_array_equal(v, expected)

    ints = GaussianStream(42).integers(0, 1000, size=5)
    assert list(map(int, ints)) == [302, 820, 362, 189, 939]


def test_normal_moments():
    v = GaussianStream(11).normal((200_000,))
    assert abs(v.mean()) < 0.01
    assert abs(v.std() - 1.0) < 0.01


def test_seed_range_validation():
    for bad in (-1, 2 ** 64):
        with pytest.raises(ValueError):
            GaussianStream(bad)
        with pytest.raises(ValueError):  # the substream is a key word too
            GaussianStream(0, bad)
        with pytest.raises(ValueError):
            thread_stream(0, bad)
    GaussianStream(2 ** 64 - 1, 2 ** 64 - 1)  # max u64 is fine
    # numpy integers pass, as the ints they hold
    s = GaussianStream(np.uint64(3), np.int32(1))
    assert (s.seed, s.substream) == (3, 1)
    assert type(s.seed) is int and type(s.substream) is int
    np.testing.assert_array_equal(s.normal(4), GaussianStream(3, 1).normal(4))


@pytest.mark.parametrize("seed, substream", [
    (3.7, 0), (3.0, 0), (np.float64(3.0), 0), (True, 0), (np.bool_(True), 0),
    (3, 1.5), (3, 1.0), (3, False),
], ids=["float", "integral-float", "np-float", "bool", "np-bool",
        "float-sub", "integral-float-sub", "bool-sub"])
def test_non_integer_key_words_are_refused(seed, substream):
    # check_int's rule: refused, not truncated to the stream of int(seed)
    with pytest.raises(TypeError):
        GaussianStream(seed, substream)
    with pytest.raises(TypeError):
        GaussianStream(0).rekey(seed, substream)
    with pytest.raises(TypeError):
        thread_stream(seed, substream)


def test_gaussian_fill_shapes():
    s = GaussianStream(0)
    z = gaussian_fill(s, (3, 4))
    assert z.shape == (3, 4) and z.dtype == np.float64
    z32 = gaussian_fill(GaussianStream(0), (5,), dtype=np.float32)
    assert z32.dtype == np.float32


def test_gaussian_fill_rejects_degenerate_shapes():
    s = GaussianStream(0)
    with pytest.raises(ValueError):
        gaussian_fill(s, (0, 3))
    with pytest.raises(ValueError):
        gaussian_fill(s, (3, -1))


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
def test_scalar_shape_is_one_draw(dtype):
    # a 0-d tensor is a parameter too: its z is the stream's first value
    first = gaussian_fill(GaussianStream(4), (1,), dtype=dtype)[0]
    z = gaussian_fill(GaussianStream(4), (), dtype=dtype)
    assert z.shape == () and z.tobytes() == first.tobytes()
    out = np.empty((), dtype)
    assert gaussian_fill(GaussianStream(4), (), dtype, out) is out
    assert out.tobytes() == first.tobytes()


def test_single_element_tensor_allowed():
    z = gaussian_fill(GaussianStream(0), (1,))
    assert z.shape == (1,)


def test_fill_is_row_major_prefix_consistent():
    # drawing (12,) and (3, 4) from the same stream yields the same numbers
    flat = gaussian_fill(GaussianStream(5), (12,))
    mat = gaussian_fill(GaussianStream(5), (3, 4))
    np.testing.assert_array_equal(flat, mat.reshape(-1))


@pytest.mark.parametrize("draw", [
    lambda s: s.normal((257,)),
    lambda s: s.normal((257,), dtype=np.float32),
    lambda s: s.integers(0, 1000, size=33),
], ids=["f64", "f32", "integers"])
def test_rekey_matches_a_fresh_stream(draw):
    s = GaussianStream(1)
    s.normal((5,), dtype=np.float32)  # an odd count of 32-bit draws
    assert s._gen.bit_generator.state["has_uint32"] == 1
    for seed, sub in [(12345, 7), (0, 0), (2 ** 63 + 5, 0), (2 ** 64 - 1, 3)]:
        got = draw(s.rekey(seed, sub))
        np.testing.assert_array_equal(got, draw(GaussianStream(seed, sub)))
        assert (s.seed, s.substream) == (seed, sub)


def test_rekey_keeps_the_seed_check():
    s = GaussianStream(0)
    for bad in (-1, 2 ** 64):
        with pytest.raises(ValueError):
            s.rekey(bad)
        with pytest.raises(ValueError):
            thread_stream(bad)


def test_thread_stream_is_per_thread_and_rekeyed():
    import threading

    a = thread_stream(9, 2)
    np.testing.assert_array_equal(a.normal(4), GaussianStream(9, 2).normal(4))
    assert thread_stream(3) is a
    other = []
    t = threading.Thread(target=lambda: other.append(thread_stream(3)))
    t.start()
    t.join(timeout=10)
    assert not t.is_alive() and other[0] is not a


_NUMBER_CHECKS = {"int": lambda value: check_int("x", value, 0),
                  "real": lambda value: check_real("x", value)}


@pytest.mark.parametrize("check, value, error", [
    ("int", True, TypeError),
    ("int", np.bool_(True), TypeError),
    ("int", "1", TypeError),
    ("int", np.int64(3), None),
    ("real", True, TypeError),
    ("real", np.bool_(True), TypeError),
    ("real", "1", TypeError),
    ("real", float("nan"), ValueError),
    ("real", float("inf"), ValueError),
    ("real", -float("inf"), ValueError),
    ("real", np.int64(3), None),
    ("real", np.float32(0.5), None),
    ("real", 2, None),
])
def test_number_checks_reject_bools_and_non_finite(check, value, error):
    if error is None:
        assert _NUMBER_CHECKS[check](value) is None
    else:
        with pytest.raises(error):
            _NUMBER_CHECKS[check](value)
