import numpy as np
import pytest

from zobench.params import ParamSet, SchemaMismatchError, axpy, perturb_inplace
from zobench.samplers import FULL, PerturbSpec, SamplerKind


def small_set():
    return ParamSet([
        ("w", np.arange(6, dtype=np.float64).reshape(2, 3)),
        ("b", np.array([0.5, -0.5])),
    ])


def test_names_and_lookup():
    p = small_set()
    assert p.names == ["w", "b"]
    assert "w" in p and "missing" not in p
    assert p["b"][0] == 0.5
    with pytest.raises(KeyError):
        p["nope"]


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        ParamSet([("a", np.ones(2)), ("a", np.ones(2))])


def test_empty_tensor_rejected():
    with pytest.raises(ValueError):
        ParamSet([("a", np.zeros((0, 3)))])


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        ParamSet([])


def test_single_element_tensor_allowed():
    p = ParamSet([("s", np.array([3.0]))])
    assert p.num_elements() == 1


def test_mixed_widths_rejected():
    with pytest.raises(ValueError):
        ParamSet([("a", np.ones(2, dtype=np.float64)),
                  ("b", np.ones(2, dtype=np.float32))])


def test_integer_input_upcast_to_float64():
    p = ParamSet([("a", np.arange(3))])
    assert p.dtype == np.float64


def test_schema_hash_sensitivity():
    a = small_set()
    b = small_set()
    assert a.schema_hash == b.schema_hash
    renamed = ParamSet([("w2", np.zeros((2, 3))), ("b", np.zeros(2))])
    assert renamed.schema_hash != a.schema_hash
    reshaped = ParamSet([("w", np.zeros((3, 2))), ("b", np.zeros(2))])
    assert reshaped.schema_hash != a.schema_hash
    narrower = ParamSet([("w", np.zeros((2, 3), dtype=np.float32)),
                         ("b", np.zeros(2, dtype=np.float32))])
    assert narrower.schema_hash != a.schema_hash


def test_check_schema_raises():
    with pytest.raises(SchemaMismatchError):
        small_set().check_schema(0)


def test_copy_is_deep():
    p = small_set()
    q = p.copy()
    q["w"][0, 0] = 99.0
    assert p["w"][0, 0] == 0.0


def test_subset_shares_storage():
    p = small_set()
    sub = p.subset(["b"])
    sub["b"][0] = 7.0
    assert p["b"][0] == 7.0
    with pytest.raises(KeyError):
        p.subset(["b", "ghost"])


def test_subset_preserves_parent_order():
    p = small_set()
    sub = p.subset(["b", "w"])
    assert sub.names == ["w", "b"]


def test_roundtrip_bytes():
    p = small_set()
    q = ParamSet.from_bytes(p.to_bytes())
    assert q.equals_bitwise(p)


def test_roundtrip_file(tmp_path):
    p = small_set()
    path = tmp_path / "p.pset"
    p.save(path)
    q = ParamSet.load(path)
    assert q.equals_bitwise(p)
    assert q.schema_hash == p.schema_hash


def test_roundtrip_float32(tmp_path):
    p = ParamSet([("a", np.linspace(0, 1, 7, dtype=np.float32))])
    path = tmp_path / "p32.pset"
    p.save(path)
    q = ParamSet.load(path)
    assert q.dtype == np.float32
    assert q.equals_bitwise(p)


def test_bad_magic_rejected():
    with pytest.raises(ValueError):
        ParamSet.from_bytes(b"NOPE" + b"\x00" * 20)


def test_trailing_bytes_rejected():
    blob = small_set().to_bytes() + b"\x00"
    with pytest.raises(ValueError):
        ParamSet.from_bytes(blob)


def test_max_abs_diff_and_bitwise():
    a = small_set()
    b = small_set()
    assert a.max_abs_diff(b) == 0.0
    assert a.equals_bitwise(b)
    b["w"][1, 2] += 1e-9
    assert not a.equals_bitwise(b)
    assert abs(a.max_abs_diff(b) - 1e-9) < 1e-15


def test_axpy_zero_coeff_is_bit_exact_noop():
    p = small_set()
    before = p.copy()
    axpy(p, 0.0, PerturbSpec(seed=1, epsilon=1e-3))
    assert p.equals_bitwise(before)


def test_axpy_matches_manual_regeneration():
    from zobench.streams import GaussianStream
    from zobench.samplers import sample_for_tensor

    p = small_set()
    before = p.copy()
    spec = PerturbSpec(seed=99, epsilon=1e-3)
    axpy(p, 0.25, spec)
    for i, (name, arr) in enumerate(before.items()):
        z = sample_for_tensor(GaussianStream(99, substream=i), arr.shape, FULL)
        np.testing.assert_array_equal(p[name], arr + 0.25 * z)


def test_perturb_cycle_restores_within_ulps():
    p = ParamSet([("w", np.linspace(-2, 2, 1000).reshape(10, 100))])
    before = p.copy()
    eps = 1e-3
    spec = PerturbSpec(seed=5, epsilon=eps)
    perturb_inplace(p, +eps, spec)
    perturb_inplace(p, -2 * eps, spec)
    perturb_inplace(p, +eps, spec)
    from zobench.streams import GaussianStream
    from zobench.samplers import sample_for_tensor
    z = sample_for_tensor(GaussianStream(5, substream=0), (10, 100), FULL)
    bound = 8 * np.finfo(np.float64).eps * (np.abs(before["w"]) + eps * np.abs(z))
    assert np.all(np.abs(p["w"] - before["w"]) <= bound)


def test_perturbation_independent_of_other_tensors():
    # tensor "b" sits at index 1 in both sets, so it gets the same z even
    # though the tensor at index 0 differs in shape
    spec = PerturbSpec(seed=4, epsilon=1e-3)
    p1 = ParamSet([("w", np.zeros((2, 3))), ("b", np.zeros(4))])
    p2 = ParamSet([("v", np.zeros((7, 5))), ("b", np.zeros(4))])
    axpy(p1, 1.0, spec)
    axpy(p2, 1.0, spec)
    np.testing.assert_array_equal(p1["b"], p2["b"])


def test_axpy_rejects_out_of_range_seed():
    with pytest.raises(ValueError):
        axpy(small_set(), 0.5, PerturbSpec(seed=2 ** 64, epsilon=1e-3))


def test_concurrent_axpy_matches_sequential():
    # each thread rekeys its own stream, so two threads updating separate
    # ParamSets at once must give exactly the one-thread result
    import sys
    import threading

    def fresh():
        return ParamSet([("w", np.zeros((64, 256))), ("b", np.zeros(300))])

    def run(params, base):
        for k in range(40):
            axpy(params, 0.1 + k, PerturbSpec(seed=base + k, epsilon=1e-3))

    expected = [fresh(), fresh()]
    for params, base in zip(expected, (1000, 2000)):
        run(params, base)

    got = [fresh(), fresh()]
    start = threading.Barrier(2)

    def worker(params, base):
        start.wait()
        run(params, base)

    threads = [threading.Thread(target=worker, args=(params, base))
               for params, base in zip(got, (1000, 2000))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside every axpy
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for g, e in zip(got, expected):
        assert g.equals_bitwise(e)
