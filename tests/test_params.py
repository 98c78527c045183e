import hashlib
import math

import numpy as np
import pytest

from conftest import layouts, reference_axpy
from zobench.params import (ParamSet, ParamSetFormatError, SchemaMismatchError,
                            apply_records, axpy)
from zobench.samplers import FULL, SamplerKind, alloc_tracker


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
    for source in (p, p.subset(["b"])):
        copied = source.copy()
        assert not any(np.shares_memory(a, b) for _, a in source.items()
                       for _, b in copied.items())


def test_subset_shares_storage():
    p = small_set()
    with pytest.raises(KeyError):
        p.subset(["b", "ghost"])
    for sub in (p.subset(["b"]), p.subset(["w", "b"]).subset(["b"])):
        sub["b"][0] = 7.0
        assert p["b"][0] == 7.0
        # the kernel's run views write through to the root set as well
        w = p["w"].copy()
        axpy(sub, 0.5, 3)
        assert p["b"][0] != 7.0 and np.array_equal(p["w"], w)


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


def test_bad_width_rejected():
    blob = bytearray(small_set().to_bytes())
    for width in (0, 2, 3, 16):
        blob[6] = width  # element width, after magic and version
        with pytest.raises(ParamSetFormatError):
            ParamSet.from_bytes(bytes(blob))


def test_from_bytes_fuzz_raises_only_format_error():
    # truncate, overwrite 1-4 bytes, or append 1-8 bytes; any exception
    # other than ParamSetFormatError escapes and fails the test
    rng = np.random.default_rng(2024)
    blobs = [small_set().to_bytes(),
             ParamSet([("w", np.ones((3, 2), dtype=np.float32))]).to_bytes()]
    for case in range(3000):
        blob = bytearray(blobs[case % 2])
        mode = case % 3
        if mode == 0:
            del blob[rng.integers(len(blob)):]
        elif mode == 1:
            for _ in range(rng.integers(1, 5)):
                blob[rng.integers(len(blob))] = rng.integers(256)
        else:
            blob += rng.integers(256, size=rng.integers(1, 9),
                                 dtype=np.uint8).tobytes()
        try:
            ParamSet.from_bytes(bytes(blob))
        except ParamSetFormatError:
            pass


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
    axpy(p, 0.0, 1)
    assert p.equals_bitwise(before)


def _ramps(shapes, dtype=np.float64):
    return ParamSet([(name, np.linspace(-1.0, 1.0, math.prod(shape))
                      .reshape(shape).astype(dtype)) for name, shape in shapes])


def _kernel_cases(dtype=np.float64):
    """Every layout of a 4-tensor set, plus "split", whose small tensors'
    runs are capped at the largest tensor's 8 elements."""
    base = ParamSet([
        ("w", np.linspace(-1.0, 1.0, 20, dtype=dtype).reshape(4, 5)),
        ("b", np.linspace(0.5, 2.0, 5, dtype=dtype)),
        ("v", np.linspace(-2.0, 0.0, 6, dtype=dtype).reshape(2, 3)),
        ("c", np.linspace(1.0, 3.0, 4, dtype=dtype)),
    ])
    split = _ramps([("a", (2, 2, 2)), ("b", (3,)), ("c", (3,)), ("d", (2,)),
                    ("e", (5,)), ("f", (1,))], dtype)
    return base, {**layouts(base), "split": split}


def _tracked(fn):
    """Run ``fn()``; return the transient peak and the bytes left allocated."""
    alloc_tracker.enabled = True
    alloc_tracker.reset()
    try:
        fn()
        return alloc_tracker.peak, alloc_tracker.active
    finally:
        alloc_tracker.enabled = False
        alloc_tracker.reset()


def test_axpy_matches_manual_regeneration():
    # every layout's runs give the per-tensor result bit for bit
    base, cases = _kernel_cases()
    run_lengths = {"packed": [1, 3], "strided": [1, 3], "subset_gap": [1, 1, 2],
                   "subset_of_subset": [1, 2, 1], "f32": [1, 3], "split": [1, 3, 2]}
    # strided input packs in C order with the values it was given
    assert cases["strided"].equals_bitwise(base)
    assert all(arr.flags.c_contiguous for p in cases.values() for _, arr in p.items())
    for kind in (FULL, SamplerKind.lowrank(2, normalize=True)):
        for name, p in cases.items():
            assert [len(parts) for *_, parts in p.runs()] == run_lengths[name]
            expected = p.copy()
            reference_axpy(expected, 0.25, 99, kind)
            peak, leaked = _tracked(lambda: axpy(p, 0.25, 99, kind))
            assert p.equals_bitwise(expected), (kind.variant, name)
            assert leaked == 0
            if kind == FULL:
                assert peak <= p.nbytes_largest(), name


# a largest tensor of odd size, cut into pieces of 7 and 6: the second
# piece shares a half run with "b", and "c" with "d"
_ODD = [("w", (13,)), ("b", (1,)), ("c", (2, 3)), ("d", (1,))]
_ONES = [("a", (1,)), ("b", (1,)), ("c", (1, 1))]


def test_tuple_axpy_equals_one_call_per_coefficient():
    # one draw of z per tuple, the bytes of consecutive single calls
    _, cases = _kernel_cases()
    for dtype in (np.float64, np.float32):
        width = np.dtype(dtype).name
        cases[f"odd_{width}"] = _ramps(_ODD, dtype)
        cases[f"ones_{width}"] = _ramps(_ONES, dtype)
    assert [len(parts) for *_, parts in cases["odd_float64"].half_runs()] == [1, 2, 2]
    coeff_sets = [(0.25, -0.125), (1e-3, -0.5, 2.0), (0.5, 0.0, -0.75),
                  (0.0, -0.3), (0.0, 0.0)]
    for kind in (FULL, SamplerKind.lowrank(2, normalize=True)):
        for name, p in cases.items():
            for coeffs in coeff_sets:
                expected = p.copy()
                for c in coeffs:
                    axpy(expected, c, 41, kind)
                got = p.copy()
                peak, leaked = _tracked(lambda: axpy(got, coeffs, 41, kind))
                case = (kind.variant, name, coeffs)
                assert got.equals_bitwise(expected), case
                assert leaked == 0, case
                if kind == FULL:
                    assert peak <= p.nbytes_largest() + p.dtype.itemsize, case


# (coefficients, seeds): N = 0 and N = 1, zeros mixed in, tuple items
# mixed with float items, and a seed repeated
_RECORD_LISTS = [
    ([], []),
    ([0.25], [7]),
    ([(0.5, -0.75)], [7]),
    ([0.25, 0.0, -0.5, 1e-3], [7, 8, 2 ** 64 - 1, 7]),
    ([(0.25, -0.125), 0.0, -0.5, (0.0, 0.0), (1e-3, 0.0, 2.0), (0.0, 3.0)],
     [3, 4, 0, 5, 3, 2 ** 63]),
]


def test_record_list_axpy_equals_one_call_per_record():
    # one call over n records, the bytes of n single-coefficient calls
    cases = {}
    for dtype in (np.float64, np.float32):
        width = np.dtype(dtype).name
        _, by_layout = _kernel_cases(dtype)
        cases.update({f"{name}_{width}": p for name, p in by_layout.items()})
        cases[f"odd_{width}"] = _ramps(_ODD, dtype)
    for kind in (FULL, SamplerKind.lowrank(2, normalize=True)):
        for name, p in cases.items():
            for coeffs, seeds in _RECORD_LISTS:
                expected = p.copy()
                for c, seed in zip(coeffs, seeds):
                    for ci in (c if type(c) is tuple else (c,)):
                        axpy(expected, ci, seed, kind)
                got = p.copy()
                peak, leaked = _tracked(lambda: axpy(got, coeffs, seeds, kind))
                case = (kind.variant, name, coeffs)
                assert got.equals_bitwise(expected), case
                assert leaked == 0, case
                if kind == FULL:
                    paired = any(type(c) is tuple and sum(x != 0.0 for x in c) > 1
                                 for c in coeffs)
                    extra = p.dtype.itemsize if paired else 0
                    assert peak <= p.nbytes_largest() + extra, case


def test_record_list_runs_on_the_set_it_is_given():
    # two sets of one schema, one after the other: each call writes its
    # own buffer only
    a, b = small_set(), small_set()
    b["w"][...] += 1.0
    want_a, want_b = a.copy(), b.copy()
    for p in (want_a, want_b):
        reference_axpy(p, 0.25, 5, FULL)
        reference_axpy(p, -0.5, 6, FULL)
    axpy(a, [0.25, -0.5], [5, 6])
    axpy(b, [0.25, -0.5], [5, 6])
    assert a.equals_bitwise(want_a) and b.equals_bitwise(want_b)


@pytest.mark.parametrize("kind", [FULL, SamplerKind.lowrank(2)],
                         ids=["full", "lowrank2"])
def test_record_list_checks_every_seed_before_writing(kind):
    p = small_set()
    before = p.copy()
    for seeds in ([1, 2, 2 ** 64], [1, -1, 2]):
        with pytest.raises(ValueError):
            axpy(p, [0.5, 0.25, (0.125, -1.0)], seeds, kind)
        with pytest.raises(ValueError):
            apply_records(p, seeds, [0.5, 0.25, -1.0], -0.1, kind)
        assert p.equals_bitwise(before)
    with pytest.raises(ValueError):  # one coefficient short
        axpy(p, [0.5, 0.25], [1, 2, 3], kind)
    assert p.equals_bitwise(before)


def test_perturb_cycle_restores_within_ulps():
    p = ParamSet([("w", np.linspace(-2, 2, 1000).reshape(10, 100))])
    before = p.copy()
    eps = 1e-3
    axpy(p, +eps, 5)
    axpy(p, -2 * eps, 5)
    axpy(p, +eps, 5)
    from zobench.streams import GaussianStream
    from zobench.samplers import sample_for_tensor
    z = sample_for_tensor(GaussianStream(5, substream=0), (10, 100), FULL)
    bound = 8 * np.finfo(np.float64).eps * (np.abs(before["w"]) + eps * np.abs(z))
    assert np.all(np.abs(p["w"] - before["w"]) <= bound)


def test_perturbation_independent_of_other_tensors():
    # tensor "b" sits at index 1 in both sets, so it gets the same z even
    # though the tensor at index 0 differs in shape
    p1 = ParamSet([("w", np.zeros((2, 3))), ("b", np.zeros(4))])
    p2 = ParamSet([("v", np.zeros((7, 5))), ("b", np.zeros(4))])
    axpy(p1, 1.0, 4)
    axpy(p2, 1.0, 4)
    np.testing.assert_array_equal(p1["b"], p2["b"])


def test_axpy_rejects_out_of_range_seed():
    with pytest.raises(ValueError):
        axpy(small_set(), 0.5, 2 ** 64)


def test_concurrent_axpy_matches_sequential():
    # each thread rekeys its own stream, so two threads updating separate
    # ParamSets at once must give exactly the one-thread result
    import sys
    import threading

    def fresh():
        return ParamSet([("w", np.zeros((64, 256))), ("b", np.zeros(300))])

    def run(params, base):
        for k in range(40):
            axpy(params, 0.1 + k, base + k)

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


_PINNED_SHA256 = {
    ("full", "float64", 7):
        "79e0ad96689f9bcbacdeab4591ae7966b909308abb8ba984328cbb54c9cf7f51",
    ("full", "float64", 2 ** 64 - 1):
        "3952a17476ac46f4168952c71b018bf0df326155116da9dd101a995094089ce4",
    ("full", "float32", 7):
        "b2490a4571a29ed698a03064eb62b31dfd4808c61a6b49ee3d7c28ca2a128ad1",
    ("full", "float32", 2 ** 64 - 1):
        "e083bb117086da9c148f5b8e9d36b60f3b1f3b826696872efc0f1e32a914bc24",
    ("lowrank", "float64", 7):
        "27e804139977d11a63e602a864557bfb44c20a7b1fab3e4551baa29966620e6f",
    ("lowrank", "float64", 2 ** 64 - 1):
        "d278e6c03309e4a84eb61eccdbd5b76477e0d45269f133c50cd692e8a4637edb",
    ("lowrank", "float32", 7):
        "2a01d35a5596f34fd1f1f5f1206ce2ee8b19baa4027b57b4d536d33433b9d403",
    ("lowrank", "float32", 2 ** 64 - 1):
        "881016870ad7255f77498f382fdf53fbf70c488abfa63fcd69d44c3564838253",
}


@pytest.mark.parametrize("kind", [FULL, SamplerKind.lowrank(2, normalize=True)],
                         ids=["full", "lowrank2n"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("seed", [7, 2 ** 64 - 1], ids=["seed7", "seedmax"])
def test_update_bytes_are_pinned(kind, dtype, seed):
    # literal digests of the update kernel's output: a change to how z is
    # drawn, laid out or scaled changes them, even where every other test
    # regenerates z through the same changed path
    p = ParamSet([
        ("w", np.linspace(-1.0, 1.0, 12).reshape(4, 3).astype(dtype)),
        ("b", np.linspace(0.5, 2.0, 3).astype(dtype)),
        ("k", np.linspace(-2.0, 0.0, 12).reshape(3, 2, 2).astype(dtype)),
    ])
    axpy(p, 0.25, seed, kind)
    seeds = np.array([seed, 3, 2 ** 63 + 1, 0, seed - 1], dtype=np.uint64)
    pgs = np.array([0.5, -1.25, 2.0, -0.125, 3.5], dtype=np.float32)
    apply_records(p, seeds, pgs, -0.01, kind)
    digest = hashlib.sha256(p.to_bytes()).hexdigest()
    assert digest == _PINNED_SHA256[(kind.variant, np.dtype(dtype).name, seed)]
