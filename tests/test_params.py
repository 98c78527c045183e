import hashlib
import io
import math

import numpy as np
import pytest

from conftest import layouts, reference_axpy
from zobench import samplers
from zobench.params import (CHUNK, ParamSet, ParamSetFormatError,
                            SchemaMismatchError, axpy)
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


def test_complex_and_bool_tensors_rejected():
    # a cast would drop the imaginary part or turn flags into 0.0 / 1.0
    for arr in (np.array([1.0 + 2.0j, 3.0]), np.array([True, False])):
        with pytest.raises(TypeError, match="must be real"):
            ParamSet([("a", np.ones(2)), ("b", arr)])


def test_from_shapes_lays_out_zeros():
    p = ParamSet.from_shapes([("w", (2, 3)), ("b", (2,))], np.float32)
    assert p.names == ["w", "b"] and p.dtype == np.float32
    assert p["w"].shape == (2, 3) and not p["w"].any() and not p["b"].any()
    assert p.schema_hash == small_set().zeros(np.float32).schema_hash
    p["b"][...] = 1.0  # each view writes its own slice of the buffer
    assert not p["w"].any()
    for shapes in ([("a", (2,)), ("a", (3,))], [("a", (0, 3))], []):
        with pytest.raises(ValueError):
            ParamSet.from_shapes(shapes)


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


def test_subset_of_nothing_rejected():
    with pytest.raises(ValueError, match="empty selection"):
        small_set().subset([])


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


class _ShrinkingFile(io.BytesIO):
    """A file that loses the end of its last tensor between the decoder's
    two passes: ``readinto`` fills one byte fewer than asked."""

    def readinto(self, buf):
        return super().readinto(memoryview(buf).cast("B")[:-1])


def test_a_file_that_shrinks_between_passes_is_truncated():
    # the first pass saw every byte; the second reads one short
    blob = small_set().to_bytes()
    assert ParamSet._decode(io.BytesIO(blob)).equals_bitwise(small_set())
    with pytest.raises(ParamSetFormatError, match="truncated"):
        ParamSet._decode(_ShrinkingFile(blob))


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


@pytest.mark.parametrize("where", ["t0", "t2"])
def test_max_abs_diff_sees_nan_and_inf_in_any_tensor(where):
    # the first and last tensors span two pieces; the bad value sits in
    # the second, and the middle tensor holds a finite difference of 2
    a = ParamSet([(f"t{i}", np.zeros(n))
                  for i, n in enumerate((CHUNK + 3, 4, CHUNK + 3))])
    b = a.copy()
    b["t1"][0] = 2.0
    assert a.max_abs_diff(b) == 2.0
    b[where][CHUNK + 1] = -np.inf
    assert a.max_abs_diff(b) == np.inf
    b[where][CHUNK + 1] = np.nan
    assert math.isnan(a.max_abs_diff(b)) and math.isnan(b.max_abs_diff(a))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_equals_bitwise_compares_bits(dtype):
    p = ParamSet([("w", np.ones(3, dtype)), ("b", np.zeros(CHUNK + 2, dtype))])
    q = p.copy()
    assert p.equals_bitwise(q)
    q["b"][-1] = -0.0
    assert p.to_bytes() != q.to_bytes()
    assert not p.equals_bitwise(q) and not q.equals_bitwise(p)
    q["b"][-1] = np.nan
    assert q.equals_bitwise(q.copy())
    assert q.equals_bitwise(ParamSet.from_bytes(q.to_bytes()))
    assert not q.equals_bitwise(p)
    # another schema (a tensor fewer, or the other width) is unequal
    other_width = np.float32 if dtype == np.float64 else np.float64
    for other in (p.subset(["w"]),
                  ParamSet([(n, a.astype(other_width)) for n, a in p.items()])):
        assert not p.equals_bitwise(other) and not other.equals_bitwise(p)


@pytest.mark.parametrize("case", ["f64", "f32", "subset_gap"])
def test_save_writes_to_bytes(case, tmp_path):
    entries = [("w", np.arange(6.0).reshape(2, 3)), ("gap", np.full(4, -1.0)),
               ("b", np.array([0.5, -0.5]))]
    p = {"f64": ParamSet(entries),
         "f32": ParamSet([(n, a.astype(np.float32)) for n, a in entries]),
         "subset_gap": ParamSet(entries).subset(["w", "b"])}[case]
    p.save(tmp_path / "p.pset")
    blob = (tmp_path / "p.pset").read_bytes()
    assert blob == p.to_bytes()
    assert ParamSet.from_bytes(blob).equals_bitwise(p)


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
            runs = p._plan(min(p._largest, CHUNK))
            assert [len(parts) for *_, parts in runs] == run_lengths[name]
            expected = p.copy()
            reference_axpy(expected, 0.25, 99, kind)
            peak, leaked = _tracked(lambda: axpy(p, 0.25, 99, kind))
            assert p.equals_bitwise(expected), (kind.variant, name)
            assert leaked == 0
            if kind == FULL:
                assert peak <= p.nbytes_largest(), name


# a largest tensor of odd size, and tensors of one element
_ODD = [("w", (13,)), ("b", (1,)), ("c", (2, 3)), ("d", (1,))]
_ONES = [("a", (1,)), ("b", (1,)), ("c", (1, 1))]


def _reference_terms(params, coeffs, seeds, kind):
    """The list form by its definition: each nonzero coefficient in
    order, through :func:`conftest.reference_axpy`."""
    for c, seed in zip(coeffs, seeds):
        if c != 0.0:
            reference_axpy(params, c, seed, kind)


# (coefficients, seeds): adjacent terms of one seed, with 0.0s between
# and around them, and another seed between two of them
_ADJACENT = [
    ([0.25, -0.125], [41, 41]),
    ([1e-3, -0.5, 2.0], [41, 41, 41]),
    ([0.5, 0.0, -0.75], [41, 41, 41]),
    ([0.0, -0.3], [41, 41]),
    ([0.0, 0.0], [41, 41]),
    ([0.25, -0.5, 0.125], [41, 9, 41]),
    ([0.25, 0.0, 0.125], [41, 9, 41]),
    ([0.25, -0.125, -0.5, 0.0, 1.0], [41, 41, 9, 9, 9]),
]


def test_adjacent_terms_of_one_seed_draw_z_each(monkeypatch):
    # every nonzero term draws its own z, under either kind, even where
    # the term before it has the same seed: the bytes of one call per term
    fills = []  # elements per gaussian_fill call

    def counted(*args, **kwargs):
        z = real_fill(*args, **kwargs)
        fills.append(z.size)
        return z

    real_fill = samplers.gaussian_fill
    monkeypatch.setattr(samplers, "gaussian_fill", counted)
    _, cases = _kernel_cases()
    for dtype in (np.float64, np.float32):
        width = np.dtype(dtype).name
        cases[f"odd_{width}"] = _ramps(_ODD, dtype)
        cases[f"ones_{width}"] = _ramps(_ONES, dtype)
    for kind in (FULL, SamplerKind.lowrank(2, normalize=True)):
        for name, p in cases.items():
            fills.clear()
            axpy(p.copy(), 1.0, 41, kind)
            per_draw = (len(fills), sum(fills))
            for coeffs, seeds in _ADJACENT:
                draws = sum(c != 0.0 for c in coeffs)
                expected = p.copy()
                _reference_terms(expected, coeffs, seeds, kind)
                got = p.copy()
                fills.clear()
                peak, leaked = _tracked(lambda: axpy(got, coeffs, seeds, kind))
                case = (kind.variant, name, coeffs, seeds)
                assert (len(fills), sum(fills)) == (draws * per_draw[0],
                                                    draws * per_draw[1]), case
                assert got.equals_bitwise(expected), case
                assert leaked == 0, case
                if kind == FULL:
                    assert peak <= p.nbytes_largest(), case
    for coeff, seed in [((0.25, -0.125), 41), ([(0.25, -0.125)], [41])]:
        with pytest.raises(TypeError):  # a tuple coefficient is refused
            axpy(cases["packed"], coeff, seed)


# (coefficients, seeds): N = 0 and N = 1, zeros mixed in, runs of one
# seed mixed with single terms, and a seed repeated
_RECORD_LISTS = [
    ([], []),
    ([0.25], [7]),
    ([0.5, -0.75], [7, 7]),
    ([0.25, 0.0, -0.5, 1e-3], [7, 8, 2 ** 64 - 1, 7]),
    ([0.25, -0.125, 0.0, -0.5, 0.0, 0.0, 1e-3, 0.0, 2.0, 0.0, 3.0],
     [3, 3, 4, 0, 5, 5, 3, 3, 3, 2 ** 63, 2 ** 63]),
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
                _reference_terms(expected, coeffs, seeds, kind)
                got = p.copy()
                peak, leaked = _tracked(lambda: axpy(got, coeffs, seeds, kind))
                case = (kind.variant, name, coeffs)
                assert got.equals_bitwise(expected), case
                assert leaked == 0, case
                if kind == FULL:
                    assert peak <= p.nbytes_largest(), case


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
    # a float or a bool is refused, not truncated, even if it is integral
    for seeds, error in [([1, 2, 2 ** 64], ValueError),
                         ([1, -1, 2], ValueError),
                         ([1, 2.9, 3], TypeError),
                         ([1, 2, 3.0], TypeError),
                         ([True, 2, 3], TypeError),
                         ([1, np.bool_(True), 3], TypeError),
                         ([1, 2, np.float64(3.0)], TypeError)]:
        with pytest.raises(error):
            axpy(p, [0.5, 0.25, 0.125, -1.0], seeds + seeds[-1:], kind)
        assert p.equals_bitwise(before)
    for seed in (1.5, 1.0, True):
        with pytest.raises(TypeError):
            axpy(p, 0.5, seed, kind)
    with pytest.raises(ValueError):  # one coefficient short
        axpy(p, [0.5, 0.25], [1, 2, 3], kind)
    assert p.equals_bitwise(before)
    # numpy integers pass, as the ints they hold
    want = p.copy()
    axpy(want, [0.5, 0.25, -1.0], [7, 2 ** 64 - 1, 2 ** 64 - 1], kind)
    axpy(p, [0.5, 0.25, -1.0], [np.int64(7), np.uint64(2 ** 64 - 1),
                                np.uint64(2 ** 64 - 1)], kind)
    assert p.equals_bitwise(want)


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
    # each thread rekeys its own stream, and each set, subset and copy has
    # its own scratch, so two threads updating two separate ParamSets, or
    # two disjoint subsets of one parent, at once must give exactly the
    # one-thread result
    import sys
    import threading

    def separate():
        return [ParamSet([("w", np.zeros((64, 256))), ("b", np.zeros(300))])
                for _ in range(2)]

    def disjoint():
        # "v" is above CHUNK, so its subset's runs cut it in pieces
        parent = ParamSet([("w", np.zeros((64, 256))), ("b", np.zeros(300)),
                           ("v", np.zeros((300, 256))), ("c", np.zeros(7))])
        return [parent.subset(["w", "c"]), parent.subset(["b", "v"])]

    def run(params, base):
        for k in range(40):
            axpy(params, 0.1 + k, base + k)

    def worker(params, base):
        start.wait()
        run(params, base)

    for fresh in (separate, disjoint):
        expected = fresh()
        for params, base in zip(expected, (1000, 2000)):
            run(params, base)

        got = fresh()
        start = threading.Barrier(2)
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
            assert g.equals_bitwise(e), fresh.__name__


def _scratch(p, full):
    """The scratch array of ``p``'s update plan for a kind family."""
    _, views = p._plans[full]
    return views[0][1].base


def test_a_kind_drawn_whole_ignores_the_marks_of_a_cut_one(monkeypatch):
    # after a full-kind probe of seed 5 on a set that may use the worker,
    # a low-rank update of seed 5 draws each tensor whole, on one thread,
    # with the bytes of one that follows no probe
    from zobench import params as P

    monkeypatch.setattr(P, "_can_split", lambda: True)
    p, expected = (_ramps([("a", (200, 200)), ("b", (40_000,))])
                   for _ in range(2))
    with p.probes(5, 1e-3) as (plus, _):
        plus["b"]
    kind = SamplerKind.lowrank(2)
    axpy(p, 0.5, 5, kind)
    assert list(p._plans) == [False]
    axpy(expected, 0.5, 5, kind)
    assert p.equals_bitwise(expected)


def test_update_plan_lives_with_its_set():
    # a set builds one plan per kind family on first use, each with its
    # own scratch; copies, subsets and decoded sets start without one and
    # never share their parent's
    p = _ramps([("w", (300, 256)), ("b", (256,)), ("c", (3,))])
    assert [len(parts) for *_, parts in p._plan(min(p._largest, CHUNK))] == [1, 3]
    axpy(p, 0.25, 7)
    plan = p._plans[True]
    scratch = _scratch(p, True)
    axpy(p, [0.5, -0.25], [8, 8])  # a later call reuses the plan
    assert list(p._plans) == [True] and p._plans[True] is plan
    assert scratch.size == CHUNK and scratch.dtype == np.float64
    assert plan[0] == scratch.nbytes
    for other in (p.copy(), p.subset(["b"]), p.subset(["w", "c"]),
                  ParamSet.from_bytes(p.to_bytes())):
        assert other._plans == {}
        axpy(other, [0.25, 0.5, -0.25], [7, 8, 8])
        assert not np.shares_memory(_scratch(other, True), scratch)
    assert p.subset(["b", "c"]).copy()._plans == {}
    f32 = _ramps([("w", (3, 5)), ("b", (2,))], np.float32)
    for kind in (FULL, SamplerKind.lowrank(2)):
        axpy(f32, 0.25, 7, kind)
    full, lowrank = _scratch(f32, True), _scratch(f32, False)
    assert not np.shares_memory(full, lowrank)
    for arr in (full, lowrank):  # min(largest, CHUNK), not rounded up
        assert arr.dtype == np.float32 and arr.size == 15
    for _, views in f32._plans.values():
        assert all(z.dtype == np.float32 for _, z, _ in views)


# a 3-tensor set with one tensor above CHUNK: its plan cuts "w" in two,
# and the second piece shares its run with "b" and "v"
_WIDE = [("w", (300, 256), -1.0, 1.0), ("b", (256,), 0.5, 2.0),
         ("v", (256, 10), -2.0, 0.0)]
_WIDE_SHA256 = {
    ("one", "float64"):
        "d10821d98fbe0fc77c551bd035191cca4ecf46957a6c55b70016a4bb0f36a9e6",
    ("paired", "float64"):
        "bc2dcdf4200f934306e21e93b42670dac51a8c342cc2b54aeb1024cede63bb55",
    ("three", "float64"):
        "5ab8eaa6c6fb384da3f9c5252aa6fed695329438306925771ad5af9c6ef54db9",
    ("one", "float32"):
        "1174be1166273b2665a8ec67ac91c6fe1d5a567b2757cac351f46e5a18b4c368",
    ("paired", "float32"):
        "e1b2f3bd4c1edd71ebcc54038c8d7a7227ed7dbf83f81548c30a52885b2e40a5",
    ("three", "float32"):
        "4c4f8560d28af9d8df8de8fd46b91a075bce43e35088cf2231a8520d4b32b65f",
}
_WIDE_CALLS = {"one": (0.25, 7), "paired": ([1e-3, -0.5], [7, 7]),
               "three": ([0.25, 0.5, -0.125, -2.0],
                         [7, 2 ** 64 - 1, 2 ** 64 - 1, 3])}


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("form", list(_WIDE_CALLS))
def test_chunked_update_bytes_are_pinned(form, dtype):
    # digests taken before the full kind's runs were capped at CHUNK:
    # a tensor drawn in pieces gives the bytes of one draw
    def wide():
        return ParamSet([(name, np.linspace(lo, hi, math.prod(shape))
                          .reshape(shape).astype(dtype))
                         for name, shape, lo, hi in _WIDE])

    coeff, seed = _WIDE_CALLS[form]
    p, expected = wide(), wide()
    assert p.num_elements() > p["w"].size > CHUNK
    axpy(p, coeff, seed)
    digest = hashlib.sha256(p.to_bytes()).hexdigest()
    assert digest == _WIDE_SHA256[(form, np.dtype(dtype).name)]
    if type(coeff) is not list:
        coeff, seed = [coeff], [seed]
    _reference_terms(expected, coeff, seed, FULL)
    assert p.equals_bitwise(expected)


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
    axpy(p, [-0.01 * g for g in pgs.tolist()], seeds.tolist(), kind)
    digest = hashlib.sha256(p.to_bytes()).hexdigest()
    assert digest == _PINNED_SHA256[(kind.variant, np.dtype(dtype).name, seed)]


_PAIRED_SHA256 = {
    ("full", "float64", 7):
        "9582c141617873f8eeb7a70b85bc155b8bd993199890f364bd08c8afd082a9a8",
    ("full", "float64", 2 ** 64 - 1):
        "8302baf55742df8da09dd447035fd7adf6c6fbd0842e7e629344922a6e28e309",
    ("full", "float32", 7):
        "17f6156111e46c6465e148dfe1e7fa7e6d0122fa41cf3bee892025dac56833b3",
    ("full", "float32", 2 ** 64 - 1):
        "0986aa2561e4196bf73ab50fd5852216cb6979edb1aa505cd54defb64adc33a8",
    ("lowrank", "float64", 7):
        "5d8c6db8b898505e2f699ade6a492ff7fd572c8c8290afd38868ce3f141dec0e",
    ("lowrank", "float64", 2 ** 64 - 1):
        "5430870f1a1ea0dfa91b434c4ca0a009f23f63fe9e6d3f7f2fe55192e3289814",
    ("lowrank", "float32", 7):
        "eefdcc24301f4323a77066e35ddd984b6bea55d544776df560342a401b69e03f",
    ("lowrank", "float32", 2 ** 64 - 1):
        "1608fab1ac7b9cd96e9bf63444ee24593e4b2d2dbf551c5d334819c6631f7704",
}


@pytest.mark.parametrize("kind", [FULL, SamplerKind.lowrank(2, normalize=True)],
                         ids=["full", "lowrank2n"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("seed", [7, 2 ** 64 - 1], ids=["seed7", "seedmax"])
def test_paired_update_bytes_are_pinned(kind, dtype, seed):
    # two adjacent terms of one seed, each drawing its own z: digests
    # taken when the two shared one draw, with the bytes of two calls
    p = ParamSet([
        ("w", np.linspace(-1.0, 1.0, 15).reshape(3, 5).astype(dtype)),
        ("b", np.array([0.5], dtype)),
        ("k", np.linspace(-2.0, 0.0, 6).reshape(2, 3).astype(dtype)),
        ("d", np.array([1.0], dtype)),
    ])
    axpy(p, [0.25, -0.125], [seed, seed], kind)
    digest = hashlib.sha256(p.to_bytes()).hexdigest()
    assert digest == _PAIRED_SHA256[(kind.variant, np.dtype(dtype).name, seed)]
