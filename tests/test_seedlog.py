import itertools
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

from zobench.models import BatchSampler, DataGenConfig, gen_data, make_model
from conftest import layouts, reference_axpy
from zobench.params import SchemaMismatchError, axpy
from zobench.samplers import FULL, SamplerKind
from zobench.seedlog import (HEADER_SIZE, LogFormatError, SeedLog,
                             SeedLogHeader, SeedLogWriter, inspect, read_log,
                             replay, revert)
from zobench.zo import ZOConfig, train, zo_step


def make_header(**kw):
    defaults = dict(master_seed=1, schema_hash=2, epsilon=1e-3, lr=0.01, q=4)
    defaults.update(kw)
    return SeedLogHeader(**defaults)


def test_header_size_and_roundtrip():
    h = make_header()
    blob = h.pack()
    assert len(blob) == HEADER_SIZE == 60
    back = SeedLogHeader.unpack(blob)
    assert back == h


def test_header_roundtrip_keeps_sampler_kind():
    for kind in (FULL, SamplerKind.lowrank(2),
                 SamplerKind.lowrank(2, normalize=True),
                 SamplerKind.lowrank(5, normalize=False)):
        h = make_header(sampler=kind, combine="mean", pg_width=8)
        assert SeedLogHeader.unpack(h.pack()) == h


def test_header_bytes_roundtrip():
    # every header that can be built packs to bytes that unpack to it, and
    # those bytes pack back unchanged (a full kind with a rank could not)
    for kind in (FULL, SamplerKind.lowrank(1), SamplerKind.lowrank(3, True)):
        for pg_width in (4, 8):
            for elem_width in (4, 8):
                h = make_header(sampler=kind, pg_width=pg_width,
                                elem_width=elem_width, record_count=5,
                                master_seed=2**64 - 1, combine="mean")
                blob = h.pack()
                assert SeedLogHeader.unpack(blob) == h
                assert SeedLogHeader.unpack(blob).pack() == blob


def test_header_without_flags_reads_unnormalized():
    # logs written before the normalize flag hold 0 at offset 10
    blob = bytearray(make_header(sampler=SamplerKind.lowrank(3)).pack())
    assert blob[10:12] == b"\x00\x00"
    assert SeedLogHeader.unpack(bytes(blob)).sampler == SamplerKind.lowrank(3)


def _corrupt(offset, fmt, value):
    blob = bytearray(make_header().pack())
    struct.pack_into(fmt, blob, offset, value)
    return bytes(blob)


@pytest.mark.parametrize("offset, fmt, value", [
    (6, "<B", 3),          # element width
    (7, "<B", 2),          # proj_grad width
    (8, "<B", 7),          # sampler variant
    (8, "<B", 1),          # low-rank with the full header's rank 0
    (9, "<B", 9),          # combine mode
    (10, "<H", 2),         # unknown flag bit
    (16, "<I", 0),         # q
    (36, "<d", 0.0),       # epsilon
    (36, "<d", -1e-3),     # epsilon
    (36, "<d", float("nan")),
    (44, "<d", -0.5),      # learning rate
    (44, "<d", float("inf")),
    (12, "<I", 3),         # full sampler with a rank
    (10, "<H", 1),         # full sampler with the normalize flag
], ids=["elem_width", "pg_width", "sampler", "lowrank_rank0", "combine",
        "flags", "q", "epsilon_zero", "epsilon_negative", "epsilon_nan", "lr",
        "lr_inf", "full_rank", "full_normalize"])
def test_unpack_rejects_invalid_fields(offset, fmt, value):
    with pytest.raises(LogFormatError):
        SeedLogHeader.unpack(_corrupt(offset, fmt, value))


def test_cli_inspect_rejects_bad_width(tmp_path, capsys):
    from zobench.cli import main

    path = tmp_path / "bad.zolog"
    path.write_bytes(_corrupt(6, "<B", 3))
    assert main(["inspect", "--log", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_header_validation():
    with pytest.raises(ValueError):
        make_header(elem_width=2)
    with pytest.raises(ValueError):
        make_header(combine="median")
    # every field pack writes is checked, so a written header reads back
    for bad in (dict(epsilon=-1.0), dict(master_seed=-1),
                dict(schema_hash=2**64), dict(record_count=-1),
                dict(q=2**32)):
        with pytest.raises(ValueError):
            make_header(**bad)
    with pytest.raises(ValueError):  # the rank is a u32 too
        SamplerKind("lowrank", 2**32)
    with pytest.raises(TypeError):
        make_header(schema_hash=1.5)


def test_unpack_rejects_bad_magic_and_version():
    with pytest.raises(LogFormatError):
        SeedLogHeader.unpack(b"\x00" * HEADER_SIZE)
    blob = bytearray(make_header().pack())
    blob[4] = 99  # version word
    with pytest.raises(LogFormatError):
        SeedLogHeader.unpack(bytes(blob))
    with pytest.raises(LogFormatError):
        SeedLogHeader.unpack(b"ZO")  # truncated


def test_record_size_depends_on_pg_width():
    assert make_header(pg_width=4).record_size == 12
    assert make_header(pg_width=8).record_size == 16


def test_writer_reader_roundtrip(tmp_path):
    path = tmp_path / "run.zolog"
    h = make_header(q=2)
    with SeedLogWriter(path, h) as w:
        for i in range(10):
            w.append(1000 + i, 0.5 * i)
    log = read_log(path)
    assert len(log) == 10
    assert log.header.q == 2 and log.header.record_count == 10
    np.testing.assert_array_equal(log.seeds, 1000 + np.arange(10))
    np.testing.assert_allclose(log.proj_grads, 0.5 * np.arange(10), rtol=1e-7)


def test_writer_append_after_finalize_raises(tmp_path):
    path = tmp_path / "run.zolog"
    w = SeedLogWriter(path, make_header())
    w.append(1, 0.1)
    w.finalize()
    with pytest.raises(LogFormatError):
        w.append(2, 0.2)


def test_writer_rejects_nonfinite_proj_grad(tmp_path):
    w = SeedLogWriter(tmp_path / "x.zolog", make_header())
    with pytest.raises(ValueError):
        w.append(1, float("nan"))
    w.finalize()


GOLDEN_RECORDS = [(1, 0.5), (2**64 - 1, -2.25), (0x0123456789ABCDEF, 3.0)]


@pytest.mark.parametrize("pg_width, records_hex", [
    (4, "01000000000000000000003f"
        "ffffffffffffffff000010c0"
        "efcdab896745230100004040"),
    (8, "0100000000000000000000000000e03f"
        "ffffffffffffffff00000000000002c0"
        "efcdab89674523010000000000000840"),
], ids=["pg4", "pg8"])
def test_log_bytes_are_pinned(tmp_path, pg_width, records_hex):
    # little-endian u64 seed, then the proj_grad at pg_width bytes
    path = tmp_path / "golden.zolog"
    h = make_header(pg_width=pg_width)
    with SeedLogWriter(path, h) as w:
        for seed, g in GOLDEN_RECORDS:
            w.append(seed, g)
    blob = path.read_bytes()
    assert blob[:HEADER_SIZE] == replace(h, record_count=3).pack()
    assert blob[HEADER_SIZE:] == bytes.fromhex(records_hex)
    log = read_log(path)
    assert log.seeds.tolist() == [s for s, _ in GOLDEN_RECORDS]
    assert log.proj_grads.tolist() == [g for _, g in GOLDEN_RECORDS]


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_writer_rejects_out_of_range_seed(tmp_path, seed):
    path = tmp_path / "x.zolog"
    with SeedLogWriter(path, make_header()) as w:
        with pytest.raises(OverflowError):
            w.append(seed, 0.5)
        w.append(7, 0.25)
    assert path.stat().st_size == HEADER_SIZE + 12
    log = read_log(path)
    assert log.seeds.tolist() == [7] and log.proj_grads.tolist() == [0.25]


def test_writer_rejects_proj_grad_beyond_float32(tmp_path):
    # 1e39 is finite as a float64 but not as a float32: ValueError, no
    # overflow warning from a cast, and no bytes written for the record
    path = tmp_path / "x.zolog"
    with SeedLogWriter(path, make_header(pg_width=4)) as w:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                w.append(7, 1e39)
        w.flush()
        assert path.stat().st_size == HEADER_SIZE
    assert len(read_log(path)) == 0


def test_read_rejects_truncation(tmp_path):
    path = tmp_path / "run.zolog"
    with SeedLogWriter(path, make_header()) as w:
        for i in range(4):
            w.append(i, 0.0)
    blob = path.read_bytes()
    (tmp_path / "trunc.zolog").write_bytes(blob[:-5])
    with pytest.raises(LogFormatError):
        read_log(tmp_path / "trunc.zolog")
    # whole missing record: count mismatch against the header
    (tmp_path / "short.zolog").write_bytes(blob[:-12])
    with pytest.raises(LogFormatError):
        read_log(tmp_path / "short.zolog")


def _write_raw_log(path, header, records):
    """A log written without the writer's checks, as a corrupt file is."""
    body = np.array(records, dtype=header.record_dtype).tobytes()
    path.write_bytes(replace(header, record_count=len(records)).pack() + body)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
@pytest.mark.parametrize("pg_width", [4, 8])
def test_read_rejects_non_finite_proj_grad(tmp_path, pg_width, bad):
    path = tmp_path / "bad.zolog"
    _write_raw_log(path, make_header(pg_width=pg_width),
                   [(1, 0.5), (2, bad), (3, -0.25)])
    with pytest.raises(LogFormatError):
        read_log(path)
    _write_raw_log(path, make_header(pg_width=pg_width), [(1, bad)])
    with pytest.raises(LogFormatError):
        inspect(path)


def test_cli_replay_rejects_non_finite_proj_grad(tmp_path, capsys):
    from zobench.cli import main
    from zobench.params import ParamSet

    params = ParamSet([("w", np.zeros((2, 3)))])
    params.save(tmp_path / "init.pset")
    _write_raw_log(tmp_path / "nan.zolog",
                   make_header(schema_hash=params.schema_hash),
                   [(1, float("nan")), (2, 0.5)])
    out = tmp_path / "out.pset"
    for verb in ("replay", "revert"):
        assert main([verb, "--log", str(tmp_path / "nan.zolog"),
                     "--params", str(tmp_path / "init.pset"),
                     "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


def test_file_size_arithmetic(tmp_path):
    path = tmp_path / "n.zolog"
    n = 257
    with SeedLogWriter(path, make_header()) as w:
        for i in range(n):
            w.append(i, 0.25)
    assert path.stat().st_size == HEADER_SIZE + 12 * n


def trained_run(tmp_path, steps=50, q=4, kind=FULL):
    cfg = DataGenConfig(task="mlp", dim=8, hidden=6, classes=3, n_train=128,
                        seed=0)
    model = make_model(cfg)
    tr, _ = gen_data(cfg)
    params = model.init(0)
    initial = params.copy()
    zcfg = ZOConfig(epsilon=1e-3, lr=0.05, q=q, steps=steps, combine="mean",
                    master_seed=7, sampler=kind)
    header = SeedLogHeader.from_config(zcfg, params.schema_hash)
    path = tmp_path / "train.zolog"
    sampler = BatchSampler(tr, 16, seed=0)
    with SeedLogWriter(path, header) as w:
        train(model, sampler.draw, zcfg, params, log_writer=w)
    return initial, params, path


@pytest.mark.parametrize("pg_width", [4, 8])
def test_from_records_equals_written_log(tmp_path, pg_width):
    # train returns its records flat in log order: the log its writer wrote
    cfg = DataGenConfig(task="mlp", dim=8, hidden=6, classes=3, n_train=128,
                        seed=0)
    model = make_model(cfg)
    tr, _ = gen_data(cfg)
    params = model.init(0)
    zcfg = ZOConfig(epsilon=1e-3, lr=0.05, q=3, steps=6, master_seed=7)
    header = SeedLogHeader.from_config(zcfg, params.schema_hash,
                                       pg_width=pg_width)
    path = tmp_path / "run.zolog"
    with SeedLogWriter(path, header) as w:
        records, _ = train(model, BatchSampler(tr, 16, seed=0).draw, zcfg,
                           params, log_writer=w)
    built, written = SeedLog.from_records(header, records), read_log(path)
    assert built.header == written.header
    for a, b in ((built.seeds, written.seeds),
                 (built.proj_grads, written.proj_grads)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_replay_reconstructs_live_params(tmp_path):
    initial, live, path = trained_run(tmp_path)
    log = read_log(path)
    rebuilt = replay(initial, log)
    assert rebuilt.max_abs_diff(live) < 1e-6


def test_normalized_lowrank_run_replays_from_its_file(tmp_path):
    kind = SamplerKind.lowrank(2, normalize=True)
    initial, live, path = trained_run(tmp_path, kind=kind)
    log = read_log(path)
    assert log.header.sampler == kind
    assert replay(initial, log).max_abs_diff(live) < 1e-6


def test_revert_of_replay_is_near_identity(tmp_path):
    initial, _, path = trained_run(tmp_path)
    log = read_log(path)
    round_trip = revert(replay(initial, log), log)
    assert round_trip.max_abs_diff(initial) < 1e-6


def test_empty_log_is_identity(tmp_path):
    initial, _, _ = trained_run(tmp_path, steps=0)
    h = make_header(schema_hash=initial.schema_hash)
    empty = SeedLog(h, np.array([], dtype=np.uint64),
                    np.array([], dtype=np.float32))
    assert replay(initial, empty).equals_bitwise(initial)
    assert revert(initial, empty).equals_bitwise(initial)


def test_schema_mismatch_rejected(tmp_path):
    initial, _, path = trained_run(tmp_path)
    log = read_log(path)
    from zobench.params import ParamSet
    other = ParamSet([("x", np.zeros(3))])
    with pytest.raises(SchemaMismatchError):
        replay(other, log)
    with pytest.raises(SchemaMismatchError):
        revert(other, log)


def test_inspect_summary(tmp_path):
    initial, _, path = trained_run(tmp_path, steps=10, q=4)
    s = inspect(path)
    assert s["records"] == 40
    assert s["steps"] == 10
    assert s["q"] == 4
    assert s["file_bytes"] == HEADER_SIZE + 12 * 40
    assert s["combine"] == "mean"
    assert s["proj_grad_max_abs"] > 0


def test_inspect_reports_normalize(tmp_path, capsys):
    from zobench.cli import main

    summaries = []
    for normalize in (False, True):
        run_dir = tmp_path / str(normalize)
        run_dir.mkdir()
        _, _, path = trained_run(run_dir, steps=2, q=2,
                                 kind=SamplerKind.lowrank(2, normalize))
        summaries.append(inspect(path))
        assert main(["inspect", "--log", str(path)]) == 0
        assert f'"normalize": {str(normalize).lower()}' in capsys.readouterr().out
    assert [s["normalize"] for s in summaries] == [False, True]
    assert summaries[0] != summaries[1]


def test_replay_uses_header_hyperparameters(tmp_path):
    # replay must not need the original config object, only the file
    initial, live, path = trained_run(tmp_path)
    log = read_log(path)
    assert log.header.epsilon == 1e-3
    assert log.header.lr == 0.05
    rebuilt = replay(initial, log)
    assert rebuilt.max_abs_diff(live) < 1e-6


@pytest.mark.parametrize("kind", [FULL, SamplerKind.lowrank(2, normalize=True)],
                         ids=["full", "lowrank2"])
def test_header_epsilon_does_not_change_updates(tmp_path, kind):
    # z is named by (seed, kind); epsilon sizes the probes, not the update
    initial, _, path = trained_run(tmp_path, steps=5, kind=kind)
    log = read_log(path)
    other = SeedLog(replace(log.header, epsilon=0.25), log.seeds,
                    log.proj_grads)
    rebuilt = replay(initial, log)
    assert rebuilt.equals_bitwise(replay(initial, other))
    assert revert(rebuilt, log).equals_bitwise(revert(rebuilt, other))


def _reference_updates(params, seeds, proj_grads, coeff, header):
    """The per-record, per-tensor loop every update path must reproduce."""
    out = params.copy()
    for seed, g in zip(seeds, proj_grads):
        reference_axpy(out, coeff * float(g), int(seed), header.sampler)
    return out


def _layout_cases():
    """(data config, layout, initial params) for each memory layout.

    mlp 3-4-5 splits its small tensors at the largest tensor's size: its
    runs are (layer1.weight, layer1.bias), (head.weight,), (head.bias,).
    """
    cfg = DataGenConfig(task="mlp", dim=8, hidden=6, classes=3, n_train=128,
                        seed=0)
    cases = [(cfg, name, p)
             for name, p in layouts(make_model(cfg).init(0)).items()]
    split = replace(cfg, dim=3, hidden=4, classes=5)
    return cases + [(split, "split", make_model(split).init(0))]


@pytest.mark.parametrize("combine", ["accumulate", "mean"])
@pytest.mark.parametrize("pg_width", [4, 8])
@pytest.mark.parametrize("kind", [FULL,
                                  SamplerKind.lowrank(2, normalize=True)],
                         ids=["full", "lowrank2"])
def test_update_paths_match_reference_loop(tmp_path, kind, pg_width, combine):
    # q=1 folds the last restore into the update's axpy; q=3 keeps it apart
    for (cfg, layout, initial), q in itertools.product(_layout_cases(), (1, 3)):
        model = make_model(cfg)
        tr, _ = gen_data(cfg)
        sampler = BatchSampler(tr, 16, seed=0)
        zcfg = ZOConfig(epsilon=1e-3, lr=0.05, q=q, steps=5, combine=combine,
                        master_seed=7, sampler=kind)
        header = SeedLogHeader.from_config(zcfg, initial.schema_hash,
                                           pg_width=pg_width)
        lr_eff = zcfg.lr_effective

        # live stage 2, from the params the perturbation cycles leave
        # behind: the same step at lr=0 runs the cycles and skips the
        # updates, as axpy skips a 0.0 coefficient in a tuple too
        cycled = initial.copy()
        zo_step(model, cycled, sampler.draw, replace(zcfg, lr=0.0), 0)
        live = initial.copy()
        step = zo_step(model, live, sampler.draw, zcfg, 0)
        seeds = [rec.seed for rec in step]
        pgs = [rec.proj_grad for rec in step]
        assert live.equals_bitwise(
            _reference_updates(cycled, seeds, pgs, -lr_eff, header)), (layout, q)
        # and the cycles are the +eps / -2 eps / +eps single calls, each
        # query's restore applied exactly once
        eps = zcfg.epsilon
        expected = initial.copy()
        for seed in seeds:
            for coeff in (eps, -2.0 * eps, eps):
                axpy(expected, coeff, seed, kind)
        assert cycled.equals_bitwise(expected), (layout, q)

        path = tmp_path / f"{layout}-q{q}.zolog"
        with SeedLogWriter(path, header) as w:
            train(model, sampler.draw, zcfg, initial.copy(), log_writer=w)
        log = read_log(path)
        rebuilt = replay(initial, log)
        assert rebuilt.equals_bitwise(_reference_updates(
            initial, log.seeds, log.proj_grads, -lr_eff, header)), (layout, q)
        assert revert(rebuilt, log).equals_bitwise(_reference_updates(
            rebuilt, log.seeds[::-1], log.proj_grads[::-1], +lr_eff,
            header)), (layout, q)
