import struct
from dataclasses import replace

import numpy as np
import pytest

from zobench.models import BatchSampler, DataGenConfig, gen_data, make_model
from zobench.params import SchemaMismatchError, axpy
from zobench.samplers import PerturbSpec, SamplerKind
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
    for kind in (SamplerKind.full(), SamplerKind.lowrank(2),
                 SamplerKind.lowrank(2, normalize=True),
                 SamplerKind.lowrank(5, normalize=False)):
        h = make_header(sampler=kind, combine="mean", pg_width=8)
        assert SeedLogHeader.unpack(h.pack()) == h


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
    (44, "<d", -0.5),      # learning rate
], ids=["elem_width", "pg_width", "sampler", "lowrank_rank0", "combine",
        "flags", "q", "epsilon_zero", "epsilon_negative", "lr"])
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


def test_file_size_arithmetic(tmp_path):
    path = tmp_path / "n.zolog"
    n = 257
    with SeedLogWriter(path, make_header()) as w:
        for i in range(n):
            w.append(i, 0.25)
    assert path.stat().st_size == HEADER_SIZE + 12 * n


def trained_run(tmp_path, steps=50, q=4, kind=SamplerKind.full()):
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


def test_replay_uses_header_hyperparameters(tmp_path):
    # replay must not need the original config object, only the file
    initial, live, path = trained_run(tmp_path)
    log = read_log(path)
    assert log.header.epsilon == 1e-3
    assert log.header.lr == 0.05
    rebuilt = replay(initial, log)
    assert rebuilt.max_abs_diff(live) < 1e-6


def _reference_updates(params, seeds, proj_grads, coeff, header):
    """The per-record axpy loop every update path must reproduce."""
    out = params.copy()
    for seed, g in zip(seeds, proj_grads):
        spec = PerturbSpec(int(seed), header.epsilon, header.sampler)
        axpy(out, coeff * float(g), spec)
    return out


@pytest.mark.parametrize("combine", ["accumulate", "mean"])
@pytest.mark.parametrize("pg_width", [4, 8])
@pytest.mark.parametrize("kind", [SamplerKind.full(),
                                  SamplerKind.lowrank(2, normalize=True)],
                         ids=["full", "lowrank2"])
def test_update_paths_match_reference_loop(tmp_path, kind, pg_width, combine):
    cfg = DataGenConfig(task="mlp", dim=8, hidden=6, classes=3, n_train=128,
                        seed=0)
    model = make_model(cfg)
    tr, _ = gen_data(cfg)
    sampler = BatchSampler(tr, 16, seed=0)
    zcfg = ZOConfig(epsilon=1e-3, lr=0.05, q=3, steps=5, combine=combine,
                    master_seed=7, sampler=kind)
    initial = model.init(0)
    header = SeedLogHeader.from_config(zcfg, initial.schema_hash,
                                       pg_width=pg_width)
    lr_eff = zcfg.lr_effective

    # live stage 2, from the params the perturbation cycles leave behind:
    # the same step at lr=0 runs the cycles and skips the updates
    source = lambda t, j: sampler.draw(j)
    cycled = initial.copy()
    zo_step(model, cycled, source, replace(zcfg, lr=0.0), 0)
    live = initial.copy()
    step = zo_step(model, live, source, zcfg, 0)
    seeds = [rec.seed for rec in step.queries]
    pgs = [rec.proj_grad for rec in step.queries]
    assert live.equals_bitwise(
        _reference_updates(cycled, seeds, pgs, -lr_eff, header))

    path = tmp_path / "run.zolog"
    with SeedLogWriter(path, header) as w:
        train(model, sampler.draw, zcfg, initial.copy(), log_writer=w)
    log = read_log(path)
    rebuilt = replay(initial, log)
    assert rebuilt.equals_bitwise(_reference_updates(
        initial, log.seeds, log.proj_grads, -lr_eff, header))
    assert revert(rebuilt, log).equals_bitwise(_reference_updates(
        rebuilt, log.seeds[::-1], log.proj_grads[::-1], +lr_eff, header))
