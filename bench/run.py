"""Layered benchmark for zobench.

Run from the repository root:

    python3 bench/run.py --workload train-small --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` spends the
first half of ``--seconds`` untraced and the second half with span shims
installed, and reports the per-layer metrics, the tracing overhead
between the halves and the spans themselves (``.bench_run/spans-*.npz``).
Human-readable lines come first; the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

# set-up runs per benchmark run (at least this many, and for at least this
# long, so millisecond set-ups are timed many times); setup_s is their median
SETUP_RUNS = 5
SETUP_SECONDS = 0.5
# the library calls a workload makes per op or repeat; what their spans do
# not cover with a child span is reported as trace.uncovered_pct
OP_ROOTS = ("zo.train", "seedlog.replay", "seedlog.revert", "tta.run_stream")


def parse_args(argv):
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def machine_facts(seed):
    import numpy as np
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(f"{index}/level").strip()
        if _read(f"{index}/type").strip() in ("Unified", "Data"):
            caches[f"l{level}"] = _read(f"{index}/size").strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu, "cache": caches,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(np), "seed": seed}


def _blas_threads(np):
    """Thread count of the OpenBLAS bundled with numpy, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(summary, ops, wl, peak_bytes, overhead_pct, scale):
    """Per-layer metrics from the traced phase, per op unless named otherwise.

    Span times are multiplied by ``scale`` to bring them to reference speed.
    """
    def get(name, field):
        return summary.get(name, {}).get(field, 0.0)

    def per_op(name, field, unit=1.0):
        return get(name, field) * unit / ops

    us = 1e6 * scale
    fill_elems = get("streams.fill", "size")
    read_records = get("seedlog.read", "size")
    adapts = get("tta.adapt", "count")
    roots = sum(get(n, "root_total_s") for n in OP_ROOTS)
    uncovered = sum(get(n, "root_self_s") for n in OP_ROOTS)
    m = {
        "streams.rekey.count": (per_op("streams.rekey", "count"), "count"),
        "streams.rekey.us": (per_op("streams.rekey", "total_s", us), "us"),
        "streams.fill.elems": (fill_elems / ops, "count"),
        "streams.fill.ns_per_elem": (
            get("streams.fill", "total_s") * 1e9 * scale / fill_elems
            if fill_elems else 0.0, "ns"),
        "samplers.sample.self_us": (per_op("samplers.sample", "self_s", us), "us"),
        "params.axpy.count": (per_op("params.axpy", "count"), "count"),
        "params.axpy.self_us": (per_op("params.axpy", "self_s", us), "us"),
        "params.copy.us": (per_op("params.copy", "total_s", us), "us"),
        "params.transient_peak_bytes": (peak_bytes, "bytes"),
        "models.loss.count": (per_op("models.loss", "count"), "count"),
        "models.loss.us": (per_op("models.loss", "total_s", us), "us"),
        "models.batch_draw.count": (per_op("models.batch_draw", "count"), "count"),
        "models.batch_draw.us": (per_op("models.batch_draw", "total_s", us), "us"),
        "zo.step.self_us": (per_op("zo.step", "self_s", us), "us"),
        "zo.proj_grad.self_us": (per_op("zo.proj_grad", "self_s", us), "us"),
        "zo.train.self_us": (per_op("zo.train", "self_s", us), "us"),
        "seedlog.append.us": (per_op("seedlog.append", "total_s", us), "us"),
        "seedlog.flush.us": (per_op("seedlog.flush", "total_s", us), "us"),
        "seedlog.read.us_per_record": (
            get("seedlog.read", "total_s") * us / read_records
            if read_records else 0.0, "us"),
        "seedlog.bytes_per_record": (wl.bytes_per_record, "bytes"),
        "seedlog.replay.self_us": (per_op("seedlog.replay", "self_s", us), "us"),
        "seedlog.revert.self_us": (per_op("seedlog.revert", "self_s", us), "us"),
        "tta.adapt.self_us": (per_op("tta.adapt", "self_s", us), "us"),
        "tta.score.us": (per_op("tta.score", "total_s", us), "us"),
        "tta.reset.us": (per_op("tta.reset", "total_s", us), "us"),
        "tta.forwards_per_episode": (
            get("models.loss", "count") / adapts if adapts else 0.0, "count"),
        "tta.reset_drift_max": (getattr(wl, "drift", 0.0), "abs"),
        "trace_overhead_pct": (overhead_pct, "%"),
        "trace.uncovered_pct": (100.0 * uncovered / roots if roots else 0.0, "%"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def traced_checks(summary, ops, wl, peak_bytes):
    """Failures found in the traced phase's counts, as a list of messages."""
    problems = []
    loss_count = summary.get("models.loss", {}).get("count", 0)
    if loss_count != wl.forwards_per_op * ops:
        problems.append(f"models.loss ran {loss_count} times in {ops} ops; "
                        f"expected exactly {wl.forwards_per_op} per op")
    if peak_bytes > wl.transient_bound:
        problems.append(f"transient peak {peak_bytes} bytes exceeds "
                        f"largest tensor + 64q = {wl.transient_bound}")
    return problems


def main(argv=None):
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "zobench" / "__init__.py").is_file():
        print(f"bench: no zobench sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    from spans import Tracer, install
    from zobench import alloc_tracker

    args = parse_args(argv)
    workdir = Path.cwd() / ".bench_run"
    workdir.mkdir(exist_ok=True)
    facts = machine_facts(args.seed)
    print("machine " + json.dumps(facts))

    tracer = Tracer()
    wl = workloads.make(args.workload, args.seed, str(workdir), tracer)
    speed = workloads.Speed(*wl.speed_kernel)
    setups = []
    while len(setups) < SETUP_RUNS or sum(setups) < SETUP_SECONDS:
        speed.update()
        t0 = perf_counter()
        wl.setup()
        setups.append((perf_counter() - t0) * speed.factor)
    wl.warmup()

    plain = workloads.Recorder(tracer, speed)
    phase = args.seconds / 2 if args.trace else args.seconds
    wl.run(plain, perf_counter() + phase)
    recs = [plain]
    if args.trace:
        install(tracer, wl.model)
        alloc_tracker.reset()
        alloc_tracker.enabled = True
        traced = workloads.Recorder(tracer, speed)
        probes_before = len(speed.kernel_s)
        tracer.recording = True
        try:
            wl.run(traced, perf_counter() + phase)
        finally:
            tracer.recording = False
            tracer.unpatch()
            alloc_tracker.enabled = False
        peak_bytes = alloc_tracker.peak
        alloc_tracker.reset()
        recs.append(traced)
        summary = tracer.summary()
        tracer.save(workdir / f"spans-{args.workload}-{args.seed}.npz")
        ops = len(traced.times)
        problems = traced_checks(summary, ops, wl, peak_bytes)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        if problems:
            traced.failed = traced.attempted
        overhead = 100.0 * (statistics.median(traced.times)
                            / statistics.median(plain.times) - 1.0)
        # span times are wall times: bring them to reference speed with the
        # traced phase's median probe, as op times are op by op
        scale = speed.reference / statistics.median(
            speed.kernel_s[probes_before:] or speed.kernel_s)
        metrics = layer_metrics(summary, ops, wl, peak_bytes, overhead, scale)
    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)

    p50, p75, p90 = plain.quantiles_ms(plain.times)
    wall50, wall90 = plain.quantiles_ms(plain.wall, (50, 90))
    lines = wl.report(plain) + [
        ("op_ms_p50", p50, "ms"),
        ("op_ms_p75", p75, "ms"),
        ("op_ms_p90", p90, "ms"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        ("setup_s", statistics.median(setups), "s"),
        ("failed_frac", failed / attempted, "frac"),
        ("wall_ms_p50", wall50, "ms"),
        ("wall_ms_p90", wall90, "ms"),
        ("machine_slowdown",
         statistics.median(speed.kernel_s) / speed.reference, "x"),
    ]
    print(f"{args.workload}: {len(plain.times)} ops timed untraced; times "
          f"at reference speed unless named wall_")
    for name, value, unit in lines:
        print(f"  {name} = {value:.6g} {unit}")
    if not args.trace:
        metrics = {
            "op_ms_p50": {"value": p50, "unit": "ms"},
            "op_ms_p75": {"value": p75, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    else:
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for path in workdir.glob("*.zolog"):
        path.unlink()
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
