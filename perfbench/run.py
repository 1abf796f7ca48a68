"""Run one lvfsr benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-x8 --seed 1 --seconds 30 --trace 0

Run it from anywhere; it imports lvfsr from the `src/` directory beside this
one and works in a scratch directory `.perfbench_work/` there, removed on
exit. Progress, machine info and check results go to stderr. The last line
of stdout is one JSON object: `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` the run wraps lvfsr's functions in timers and reports the
per-layer ones instead. See README.md beside this file.
"""

import os
import sys
import time

_PC0 = time.perf_counter()


def _process_age() -> float:
    """Seconds since this process started, from /proc; 0 where unavailable."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


_AGE0 = _process_age()

# numpy's OpenBLAS reads these once, when it loads: set them first
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "LVFSR_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def openblas_threads():
    """The live thread count of numpy's bundled OpenBLAS, or None if not found."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas*.so*")
    for path in sorted(glob.glob(pattern)):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def import_lvfsr():
    """Import every lvfsr module from this checkout, so tracing can wrap them all."""
    if not os.path.isfile(os.path.join(SRC, "lvfsr", "__init__.py")):
        raise SystemExit(f"error: no lvfsr sources under {SRC}")
    sys.path.insert(0, SRC)
    import lvfsr
    import lvfsr.checks  # noqa: F401
    import lvfsr.cli  # noqa: F401
    import lvfsr.datagen  # noqa: F401
    import lvfsr.evaluate  # noqa: F401
    if not os.path.abspath(lvfsr.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported lvfsr from {lvfsr.__file__}, not {SRC}")


def summarize(samples):
    s = np.asarray(samples)
    p90 = float(np.percentile(s, 90))
    return float(np.median(s)), p90, int((s > p90).sum())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-x8", "infer-x16", "gradcheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must be in [0, 2**63)")

    threads = openblas_threads()
    log(f"machine: {platform.machine()} cpus={os.cpu_count()} "
        f"usable={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={np.__version__} openblas_threads={threads}")
    if threads != 1:
        log("error: OpenBLAS does not run on exactly one thread; refusing to measure")
        return 3

    import_lvfsr()
    import calibration
    import workloads
    from tracing import Tracer

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        wl = workloads.WORKLOADS[args.workload](work, args.seed)
        setup_s = _AGE0 + (time.perf_counter() - _PC0)
        if tracer:
            setup_layer = dict(tracer.seconds)
            tracer.reset()
        log(f"{args.workload}: set-up {setup_s:.3f} s; timing for {args.seconds:g} s")
        out = workloads.run_timed(wl, args.seconds)
        if tracer:
            tracer.uninstall()
            layer = tracer.metrics(out.ops, setup_layer)
            for kind, per_op in wl.calls_per_op().items():
                got = tracer.calls[f"ops.{kind}.fwd"]
                out.check(f"traced {kind} calls match the config",
                          got == per_op * out.ops,
                          f"{got} calls for {out.ops} operations, expected {per_op} each")
        wl.finish(out)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    p50, p90, beyond = summarize(out.samples)
    out.check("the 90th percentile has at least ten samples beyond it", beyond >= 10,
              f"{beyond} of {len(out.samples)} samples")
    for name, ok, detail in out.checks:
        log(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}")
    run_s, op_s = out.floor_round_s(), out.floor_op_s()
    rounds = len(out.rounds)
    unit_s = out.calibration_floor_s()
    log(f"{rounds} rounds, {out.ops} operations in {out.timed_s:.2f} s; "
        f"calibration unit {1e3 * unit_s:.4g} ms at the floor over "
        f"{len(out.calibration)} units, reference {1e3 * calibration.REFERENCE_S:.4g} ms; "
        f"scaled: round {run_s:.4g} s, operation {1e3 * op_s:.4g} ms; "
        f"unscaled: median round {float(np.median(out.rounds)):.4g} s, "
        f"operation p50 {1e3 * p50:.4g} ms, p90 {1e3 * p90:.4g} ms")

    if tracer:
        metrics = {"gradcheck.evals": (0.0, "count"), "gradcheck.eval_us_p50": (0.0, "us"),
                   "gradcheck.builder_ms": (0.0, "ms")}
        metrics.update(layer)
        metrics.update(out.layer)
        metrics["calibration.unit_ms"] = (1e3 * unit_s, "ms")
        metrics["trace.run_s"] = (run_s, "s")
        metrics["trace.op_ms_floor"] = (1e3 * op_s, "ms")
        metrics["trace.op_ms_p50"] = (1e3 * p50, "ms")
        metrics["trace.op_ms_p90"] = (1e3 * p90, "ms")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (run_s, "s"),
            "items_per_s": (out.items / rounds / run_s, "1/s"),
            "op_ms_floor": (1e3 * op_s, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "psnr_db": (out.psnr_db, "dB"),
            "ssim": (out.ssim, "1"),
        }
    result = {
        "correct": all(ok for _, ok, _ in out.checks),
        "attempted": out.ops,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
