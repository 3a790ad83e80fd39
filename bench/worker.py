"""One workload in one fresh process: set up, then a closed loop of ops.

Started by ``run.py``; not meant to be run by hand. BLAS is pinned to
one thread before numpy is imported, and this process starts no threads
of its own, so the load is exactly one client. The record (op latencies,
set-up phases, environment, per-layer metrics) is written as JSON to
``--record``; the traced run's spans go next to it.

Times are reported at a fixed machine speed. The reference machine runs
the same code up to ~1.8x slower for seconds to minutes at a time, so a
fixed kernel of plain Python and numpy work (:class:`Calibration`) is
timed between ops and at every set-up, and each time is scaled by
``CAL_REF_S / kernel time``. The unscaled times are kept in the record.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import dmdkit  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402
from tracing import COUNTS, LAYERS, PER_LAYER, Tracer, op_metrics  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

# How many times set-up (inputs, fixtures, reference, one warm-up op) runs;
# setup_s takes the median, so one slow repetition does not move it.
SETUP_REPEATS = 3

# Kernel time, in seconds, that defines the reporting speed: about what
# Calibration takes on the reference machine in its fast phases.
CAL_REF_S = 0.030

# Call counts a traced op must reproduce exactly, read from the code:
# workload -> (reduced_svd, reduced_operator, eig_dense).
EXPECTED_CALLS = {
    "cli_readme": (2, 2, 1),
    "lib_tall": (6, 5, 4),
    "crosscheck": (7, 5, 4),
}


class Calibration:
    """A fixed kernel that measures how fast the machine runs right now.

    It mixes the kinds of work dmdkit's ops do (formatting and parsing
    floats, as in CSV I/O, and a LAPACK SVD) and never calls dmdkit, so a
    change to dmdkit cannot move it. Calling it returns its wall time.
    """

    def __init__(self) -> None:
        rng = numpy.random.default_rng(0)
        self.values = rng.standard_normal(20000).tolist()
        self.matrix = rng.standard_normal((1000, 60))
        self()

    def __call__(self) -> float:
        start = time.perf_counter()
        text = ",".join(map(repr, self.values))
        [float(tok) for tok in text.split(",")]
        numpy.linalg.svd(self.matrix, full_matrices=False)
        return time.perf_counter() - start


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        l3 = os.sysconf("SC_LEVEL3_CACHE_SIZE") or None
    except (ValueError, OSError):
        l3 = None
    if l3 is None:  # some guests report 0 through sysconf; sysfs still knows
        try:
            with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="ascii") as fh:
                size = fh.read().strip()
            l3 = int(size[:-1]) * 1024 if size.endswith("K") else int(size)
        except (OSError, ValueError):
            l3 = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration')}",
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_op(workload, reference: str | None) -> dict:
    """Time one op, then check it outside the timed region."""
    start = time.perf_counter()
    try:
        result = workload.op()
        error = None
    except Exception as exc:  # an op that raises counts as failed
        result, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    fingerprint, out_bytes = None, 0
    if error is None:
        try:
            fingerprint, out_bytes = workload.check(result)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            error = f"check: {exc}"
    if error is None and reference is not None and fingerprint != reference:
        error = "outputs differ from the warm-up op's outputs"
    return {"wall_s": wall, "ok": error is None, "error": error,
            "fingerprint": fingerprint, "out_bytes": out_bytes}


def bench(args) -> dict:
    imported = time.monotonic()
    workdir = os.path.join(args.workdir, "fixtures")
    import_s = imported - args.t0
    calibrate = Calibration()
    prepare_s, setup_cal_s = [], [calibrate()]
    try:
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            start = time.monotonic()
            workload = WORKLOADS[args.workload](args.seed, workdir)
            warm = run_op(workload, None)
            prepare_s.append(time.monotonic() - start)
            setup_cal_s.append(calibrate())
        # Import is scaled by the first kernel after it; each repetition by
        # the mean of the kernels on either side of it.
        scaled = [t * CAL_REF_S / statistics.mean(pair)
                  for t, pair in zip(prepare_s, zip(setup_cal_s, setup_cal_s[1:]))]
        setup_s = import_s * CAL_REF_S / setup_cal_s[0] + statistics.median(scaled)
        setup_wall_s = import_s + statistics.median(prepare_s)

        tracer = Tracer() if args.trace else None
        ops, layer = [], []
        cal_s = [setup_cal_s[-1]]
        start = time.monotonic()
        while time.monotonic() - start < args.seconds or (tracer is not None and len(ops) < 2):
            traced = tracer is not None and len(ops) % 2 == 0
            if traced:
                tracer.op = len(ops)
                tracer.install()
            try:
                op = run_op(workload, warm["fingerprint"])
            finally:
                if traced:
                    tracer.uninstall()
            # The machine's speed during the op: the kernel just before and after it.
            cal_s.append(calibrate())
            scale = CAL_REF_S / statistics.mean(cal_s[-2:])
            op.update(traced=traced, cal_s=statistics.mean(cal_s[-2:]), scaled_s=op["wall_s"] * scale)
            if traced:
                metrics = op_metrics(tracer.spans, tracer.op, op["wall_s"], op["out_bytes"])
                layer.append({name: value * scale if PER_LAYER[name][0] == "s" else value
                              for name, value in metrics.items()})
            ops.append(op)
        if tracer is not None:
            with open(os.path.join(args.workdir, "spans.json"), "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "dmdkit": os.path.dirname(dmdkit.__file__),
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "setup_cal_s": setup_cal_s,
        "cal_ref_s": CAL_REF_S,
        "import_s": import_s,
        "prepare_s": prepare_s,
        "warmup": warm,
        "ops": ops,
        "layer": layer,
        "peak_rss_mb": peak_rss_mb(),
        "working_set_bytes": workload.working_set_bytes,
        "env": environment(),
    }


def smoke(args) -> dict:
    """Each workload at tiny shapes: one untraced op, then two traced ones.

    Asserts that the wrappers are gone after each traced op, that traced
    and untraced outputs are byte-identical, that the count metrics repeat
    exactly, and that the call counts match EXPECTED_CALLS.
    """
    def functions():
        return [
            {k: v for k, v in vars(getattr(dmdkit, layer)).items() if callable(v)}
            for layer in LAYERS
        ]

    originals = functions()
    report = {}
    for name, cls in WORKLOADS.items():
        workdir = os.path.join(args.workdir, name)
        os.makedirs(workdir)
        workload = cls(args.seed, workdir, tiny=True)
        plain = run_op(workload, None)
        if not plain["ok"]:
            raise AssertionError(f"{name}: untraced op failed: {plain['error']}")
        tracer = Tracer()
        counts = []
        for op in range(2):
            tracer.op = op
            tracer.install()
            try:
                traced = run_op(workload, plain["fingerprint"])
            finally:
                tracer.uninstall()
            if functions() != originals:
                raise AssertionError(f"{name}: wrappers left installed")
            if not traced["ok"]:
                raise AssertionError(f"{name}: traced op failed: {traced['error']}")
            metrics = op_metrics(tracer.spans, op, traced["wall_s"], traced["out_bytes"])
            counts.append({k: metrics[k] for k in COUNTS})
        if counts[0] != counts[1]:
            raise AssertionError(f"{name}: counts differ between traced runs: {counts}")
        got = tuple(counts[0][k] for k in
                    ("linalg.svd_calls", "dmd.reduced_operator_calls", "linalg.eig_calls"))
        if got != EXPECTED_CALLS[name]:
            raise AssertionError(f"{name}: (svd, reduced_operator, eig) calls {got}, "
                                 f"expected {EXPECTED_CALLS[name]}")
        report[name] = counts[0]
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    record = smoke(args) if args.smoke else bench(args)
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
