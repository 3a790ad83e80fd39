"""dmdkit benchmark: end-to-end op metrics and a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload cli_readme --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload cli_readme --seed 1 --seconds 35 --trace 1
    python3 bench/run.py --smoke
    python3 bench/run.py --compare RESULTS_A RESULTS_B

A run starts one fresh worker process (bench/worker.py) that imports
dmdkit from ./src, builds the workload's inputs from the seed, and drives
ops in a closed loop for the given seconds. With --trace 0 the last line
of standard output is a JSON object holding every end-to-end metric of
BENCHMARK.json; with --trace 1 it holds every per-layer metric, taken
from ops timed with wrappers on the layer modules (alternate ops run
untraced, which gives the tracing overhead). Times are scaled to a fixed
machine speed by a calibration kernel (see worker.py). Each run also
saves its full record under .bench_work/results/, which --compare reads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
WORKER_TIMEOUT_S = 170


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond). That percentile is a
    tail only when it lies at or above the median, which takes at least
    20 samples; with fewer, the maximum is returned (0 beyond).
    """
    xs = sorted(values)
    n = len(xs)
    if n >= 20:
        return xs[n - 11], 100.0 * (n - 10) / n, 10
    return xs[-1], 100.0, 0


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def start_worker(extra: list[str], workdir: Path) -> dict:
    """Run bench/worker.py in a fresh process and return its record."""
    workdir.mkdir(parents=True)
    record = workdir / "record.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), *extra, "--t0", repr(t0),
           "--workdir", str(workdir), "--record", str(record)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(record.read_text(encoding="utf-8"))


def end_to_end(record: dict) -> dict[str, float]:
    """The end-to-end metrics, from op times scaled to the reporting speed."""
    ops = [op for op in record["ops"] if not op["traced"]]
    latency = [op["scaled_s"] if op["ok"] else math.inf for op in ops]
    value, percentile, beyond = tail(latency)
    record["op_tail"] = {"percentile": percentile, "beyond": beyond, "samples": len(ops)}
    return {
        "op_p50_s": statistics.median(latency),
        "op_tail_s": value,
        "ops_per_s": sum(op["ok"] for op in ops) / sum(op["scaled_s"] for op in ops),
        "setup_s": record["setup_s"],
        "peak_rss_mb": record["peak_rss_mb"],
    }


def per_layer(record: dict) -> dict[str, float]:
    layer = record["layer"]
    out = {name: statistics.median(op[name] for op in layer) for name in layer[0]}
    traced = [op["scaled_s"] for op in record["ops"] if op["traced"]]
    plain = [op["scaled_s"] for op in record["ops"] if not op["traced"]]
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return out


def bench(args) -> int:
    names = [w["name"] for w in spec()["workloads"]]
    if args.workload not in names:
        print(f"error: --workload must be one of {names}", file=sys.stderr)
        return 2
    stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
    record = start_worker(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        WORK / "runs" / run_id,
    )
    if Path(record["dmdkit"]).resolve() != ROOT / "src" / "dmdkit":
        print(f"error: imported dmdkit from {record['dmdkit']}", file=sys.stderr)
        return 2
    record["git_sha"] = git_sha()
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec()["per_layer"]}
        values = per_layer(record)
    else:
        units = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
        values = end_to_end(record)
    record["metrics"] = values
    failed = sum(not op["ok"] for op in record["ops"])
    record["fail_ratio"] = failed / len(record["ops"])
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_id}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for op in [record["warmup"], *record["ops"]]:
        if not op["ok"]:
            print(f"failed op: {op['error']}", file=sys.stderr)
    if "op_tail" in record:
        t = record["op_tail"]
        print(f"op_tail_s is p{t['percentile']:.1f} of {t['samples']} ops "
              f"({t['beyond']} beyond it)")
    print(f"unscaled: op median {statistics.median(op['wall_s'] for op in record['ops']):.4f} s, "
          f"setup {record['setup_wall_s']:.4f} s; calibration kernel median "
          f"{statistics.median(op['cal_s'] for op in record['ops']):.4f} s "
          f"(reporting speed: {record['cal_ref_s']} s)")
    print(f"fail_ratio {record['fail_ratio']:.3f}; working set "
          f"{record['working_set_bytes']} bytes; git {record['git_sha']}")
    print("env " + json.dumps(record["env"]))
    print(json.dumps({
        "correct": failed == 0 and record["warmup"]["ok"],
        "attempted": len(record["ops"]),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def smoke(args) -> int:
    report = start_worker(["--seed", str(args.seed), "--smoke"],
                          WORK / "smoke" / f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    for name, counts in report.items():
        print(f"smoke {name}: " + json.dumps(counts))
    print("smoke ok")
    return 0


def load_results(path: str) -> list[dict]:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    """better / worse / unresolved for side b against side a.

    Worse: b's median is worse than a's by more than the bound. Better:
    b's median is better by more than a's quartile spread and b wins at
    least 9 in 10 of all (a, b) pairs, ties counting for neither.
    Anything else is unresolved.
    """
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = sign * (med_b - med_a) / med_a
    if change > bound:
        return "worse"
    q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (med_a, med_a, med_a)
    wins = sum(sign * (y - x) < 0 for x in a for y in b) / (len(a) * len(b))
    if -change > (q3 - q1) / med_a and wins >= 0.9:
        return "better"
    return "unresolved"


def summary(values: list[float]) -> str:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def compare(args) -> int:
    sides = [load_results(path) for path in args.compare]
    bench_spec = spec()
    for workload in [w["name"] for w in bench_spec["workloads"]]:
        plain = [[r for r in side if r["workload"] == workload and not r["trace"]]
                 for side in sides]
        traced = [[r for r in side if r["workload"] == workload and r["trace"]]
                  for side in sides]
        if all(plain) or all(traced):
            print(f"== {workload}")
        if all(plain):
            for m in bench_spec["end_to_end"]:
                a, b = ([r["metrics"][m["name"]] for r in side] for side in plain)
                print(f"  {m['name']:<14} A {summary(a):<36} B {summary(b):<36} "
                      f"{verdict(a, b, m['bound'], m['better'])}")
        if all(traced):
            for m in bench_spec["per_layer"]:
                a, b = (statistics.median(r["metrics"][m["name"]] for r in side)
                        for side in traced)
                delta = f"{(b - a) / a:+.1%}" if a else "n/a"
                print(f"  {m['name']:<30} A {a:<12.4g} B {b:<12.4g} {delta} (informational)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run each workload's op once at tiny shapes, traced and untraced")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two result sets (directories like .bench_work/results)")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.compare:
        return compare(args)
    if not (ROOT / "src" / "dmdkit" / "__init__.py").is_file():
        print(f"error: no dmdkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args)
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
