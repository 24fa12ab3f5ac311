"""finslerflow benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of the repository:

    python3 perfbench/run.py --workload grid-flow --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py            # every workload in turn, untraced

Each workload runs in a child process of this one.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics
``setup_s``, ``ops_per_s`` and ``peak_rss_mb``; with ``--trace 1`` it holds
the per-layer metrics of a traced run instead.  The full record, with the
environment and every check, is written to ``runs/perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "runs", "perfbench")
WORKLOAD_NAMES = ("pointwise-batch", "pointwise-scalar", "grid-flow", "grid-analysis")

# fresh processes timed for set-up, besides the workload's own process
SETUP_PROBES = 4
# seconds of timed work between calibration samples (see calibrate.py)
CALIBRATE_EVERY_S = 1.0
READY = "PERFBENCH-READY"
CALIBRATE = "PERFBENCH-CALIBRATE"
RESULT = "PERFBENCH-RESULT "


def _import_program():
    """Import finslerflow from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    import finslerflow

    here = os.path.realpath(os.path.dirname(finslerflow.__file__))
    if not here.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"finslerflow imported from {here}, not from {SRC}")
    return finslerflow


# ---------------------------------------------------------------------------
# child process: set-up, timed rounds, checks
# ---------------------------------------------------------------------------

def _child(args) -> int:
    _import_program()
    from perfbench import tracing
    from perfbench.workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    work_dir = os.path.join(OUT_DIR, f"work-{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload]()
        wl.setup(args.seed, work_dir)
        print(READY, flush=True)
        if args.role == "setup":
            return 0

        def calibrate(calls):
            # the parent times its reference kernel while this process waits
            if wl.calibration is not None:
                print(f"{CALIBRATE} {calls}", flush=True)
                sys.stdin.readline()

        calibrate(1)
        rounds, op_times, attempted, failed = 0, [], 0, 0
        timed_ops, busy, since_cal = 0, 0.0, 0.0
        start = time.perf_counter()
        while True:
            for op in wl.round_ops():
                if tracer is not None:
                    tracer.op = len(op_times)
                t0 = time.perf_counter()
                ops, bad = op()
                dt = time.perf_counter() - t0
                op_times.append(dt)
                attempted += ops
                failed += bad
                if rounds >= wl.warmup_rounds:
                    timed_ops += ops
                    busy += dt
                    since_cal += dt
                    if since_cal >= CALIBRATE_EVERY_S:
                        calibrate(max(1, round(since_cal / CALIBRATE_EVERY_S)))
                        since_cal = 0.0
            rounds += 1
            if rounds > wl.warmup_rounds and time.perf_counter() - start >= args.seconds:
                break
        import resource

        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.op = "check"
        results = wl.check()
        record = {
            "rounds": rounds,
            "op_times_s": op_times,
            "warmup_rounds": wl.warmup_rounds,
            "raw_ops_per_s": timed_ops / busy,
            "attempted": attempted,
            "failed": failed,
            "peak_rss_mb": peak_rss_mb,
            "checks": {k: {"ok": bool(ok), "value": float(v)} for k, (ok, v) in results.items()},
            "correct": all(ok for ok, _ in results.values()),
        }
        if tracer is not None:
            record["per_layer"] = tracing.per_layer_metrics(tracer, attempted)
            tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json.gz"))
        print(RESULT + json.dumps(record), flush=True)
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# parent process: set-up probes, the workload process, the result
# ---------------------------------------------------------------------------

def _spawn(args, role: str, calibration=None):
    """Start a child; return (process, seconds from start to ready, stdout lines).

    A workload child asks for calibration between its operations; the
    reference kernel then runs here, in a process the program never touched,
    while the child waits for the reply.
    """
    cmd = [
        sys.executable, os.path.abspath(__file__), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdin=subprocess.PIPE if calibration else subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    ready = None
    lines = []
    for line in proc.stdout:
        line = line.rstrip("\n")
        if line == READY and ready is None:
            ready = time.perf_counter() - t0
            if role == "setup":
                break
        elif line.startswith(CALIBRATE) and calibration is not None:
            calibration.sample(int(line.split()[1]))
            proc.stdin.write("go\n")
            proc.stdin.flush()
        else:
            lines.append(line)
    lines.extend(line.rstrip("\n") for line in proc.stdout)
    if proc.stdin:
        proc.stdin.close()
    proc.wait()
    return proc, ready, lines


def _environment(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (KeyError, TypeError, AttributeError):
        pass
    blas["threads"] = _blas_threads()
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "finslerflow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cores": os.cpu_count(),
        "seed": seed,
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
    }


def _blas_threads():
    """Threads of the OpenBLAS that numpy loaded, read from the library itself."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ln.rstrip().endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit():
    """HEAD of the repository at ROOT; None in a checkout that is not one."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def run_workload(args) -> dict | None:
    """One workload, end to end; returns the final record or None on failure."""
    from perfbench.calibrate import Calibration
    from perfbench.workloads import WORKLOADS

    kernel = WORKLOADS[args.workload].calibration
    cal = Calibration(kernel) if kernel is not None else None
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, ready, lines = _spawn(args, "setup")
            if proc.returncode != 0 or ready is None:
                print("\n".join(lines), file=sys.stderr)
                return None
            setups.append(ready)
    proc, ready, lines = _spawn(args, "workload", cal)
    found = [ln for ln in lines if ln.startswith(RESULT)]
    if proc.returncode != 0 or ready is None or not found:
        print("\n".join(lines), file=sys.stderr)
        return None
    setups.append(ready)
    child = json.loads(found[-1][len(RESULT):])
    child["calibration_s"] = cal.samples if cal is not None else []
    child["slowness"] = cal.factor() if cal is not None else 1.0
    child["ops_per_s"] = child["raw_ops_per_s"] * child["slowness"]
    if args.trace:
        child["per_layer"]["traced_ops_per_s"] = child["ops_per_s"]
        metrics = {k: {"value": v, "unit": unit} for k, v, unit in _per_layer(child)}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": child["ops_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
        }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": _environment(args.seed),
        "setup_samples_s": setups,
        "child": child,
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps({"environment": record["environment"]}))
    for name, c in child["checks"].items():
        print(f"check {'ok  ' if c['ok'] else 'FAIL'} {name}: {c['value']:.3e}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }


def _per_layer(child):
    from perfbench.tracing import PER_LAYER

    for name, (unit, _better) in PER_LAYER.items():
        yield name, child["per_layer"][name], unit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "workload"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "finslerflow", "__init__.py")):
        print(f"perfbench: no finslerflow sources under {SRC}", file=sys.stderr)
        return 2
    if args.role:
        return _child(args)
    sys.path.insert(0, ROOT)
    if args.workload:
        final = run_workload(args)
        if final is None:
            return 1
        print(json.dumps(final))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        args.workload = name
        final = run_workload(args)
        if final is None:
            return 1
        combined["correct"] &= final["correct"]
        combined["attempted"] += final["attempted"]
        combined["failed"] += final["failed"]
        for key, m in final["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
