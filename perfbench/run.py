"""Benchmark of the annulus-spectra solver routes.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a checkout.  Starts fresh worker processes (see
worker.py) with BLAS and OpenMP pools pinned to one thread and
ANNULUS_SPECTRA_THREADS unset, one caller in a closed loop.  With
--trace 0 it times set-up in several fresh processes and prints the
end-to-end metrics; with --trace 1 it prints the per-layer metrics of a
traced run.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("shell_sweep", "theorem_sweep", "web_chain", "shape_derivative")
SETUP_SAMPLES = 5
# seconds the calibration kernel takes at the reference machine speed
CALIBRATION_REF_S = 0.02
DEADLINE_S = 170.0
PINS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class WorkerError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("ANNULUS_SPECTRA_THREADS", None)
    env.update({key: "1" for key in PINS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _start(args, extra, procs):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True)
    procs.append(proc)
    return proc, t0


def _setup_seconds(proc, t0: float, deadline: float) -> float:
    """Seconds from process start until the worker prints READY."""
    ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0.0))
    line = proc.stdout.readline() if ready else ""
    elapsed = time.perf_counter() - t0
    if line.strip() != "READY":
        raise WorkerError("worker did not finish set-up")
    return elapsed


def _finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired as err:
        raise WorkerError("worker exceeded the time limit") from err
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return out


def _tail(samples):
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def _speed(calib_s) -> float:
    """Factor that scales a time measured next to these calibration
    samples to the reference machine speed."""
    return CALIBRATION_REF_S / statistics.median(calib_s)


def end_to_end(result: dict, setups) -> dict:
    """Gated metrics; times are scaled to the reference machine speed."""
    op_ms, batch_s = result["op_ms"], result["batch_s"]
    if not op_ms:
        raise WorkerError("no operation succeeded")
    speed = _speed(result["calib_s"])
    wall, p50 = statistics.median(batch_s), statistics.median(op_ms)
    setup = statistics.median(t * _speed(c) for t, c in setups)
    raw_setup = statistics.median(t for t, _ in setups)
    return {
        "wall_s": (wall * speed, "s", f"raw {wall:.4g} s; median of {len(batch_s)} batches "
                   f"of {result['ops_per_batch']} ops"),
        "op_p50_ms": (p50 * speed, "ms", f"raw {p50:.4g} ms; median of {len(op_ms)} successful ops"),
        "setup_s": (setup, "s", f"raw {raw_setup:.4g} s; median of {len(setups)} fresh processes"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", "ru_maxrss of the measuring process"),
    }


def report(args, result: dict, metrics: dict) -> None:
    """Human-readable lines; the JSON line that follows is the result."""
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("# env " + json.dumps(result["env"], sort_keys=True))
    for name, (value, unit, *note) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit:6s} {note[0] if note else ''}")
    if not args.trace:
        tail = _tail(result["op_ms"])
        if tail is None:
            print(f"{'op_tail_ms':48s} {'unset':>14s} {'ms':6s} fewer than 11 successful ops")
        else:
            print(f"{'op_tail_ms':48s} {tail[0]:14.6g} {'ms':6s} "
                  f"p{tail[1]:.1f}, 10 of {len(result['op_ms'])} samples beyond")
    ratio = result["failed"] / result["attempted"]
    print(f"{'fail_ratio':48s} {ratio:14.6g} {'ratio':6s} "
          f"{result['failed']} failed of {result['attempted']} attempted")
    for cause, count in sorted(result["causes"].items()):
        print(f"#   failed {count:5d} x {cause}")
    for note, count in sorted(result["noted"].items()):
        print(f"#   red by design, not counted {count:5d} x {note}")
    if "trace_file" in result:
        print(f"# spans written to {result['trace_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "annulus_spectra" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    procs = []
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc, t0 = _start(args, ["--setup-only"], procs)
                seconds = _setup_seconds(proc, t0, deadline)
                calib = json.loads(_finish(proc, deadline).strip().splitlines()[-1])["calib_s"]
                setups.append((seconds, calib))
        proc, t0 = _start(args, [], procs)
        seconds = _setup_seconds(proc, t0, deadline)
        result = json.loads(_finish(proc, deadline).strip().splitlines()[-1])
        setups.append((seconds, result["calib_s"][:3]))
        if args.trace:
            metrics = {k: (v, unit) for k, (v, unit) in result["per_layer"].items()}
        else:
            metrics = end_to_end(result, setups)
    except (WorkerError, ValueError, IndexError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()

    report(args, result, metrics)
    print(json.dumps({
        "correct": result["incorrect"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
