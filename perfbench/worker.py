"""Measuring process for one workload, started fresh by run.py.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

Imports the package from src/ of this checkout, draws the first batch,
warms every layer up and prints READY; run.py times set-up up to that
line.  Then it runs a fixed number of whole batches, sized so that they
take about --seconds at the reference machine speed, checks every
operation outside the timed region, and prints one JSON object with the
raw samples.  With --trace 1 the spans go to
perfbench/out/trace-<workload>-seed<N>.jsonl.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import re
import resource
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
REFERENCE_RTOL = 1e-10
CALIBRATION_EVERY_S = 1.0
# seconds one batch takes, its checks included, at the reference machine
# speed.  A run does the same batches whatever the machine's speed, so
# `attempted` and `failed` depend only on the seed and --seconds.
BATCH_SECONDS = {
    "shell_sweep": 2.0,
    "theorem_sweep": 5.0,
    "web_chain": 6.5,
    "shape_derivative": 23.0,
}

sys.path.insert(0, str(ROOT / "src"))

import annulus_spectra  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy import sparse  # noqa: E402
from scipy.sparse.linalg import splu  # noqa: E402
from annulus_spectra import fem  # noqa: E402
from annulus_spectra.errors import AnnulusError  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, batch_rng, fem_eigenvalue_problems, warm_up  # noqa: E402


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    src = ROOT / "src" / "annulus_spectra"
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_pins": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
    }


def calibration_seconds() -> float:
    """Time of a fixed kernel that never touches the package.

    The kernel mixes what the workloads spend their time on: a sparse LU
    solve, sparse and dense products and an interpreter loop.  On a shared
    host the speed of the machine drifts by tens of percent within
    minutes; the workloads slow down with this kernel, so run.py scales
    the gated times by it.
    """
    t0 = perf_counter()
    line = sparse.diags([-np.ones(59), 2.0 * np.ones(60), -np.ones(59)], [-1, 0, 1])
    grid = (sparse.kron(line, sparse.identity(60)) + sparse.kron(sparse.identity(60), line)).tocsc()
    x = splu(grid).solve(np.ones(grid.shape[0]))
    for _ in range(50):
        x = grid @ x
        x /= np.linalg.norm(x)
    m = np.linspace(0.0, 1.0, 150 * 150).reshape(150, 150)
    m @ m @ m
    total = 0
    for i in range(30000):
        total += i * i
    return perf_counter() - t0


class Pacer:
    """Calibration samples between operations and inside long ones.

    A shape-derivative operation runs for about 11 s, and the machine's
    speed changes within it; samples taken only at its two ends follow
    that worse than no scaling at all.  install() wraps fem.solve_domain
    at every place the package binds it, so that while an operation runs
    a sample is also taken before a solve once CALIBRATION_EVERY_S has
    passed.  The kernel's time inside an operation is kept in `paused`
    and taken off the operation's time.  Untraced runs only: in a traced
    run the samples would land inside the spans.
    """

    def __init__(self):
        self.samples = []
        self.paused = 0.0
        self.active = False
        self.last = perf_counter()
        self._undo = []

    def sample(self) -> float:
        """Take one sample; returns the seconds it took."""
        t0 = perf_counter()
        self.samples.append(calibration_seconds())
        self.last = perf_counter()
        return self.last - t0

    def due(self) -> bool:
        return perf_counter() - self.last >= CALIBRATION_EVERY_S

    def install(self):
        original = fem.solve_domain

        @functools.wraps(original)
        def solve_domain(*args, **kwargs):
            if self.active and self.due():
                self.paused += self.sample()
            return original(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "annulus_spectra":
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, solve_domain)
        return self

    def uninstall(self):
        while self._undo:
            mod, attr, value = self._undo.pop()
            setattr(mod, attr, value)


def _cause(err: Exception) -> str:
    """Error type plus its message up to the first number, for grouping."""
    text = re.split(r"[-+]?\d", str(err), maxsplit=1)[0].strip()
    return f"{type(err).__name__}: {text}"


def _reference(workload: str, seed: int):
    if not REFERENCE.is_file():
        return None
    data = json.loads(REFERENCE.read_text())
    return data["workloads"].get(workload) if data["seed"] == seed else None


def _reference_problems(reference, b: int, j: int, values) -> list:
    if reference is None or b >= len(reference) or reference[b][j] is None:
        return []
    expected = reference[b][j]
    if len(expected) != len(values) or any(
        abs(v - e) > REFERENCE_RTOL * abs(e) for v, e in zip(values, expected)
    ):
        return [f"eigenvalues {values!r} differ from reference {expected!r}"]
    return []


def batches_for(workload: str, seconds: float) -> int:
    """Batches of a run of `seconds`: at least one."""
    return max(1, round(seconds / BATCH_SECONDS[workload]))


def prepare(workload: str, seed: int, trace: bool):
    """Set-up: tracer, warm-up, reference values and the first batch."""
    tracer = Tracer().install() if trace else None
    warm_up()
    return tracer, _reference(workload, seed), WORKLOADS[workload].batch(batch_rng(seed, workload, 0))


def measure(workload: str, seed: int, seconds: float, trace: bool, on_ready=None) -> dict:
    """Run batches_for(workload, seconds) batches, checking every operation."""
    wl = WORKLOADS[workload]
    tracer, reference, batch = prepare(workload, seed, trace)
    pacer = Pacer() if trace else Pacer().install()
    try:
        if on_ready is not None:
            on_ready()
        op_ms, batch_s = [], []
        for _ in range(3):
            pacer.sample()
        attempted = failed = incorrect = 0
        causes, noted = Counter(), Counter()
        for b in range(batches_for(workload, seconds)):
            if b:
                batch = wl.batch(batch_rng(seed, workload, b))
            wall = 0.0
            for j, op in enumerate(batch):
                if tracer is not None:
                    tracer.op, tracer.recording = attempted, True
                    tracer.solves.clear()
                pacer.paused, pacer.active = 0.0, True
                t0 = perf_counter()
                try:
                    out, err = wl.run(op), None
                except Exception as exc:  # typed refusals and bugs alike count as failed
                    out, err = None, exc
                dt = perf_counter() - t0 - pacer.paused
                pacer.active = False
                if tracer is not None:
                    tracer.recording = False
                wall += dt
                attempted += 1
                if err is not None:
                    failed += 1
                    incorrect += not isinstance(err, AnnulusError)
                    causes[_cause(err)] += 1
                else:
                    wrong, unmet, notes = wl.check(op, out)
                    if tracer is not None:
                        wrong += fem_eigenvalue_problems(tracer.solves)
                    wrong += _reference_problems(reference, b, j, wl.eigenvalues(out))
                    noted.update(notes)
                    if wrong or unmet:
                        failed += 1
                        incorrect += bool(wrong)
                        reasons = [f"wrong: {w}" for w in wrong] + [f"unmet: {u}" for u in unmet]
                        causes["; ".join(reasons)] += 1
                    else:
                        op_ms.append(dt * 1e3)
                if pacer.due():
                    pacer.sample()
            batch_s.append(wall)
    finally:
        pacer.uninstall()
        if tracer is not None:
            tracer.uninstall()
    result = {
        "attempted": attempted,
        "failed": failed,
        "incorrect": incorrect,
        "op_ms": op_ms,
        "batch_s": batch_s,
        "ops_per_batch": len(batch),
        "calib_s": pacer.samples,
        "causes": dict(causes),
        "noted": dict(noted),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(seed),
    }
    if tracer is not None:
        result["per_layer"] = tracer.layer_metrics(sum(batch_s), len(batch_s))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{workload}-seed{seed}.jsonl"
        tracer.write_jsonl(path, {"workload": workload, "env": result["env"]})
        result["trace_file"] = str(path.relative_to(ROOT))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    located = Path(annulus_spectra.__file__).resolve()
    if ROOT / "src" not in located.parents:
        print(f"annulus_spectra imported from {located}, not from this checkout", file=sys.stderr)
        return 2

    def ready():
        print("READY", flush=True)

    if args.setup_only:
        tracer, _, _ = prepare(args.workload, args.seed, bool(args.trace))
        if tracer is not None:
            tracer.uninstall()
        ready()
        print(json.dumps({"calib_s": [calibration_seconds() for _ in range(3)]}), flush=True)
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), on_ready=ready)
    print(json.dumps(result, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
