"""Self-test of the benchmark at a tiny run length.

    python3 -m pytest perfbench/test_bench.py -q

Checks that every metric named in BENCHMARK.json is printed with its
unit, that traced spans nest with self time never above busy time, and
that an eigenvalue corrupted by 1e-8 relative counts as a failed
operation, so the correctness checks are live.
"""

import dataclasses
import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (puts src/ of this checkout on the path)
from annulus_spectra import fem, radial  # noqa: E402
from tracing import FUNCTIONS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CORRUPTION = 1.0 + 1e-8


def _run(workload: str, trace: int) -> list:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(trace, kind):
    lines = _run("shell_sweep", trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and f" {unit} " in line for line in lines[:-1])


def test_spans_nest_and_self_within_busy():
    result = worker.measure("theorem_sweep", 3, 1, trace=True)
    assert result["failed"] == 0
    lines = (ROOT / result["trace_file"]).read_text().splitlines()
    spans = [json.loads(line) for line in lines[1:]]
    assert spans
    covered = [0.0] * len(spans)
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert parent["op"] == span["op"]
            covered[span["parent"]] += span["end"] - span["start"]
    for span, child_time in zip(spans, covered):
        assert child_time <= span["end"] - span["start"] + 1e-9
    layer = result["per_layer"]
    for name in [k[: -len(".busy_s")] for k in layer if k.endswith(".busy_s")]:
        assert layer[name + ".self_s"][0] <= layer[name + ".busy_s"][0] + 1e-9
    total = sum(layer[f + ".self_s"][0] for f in FUNCTIONS) + layer["bench.self_s"][0]
    assert total == pytest.approx(layer["trace.wall_s"][0], rel=1e-9)


def test_corrupted_radial_eigenvalue_fails(monkeypatch):
    solve = radial.solve_shell

    @functools.wraps(solve)
    def corrupted(*args, **kwargs):
        res = solve(*args, **kwargs)
        return dataclasses.replace(res, lam=res.lam * CORRUPTION)

    monkeypatch.setattr(radial, "solve_shell", corrupted)
    result = worker.measure("shell_sweep", 3, 1, trace=False)
    assert result["op_ms"] == [] and result["failed"] == result["attempted"]
    assert result["incorrect"] > 0


def test_corrupted_fem_eigenvalue_fails_traced(monkeypatch):
    # corrupted after solve_on_mesh's own residual check, which would
    # already reject a 1e-8 error inside the eigensolver
    solve = fem.solve_on_mesh

    @functools.wraps(solve)  # keeps the signature the tracer binds against
    def corrupted(*args, **kwargs):
        res = solve(*args, **kwargs)
        return dataclasses.replace(res, lam=res.lam * CORRUPTION)

    monkeypatch.setattr(fem, "solve_on_mesh", corrupted)
    result = worker.measure("theorem_sweep", 3, 1, trace=True)
    assert result["op_ms"] == [] and result["failed"] == result["attempted"]
    assert result["incorrect"] == result["attempted"]
    assert any("eigsh" in cause for cause in result["causes"])
