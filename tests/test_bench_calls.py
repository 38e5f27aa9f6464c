"""The package calls that perfbench/workloads.py makes, at their smallest.

perfbench/ drives the package from outside, so a change to a name or a
signature it calls would otherwise show only when the benchmark runs.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


def test_warm_up_and_first_batches_build():
    # warm_up reaches chain_certificate(..., quad_level=...), fem.assemble's
    # (A, M, free_map) and fem.solve_domain; the web batch reads
    # webfunc.CLIP_SAMPLES
    workloads.warm_up()
    for name, workload in workloads.WORKLOADS.items():
        assert workload.batch(workloads.batch_rng(0, name, 0)), name
