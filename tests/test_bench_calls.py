"""The package calls that perfbench/workloads.py makes, at their smallest.

perfbench/ drives the package from outside, so a change to a name or a
signature it calls would otherwise show only when the benchmark runs.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

from annulus_spectra.geometry import class_s_data  # noqa: E402
from annulus_spectra.radial import solve_shell  # noqa: E402
from annulus_spectra.webfunc import build_web  # noqa: E402


def test_warm_up_and_first_batches_build():
    # warm_up reaches chain_certificate(..., quad_level=...), fem.assemble's
    # (A, M, free_map) and fem.solve_domain; the web batch reads
    # webfunc.CLIP_SAMPLES
    workloads.warm_up()
    for name, workload in workloads.WORKLOADS.items():
        assert workload.batch(workloads.batch_rng(0, name, 0)), name


def test_web_chain_batches_pass_their_checks():
    # the benchmark's shell identity and chain clauses, on two batches
    workload = workloads.WORKLOADS["web_chain"]
    for index in (0, 1):
        for op in workload.batch(workloads.batch_rng(0, "web_chain", index)):
            wrong, unmet, _ = workload.check(op, workload.run(op))
            assert (wrong, unmet) == ([], []), (index, op[0])


def test_web_chain_regime_rule_agrees_with_the_gap():
    # the benchmark redraws ellipse members by its own 2048-sample free
    # distance (_split_contained); build_web reads the exact gap
    workload = workloads.WORKLOADS["web_chain"]
    for seed in range(10):
        for index in range(4):
            for _, dom, beta in workload.batch(workloads.batch_rng(seed, "web_chain", index)):
                r1, r2, _ = class_s_data(dom)
                exact = solve_shell(2, r1, r2, beta).r_bar - r1 <= dom.gap
                assert workloads._split_contained(dom, beta) == exact, (seed, index)


def test_web_chain_ellipse_members_stay_in_the_coarea_rule():
    # rayleigh_quotient raises on an uncontained web off the circle pairs
    # and on a falling band R2 - r_bar past the outer ellipse's reach; no
    # ellipse operation of the benchmark may reach either
    workload = workloads.WORKLOADS["web_chain"]
    for seed in range(10):
        for index in range(4):
            kind, dom, beta = workload.batch(workloads.batch_rng(seed, "web_chain", index))[2]
            assert kind == "ellipse"
            r1, r2, _ = class_s_data(dom)
            web = build_web(dom, solve_shell(2, r1, r2, beta))
            reach = min(dom.outer.a, dom.outer.b) ** 2 / max(dom.outer.a, dom.outer.b)
            assert web.contained, (seed, index)
            assert r2 - web.radial.r_bar < reach, (seed, index)
