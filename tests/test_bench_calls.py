"""The package calls that perfbench/workloads.py makes, at their smallest.

perfbench/ drives the package from outside, so a change to a name or a
signature it calls would otherwise show only when the benchmark runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

from annulus_spectra.geometry import Ellipse, PolygonCurve, class_s_data  # noqa: E402
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


def test_shell_sweep_batches_pass_their_checks():
    # the benchmark's oracles and its reference eigenvalues at their rtol,
    # on two batches of the seed the reference file was made from
    workload = workloads.WORKLOADS["shell_sweep"]
    reference = worker._reference("shell_sweep", 0)
    assert reference is not None
    for index in (0, 1):
        ops = workload.batch(workloads.batch_rng(0, "shell_sweep", index))
        for j, op in enumerate(ops):
            out = workload.run(op)
            wrong, unmet, _ = workload.check(op, out)
            wrong += worker._reference_problems(reference, index, j, workload.eigenvalues(out))
            assert (wrong, unmet) == ([], []), (index, op)


@pytest.mark.parametrize("name", ["theorem_sweep", "shape_derivative"])
def test_fem_batches_pass_their_checks(name):
    # shell maximality, and the shape derivative against step-halved FD,
    # with the reference eigenvalues at their rtol, on the seed's first batch
    workload = workloads.WORKLOADS[name]
    reference = worker._reference(name, 0)
    assert reference is not None
    for j, op in enumerate(workload.batch(workloads.batch_rng(0, name, 0))):
        out = workload.run(op)
        wrong, unmet, _ = workload.check(op, out)
        wrong += worker._reference_problems(reference, 0, j, workload.eigenvalues(out))
        assert (wrong, unmet) == ([], []), (j, op)


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
    # rayleigh_quotient answers on uncontained webs too, but the benchmark
    # still redraws those draws through _split_contained, and it raises on a
    # falling band R2 - r_bar past the outer ellipse's reach; both keep the
    # ellipse operations as they were drawn
    workload = workloads.WORKLOADS["web_chain"]
    for seed in range(10):
        for index in range(4):
            kind, dom, beta = workload.batch(workloads.batch_rng(seed, "web_chain", index))[2]
            assert kind == "ellipse"
            web = build_web(dom, beta)
            reach = min(dom.outer.a, dom.outer.b) ** 2 / max(dom.outer.a, dom.outer.b)
            assert web.contained, (seed, index)
            assert web.radial.shell.r_outer - web.radial.r_bar < reach, (seed, index)


def test_traced_names_resolve():
    # the tracer skips a listed function the package no longer has and
    # reports it as zero calls; its eigsh cross-check sees only the
    # fem.solve_on_mesh calls it wraps.  fem.assemble_forms and
    # webfunc.find_split are stale until the benchmark's list drops them
    missing = []
    for full in tracing.FUNCTIONS:
        layer, attr = full.split(".")
        if attr in tracing.CURVE_METHODS:
            assert layer == "geometry", full
        elif not hasattr(importlib.import_module(f"annulus_spectra.{layer}"), attr):
            missing.append(full)
    assert missing == ["fem.assemble_forms", "webfunc.find_split"]
    # curve methods are wrapped only where a class defines them itself
    for cls in (Ellipse, PolygonCurve):
        for attr in tracing.CURVE_METHODS:
            assert attr in vars(cls), (cls.__name__, attr)
