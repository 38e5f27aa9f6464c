import csv
import json
import math
import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest

from annulus_spectra import cli
from annulus_spectra.analysis import InequalityReport
from annulus_spectra.cli import main, write_svg_plot
from annulus_spectra.errors import NumericalError
from annulus_spectra.fem import convergence_study, solve_domain
from annulus_spectra.geometry import AnnularDomain, Circle
from annulus_spectra.radial import closed_form_3d, solve_shell


def usage_case(*argv, message):
    """A usage-error case, with the test id pytest gives to argv alone."""
    return pytest.param(*argv, message, id="-".join(argv))


class TestShellCommand:
    def test_dirichlet_anchor(self, capsys):
        code = main(["shell", "--n", "3", "--r1", "1", "--r2", "2", "--beta", "inf"])
        out = capsys.readouterr().out
        assert code == 0
        lam = float(out.split("lambda =")[1].split()[0])
        assert lam == pytest.approx(math.pi**2, rel=1e-9)

    def test_neumann_closure_matches_fd(self, capsys):
        assert main(["shell", "--n", "2", "--r1", "1", "--r2", "2", "--beta", "0"]) == 0
        lam = float(capsys.readouterr().out.split("lambda =")[1].split()[0])
        assert main(
            ["shell", "--n", "2", "--r1", "1", "--r2", "2", "--beta", "0", "--method", "fd"]
        ) == 0
        lam_fd = float(capsys.readouterr().out.split("lambda =")[1].split()[0])
        assert lam == pytest.approx(lam_fd, rel=1e-6)

    @pytest.mark.parametrize(
        "n, beta", [("3", "0.504828570311669"), ("4", "19.159121831389143")]
    )
    def test_root_on_a_scan_point_and_r_bar_on_a_knot_answer(self, n, beta, capsys):
        # once an untyped ValueError from Brent's bracket and a spurious
        # "critical radius not resolved next to R2"
        assert main(["shell", "--n", n, "--r1", "1", "--r2", "2", "--beta", beta]) == 0
        assert capsys.readouterr().out.startswith("lambda = ")

    @pytest.mark.parametrize(
        "n, r1, r2, beta",
        [
            ("6", "0.019546290909266396", "0.01963680000248503", "9.80717145424233e-10"),
            ("10", "0.2646786323063838", "0.26540807099302055", "2.5584259279501987e-12"),
            ("3", "0.0037636927568804155", "0.0037754944180841523", "2.655308117819235e-09"),
            ("4", "0.0069587247076742164", "0.006986119006704635", "2.4850526765872826e-11"),
        ],
    )
    def test_tiny_beta_thin_shell_answers(self, n, r1, r2, beta, capsys):
        # once "critical radius escaped the shell interior" (n = 6, 10) and
        # "critical radius not resolved next to R2" (n = 3, 4): beta phi(R2)
        # lies below the rounding of phi'(R2), and r_bar is R2
        assert main(["shell", "--n", n, "--r1", r1, "--r2", r2, "--beta", beta]) == 0
        out = capsys.readouterr().out
        assert out.startswith("lambda = ")
        if n == "3":
            lam = float(out.split("lambda =")[1].split()[0])
            assert lam == pytest.approx(closed_form_3d(float(r1), float(r2), float(beta)), rel=1e-11)

    def test_missing_argument_usage_error(self):
        assert main(["shell", "--n", "3", "--r1", "1", "--beta", "1"]) == 2

    def test_closed_form_3d_method(self, capsys):
        argv = ["shell", "--r1", "1", "--r2", "2", "--beta", "1", "--method", "closed3d"]
        assert main(argv + ["--n", "3"]) == 0
        lam = closed_form_3d(1.0, 2.0, 1.0)
        assert capsys.readouterr().out == f"lambda = {lam:.12g}  (closed-form-3d)\n"
        assert main(argv + ["--n", "2"]) == 2
        assert "--method closed3d requires --n 3" in capsys.readouterr().err

    def test_solver_failure_exits_one(self, monkeypatch, capsys):
        def failing_solve(*args):
            raise NumericalError("no bracket")

        monkeypatch.setattr(cli.radial, "solve_shell", failing_solve)
        assert main(["shell", "--n", "2", "--r1", "1", "--r2", "2", "--beta", "1"]) == 1
        assert "numerical failure: no bracket" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", ["nan", "-1"])
    def test_invalid_beta_usage_error(self, beta, capsys):
        assert main(["shell", "--n", "2", "--r1", "1", "--r2", "2", "--beta", beta]) == 2
        assert "beta must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            usage_case("--r1", "nan", message="--r1 must be positive and finite"),
            usage_case("--r1", "-1", message="--r1 must be positive and finite"),
            usage_case("--r2", "inf", message="--r2 must be positive and finite"),
            usage_case("--r1", "2", message="--r1 must be below --r2"),
            usage_case("--r2", "0.5", message="--r1 must be below --r2"),
        ],
    )
    def test_invalid_radius_usage_error(self, flag, value, message, capsys):
        args = {"--r1": "1", "--r2": "2"}
        args[flag] = value
        argv = ["shell", "--n", "2", "--r1", args["--r1"], "--r2", args["--r2"], "--beta", "1"]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, extra",
        [
            ("--n", "1", []),
            ("--fd-points", "99", ["--method", "fd"]),
            ("--fd-points", "10", ["--method", "fd"]),
        ],
    )
    def test_integer_floor_usage_error(self, flag, value, extra, capsys):
        args = {"--n": "2", flag: value}
        argv = ["shell", "--r1", "1", "--r2", "2", "--beta", "1", *extra]
        assert main(argv + [item for pair in args.items() for item in pair]) == 2
        assert f"{flag} must be at least" in capsys.readouterr().err

    def test_removed_grid_option_usage_error(self, capsys):
        argv = ["shell", "--n", "2", "--r1", "1", "--r2", "2", "--beta", "1", "--grid", "5"]
        assert main(argv) == 2
        assert "--grid" in capsys.readouterr().err

    def test_writes_profile_and_report(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["shell", "--n", "2", "--r1", "1", "--r2", "2", "--beta", "1", "--out", str(out)]
        )
        assert code == 0
        assert (out / "profile.csv").exists()
        report = json.loads((out / "shell_report.json").read_text())
        assert report["method"] == "bessel"
        assert "resolution" in report


class TestCsvWriter:
    """profile.csv, eigenvector.csv and the sweep tables come from one
    writer: a header, numbers as %.17g and \r\n line ends."""

    @staticmethod
    def expected(header, rows):
        lines = [",".join(header)]
        lines += [",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) for row in rows]
        return "".join(line + "\r\n" for line in lines).encode()

    def test_shell_profile(self, tmp_path, capsys):
        argv = ["shell", "--n", "2", "--r1", "1", "--r2", "2", "--beta", "1"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        res = solve_shell(2, 1.0, 2.0, 1.0)
        raw = (tmp_path / "profile.csv").read_bytes()
        assert raw == self.expected(["r", "phi", "dphi"], zip(res.r, res.phi, res.dphi))
        data = np.loadtxt(tmp_path / "profile.csv", delimiter=",", skiprows=1)
        assert data.shape == (len(res.r), 3) == (4097, 3)
        assert np.array_equal(data, np.column_stack([res.r, res.phi, res.dphi]))

    def test_fem_eigenvector(self, tmp_path, capsys):
        argv = ["fem", "--outer", "circle 0 0 2", "--inner", "circle 0 0 1", "--beta", "1"]
        assert main(argv + ["--res", "4x16", "--out", str(tmp_path)]) == 0
        res = solve_domain(AnnularDomain(Circle((0, 0), 2.0), Circle((0, 0), 1.0)), 1.0, 4, 16)
        rows = [(str(i), x, y, u) for i, ((x, y), u) in enumerate(zip(res.mesh.nodes, res.u))]
        raw = (tmp_path / "eigenvector.csv").read_bytes()
        assert raw == self.expected(["node", "x", "y", "u"], rows)
        assert raw.count(b"\r\n") == len(res.mesh.nodes) + 1 == 81

    def test_resolution_sweep(self, tmp_path, capsys):
        argv = ["sweep", "--kind", "resolution", "--steps", "3", "--out", str(tmp_path)]
        assert main(argv) == 0
        dom = AnnularDomain(Circle((0, 0), 2.0), Circle((0, 0), 1.0))
        lam_ref = solve_shell(2, 1.0, 2.0, 1.0).lam
        study = convergence_study(dom, 1.0, [(8, 32), (16, 64), (32, 128)], lam_ref=lam_ref)
        rows = [
            (f"{n_r}x{n_a}", h, lam, abs(lam - lam_ref))
            for (n_r, n_a), h, lam in zip(study.resolutions, study.h, study.lam_h)
        ]
        raw = (tmp_path / "resolution_sweep.csv").read_bytes()
        assert raw == self.expected(["resolution", "h", "lambda", "error"], rows)
        assert raw.splitlines()[1].startswith(b"8x32,")


class TestFemCommand:
    def test_solve_and_outputs(self, tmp_path, capsys):
        out = tmp_path / "fem"
        code = main(
            [
                "fem",
                "--outer", "circle 0 0 2",
                "--inner", "circle 0.5 0 1",
                "--beta", "1",
                "--res", "16x64",
                "--out", str(out),
            ]
        )
        assert code == 0
        for name in ("mesh.txt", "eigenvector.csv", "fem_report.json"):
            assert (out / name).exists()
        report = json.loads((out / "fem_report.json").read_text())
        assert report["resolution"] == "16x64"
        # the inertia certificate: one factorization counted one eigenvalue
        # below the seed's quotient
        assert (report["factorizations"], report["negative_pivots"]) == (1, 1)
        assert "1 negative pivot(s) at sigma" in capsys.readouterr().out
        # mesh.txt: the header counts, then nodes, triangles and tagged edges
        # of the mesh the solve ran on
        domain = AnnularDomain(Circle((0, 0), 2.0), Circle((0.5, 0), 1.0))
        mesh = solve_domain(domain, 1.0, 16, 64).mesh
        lines = (out / "mesh.txt").read_text().splitlines()
        n, t = len(mesh.nodes), len(mesh.triangles)
        e = len(mesh.inner_edges) + len(mesh.outer_edges)
        assert lines[0].split() == ["nodes", str(n), "triangles", str(t), "edges", str(e)]
        assert len(lines) == 1 + n + t + e
        tris = np.array([[int(v) for v in line.split()] for line in lines[1 + n : 1 + n + t]])
        assert np.array_equal(tris, mesh.triangles)
        edges = [line.split() for line in lines[1 + n + t :]]
        for tag, want in (("outer", mesh.outer_edges), ("inner", mesh.inner_edges)):
            got = np.array([[int(i), int(j)] for i, j, k in edges if k == tag])
            assert np.array_equal(got, want)
        assert [k for _, _, k in edges] == ["outer"] * 64 + ["inner"] * 64

    def test_bad_curve_spec(self, capsys):
        code = main(
            ["fem", "--outer", "blob 1 2", "--inner", "circle 0 0 1", "--beta", "1"]
        )
        assert code == 2
        assert "error: unknown curve kind" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("circle 0 0 abc", "bad number"),
            ("circle 0 0 inf", "finite"),
            ("polygon 0 0 1 0 nan 1", "finite"),
        ],
    )
    def test_bad_curve_numbers(self, spec, message, capsys):
        code = main(["fem", "--outer", spec, "--inner", "circle 0 0 0.5", "--beta", "1"])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_hole_not_contained_usage_error(self, capsys):
        code = main(["fem", "--outer", "circle 0 0 2", "--inner", "circle 1.5 0 1", "--beta", "1"])
        assert code == 2
        assert "error: hole is not contained" in capsys.readouterr().err

    def test_hole_poking_out_by_5e8_usage_error(self, tmp_path, capsys):
        # the ellipse crosses the circle between any 4096 boundary samples
        argv = ["fem", "--outer", "circle 0.1 0.2 1.68741353179848", "--beta", "1"]
        argv += ["--inner", "ellipse 0.5 -0.3 1.2 0.5", "--res", "8x32", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "error: hole is not contained" in capsys.readouterr().err

    def test_nan_beta_usage_error(self, capsys):
        code = main(
            ["fem", "--outer", "circle 0 0 2", "--inner", "circle 0.5 0 1", "--beta", "nan"]
        )
        assert code == 2
        assert "beta must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("res", ["1x0", "2x7", "1x64"])
    def test_resolution_floor_usage_error(self, res, capsys):
        args = ["fem", "--outer", "circle 0 0 2", "--inner", "circle 0.5 0 1", "--beta", "1"]
        code = main(args + ["--res", res])
        assert code == 2
        assert "at least 2 radial layers and 8 rays" in capsys.readouterr().err

    def test_malformed_resolution_usage_error(self, capsys):
        args = ["fem", "--outer", "circle 0 0 2", "--inner", "circle 0.5 0 1", "--beta", "1"]
        assert main(args + ["--res", "48by192"]) == 2
        assert "resolution must look like 64x256, got '48by192'" in capsys.readouterr().err

    def test_determinism_rerun(self, tmp_path, capsys):
        args = [
            "fem",
            "--outer", "circle 0 0 2",
            "--inner", "circle 0.3 0 1",
            "--beta", "1",
            "--res", "12x48",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        vec_a = (tmp_path / "a" / "eigenvector.csv").read_bytes()
        vec_b = (tmp_path / "b" / "eigenvector.csv").read_bytes()
        assert vec_a == vec_b


class TestVerifyCommand:
    def test_geometry_suite_reproducible(self, tmp_path, capsys):
        code = main(
            ["verify", "--suite", "geometry", "--seed", "7", "--out", str(tmp_path / "a")]
        )
        assert code == 0
        assert main(
            ["verify", "--suite", "geometry", "--seed", "7", "--out", str(tmp_path / "b")]
        ) == 0
        rep_a = (tmp_path / "a" / "geometry_report.json").read_bytes()
        rep_b = (tmp_path / "b" / "geometry_report.json").read_bytes()
        assert rep_a == rep_b

    def test_quick_radial_suite(self, capsys):
        assert main(["verify", "--suite", "radial", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] cross_method_agreement" in out

    def test_index_written_for_selected_suite(self, tmp_path, capsys):
        assert main(
            ["verify", "--suite", "geometry", "--out", str(tmp_path), "--quick"]
        ) == 0
        index = json.loads((tmp_path / "index.json").read_text())
        assert index == {"geometry": True}

    def test_bounds_suite_reports_kuttler_only(self, tmp_path, capsys):
        assert main(["verify", "--suite", "bounds", "--out", str(tmp_path)]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
        assert len(rows) == 15
        assert {row.split(":")[0][len("[PASS] "):] for row in rows} == {
            "robin_below_dirichlet",
            "reciprocal_gap_volume_bound",
            "reciprocal_gap_inradius_bound",
        }
        report = json.loads((tmp_path / "bounds_report.json").read_text())
        assert list(report) == ["checks"]
        # beta = 1 is checked on the 2D and the 3D shell, so dim tells those
        # apart, and on the FEM member at the --res resolution
        checks = report["checks"]
        keys = {(c["name"], c["context"]["beta"], c["context"].get("dim")) for c in checks}
        assert len(keys) == 15
        fem_rows = [c["context"] for c in checks if c["context"]["method"] == "fem"]
        assert [ctx["resolution"] for ctx in fem_rows] == ["48x192"] * 3

    def test_web_suite_prints_the_quadrature_error(self, tmp_path, capsys):
        runs = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert main(["verify", "--suite", "web", "--res", "16x64", "--out", str(out)]) == 0
            runs.append((capsys.readouterr().out, (out / "web_report.json").read_bytes()))
        assert runs[0] == runs[1]
        rows = [line for line in runs[0][0].splitlines() if line.startswith("[")]
        errors = [row.partition(" rayleigh_error=")[2] for row in rows]
        # the shell row and the chains on all seven members carry the
        # computed error; the web's own checks have none
        assert rows[0].startswith("[PASS] shell_identity:")
        assert len(rows) == 3 + 2 * 7
        assert all(float(error) <= 1e-10 for error in errors[:1] + errors[3:])
        assert errors[1:3] == ["", ""]
        report = json.loads(runs[0][1])
        assert [chain["rayleigh_error"] <= 1e-10 for chain in report["chains"]] == [True] * 7

    def test_all_runs_each_suite_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        for name in cli.SUITES:

            def stub(args, resolution, name=name):
                calls.append(name)
                return {"suite": name}, [InequalityReport(name + "_check", 0.0, 0.0, 0.0)]

            monkeypatch.setitem(cli.SUITES, name, stub)
        assert main(["verify", "--suite", "all", "--out", str(tmp_path)]) == 0
        assert calls == list(cli.SUITES)
        index = json.loads((tmp_path / "index.json").read_text())
        assert index == dict.fromkeys(cli.SUITES, True)

    def test_quick_limits_suite(self, tmp_path, capsys):
        assert main(["verify", "--suite", "limits", "--quick", "--out", str(tmp_path)]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
        assert [row.split(":")[0] for row in rows] == [
            "[PASS] radial.nd_bracket_ok",
            "[PASS] radial.dd_gap_ok",
            "[PASS] radial.strictly_monotone",
            "[PASS] fem.nd_bracket_ok",
            "[PASS] fem.dd_gap_ok",
            "[PASS] fem.monotone",
        ]
        report = json.loads((tmp_path / "limits_report.json").read_text())
        assert report["radial"]["method"] == "radial"
        assert report["fem"]["method"] == "fem"
        assert report["fem"]["resolution"] == "24x96"
        assert json.loads((tmp_path / "index.json").read_text()) == {"limits": True}

    def test_failing_check_fails_its_suite(self, tmp_path, capsys, monkeypatch):
        checks = [InequalityReport("good", 0.0, 1.0, 0.0), InequalityReport("bad", 1.0, 0.0, 0.0)]
        monkeypatch.setitem(cli.SUITES, "geometry", lambda args, res: ({}, checks))
        assert main(["verify", "--suite", "geometry", "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "[PASS] good" in out and "[FAIL] bad: margin -1" in out
        assert out.rstrip().endswith("verify: FAIL")
        assert json.loads((tmp_path / "index.json").read_text()) == {"geometry": False}


    @pytest.mark.parametrize("suite, count", [("theorem", 8), ("shape-derivative", 2), ("web", 7)])
    def test_quick_suite_runs_its_checks(self, suite, count, tmp_path, capsys):
        assert main(["verify", "--suite", suite, "--quick", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / f"{suite.replace('-', '_')}_report.json").read_text())
        assert len(report["checks"]) == count
        assert all(check["pass"] for check in report["checks"])
        assert json.loads((tmp_path / "index.json").read_text()) == {suite: True}

    @pytest.mark.parametrize("suite", ["geometry", "radial"])
    def test_negative_seed_usage_error_creates_no_out(self, suite, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["verify", "--suite", suite, "--seed", "-1", "--out", str(out)]) == 2
        assert "--seed must be at least 0" in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    def test_beta_sweep_monotone(self, tmp_path, capsys):
        code = main(
            ["sweep", "--kind", "beta", "--steps", "6", "--out", str(tmp_path)]
        )
        assert code == 0
        rows = (tmp_path / "beta_sweep.csv").read_text().splitlines()
        assert rows[0] == "beta,lambda"
        lams = [float(r.split(",")[1]) for r in rows[1:]]
        assert lams == sorted(lams)
        assert (tmp_path / "beta_sweep.svg").exists()

    def test_empty_grid_usage_error(self, tmp_path, capsys):
        assert main(
            ["sweep", "--kind", "beta", "--steps", "1", "--out", str(tmp_path)]
        ) == 2
        assert "--steps must be at least 2" in capsys.readouterr().err

    def test_resolution_steps_floor_usage_error(self, tmp_path, capsys):
        argv = ["sweep", "--kind", "resolution", "--steps", "2", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "needs --steps of at least 3" in capsys.readouterr().err
        assert not (tmp_path / "resolution_sweep.csv").exists()

    def test_beta_sweep_defaults_to_eight_steps(self, tmp_path, capsys):
        assert main(["sweep", "--kind", "beta", "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "beta_sweep.csv").read_text().splitlines()) == 1 + 8

    def test_resolution_sweep_defaults_to_four_steps(self, tmp_path, capsys):
        assert main(["sweep", "--kind", "resolution", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "resolution_sweep.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == [
            "resolution", "8x32", "16x64", "32x128", "64x256"
        ]

    def test_resolution_steps_ceiling_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["sweep", "--kind", "resolution", "--steps", "6", "--out", str(out)]
        assert main(argv) == 2
        assert "takes --steps of at most 5, got 6" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, flag, value, message",
        [
            ("offset", "--res", "1x1", "resolution needs at least 2 radial layers"),
            ("resolution", "--steps", "2", "needs --steps of at least 3"),
        ],
    )
    def test_kind_usage_error_creates_no_out(self, kind, flag, value, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--kind", kind, flag, value, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_resolution_sweep_order(self, tmp_path, capsys):
        argv = ["sweep", "--kind", "resolution", "--steps", "3", "--out", str(tmp_path)]
        assert main(argv) == 0
        rows = (tmp_path / "resolution_sweep.csv").read_text().splitlines()
        assert rows[0] == "resolution,h,lambda,error"
        assert [row.split(",")[0] for row in rows[1:]] == ["8x32", "16x64", "32x128"]
        assert "[PASS] convergence_order" in capsys.readouterr().out
        assert (tmp_path / "resolution_sweep.svg").exists()

    def test_dimension_floor_usage_error(self, tmp_path, capsys):
        argv = ["sweep", "--kind", "beta", "--n", "1", "--steps", "3", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "--n must be at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, flag, value, message",
        [
            usage_case("beta", "--r1", "0", message="--r1 must be positive and finite"),
            usage_case("beta", "--r2", "nan", message="--r2 must be positive and finite"),
            usage_case(
                "beta", "--beta-min", "nan", message="--beta-min must be positive and finite"
            ),
            usage_case(
                "beta", "--beta-max", "inf", message="--beta-max must be positive and finite"
            ),
            usage_case("offset", "--gap", "-0.5", message="--gap must be positive and finite"),
            # defaults: r1 1, r2 2, beta in [1e-3, 1e4], gap 0.08
            usage_case("beta", "--r1", "2", message="--r1 must be below --r2"),
            usage_case("offset", "--r2", "0.5", message="--r1 must be below --r2"),
            usage_case("resolution", "--r1", "3", message="--r1 must be below --r2"),
            usage_case("beta", "--beta-min", "1e4", message="--beta-min must be below --beta-max"),
            usage_case("beta", "--beta-max", "1e-4", message="--beta-min must be below --beta-max"),
            usage_case("offset", "--gap", "1", message="--gap must be below --r2 - --r1"),
            usage_case("offset", "--gap", "5", message="--gap must be below --r2 - --r1"),
        ],
    )
    def test_invalid_float_flag_usage_error(self, kind, flag, value, message, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["sweep", "--kind", kind, flag, value, "--out", str(out)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_offset_sweep_margins(self, tmp_path, capsys):
        code = main(
            [
                "sweep", "--kind", "offset", "--steps", "3",
                "--res", "16x64", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        rows = (tmp_path / "offset_sweep.csv").read_text().splitlines()
        assert rows[0] == "offset,lambda_fem,lambda_shell,margin"
        margins = [float(r.split(",")[3]) for r in rows[1:]]
        # eccentric members sit strictly below the shell; the concentric
        # one only by discretization error
        assert all(m >= -2.0 * abs(margins[0]) for m in margins)
        assert margins[1:] == sorted(margins[1:])

    def test_byte_identical_outputs(self, tmp_path):
        for sub in ("a", "b"):
            main(["sweep", "--kind", "beta", "--steps", "4", "--out", str(tmp_path / sub)])
        assert (tmp_path / "a" / "beta_sweep.csv").read_bytes() == (
            tmp_path / "b" / "beta_sweep.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "beta_sweep.svg").read_bytes() == (
            tmp_path / "b" / "beta_sweep.svg"
        ).read_bytes()

    def test_offset_sweep_matches_serial_solves_on_calling_thread(self, tmp_path, monkeypatch):
        solve_threads = []

        def recording_solve(*args):
            solve_threads.append((args[2:4], threading.get_ident()))
            return solve_domain(*args)

        monkeypatch.setattr(cli.fem, "solve_domain", recording_solve)
        argv = ["sweep", "--kind", "offset", "--steps", "4", "--res", "16x64"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        # all 4 solves, and the 8x32 level that seeds each, ran on the calling thread
        me = threading.get_ident()
        assert solve_threads == [((16, 64), me), ((8, 32), me)] * 4
        lam_shell = solve_shell(2, 1.0, 2.0, 1.0).lam
        expected = [["offset", "lambda_fem", "lambda_shell", "margin"]]
        for off in np.linspace(0.0, 0.9 * (1.0 - 0.08), 4):
            dom = AnnularDomain(Circle((0, 0), 2.0), Circle((off, 0), 1.0))
            lam = solve_domain(dom, 1.0, 16, 64).lam
            expected.append([f"{v:.17g}" for v in (off, lam, lam_shell, lam_shell - lam)])
        with open(tmp_path / "offset_sweep.csv", newline="") as fh:
            assert list(csv.reader(fh)) == expected


class TestConfigFile:
    def test_config_seeds_defaults(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("command=shell\nn=3\nr1=1\nr2=2\nbeta=inf\n")
        assert main(["shell", "--config", str(conf)]) == 0
        lam = float(capsys.readouterr().out.split("lambda =")[1].split()[0])
        assert lam == pytest.approx(math.pi**2, rel=1e-9)

    def test_comment_and_blank_lines_skipped(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "# a Dirichlet shell, beta=1 left out\ncommand=shell\n\nn=3\n  \nr1=1\nr2=2\nbeta=inf\n"
        )
        assert main(["shell", "--config", str(conf)]) == 0
        lam = float(capsys.readouterr().out.split("lambda =")[1].split()[0])
        assert lam == pytest.approx(math.pi**2, rel=1e-9)

    def test_flags_override_config(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("command=shell\nn=3\nr1=1\nr2=2\nbeta=inf\n")
        assert main(["shell", "--config", str(conf), "--beta", "1"]) == 0
        lam = float(capsys.readouterr().out.split("lambda =")[1].split()[0])
        assert lam == pytest.approx(3.373089286626214, rel=1e-9)

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("command=shell\nbogus=1\n")
        code = main(
            ["shell", "--config", str(conf), "--n", "2", "--r1", "1", "--r2", "2", "--beta", "1"]
        )
        assert code == 2

    def test_missing_file_usage_error(self, tmp_path, capsys):
        code = main(["shell", "--config", str(tmp_path / "absent.conf"), "--n", "2"])
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_line_without_equals_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("command=shell\nn 3\n")
        assert main(["shell", "--config", str(conf)]) == 2
        assert "run.conf:2: expected key=value" in capsys.readouterr().err

    def test_config_without_path_usage_error(self, capsys):
        assert main(["shell", "--n", "2", "--config"]) == 2
        assert "error: --config needs a path" in capsys.readouterr().err

    def test_config_before_subcommand_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("command=shell\n")
        assert main(["--config", str(conf), "shell"]) == 2
        assert "error: --config must follow a subcommand" in capsys.readouterr().err

    def test_true_value_becomes_a_flag(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("command=verify\nsuite=geometry\nquick = true\n")
        assert main(["verify", "--config", str(conf)]) == 0
        out = capsys.readouterr().out
        assert main(["verify", "--suite", "geometry", "--quick"]) == 0
        assert out == capsys.readouterr().out
        assert sum("PASS" in line for line in out.splitlines()) == 5

    def test_wrong_command_rejected(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("command=fem\n")
        assert main(["shell", "--config", str(conf), "--n", "2", "--r1", "1",
                     "--r2", "2", "--beta", "1"]) == 2


def test_svg_plot_writer(tmp_path):
    path = tmp_path / "plot.svg"
    write_svg_plot(path, [1.0, 2.0, 3.0], [[1.0, 4.0, 9.0]], ["y"], "squares")
    text = path.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text
    assert "timestamp" not in text


def test_import_loads_no_interpolate_or_integrate():
    # the profile, its slope and the beta-slope are closed forms, so the
    # whole package (the CLI imports every module) needs neither subpackage
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys, annulus_spectra.cli; print(sorted(m for m in sys.modules"
        " if m.startswith(('scipy.interpolate', 'scipy.integrate'))))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
