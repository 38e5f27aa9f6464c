"""Outside-in spans around the package's public functions.

The tracer rebinds each listed function at every place the package binds
it (module attributes and, for curve methods, class attributes), so calls
between modules go through the wrapper too.  Spans are kept in memory as
[name, start, end, parent, op] and counts are taken at the same
boundaries.  Nothing under src/ is changed: uninstall() restores every
original binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

import numpy as np

FUNCTIONS = (
    "radial.solve_shell",
    "fem.solve_domain",
    "fem.solve_on_mesh",
    "fem.mesh_annular",
    "fem.assemble",
    "fem.assemble_forms",
    "fem.smallest_eigenpair",
    "geometry.ray_length",
    "geometry.distance",
    "webfunc.chain_certificate",
    "webfunc.build_web",
    "webfunc.find_split",
    "webfunc.rayleigh_quotient",
    "analysis.main_theorem_sweep",
    "analysis.shape_derivative_formula",
    "analysis.shape_derivative_fd",
    "analysis.shape_derivative_fd_with_noise",
)
# traced as the same-named method of every curve class, summed
CURVE_METHODS = ("ray_length", "distance")
LAYERS = ("radial", "fem", "geometry", "webfunc", "analysis")
COUNTS = (
    "fem.smallest_eigenpair.outer_iterations",
    "fem.smallest_eigenpair.cg_iterations",
    "fem.smallest_eigenpair.stats_missing",
    "fem.dofs",
    "geometry.distance.points",
    "radial.solve_shell.failed",
)


def _package_modules():
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "annulus_spectra"]


def _mesh_key(domain, n_r, n_a):
    return (
        domain.outer.spec_string(),
        domain.inner.spec_string(),
        tuple(float(c) for c in domain.center),
        int(n_r),
        int(n_a),
    )


class Tracer:
    """Span recorder; install() wraps, uninstall() restores.

    `recording` is switched on only around timed operations, so warm-up
    and correctness checks leave no spans.  Every completed
    fem.solve_on_mesh call is also appended to `solves` as
    (mesh, beta, lambda) for the eigenvalue cross-check.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.mesh_calls = 0
        self.mesh_keys = set()
        self.solves = []
        self.recording = False
        self.op = -1
        self._stack = []
        self._undo = []

    # -- installation -------------------------------------------------

    def install(self):
        layers = {name: importlib.import_module(f"annulus_spectra.{name}") for name in LAYERS}
        geometry = layers["geometry"]
        modules = _package_modules()
        for full in FUNCTIONS:
            layer, attr = full.split(".")
            if attr in CURVE_METHODS:
                for cls in vars(geometry).values():
                    if (
                        isinstance(cls, type)
                        and issubclass(cls, geometry.BoundaryCurve)
                        and attr in vars(cls)
                        and cls is not geometry.BoundaryCurve
                    ):
                        self._rebind(cls, attr, self._wrap(full, vars(cls)[attr]))
                continue
            original = getattr(layers[layer], attr, None)
            if original is None:
                continue  # removed from the package: reported as zero calls
            wrapped = self._wrap(full, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, name, wrapped)
        return self

    def _rebind(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers -----------------------------------------------------

    def _wrap(self, full, fn):
        tracer = self
        after = {
            "fem.smallest_eigenpair": self._after_eigenpair,
            "fem.solve_on_mesh": self._after_solve,
            "fem.mesh_annular": self._after_mesh,
            "geometry.distance": self._after_distance,
        }.get(full)
        sig = inspect.signature(fn) if after else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = [full, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if full == "radial.solve_shell":
                    tracer.counts["radial.solve_shell.failed"] += 1
                raise
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if after is not None:
                # arguments in signature order, whatever the parameter names
                after(list(sig.bind(*args, **kwargs).arguments.values()), result)
            return result

        return wrapper

    def _after_eigenpair(self, args, result):
        a = args[0]
        self.counts["fem.dofs"] += int(a.shape[0] if hasattr(a, "shape") else a.dim)
        stats = result[2] if isinstance(result, tuple) and len(result) > 2 else {}
        for key in ("outer_iterations", "cg_iterations"):
            if key in stats:
                self.counts[f"fem.smallest_eigenpair.{key}"] += int(stats[key])
            else:
                self.counts["fem.smallest_eigenpair.stats_missing"] += 1

    def _after_solve(self, args, result):
        self.solves.append((args[0], args[1], result.lam))

    def _after_mesh(self, args, result):
        self.mesh_calls += 1
        self.mesh_keys.add(_mesh_key(*args[:3]))

    def _after_distance(self, args, result):
        # args[0] is the curve instance
        self.counts["geometry.distance.points"] += len(np.atleast_2d(args[1]))

    # -- results ------------------------------------------------------

    def layer_metrics(self, op_seconds: float, batches: int) -> dict:
        """Per-batch calls, busy and self seconds, counts and accounting.

        self = busy minus the time covered by direct children; the self
        times of all spans plus bench.self_s add up to trace.wall_s.
        """
        busy = Counter()
        calls = Counter()
        child = Counter()
        top = 0.0
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            busy[name] += dur
            calls[name] += 1
            if parent < 0:
                top += dur
            else:
                child[parent] += dur
        own = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += (end - start) - child[idx]
        per = 1.0 / max(batches, 1)
        out = {}
        for full in FUNCTIONS:
            out[f"{full}.calls"] = (calls[full] * per, "count")
            out[f"{full}.busy_s"] = (busy[full] * per, "s")
            out[f"{full}.self_s"] = (own[full] * per, "s")
        for layer in LAYERS:
            total = sum(v for k, v in own.items() if k.startswith(layer + "."))
            out[f"layer.{layer}.self_s"] = (total * per, "s")
        for key in COUNTS:
            out[key] = (self.counts[key] * per, "count")
        ratio = len(self.mesh_keys) / self.mesh_calls if self.mesh_calls else 0.0
        out["fem.mesh_annular.distinct_ratio"] = (ratio, "ratio")
        out["trace.wall_s"] = (op_seconds * per, "s")
        out["bench.self_s"] = ((op_seconds - top) * per, "s")
        return out

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )
