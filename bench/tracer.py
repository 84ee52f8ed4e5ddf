"""Outside-in span tracer for rhflow.

The tracer replaces each traced function at the place where its callers
look it up (a module global or a class attribute) with a wrapper that
records a span: name, start, end, parent span and op id.  Nothing under
`src/` changes.  A function imported into several modules is wrapped at
each lookup site; every wrapper calls the original function, so a call is
recorded once whichever site it came through.

Self time of a span is its duration minus the durations of its direct
children.  Spans nest on one thread, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import dataclass

# (module the callers look the name up in, attribute path, span name).
# integrate_ray is split by calling module: the RH checks go through the
# rh_solver global, the scalar solver through the scalar_bvp one.
SITES = (
    ("rhflow.cli_driver", "load_config", "cli_driver.load_config"),
    ("rhflow.cli_driver", "solve", "rh_solver.solve"),
    ("rhflow.cli_driver", "smoothness_probe", "rh_solver.smoothness_probe"),
    ("rhflow.cli_driver", "solve_scalar_bvp", "scalar_bvp.solve_scalar_bvp"),
    ("rhflow.cli_driver", "verify_uniqueness", "scalar_bvp.verify_uniqueness"),
    ("rhflow.rh_solver", "solve", "rh_solver.solve"),
    ("rhflow.rh_solver", "stokes_log_coeffs", "stokes_series.stokes_log_coeffs"),
    ("rhflow.rh_solver", "init_state", "rh_solver.init_state"),
    ("rhflow.rh_solver", "iterate_once", "rh_solver.iterate_once"),
    ("rhflow.rh_solver", "check_jump", "rh_solver.check_jump"),
    ("rhflow.rh_solver", "check_reality", "rh_solver.check_reality"),
    ("rhflow.rh_solver", "asymptotic_theta", "rh_solver.asymptotic_theta"),
    ("rhflow.rh_solver", "evaluate_theta", "rh_solver.evaluate_theta"),
    ("rhflow.rh_solver", "integrate_ray", "contour_quadrature.integrate_ray.rh"),
    ("rhflow.scalar_bvp", "integrate_ray", "contour_quadrature.integrate_ray.scalar"),
    ("rhflow.scalar_bvp", "solve_scalar_bvp", "scalar_bvp.solve_scalar_bvp"),
    ("rhflow.scalar_bvp", "solve_continuous", "scalar_bvp.solve_continuous"),
    ("rhflow.scalar_bvp", "ScalarSolution.boundary_residual",
     "scalar_bvp.boundary_residual"),
)
ROOT = "cli_driver.main"   # recorded by the benchmark around each command
VERIFY = ("rh_solver.check_jump", "rh_solver.check_reality",
          "rh_solver.asymptotic_theta")


class TracerError(RuntimeError):
    """A traced name could not be resolved; a renamed function must not
    read as a layer that costs nothing."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the parent span, -1 for a root
    op: int
    info: object = None   # per-name detail kept for the metrics


def _resolve(module: str, path: str):
    try:
        owner = importlib.import_module(module)
    except ImportError as exc:
        raise TracerError(f"cannot import {module}: {exc}") from exc
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TracerError(f"{module}.{path}: {part} not found")
    fn = getattr(owner, attr, None)
    if not callable(fn):
        raise TracerError(f"{module}.{path} is not a callable")
    return owner, attr, fn


class Tracer:
    """Records spans for the ops run between `install` and `uninstall`."""

    def __init__(self, sites=SITES):
        self.spans: list[Span] = []
        self.site_calls: dict[tuple[str, str], int] = {}
        self.op = -1
        self._last = -1      # index of the span that ended last
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._sites = [(_resolve(m, p), (m, p), name) for m, p, name in sites]
        self._ordered_side_charges = importlib.import_module(
            "rhflow.stokes_series").ordered_side_charges

    def install(self, op: int) -> None:
        self.op = op
        for (owner, attr, fn), site, name in self._sites:
            self.site_calls.setdefault(site, 0)
            setattr(owner, attr, self._wrap(fn, name, site))
            self._installed.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def _wrap(self, fn, name: str, site: tuple[str, str]):
        detail = _DETAIL.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.site_calls[site] += 1
            result = self.call(name, fn, *args, **kwargs)
            if detail is not None:
                self.spans[self._last].info = detail(args, kwargs, result)
            return result
        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._last = idx

    # -------------------------------------------------------------- metrics

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                child[sp.parent] += sp.end - sp.start
        return [sp.end - sp.start - c for sp, c in zip(self.spans, child)]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for sp in self.spans:
            out[sp.name] = out.get(sp.name, 0) + 1
        return out

    def layer_metrics(self, slowdowns: list[float]) -> dict[str, float]:
        """Per-layer metrics; calls and times are per traced op, and each
        op's times are divided by the host slowdown measured around it."""
        per_op = 1.0 / max(len(slowdowns), 1)
        calls = self.counts()
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        for sp, st in zip(self.spans, self.self_times()):
            scale = 1.0 / slowdowns[sp.op]
            self_s[sp.name] = self_s.get(sp.name, 0.0) + st * scale
            total_s[sp.name] = total_s.get(sp.name, 0.0) + (sp.end - sp.start) * scale

        def c(name):
            return calls.get(name, 0) * per_op

        def s(name):
            return self_s.get(name, 0.0) * per_op

        def t(name):
            return total_s.get(name, 0.0) * per_op

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        series = [sp.info for sp in self.spans
                  if sp.name == "stokes_series.stokes_log_coeffs"]
        keys = {self._series_key(args) for args, _ in series}
        m["stokes_series.stokes_log_coeffs.calls"] = c("stokes_series.stokes_log_coeffs")
        m["stokes_series.stokes_log_coeffs.self_s"] = s("stokes_series.stokes_log_coeffs")
        m["stokes_series.stokes_log_coeffs.terms"] = ratio(
            sum(n for _, n in series), len(series))
        m["stokes_series.distinct_frac"] = ratio(len(keys), len(series))

        init_M = [sp.info for sp in self.spans if sp.name == "rh_solver.init_state"]
        m["rh_solver.init_state.calls"] = c("rh_solver.init_state")
        m["rh_solver.init_state.self_s"] = s("rh_solver.init_state")
        m["rh_solver.operator_bytes"] = ratio(sum(3 * M * M * 8 for M in init_M),
                                              len(init_M))

        solves = [i for i, sp in enumerate(self.spans) if sp.name == "rh_solver.solve"]
        iters = {i: 0 for i in solves}
        verify = solving = 0.0
        for i in solves:
            solving += self.spans[i].end - self.spans[i].start
        for sp in self.spans:
            if sp.parent in iters:
                if sp.name == "rh_solver.iterate_once":
                    iters[sp.parent] += 1
                elif sp.name in VERIFY:
                    verify += sp.end - sp.start
        per_solve = sorted(iters.values())
        m["rh_solver.iterate_once.calls"] = c("rh_solver.iterate_once")
        m["rh_solver.iterate_once.self_s"] = s("rh_solver.iterate_once")
        m["rh_solver.iterations_per_solve.median"] = (
            float(statistics.median(per_solve)) if per_solve else 0.0)
        m["rh_solver.iterations_per_solve.max"] = float(max(per_solve, default=0))
        m["rh_solver.contraction_ratio_max"] = max(
            (self.spans[i].info for i in solves if self.spans[i].info is not None),
            default=0.0)

        m["rh_solver.check_jump.total_s"] = t("rh_solver.check_jump")
        m["rh_solver.check_reality.total_s"] = t("rh_solver.check_reality")
        m["rh_solver.asymptotic_theta.total_s"] = t("rh_solver.asymptotic_theta")
        m["rh_solver.evaluate_theta.calls"] = c("rh_solver.evaluate_theta")
        m["rh_solver.evaluate_theta.self_s"] = s("rh_solver.evaluate_theta")
        m["rh_solver.evaluate_theta.calls_per_solve"] = ratio(
            calls.get("rh_solver.evaluate_theta", 0), len(solves))
        m["rh_solver.verify_frac"] = ratio(verify, solving)

        m["rh_solver.solve.calls"] = c("rh_solver.solve")
        m["rh_solver.smoothness_probe.total_s"] = t("rh_solver.smoothness_probe")

        for use in ("rh", "scalar"):
            name = f"contour_quadrature.integrate_ray.{use}"
            m[f"{name}.calls"] = c(name)
            m[f"{name}.self_s"] = s(name)

        m["scalar_bvp.solve_scalar_bvp.calls"] = c("scalar_bvp.solve_scalar_bvp")
        m["scalar_bvp.solve_scalar_bvp.total_s"] = t("scalar_bvp.solve_scalar_bvp")
        m["scalar_bvp.solve_continuous.self_s"] = s("scalar_bvp.solve_continuous")
        m["scalar_bvp.boundary_residual.total_s"] = t("scalar_bvp.boundary_residual")
        m["scalar_bvp.verify_uniqueness.total_s"] = t("scalar_bvp.verify_uniqueness")

        m["cli_driver.load_config.total_s"] = t("cli_driver.load_config")
        m["cli_driver.self_s"] = s(ROOT)
        return m

    def _series_key(self, args):
        spectrum, Z, a, side, k, N, r = args
        return (tuple(self._ordered_side_charges(spectrum, Z, a, side, r)), N, k)


def _series_detail(args, kwargs, result):
    # keep the arguments; the distinctness key is computed after the run so
    # that computing it adds nothing to any span
    names = ("spectrum", "Z", "a", "side", "k", "N", "r")
    full = tuple(list(args) + [kwargs[n] for n in names[len(args):]])
    return full, len(result)


def _solve_detail(args, kwargs, result):
    _, report = result
    return max(report["ratios"], default=0.0)


def _init_detail(args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    return cfg.M


_DETAIL = {
    "stokes_series.stokes_log_coeffs": _series_detail,
    "rh_solver.solve": _solve_detail,
    "rh_solver.init_state": _init_detail,
}
