"""Outside-in tracer: spans around calls into teichkit, installed at run time.

Nothing in teichkit knows about it.  `install` replaces each public function
(the `__all__` functions of every module, plus the extras below) with a
wrapper that records a span, and re-binds the copies that `from .x import y`
made in other teichkit modules.  A few methods and the closure returned by
`solver.invert` are wrapped the same way.  Spans stay in memory; `metrics`
turns them into the per-layer numbers after the run.

A span's self time is its duration minus the durations of its direct child
spans.  The process is single-threaded, so spans nest and no layer waits on
another; the tracer reports no wait time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

from metrics import PER_LAYER

LAYERS = ("solver", "domains", "bers", "boundary", "verification", "cli")

# Public functions that are not in their module's __all__.
EXTRAS = {"boundary": ("roundtrip_phi_distance",)}

# (module, class, method, span name); aliases such as `__call__ = eval`
# are wrapped with the method.
METHODS = (
    ("domains", "HolomorphicFunction", "eval", "domains.series_eval"),
    ("domains", "BeltramiCoefficient", "eval", "domains.coef_eval"),
    ("solver", "QuasiconformalMap", "__call__", "solver.qcmap_eval"),
    ("boundary", "BoundaryFunction", "eval", "boundary.eval"),
    ("cli", "ExperimentResult", "to_json", "cli.to_json"),
)

NORMS = ("domains.mp_norm", "domains.ap_norm", "domains.ainf_norm",
         "domains.analytic_besov_norm")
SOLVES = ("solver.solve_plane", "solver.solve_halfplane")


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, attrs dict or None, exc]
        self.spans = []
        self._stack = []
        self.wrapped = set()

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, hook=None):
        """Return fn recording a span per call; hook(args, kwargs, out)
        returns the span's attributes."""
        spans, stack = self.spans, self._stack
        self.wrapped.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = exc
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                span[4] = hook(args, kwargs, out)
            return out

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        mods = {layer: importlib.import_module(f"teichkit.{layer}")
                for layer in LAYERS}
        self._solver_error = mods["solver"].SolverError
        for layer, mod in mods.items():
            names = list(getattr(mod, "__all__", ())) + \
                list(EXTRAS.get(layer, ()))
            for attr in names:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                self._rebind(fn, self._wrapper(f"{layer}.{attr}", fn))
        for layer, cls_name, attr, span in METHODS:
            cls = getattr(mods[layer], cls_name)
            orig = cls.__dict__[attr]
            new = self.wrap(span, orig, _HOOKS.get(span))
            for alias, val in list(cls.__dict__.items()):
                if val is orig:
                    setattr(cls, alias, new)
        crit = mods["verification"].ALL_CRITERIA
        for i, fn in enumerate(crit):
            num = fn.__name__.split("_")[1]
            crit[i] = self.wrap(f"verification.check_{num}", fn, _check_hook)
            self._rebind(fn, crit[i])

    def _wrapper(self, name, fn):
        if name == "solver.invert":
            return self._invert_factory(fn)
        if name == "boundary.ba_extend":
            return self.wrap(name, fn, self._extension_hook)
        return self.wrap(name, fn, _hook_for(name, fn))

    def _extension_hook(self, args, kwargs, out):
        """Wrap the extension's dilatation callable: the heat-kernel F and
        its finite differences would otherwise count as domains.coef_eval."""
        out._func = self.wrap("boundary.extension_mu", out._func, _z_hook)
        return None

    def _invert_factory(self, factory):
        @functools.wraps(factory)
        def invert(*args, **kwargs):
            return self.wrap("solver.invert", factory(*args, **kwargs),
                             _z_hook)

        self.wrapped.add("solver.invert")
        return invert

    def _rebind(self, orig, new):
        for name, mod in list(sys.modules.items()):
            if name == "teichkit" or name.startswith("teichkit."):
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, new)

    # -- aggregation -------------------------------------------------------

    def metrics(self):
        """Per-layer metrics from the recorded spans (metrics.PER_LAYER)."""
        n = len(self.spans)
        child = [0.0] * n
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, self_s, total_s, attr = {}, {}, {}, {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        solver_errors = set()
        stalls = 0
        seen, repeats, solves = set(), 0, 0
        iters = ffts = fft_bytes = 0
        for i, (name, t0, t1, parent, attrs, exc) in enumerate(self.spans):
            dur = t1 - t0
            own = dur - child[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + dur
            layer_self[name.split(".")[0]] += own
            for key, val in (attrs or {}).items():
                if key != "key":  # a solve's request identity, not a count
                    attr[f"{name}.{key}"] = attr.get(f"{name}.{key}", 0) + val
            if exc is not None and name.startswith("solver.") and \
                    isinstance(exc, self._solver_error):
                solver_errors.add(id(exc))
                stalls += name == "solver.invert"
            solves += name in SOLVES
            if name in SOLVES and attrs is not None:  # None: the solve raised
                if attrs["key"] in seen:
                    repeats += 1
                else:
                    seen.add(attrs["key"])
                    iters += attrs["iters"]
                    ffts += 2 * attrs["iters"] + 2
                    fft_bytes += (2 * attrs["iters"] + 2) * attrs["fft_bytes"]
            if name in ("solver.beurling_transform",
                        "solver.cauchy_transform") and attrs:
                ffts += 2
                fft_bytes += 2 * attrs["fft_bytes"]

        def get(table, key):
            return table.get(key, 0)

        out = {
            "solver.solve.calls": solves,
            "solver.neumann_iters": iters,
            "solver.padded_fft_computed": ffts,
            "solver.padded_fft_bytes_computed": fft_bytes,
            "solver.solve.repeat_share": repeats / solves if solves else 0.0,
            "solver.invert.stalls": stalls,
            "solver.errors": len(solver_errors),
            "domains.ladder_levels": sum(get(attr, f"{norm}.levels")
                                         for norm in NORMS),
            "domains.ladder_divergent": sum(get(attr, f"{norm}.divergent")
                                            for norm in NORMS),
            "verification.failed": sum(
                val for key, val in attr.items()
                if key.startswith("verification.check_")
                and key.endswith(".failed")),
            "trace.spans": n,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        for metric, _, _, _ in PER_LAYER:
            if metric in out:
                continue
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = get(calls, base)
            elif kind == "self_s":
                out[metric] = get(self_s, base)
            elif kind == "s":
                out[metric] = get(total_s, base)
            else:
                out[metric] = get(attr, ATTR_ALIASES.get(metric, metric))
        return out


# ---------------------------------------------------------------------------
# Span attributes


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _series_hook(args, kwargs, out):
    self, z = args[0], _arg(args, kwargs, 1, "z")
    der = _arg(args, kwargs, 2, "der", 0)
    points = int(np.size(z))
    passes = der if (self.premap is not None and der > 0) else 1
    terms = int(np.count_nonzero(self.coeffs))
    return {"points": points, "terms_computed": points * terms * passes}


def _z_hook(args, kwargs, out):
    """Points passed to a closure f(z)."""
    return {"points": int(np.size(args[0]))}


def _points_hook(args, kwargs, out):
    """Points passed to a method self.f(z)."""
    return {"points": int(np.size(_arg(args, kwargs, 1, "z")))}


def _boundary_eval_hook(args, kwargs, out):
    self, t = args[0], np.asarray(_arg(args, kwargs, 1, "t"))
    ext = 0
    if self.domain != "circle":
        ext = int(np.count_nonzero((t < self.params[0]) |
                                   (t > self.params[-1])))
    return {"points": int(t.size), "extension_points": ext}


def _to_json_hook(args, kwargs, out):
    return {"bytes": len(out)}


def _check_hook(args, kwargs, out):
    return {"failed": int(not out.passed)}


def _norm_hook(args, kwargs, out):
    return {"levels": len(out.refinements), "divergent": int(out.divergent)}


def _cli_run_hook(args, kwargs, out):
    return {"errors": int("error" in out.reports)}


def _besov_pairs_hook(bind):
    def hook(args, kwargs, out):
        b = bind(*args, **kwargs)
        b.apply_defaults()
        u, levels, base_n = b.arguments["u"], b.arguments["levels"], \
            b.arguments["base_n"]
        if u.domain == "circle":
            sizes = [base_n * 2 ** lev for lev in range(levels)]
        else:
            sizes = [base_n * 4 ** lev + 1 for lev in range(levels)]
        return {"pairs": sum(s * s for s in sizes)}
    return hook


def _solve_hook(bind):
    def hook(args, kwargs, out):
        b = bind(*args, **kwargs)
        b.apply_defaults()
        a = dict(b.arguments)
        mu = a.pop("mu")
        token = mu.cache_token if mu.cache_token is not None else object()
        n = a["grid_n"]
        return {"key": (token, tuple(a.items())),
                "iters": len(out.iteration_trace),
                "fft_bytes": 16 * (2 * n) ** 2}
    return hook


def _transform_hook(bind):
    def hook(args, kwargs, out):
        b = bind(*args, **kwargs)
        b.apply_defaults()
        m = b.arguments["pad"] * b.arguments["grid"].n
        return {"fft_bytes": 16 * m * m}
    return hook


_HOOKS = {
    "domains.series_eval": _series_hook,
    "domains.coef_eval": _points_hook,
    "solver.qcmap_eval": _points_hook,
    "boundary.eval": _boundary_eval_hook,
    "cli.to_json": _to_json_hook,
    "cli.run": _cli_run_hook,
}


def _hook_for(name, fn):
    bind = inspect.signature(fn).bind
    if name in NORMS:
        return _norm_hook
    if name in SOLVES:
        return _solve_hook(bind)
    if name in ("solver.beurling_transform", "solver.cauchy_transform"):
        return _transform_hook(bind)
    if name == "boundary.besov_seminorm":
        return _besov_pairs_hook(bind)
    return _HOOKS.get(name)


# per-layer metric -> summed span attribute, where the names differ
ATTR_ALIASES = {
    "boundary.besov_pairs_computed": "boundary.besov_seminorm.pairs",
    "cli.report_bytes": "cli.to_json.bytes",
    "cli.errors": "cli.run.errors",
}
