"""Span tracer that instruments hazard2ts from outside the package.

``Tracer.install`` wraps the public functions of each package module and
rebinds every module attribute that refers to them, so calls are recorded
wherever the caller looks the function up (``hazard2ts.cli.select_smoothing``,
``hazard2ts.smooth2d.fit_hazard``, ``hazard2ts.glam.weighted_inner``,
``hazard2ts.uncertainty.compute_surfaces``, ...).  ``scipy.linalg.cho_factor``
is wrapped as the shared factorization kernel and attributed to its nearest
enclosing ``pclm.*`` or ``smooth2d.*`` span.

A span is (name, start, end, parent id, error).  Spans stay in memory until
``write`` dumps them.  Self time is a span's duration minus that of its
direct children.  The tracer assumes one Python thread, which holds while
``HAZARD2TS_THREADS`` is unset.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict

import scipy.linalg

MODULES = ("lexis", "simulate", "pclm", "smooth2d", "glam", "incidence",
           "uncertainty", "basis", "cli")
# simulate: only what the pipeline calls; cli._read_points is private but is
# the predict input stage, so it is traced under a public name
ONLY = {"simulate": {"grouped_view", "at_risk_matrix"}}
RENAMED = {("cli", "_read_points"): "read_points"}
FACTOR_OWNERS = ("pclm.", "smooth2d.")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, error]
        self._stack = []
        self.counters = defaultdict(float)
        self._hooks = {
            "smooth2d.fit_hazard": self._count_iwls,
            "pclm.select_pclm_smoothing": self._count_pclm,
        }

    def _count_iwls(self, fit):
        self.counters["smooth2d.iwls_iters"] += fit.n_iter

    def _count_pclm(self, fit):
        self.counters["pclm.candidates"] += len(fit.candidates)
        self.counters["pclm.nonconverged"] += sum(
            1 for _, _, aic in fit.candidates if not math.isfinite(aic))

    def _wrap(self, name, fn):
        spans, stack, hook = self.spans, self._stack, self._hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, ""]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        return traced

    def install(self):
        """Wrap every traced function and rebind all package references to it."""
        wrapped = {}
        for short in MODULES:
            mod = importlib.import_module(f"hazard2ts.{short}")
            for attr, obj in list(vars(mod).items()):
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                label = RENAMED.get((short, attr), attr)
                if label.startswith("_") or attr not in ONLY.get(short, {attr}):
                    continue
                wrapped[obj] = self._wrap(f"{short}.{label}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname == "hazard2ts" or modname.startswith("hazard2ts."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(mod, attr, wrapped[obj])
        scipy.linalg.cho_factor = self._wrap("cho_factor", scipy.linalg.cho_factor)

    def summary(self) -> dict:
        """Flat per-layer numbers: NAME.calls, NAME.s, NAME.self_s, counters."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        errors = defaultdict(int)
        for i, (name, t0, t1, parent, error) in enumerate(self.spans):
            if name == "cho_factor":
                name = self._factor_owner(parent) + ".cho_factor"
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += t1 - t0
            out[f"{name}.self_s"] += t1 - t0 - child[i]
            errors[name] += bool(error)
        out.update(self.counters)
        calls = out.get("smooth2d.fit_hazard.calls", 0)
        out["smooth2d.nonconverged"] = errors["smooth2d.fit_hazard"]
        out["smooth2d.converged_ratio"] = (calls - errors["smooth2d.fit_hazard"]) / calls if calls else 0.0
        return dict(out)

    def _factor_owner(self, parent) -> str:
        while parent >= 0:
            name = self.spans[parent][0]
            if name.startswith(FACTOR_OWNERS):
                return name.split(".", 1)[0]
            parent = self.spans[parent][3]
        return "other"

    def write(self, path):
        """Dump all spans as {"fields": [...], "spans": [[...], ...]}; times in s."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "error"],
                       "spans": self.spans}, fh)
