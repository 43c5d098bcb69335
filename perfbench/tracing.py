"""Spans around dynpois's public functions, installed from outside the package.

``from .filtering import filter_core`` binds the name in the importing module
at import time, so patching ``dynpois.filtering`` alone would miss the calls
made from ``dynpois.mcmc`` and ``dynpois.evaluation``. ``rebind`` therefore
replaces every binding of the original object in every loaded dynpois module.

Spans (name, start, end, parent) are kept in memory. A span's self time is
its duration minus the durations of its child spans; the program is single
threaded, so children never overlap and the two never count the same time.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter

import numpy as np


def rebind(original, replacement) -> list:
    """Point every dynpois module binding of ``original`` at ``replacement``.

    Returns the (module, attribute) sites changed, so the change can be undone.
    """
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "dynpois" or name.startswith("dynpois.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                sites.append((module, attr))
    return sites


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Counters read from the arguments or results of the traced calls. A `before`
# hook may return replacement (args, kwargs); an `after` hook sees the result.


def _filter_months(tracer, args, kwargs):
    tracer.counts["filtering.filter_core.months"] += len(_arg(args, kwargs, 0, "counts"))


def _ffbs_months(tracer, args, kwargs):
    tracer.counts["filtering.ffbs_sample.months"] += _arg(args, kwargs, 0, "trajectory").T


def _count_target_evals(tracer, args, kwargs):
    log_target = _arg(args, kwargs, 0, "log_target")

    def counted(x):
        tracer.counts["mcmc.find_mode_and_hessian.target_evals"] += 1
        return log_target(x)

    if args:
        return (counted, *args[1:]), kwargs
    return args, {**kwargs, "log_target": counted}


def _rw_proposals(tracer, args, kwargs):
    tracer.counts["mcmc.rw_metropolis.proposals"] += _arg(args, kwargs, 3, "config").iterations


def _rw_accepted(tracer, args, kwargs, result):
    iterations = _arg(args, kwargs, 3, "config").iterations
    tracer.counts["mcmc.rw_metropolis.accepted"] += round(result.acceptance_rate * iterations)


def _dm5_moves(tracer, args, kwargs, result):
    series = _arg(args, kwargs, 0, "series")
    sweeps = _arg(args, kwargs, 3, "config").iterations
    moves = sweeps * (series.T + 1)  # one gamma move and T coefficient moves per sweep
    tracer.counts["mcmc.fit_dm5.sweeps"] += sweeps
    tracer.counts["mcmc.fit_dm5.moves"] += moves
    tracer.counts["mcmc.fit_dm5.accepted"] += round(result.acceptance_rate * moves)


def _cdf_components(tracer, args, kwargs):
    tracer.counts["evaluation.cdf_component_evals"] += len(args[0].components)


def _bytes_written(tracer, args, kwargs, result):
    tracer.counts["io.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


# (module, qualified name, before hook, after hook). Every public function a
# workload reaches, per layer; kernels has no span because its work is numpy
# Generator calls made inside filtering.ffbs_sample and mcmc.fit_dm5.
TARGETS = (
    ("cli", "run_command", None, None),
    ("cli", "emit_reports", None, None),
    ("io", "ingest_csv", None, None),
    ("io", "fit_csv_rows", None, None),
    ("io", "write_csv", None, _bytes_written),
    ("io", "write_json", None, _bytes_written),
    ("model", "build_design", None, None),
    ("model", "linear_predictor", None, None),
    ("filtering", "filter_core", _filter_months, None),
    ("filtering", "ffbs_sample", _ffbs_months, None),
    ("mcmc", "log_target_static", None, None),
    ("mcmc", "log_target_bpm", None, None),
    ("mcmc", "find_mode_and_hessian", _count_target_evals, None),
    ("mcmc", "rw_metropolis", _rw_proposals, _rw_accepted),
    ("mcmc", "fit_dm_static", None, None),
    ("mcmc", "fit_bpm", None, None),
    ("mcmc", "fit_dm5", None, _dm5_moves),
    ("mcmc", "posterior_summary", None, None),
    ("mcmc", "diagnostics", None, None),
    ("evaluation", "compare_models", None, None),
    ("evaluation", "sequential_harness", None, None),
    ("evaluation", "forecast_one_step", None, None),
    ("evaluation", "ForecastDistribution.cdf", _cdf_components, None),
    ("evaluation", "forecast_metrics", None, None),
    ("evaluation", "per_draw_log_predictives", None, None),
    ("evaluation", "harmonic_mean_logml", None, None),
    ("evaluation", "cpo_log_sum", None, None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._undo: list = []

    def wrap(self, name: str, fn, before=None, after=None):
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(self.start)
            self.span_name.append(name_id)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(index)
            self.start.append(clock())
            try:
                if before is not None:
                    replaced = before(self, args, kwargs)
                    if replaced is not None:
                        args, kwargs = replaced
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, args, kwargs, result)
                return result
            finally:
                self.end[index] = clock()
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS) -> dict:
        """Wrap every target; returns {span name: modules where it was rebound}."""
        rebound = {}
        for module_name, qualname, before, after in targets:
            module = sys.modules[f"dynpois.{module_name}"]
            span = f"{module_name}.{qualname}"
            if "." in qualname:  # a method: patch the class attribute
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self.wrap(span, original, before, after))
                sites = [(cls, method)]
            else:
                original = getattr(module, qualname)
                sites = rebind(original, self.wrap(span, original, before, after))
            self._undo.extend((owner, attr, original) for owner, attr in sites)
            rebound[span] = sorted({getattr(owner, "__module__", None) or owner.__name__ for owner, _ in sites})
        return rebound

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def arrays(self) -> dict:
        name = np.asarray(self.span_name, dtype=np.int64)
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        parent = np.asarray(self.parent, dtype=np.int64)
        duration = end - start
        child_time = np.zeros(len(duration))
        nested = parent >= 0
        np.add.at(child_time, parent[nested], duration[nested])
        return {"name": name, "start": start, "end": end, "parent": parent,
                "duration": duration, "self": duration - child_time}

    def summary(self) -> dict:
        """Per span name: calls, total_s and self_s; plus the counters and a self-time audit."""
        s = self.arrays()
        k = len(self.names)
        calls = np.bincount(s["name"], minlength=k)
        total = np.bincount(s["name"], weights=s["duration"], minlength=k)
        self_s = np.bincount(s["name"], weights=s["self"], minlength=k)
        roots = np.flatnonzero(s["parent"] < 0)
        return {
            "spans": {
                n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
                for i, n in enumerate(self.names)
            },
            "counts": dict(self.counts),
            "roots": [self.names[s["name"][r]] for r in roots],
            "root_s": float(s["duration"][roots].sum()),
            "self_sum_s": float(s["self"].sum()),
            "min_self_s": float(s["self"].min()) if len(s["self"]) else 0.0,
        }

    def write_spans(self, path) -> None:
        s = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names), name=s["name"],
                            start=s["start"], end=s["end"], parent=s["parent"])
