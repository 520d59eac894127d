"""Spans around donorspin's public functions, kept in memory.

The tracer wraps each traced function at every module that holds a
reference to it, because several modules import functions by name (for
example ``donorspin.sequences.pulse_window_propagator`` and
``donorspin.cli.run_echo_decay``). Methods are wrapped on their class.
No file of the package changes.

A span is ``[name, start, end, parent, request, work, key]``: the parent
is the index of the enclosing span (-1 at the top), ``request`` the id of
the benchmark request that caused it, ``work`` one count of the work done
(expm steps, samples, bytes, iterations or sites) and ``key`` a label
used for ratios (the propagator's input key, or ``free`` for a fringe fit
without a known frequency).
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import math
import os
import sys
from dataclasses import replace
from time import perf_counter

# module -> functions (``Class.method`` for methods)
TRACED = {
    "cli": ("main", "write_trace_file"),
    "config": ("load_run_config", "parse_run_config"),
    "hamiltonian": ("energy_for_rotation_angle",),
    "lindblad": ("pulse_window_propagator",
                 "SilencePropagator.population_matrix"),
    "sequences": ("optical_pump", "run_rabi_sweep", "rabi_populations",
                  "fringe_visibilities", "run_ramsey", "run_echo",
                  "run_echo_decay", "run_t1_recovery"),
    "bath": ("BathModel.characteristic_function",
             "BathModel.sample_detunings", "t2_star_theory"),
    "fitting": ("fit_fringe", "fit_curve", "compare_models", "ingest_trace",
                "simultaneous_fit_rabi_fringe"),
    "estimators": ("dipolar_lattice_sum", "decoherence_budget"),
}

SPAN_FIELDS = ("name", "start", "end", "parent", "request", "work", "key")


def traced_names():
    return [f"{module}.{name}" for module, names in TRACED.items()
            for name in names]


# -- probes: the work count and key of one call ------------------------


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _propagator_probe(fn, args, kwargs, result):
    from donorspin.lindblad import IntegratorConfig

    a = _bound(fn, args, kwargs)
    config = a["config"] or IntegratorConfig(method="fixed-expm")
    steps = 0
    if config.method == "fixed-expm":
        t0, t1 = a["pulse"].window()
        steps = a["expm_steps"]
        if math.isfinite(config.max_step):
            steps = max(steps, int(math.ceil((t1 - t0) / config.max_step)))
    key = repr((a["levels"], replace(a["pulse"], arrival_time=0.0),
                a["dissipators"], config, a["spin_detuning"], steps))
    return steps, key


def _samples_probe(fn, args, kwargs, result):
    return _bound(fn, args, kwargs)["n"], ""


def _fringe_probe(fn, args, kwargs, result):
    free = _bound(fn, args, kwargs)["known_frequency"] is None
    return 0, "free" if free else ""


def _file_probe(fn, args, kwargs, result):
    return os.path.getsize(_bound(fn, args, kwargs)["path"]), ""


# traced function -> (name of its work count, probe)
PROBES = {
    "lindblad.pulse_window_propagator": ("steps", _propagator_probe),
    "bath.BathModel.sample_detunings": ("samples", _samples_probe),
    "fitting.fit_fringe": (None, _fringe_probe),
    "fitting.fit_curve": ("iterations", lambda f, a, k, r: (r.iterations, "")),
    "fitting.simultaneous_fit_rabi_fringe":
        ("iterations", lambda f, a, k, r: (r.fit.iterations, "")),
    "fitting.ingest_trace": ("bytes", _file_probe),
    "cli.write_trace_file": ("bytes", _file_probe),
    "estimators.dipolar_lattice_sum":
        ("sites", lambda f, a, k, r: (r.site_count, "")),
}


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans: list = []
        self.request = -1
        self._stack: list = []

    def wrap(self, name, fn):
        probe = PROBES.get(name, (None, None))[1]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.request, 0, ""]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if probe is not None:
                span[5], span[6] = probe(fn, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function wherever the package refers to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "donorspin" or n.startswith("donorspin.")]
        for module_name, names in TRACED.items():
            home = importlib.import_module(f"donorspin.{module_name}")
            for name in names:
                full = f"{module_name}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, attr, self.wrap(full, getattr(cls, attr)))
                    continue
                original = getattr(home, name)
                wrapped = self.wrap(full, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def write(self, path):
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(SPAN_FIELDS)
            for span in self.spans:
                writer.writerow([span[0], repr(span[1]), repr(span[2])]
                                + span[3:])


def read_spans(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    return [[r[0], float(r[1]), float(r[2]), int(r[3]), int(r[4]),
             int(r[5]), r[6]] for r in rows]


# -- aggregation -------------------------------------------------------


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, cursor = 0.0, -math.inf
    for start, end in sorted(intervals):
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans):
    """Each span's duration minus the time its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [(s[2] - s[1]) - _covered(kids)
            for s, kids in zip(spans, children)]


def _has_ancestor(spans, index, name):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans):
    """Per-function totals over all spans: calls, busy and self time,
    and the work counts and ratios named in the benchmark's doc."""
    selfs = self_times(spans)
    out = {}
    for name in traced_names():
        mine = [i for i, s in enumerate(spans) if s[0] == name]
        out[f"{name}.calls"] = len(mine)
        out[f"{name}.busy_s"] = sum(spans[i][2] - spans[i][1] for i in mine)
        out[f"{name}.self_s"] = sum(selfs[i] for i in mine)
        quantity = PROBES.get(name, (None,))[0]
        if quantity:
            out[f"{name}.{quantity}"] = sum(spans[i][5] for i in mine)
        if name == "lindblad.pulse_window_propagator":
            keys = {spans[i][6] for i in mine}
            out[f"{name}.unique_frac"] = len(keys) / len(mine) if mine else 0.0
        if name == "fitting.fit_fringe":
            free = [i for i in mine if spans[i][6] == "free"]
            out[f"{name}.free.calls"] = len(free)
            out[f"{name}.free.busy_s"] = sum(spans[i][2] - spans[i][1]
                                             for i in free)
    out["fitting.simultaneous_fit_rabi_fringe.forward_evals"] = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "sequences.rabi_populations"
        and _has_ancestor(spans, i, "fitting.simultaneous_fit_rabi_fringe"))
    return out
