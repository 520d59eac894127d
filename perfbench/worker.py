"""Workload process: sets donorspin up, then serves one request at a time.

Run from the checkout root with ``PYTHONPATH=src``::

    python3 perfbench/worker.py --workload pulse_scan [--trace SPANS.csv]
    python3 perfbench/worker.py --workload pulse_scan --setup-only

It first prints one JSON line with its set-up time: the import of
``donorspin`` and ``donorspin.cli`` plus loading the workload's base
configs. ``--setup-only`` stops there. Otherwise it reads one JSON request
per stdin line and answers each with one JSON line on stdout, until stdin
closes; then it writes its spans (when traced) and a last line with its
peak memory. CLI output is captured, so stdout carries only the protocol.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import donorspin  # noqa: E402
import donorspin.cli  # noqa: E402
from donorspin.config import load_run_config  # noqa: E402

from workloads import BASE_CONFIGS  # noqa: E402


def _reply(document):
    sys.stdout.write(json.dumps(document) + "\n")
    sys.stdout.flush()


def _blas_threads():
    """Thread count OpenBLAS reports in this process, if it is found."""
    import ctypes
    import glob
    import os

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def _simfit(expect, data):
    """Library call of the simultaneous Rabi/fringe fit on client data."""
    import math

    import numpy as np

    d = donorspin
    levels = d.LevelScheme.from_material(
        d.load_material("zno-natural"), d.FieldConfig(expect["field"]),
        2 * math.pi * 3.57e12)
    template = d.PulseSpec(shape="gaussian", duration=1.9e-12, energy=1e-15,
                           calibration=expect["calibration"])
    result = d.fitting.simultaneous_fit_rabi_fringe(
        np.asarray(data["rabi_energies"]), np.asarray(data["rabi_p_up"]),
        np.asarray(data["fringe_energies"]),
        np.asarray(data["fringe_visibility"]), levels, template,
        d.DissipatorSet(), initial=data["initial"])
    fit = result.fit
    return {"parameters": fit.parameters, "iterations": fit.iterations,
            "converged": fit.converged, "message": fit.message}


def _serve(tracer):
    for line in sys.stdin:
        request = json.loads(line)
        if tracer is not None:
            tracer.request = request["id"]
        reply = {"id": request["id"], "rc": None, "run_dir": None,
                 "result": None, "error": None}
        captured = io.StringIO()
        try:
            if request["kind"] == "cli":
                with contextlib.redirect_stdout(captured):
                    reply["rc"] = donorspin.cli.main(request["argv"])
                lines = captured.getvalue().splitlines()
                reply["run_dir"] = lines[0] if lines else None
            else:
                reply["result"] = _simfit(request["expect"], request["data"])
                reply["rc"] = 0
        except Exception:  # a failed request is counted, not fatal
            reply["error"] = traceback.format_exc()
        _reply(reply)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(BASE_CONFIGS))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", help="write spans to this CSV file")
    args = parser.parse_args(argv)

    for path in BASE_CONFIGS[args.workload]:
        load_run_config(path)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        _reply({"setup_s": setup_s})
        return 0
    _reply({"setup_s": setup_s, "blas_threads": _blas_threads()})

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    _serve(tracer)
    if tracer is not None:
        tracer.write(args.trace)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    _reply({"peak_rss_mb": peak_kb / 1024.0})
    return 0


if __name__ == "__main__":
    sys.exit(main())
