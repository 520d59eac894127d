"""Seeded request decks for the three benchmark workloads.

A workload is an endless sequence of rounds. Every round holds the same
mix of request kinds in the same order, so any whole number of rounds has
the same composition and only the parameters inside the requests come
from the seed. This keeps throughput and the latency percentiles steady
across seeds while no two requests share a pulse or dissipator key.

A request is a plain dict:

``kind``
    ``"cli"`` for an in-process ``donorspin.cli.main(argv)`` call, or
    ``"simfit"`` for a library call to ``simultaneous_fit_rabi_fringe``.
``op``
    what the request runs (``rabi``, ``ramsey``, ``fit``, ...); it picks
    the output check.
``argv``
    CLI arguments. ``{out}`` stands for the output base directory and
    ``{prev}`` for the run directory of the previous request.
``expect``
    what the output check needs to know about the inputs.

Generating a deck needs neither donorspin nor any timing, so the same
seed always gives the same request list.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("pulse_scan", "ensemble_coherence", "relaxation_roundtrip")

# Base configs loaded during set-up; the requests override them with --set.
BASE_CONFIGS = {
    "pulse_scan": ("configs/rabi.yaml",),
    "ensemble_coherence": ("configs/ramsey.yaml", "configs/echo.yaml"),
    "relaxation_roundtrip": ("configs/t1.yaml", "configs/pump.yaml",
                             "configs/estimate.yaml"),
}

# Seconds of --seconds that one round stands for. A run sends a fixed
# number of rounds derived from them, so both versions of a comparison do
# the same work and the same number of requests; a faster program just
# finishes sooner. The figures are what a round takes on a 2-core x86
# machine (Xeon, Python 3.11, one BLAS thread), so a 24 s run sends 1, 7
# and 27 rounds and its timed phase takes about 24-28 s.
ROUND_SECONDS = {"pulse_scan": 27.5, "ensemble_coherence": 3.6,
                 "relaxation_roundtrip": 0.9}

# Two requests below the five 21-point scans and two above them (the
# 41-point scan and the fit) put the median latency of a round's nine
# requests in the middle of one class instead of between two; five
# scans in that class keep one slow moment from moving the median.
SCAN_COUNTS = (11, 11, 21, 21, 21, 21, 21, 41)
# Seeded Monte Carlo sample counts of a round's Ramsey runs, one draw
# from each band. The bands are narrow and far apart, so every request
# stays in its latency class; the last holds the 20,000-sample request
# that sets the peak memory. The third band keeps each per-sample array
# above glibc's largest mmap threshold (32 MiB, 9,198 samples): below it
# such an array can stay resident after the request and add to the next
# request's peak, by 36 MB in about half of the seeds.
RAMSEY_MC_BANDS = ((1000, 2000), (3000, 5000), (10000, 12000),
                   (20000, 20000))
ECHO_MC_SAMPLES = 2000
# The echo config injects a 50 us exponential channel.
ECHO_INJECTED_S = 50e-6
T1_EXPONENT = 3.5
# Seeded wait counts of the t1 runs. A t1 run's latency grows with its
# count by about 1.8x over this range, so the t1 class, where the median
# latency of relaxation_roundtrip falls, is spread out rather than one
# narrow peak; its median then moves in proportion when the machine's
# speed changes during a run, instead of jumping between a fast and a
# slow cluster.
T1_COUNTS = (10, 100)

# Simultaneous fit, set up as in the seed's round-trip test but at the
# library default expm_steps=256. The beta1 band keeps the fit at five
# LM iterations, so its latency does not jump between seeds.
SIMFIT_FIELD_T = 0.1
SIMFIT_CALIBRATION = 3.5e23
SIMFIT_BETA1 = (4.2e-3, 5.2e-3)


def _g(value: float) -> str:
    return f"{value:.6g}"


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def t1_time(field: float) -> float:
    """Relaxation time of the configs' "auto" rate: 0.1 s at 2.25 T."""
    return 0.1 * (2.25 / field) ** T1_EXPONENT


def _cli(op, config, rng, sets=(), extra=(), expect=None):
    argv = ["simulate" if op not in ("estimate", "sweep") else op,
            "--config", config, "--out", "{out}", "--seed", str(_seed(rng))]
    for item in sets:
        argv += ["--set", item]
    return {"kind": "cli", "op": op, "argv": argv + list(extra),
            "expect": expect or {}}


# -- pulse_scan --------------------------------------------------------


def _rabi_scan(rng, count):
    shape = str(rng.choice(["gaussian", "sech2", "rectangular"]))
    duration = _g(rng.uniform(1.6, 2.4))
    field = _g(rng.uniform(4.0, 6.0))
    max_energy = _g(rng.uniform(0.3, 0.55))
    points = sorted(int(i) for i in rng.choice(np.arange(1, count), 2,
                                               replace=False))
    sets = (f"pulse.shape={shape}", f"pulse.duration={duration} ps",
            f"field.magnitude={field} T",
            f"experiment.max_energy={max_energy} nJ",
            f"experiment.count={count}")
    return _cli("rabi", "configs/rabi.yaml", rng, sets,
                expect={"count": count, "check_points": points})


def _simfit(rng):
    calibration = SIMFIT_CALIBRATION * float(_g(rng.uniform(0.98, 1.02)))
    beta1 = float(_g(rng.uniform(*SIMFIT_BETA1)))
    return {"kind": "simfit", "op": "simfit", "argv": [],
            "expect": {"field": SIMFIT_FIELD_T, "calibration": calibration,
                       "beta1": beta1}}


def _pulse_scan_round(rng):
    return [_rabi_scan(rng, count) for count in SCAN_COUNTS] + [_simfit(rng)]


# -- ensemble_coherence ------------------------------------------------


def _bath_sets(rng):
    return (f"field.magnitude={_g(rng.uniform(4.0, 6.0))} T",
            f"bath.t2_star={_g(rng.uniform(12.0, 25.0))} ns")


def _ensemble_round(rng):
    """Seven requests in seven latency classes. Cheapest first: exact
    Ramsey; Ramsey mc at 1-2k and 3-5k samples; the exact echo; the mc
    echo; Ramsey mc at 10-12k and at 20k samples. Three requests lie below
    the exact echo and three above, so with seven rounds (49 requests)
    the median, the 25th, falls in the middle of the exact-echo class and
    the tail rank, the 39th, in the middle of the 10-12k class."""
    def ramsey_mc(band):
        samples = int(rng.integers(band[0], band[1] + 1))
        return _cli("ramsey", "configs/ramsey.yaml", rng,
                    _bath_sets(rng) + ("bath.ensemble=mc",
                                       f"bath.samples={samples}"))

    def echo(*sets):
        return _cli("echo", "configs/echo.yaml", rng, _bath_sets(rng) + sets,
                    expect={"time_constant": ECHO_INJECTED_S})

    out = [_cli("ramsey", "configs/ramsey.yaml", rng,
                _bath_sets(rng) + ("bath.ensemble=exact",))]
    out += [ramsey_mc(band) for band in RAMSEY_MC_BANDS]
    out.append(echo("bath.ensemble=exact"))
    out.append(echo("bath.ensemble=mc", f"bath.samples={ECHO_MC_SAMPLES}"))
    return out


# -- relaxation_roundtrip ----------------------------------------------


def _relaxation_round(rng):
    out = []
    for k in range(4):
        field = float(_g(rng.uniform(1.8, 2.8)))
        t1 = t1_time(field)
        count = int(rng.integers(T1_COUNTS[0], T1_COUNTS[1] + 1))
        out.append(_cli("t1", "configs/t1.yaml", rng,
                        (f"field.magnitude={_g(field)} T",
                         f"experiment.max_wait={_g(5.0 * t1)} s",
                         f"experiment.count={count}"),
                        expect={"t1": t1}))
        out.append({"kind": "cli", "op": "fit",
                    "argv": ["fit", "--data", "{prev}/t1_trace.csv",
                             "--compare", "exp,gaussian,cubed_exp",
                             "--out", "{out}"],
                    "expect": {"t1": t1}})
        # one pump a round: of 14 requests, 5 (four fits and the pump)
        # are faster than a t1 run and 5 slower, so the median latency
        # sits in the middle of the t1 runs, not where pump and t1 overlap
        if k == 0:
            rabi = _g(rng.uniform(15.0, 30.0))
            out.append(_cli("pump", "configs/pump.yaml", rng,
                            (f"experiment.rabi_frequency={rabi} MHz",)))
        theta2 = float(_g(rng.uniform(math.pi / 5, math.pi / 2)))
        out.append(_cli("estimate", "configs/estimate.yaml", rng,
                        (f"fit.theta2={_g(theta2)} rad",),
                        expect={"theta2": theta2}))
    base = rng.uniform(1.8, 2.2)
    values = ",".join(f"{_g(base * s)} T" for s in (1.0, 1.15, 1.3, 1.45))
    out.append(_cli("sweep", "configs/t1.yaml", rng,
                    extra=("--axis", "field.magnitude", "--values", values,
                           "--jobs", "2"),
                    expect={"exponent": T1_EXPONENT}))
    return out


_ROUNDS = {"pulse_scan": _pulse_scan_round,
           "ensemble_coherence": _ensemble_round,
           "relaxation_roundtrip": _relaxation_round}


def round_count(workload: str, seconds: float) -> int:
    """Whole rounds that take about ``seconds``; at least one."""
    return max(1, int(seconds / ROUND_SECONDS[workload] + 0.5))


def rounds(workload: str, seed: int):
    """Yield the workload's rounds for ``seed``, without end."""
    make = _ROUNDS[workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    # The order inside a round is fixed: a long-lived process keeps some
    # memory of earlier requests, which adds to a later request's peak, and
    # a fixed order makes that the same for every seed.
    while True:
        yield make(rng)
