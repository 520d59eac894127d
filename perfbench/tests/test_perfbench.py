"""Tests of the benchmark itself: statistics, spans, decks and tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The tracing tests run one round of each workload twice, about a minute.
"""

from __future__ import annotations

import itertools
import time

import pytest

import run
from tracing import layer_metrics, read_spans, self_times
from workloads import WORKLOADS, rounds


class TestTailPercentile:
    def test_under_twenty_samples_reports_the_median(self):
        assert run.tail_percentile([3.0, 1.0, 2.0]) == (50, 2.0)
        assert run.tail_percentile([4.0, 1.0, 3.0, 2.0]) == (50, 2.5)
        assert run.tail_percentile(list(range(19))) == (50, 9)

    def test_twenty_samples_is_the_median_with_ten_beyond(self):
        values = list(range(20))
        p, value = run.tail_percentile(values)
        assert p == 50
        assert sum(v > value for v in values) == 10

    @pytest.mark.parametrize("n", [20, 21, 37, 100, 425, 1000])
    def test_highest_percentile_with_ten_beyond(self, n):
        values = [float(v) for v in range(n)]
        p, value = run.tail_percentile(values)
        assert sum(v > value for v in values) >= 10
        # one percentile higher would leave fewer than ten beyond
        rank = -(-(p + 1) * n // 100)
        assert n - rank < 10


def span(name, start, end, parent=-1, request=0):
    return [name, start, end, parent, request, 0, ""]


class TestSelfTime:
    def test_nested_spans(self):
        spans = [span("a", 0.0, 10.0), span("b", 1.0, 4.0, 0),
                 span("d", 2.0, 3.0, 1), span("c", 5.0, 7.0, 0)]
        assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])

    def test_overlapping_children_count_once(self):
        spans = [span("a", 0.0, 10.0), span("b", 1.0, 6.0, 0),
                 span("c", 4.0, 8.0, 0)]
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_layer_totals(self):
        spans = [span("cli.main", 0.0, 10.0),
                 span("config.load_run_config", 1.0, 3.0, 0),
                 span("config.load_run_config", 4.0, 5.0, 0)]
        m = layer_metrics(spans)
        assert m["cli.main.calls"] == 1
        assert m["cli.main.self_s"] == pytest.approx(7.0)
        assert m["config.load_run_config.calls"] == 2
        assert m["config.load_run_config.busy_s"] == pytest.approx(3.0)
        assert m["lindblad.pulse_window_propagator.calls"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_requests(workload):
    def deck(seed):
        return list(itertools.islice(rounds(workload, seed), 3))

    assert deck(7) == deck(7)
    assert deck(7) != deck(8)


# where each layer must show up, by the workload design in README.md
EXPECTED = {
    "pulse_scan": [
        "cli.main", "cli.write_trace_file", "config.load_run_config",
        "sequences.optical_pump", "sequences.run_rabi_sweep",
        "sequences.rabi_populations", "lindblad.pulse_window_propagator",
        "fitting.simultaneous_fit_rabi_fringe",
        "sequences.fringe_visibilities", "sequences.run_ramsey",
        "fitting.fit_fringe"],
    "ensemble_coherence": [
        "cli.main", "config.parse_run_config",
        "hamiltonian.energy_for_rotation_angle",
        "lindblad.pulse_window_propagator",
        "lindblad.SilencePropagator.population_matrix",
        "sequences.run_ramsey", "sequences.run_echo",
        "sequences.run_echo_decay", "bath.BathModel.sample_detunings",
        "bath.BathModel.characteristic_function", "fitting.fit_fringe",
        "fitting.fit_fringe.free", "fitting.fit_curve"],
    "relaxation_roundtrip": [
        "cli.main", "cli.write_trace_file", "config.load_run_config",
        "config.parse_run_config", "sequences.optical_pump",
        "sequences.run_t1_recovery",
        "lindblad.SilencePropagator.population_matrix",
        "fitting.fit_curve", "fitting.compare_models",
        "fitting.ingest_trace", "estimators.dipolar_lattice_sum",
        "estimators.decoherence_budget", "bath.t2_star_theory"],
}
ABSENT = {
    "pulse_scan": ["sequences.run_echo", "bath.BathModel.sample_detunings"],
    "ensemble_coherence": ["fitting.simultaneous_fit_rabi_fringe",
                           "sequences.run_rabi_sweep"],
    "relaxation_roundtrip": ["lindblad.pulse_window_propagator",
                             "sequences.run_ramsey", "sequences.run_echo",
                             "fitting.fit_fringe"],
}


def _one_round(workload, out_dir, *flags):
    worker = run.Worker(workload, time.monotonic() + 170, *flags)
    try:
        records, = run.run_pass([worker], workload, 3, [out_dir], 1,
                                check=False)
        worker.finish()
    finally:
        worker.kill()
    return records


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_and_sees_its_layers(workload, tmp_path):
    plain = _one_round(workload, tmp_path / "plain")
    spans = tmp_path / "spans.csv"
    traced = _one_round(workload, tmp_path / "traced", "--trace", str(spans))

    assert [r["reply"]["error"] for r in plain + traced] == \
        [None] * (2 * len(plain))
    for a, b in zip(plain, traced):
        assert run._outputs(a["reply"]) == run._outputs(b["reply"])

    metrics = layer_metrics(read_spans(spans))
    for name in EXPECTED[workload]:
        assert metrics[f"{name}.calls"] > 0, name
    for name in ABSENT[workload]:
        assert metrics[f"{name}.calls"] == 0, name
    if workload != "relaxation_roundtrip":
        assert metrics["lindblad.pulse_window_propagator.unique_frac"] < 1
