#!/usr/bin/env python3
"""donorspin benchmark: seeded closed-loop workloads through the CLI.

Run from the repository root::

    python3 perfbench/run.py --workload pulse_scan --seed 1 --seconds 24 --trace 0

One client sends one request at a time to a fresh workload process
(``worker.py``) and waits for each reply before sending the next. Every
reply's output is checked, outside the timed phase. The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread in every process, so the two sweep workers fit in two
# cores; set before numpy loads
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, round_count, rounds  # noqa: E402

SETUP_PROBES = 1          # set-up probes before and again after the run
WALL_LIMIT_S = 170.0      # stop waiting for the program after this


# -- statistics ---------------------------------------------------------


def tail_percentile(values):
    """Highest whole percentile with at least ten samples above it.

    Returns ``(percentile, value)`` by the nearest-rank rule. With fewer
    than 20 samples no percentile above the median has ten samples beyond
    it, so the median is reported, as percentile 50.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 50, statistics.median(ordered)
    p = 100 * (n - 10) // n
    rank = -(-p * n // 100)
    return p, ordered[rank - 1]


# -- the workload process -----------------------------------------------


class Worker:
    """One workload process, spoken to by JSON lines over pipes."""

    def __init__(self, workload, deadline, *flags):
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             *flags],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ENV))
        self._buffer = b""
        try:
            self.hello = self._read()
        except BaseException:
            self.kill()
            raise

    def _read(self):
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            left = self.deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError("the workload process ran out of time")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise RuntimeError("the workload process exited early")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(line)

    def call(self, message):
        """Send one request; return (reply, latency in seconds)."""
        data = (json.dumps(message) + "\n").encode()
        start = time.perf_counter()
        self.proc.stdin.write(data)
        self.proc.stdin.flush()
        reply = self._read()
        return reply, time.perf_counter() - start

    def finish(self):
        """Close the request stream; return the process's last line."""
        self.proc.stdin.close()
        last = self._read()
        self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        return last

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def setup_samples(workload, deadline):
    samples = []
    for _ in range(SETUP_PROBES):
        probe = Worker(workload, deadline, "--setup-only")
        try:
            probe.proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            probe.kill()
        samples.append(probe.hello["setup_s"])
    return samples


# -- one pass over the deck ---------------------------------------------


def _message(request, rid, data, out_dir, prev_dir):
    message = {"id": rid, "kind": request["kind"],
               "expect": request["expect"],
               "argv": [a.replace("{out}", str(out_dir))
                        .replace("{prev}", str(prev_dir)) for a in
                        request["argv"]]}
    if data is not None:
        message["data"] = data
    return message


def run_pass(workers, workload, seed, out_dirs, n_rounds, check=True):
    """Send the first ``n_rounds`` rounds of the seed's deck, one request
    at a time, to each worker in turn; the order alternates from one
    request to the next. Returns one list of records per worker. Only the
    first worker's replies are checked."""
    import checks

    lanes = [[] for _ in workers]
    prev_dirs = [None] * len(workers)
    for batch in itertools.islice(rounds(workload, seed), n_rounds):
        for request in batch:
            data = (checks.simfit_data(request["expect"])
                    if request["kind"] == "simfit" else None)
            order = list(range(len(workers)))
            if len(lanes[0]) % 2:
                order.reverse()
            for k in order:
                message = _message(request, len(lanes[k]), data, out_dirs[k],
                                   prev_dirs[k])
                reply, latency = workers[k].call(message)
                prev_dirs[k] = reply["run_dir"]
                reason = checks.check(request, reply) \
                    if check and k == 0 else None
                lanes[k].append({"request": request, "reply": reply,
                                 "latency": latency, "reason": reason})
    return lanes


def _outputs(reply):
    """Trace CSV bytes of one reply, by path inside its run directory."""
    if reply["run_dir"] is None:
        return reply["result"]
    base = Path(reply["run_dir"])
    return {str(p.relative_to(base)): p.read_bytes()
            for p in sorted(base.rglob("*.csv"))}


# -- measurement --------------------------------------------------------


def end_to_end(workload, seed, seconds, out_dir, deadline):
    setups = setup_samples(workload, deadline)
    worker = Worker(workload, deadline)
    try:
        setups.append(worker.hello["setup_s"])
        records, = run_pass([worker], workload, seed, [out_dir],
                            round_count(workload, seconds))
        peak = worker.finish()["peak_rss_mb"]
    finally:
        worker.kill()
    # probes on both sides of the run see more of the machine's states
    setups += setup_samples(workload, deadline)
    latencies = [r["latency"] for r in records]
    good = sum(1 for r in records if r["reason"] is None)
    percentile, tail = tail_percentile(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "throughput_rps": good / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "peak_rss_mb": peak,
    }
    notes = {"latency_tail_s": f"p{percentile} of {len(latencies)} requests",
             "setup_s": f"median of {len(setups)} set-ups",
             "peak_rss_mb": "workload process or its largest sweep worker"}
    return records, values, notes, worker.hello


def traced(workload, seed, seconds, out_dir, deadline):
    """Run half a run's rounds in two fresh processes, one untraced and
    one traced. Each request goes to both in turn, so both see the same
    machine conditions and the overhead compares like with like."""
    from tracing import layer_metrics, read_spans

    n_rounds = round_count(workload, seconds / 2)
    span_file = out_dir / "spans.csv"
    plain = Worker(workload, deadline)
    try:
        worker = Worker(workload, deadline, "--trace", str(span_file))
        try:
            first, second = run_pass(
                [plain, worker], workload, seed,
                [out_dir / "untraced", out_dir / "traced"], n_rounds)
            plain.finish()
            worker.finish()
        finally:
            worker.kill()
    finally:
        plain.kill()
    for a, b in zip(first, second):
        if b["reply"]["error"] or _outputs(a["reply"]) != _outputs(b["reply"]):
            b["reason"] = "traced output differs from the untraced output"
    values = layer_metrics(read_spans(span_file))
    values["trace.overhead_frac"] = (
        sum(r["latency"] for r in second) / sum(r["latency"] for r in first)
        - 1.0)
    notes = {"trace.overhead_frac": f"{len(second)} requests in "
                                    f"{n_rounds} rounds, traced against "
                                    "untraced"}
    return first + second, values, notes, worker.hello


# -- provenance ---------------------------------------------------------


def provenance(hello):
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in (ROOT / "src" / "donorspin").glob("*.py"))
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": hello.get("blas_threads"),
            "blas_env": BLAS_ENV, "src_donorspin_lines": lines}


# -- entry point --------------------------------------------------------


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # unwind on SIGTERM too, so the workload process is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "donorspin" / "__init__.py").is_file() \
            or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} holds no donorspin source tree "
              "(src/donorspin, configs)", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    import compileall

    # users run from compiled bytecode; compile before any set-up is timed
    compileall.compile_dir(str(ROOT / "src" / "donorspin"), quiet=1)

    deadline = time.monotonic() + WALL_LIMIT_S
    out_dir = HERE / ".out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True)
    try:
        if args.trace:
            records, values, notes, hello = traced(
                args.workload, args.seed, args.seconds, out_dir, deadline)
        else:
            records, values, notes, hello = end_to_end(
                args.workload, args.seed, args.seconds, out_dir, deadline)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    import checks

    failures = [r for r in records if r["reason"] is not None]
    unexpected = [r for r in failures
                  if not checks.is_known_defect(r["request"], r["reason"])]
    spec = _spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  requests {len(records)}")
    for name, entry in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<58} {entry['value']:>14.6g} {entry['unit']}{note}")
    print(f"  {'failed_frac':<58} {len(failures) / len(records):>14.6g} "
          f"frac  ({len(failures)} of {len(records)})")
    for r in failures:
        tag = "known defect" if r not in unexpected else "FAILED"
        print(f"  {tag}: {r['request']['op']}: {r['reason']}")
    if len(unexpected) < len(failures):
        print(f"  known defect: {checks.KNOWN_DEFECT}")
    print("provenance " + json.dumps(provenance(hello)))
    print(json.dumps({"correct": not unexpected, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
