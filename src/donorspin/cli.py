"""Command-line front end: reproducible runs from config documents.

Subcommands ``simulate``, ``estimate``, ``fit`` and ``sweep`` share the
flags ``--config``, ``--out``, ``--seed``, ``--jobs`` and repeatable
``--set key.path=value`` overrides. Every run writes one directory
named ``<timestamp>-<confighash8>`` containing delimited trace files
(``#`` comments, unit-suffixed headers) plus a metadata document with
the fully resolved configuration and seed. Exit codes are stable for
scripting: 0 success, 2 validation problem, 3 numerical failure,
4 input/output failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from .config import (
    RunConfig,
    apply_overrides,
    config_digest,
    load_config_document,
    load_run_config,
    parse_run_config,
    plain_data,
)
from .errors import NumericsError, ValidationError
from .estimators import ID_VARIANTS, decoherence_budget
from .fitting import (
    MODEL_KINDS,
    compare_models,
    fit_curve,
    fit_fringe,
    ingest_trace,
)
from .lindblad import DensityMatrix
from .sequences import (
    optical_pump,
    ramsey_window_plan,
    run_echo_decay,
    run_rabi_sweep,
    run_ramsey,
    run_t1_recovery,
)
from .units import parse_quantity

__all__ = ["main", "build_parser"]

_MODEL_ALIASES = {
    "exp": "exp_decay",
    "gaussian": "gaussian_decay",
    "cubed_exp": "cubed_exp_decay",
    "power": "power_law",
}


# ---------------------------------------------------------------------------
# artifact writing


def _format_value(value) -> str:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return format(float(value), ".17g")


def write_trace_file(path: Path, header, rows, comments=()) -> None:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_meta(path: Path, document: dict) -> None:
    path.write_text(yaml.safe_dump(plain_data(document), sort_keys=True),
                    encoding="utf-8")


def _make_run_dir(base: str, digest: str) -> Path:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    run_dir = Path(base) / f"{stamp}-{digest}"
    run_dir.mkdir(parents=True, exist_ok=False)
    return run_dir


# ---------------------------------------------------------------------------
# experiment execution (pure: returns payloads, writes nothing)


def _execute(config: RunConfig) -> dict:
    kind = config.experiment_kind
    runner = {
        "rabi": _execute_rabi,
        "ramsey": _execute_ramsey,
        "echo": _execute_echo,
        "t1": _execute_t1,
        "pump": _execute_pump,
    }[kind]
    payload = runner(config)
    payload["kind"] = kind
    digest = config_digest(config.resolved)
    comments = [
        "donorspin trace",
        f"experiment: {kind}",
        f"seed: {config.seed}",
        f"config digest: {digest}",
    ]
    for entry in payload["files"].values():
        entry.setdefault("comments", comments)
    payload["meta"] = {
        "config": config.resolved,
        "config_digest": digest,
        "seed": config.seed,
        "summary": payload["summary"],
    }
    return payload


def _trace_payload(trace) -> dict:
    header, rows = trace.as_rows()
    return {"header": header, "rows": rows}


def _execute_rabi(config: RunConfig) -> dict:
    exp = config.experiment
    trace = run_rabi_sweep(
        np.asarray(exp["energies"], dtype=float), config.levels, config.pulse,
        config.dissipators, pump=exp.get("pump"))
    summary = {"p_up_max": float(np.max(trace.p_up)),
               "p_up_at_zero": float(trace.p_up[0])}
    return {"files": {"rabi_trace.csv": _trace_payload(trace)},
            "summary": summary}


def _execute_ramsey(config: RunConfig) -> dict:
    exp = config.experiment
    larmor = config.levels.electron_splitting
    if exp.get("delays") is not None:
        windows = [np.asarray(exp["delays"], dtype=float)]
    else:
        windows = ramsey_window_plan(exp["delay_centers"], larmor,
                                     exp["periods"],
                                     exp["points_per_period"])
    result = run_ramsey(windows, config.levels, config.pulse,
                        config.dissipators, bath=config.bath,
                        ensemble_mode=config.ensemble_mode,
                        bath_samples=config.bath_samples, seed=config.seed,
                        injected=exp.get("injected"))
    files = {"ramsey_trace.csv": _trace_payload(result.trace)}
    vis_rows = list(zip(result.window_centers, result.visibilities,
                        result.visibility_stderr))
    files["ramsey_visibility.csv"] = {
        "header": ["tau_center_s", "visibility", "visibility_stderr"],
        "rows": vis_rows,
    }
    first = windows[0]
    try:
        free = fit_fringe(first, result.trace.p_up[:len(first)],
                          stderr=None, frequency_guess=larmor)
        fitted_hz = free.frequency / (2 * math.pi)
    except ValidationError:
        fitted_hz = math.nan
    summary = {
        "larmor_rad_per_s": larmor,
        "windows": len(result.window_centers),
        "fitted_frequency_Hz": fitted_hz,
        "visibility_first": float(result.visibilities[0]),
        "visibility_last": float(result.visibilities[-1]),
    }
    return {"files": files, "summary": summary}


def _execute_echo(config: RunConfig) -> dict:
    exp = config.experiment
    result = run_echo_decay(
        np.asarray(exp["tau1_values"], dtype=float), config.levels,
        config.pulse, config.dissipators, periods=exp["periods"],
        points_per_period=exp["points_per_period"], bath=config.bath,
        ensemble_mode=config.ensemble_mode, bath_samples=config.bath_samples,
        seed=config.seed, injected=exp.get("injected"))
    header, rows = result.as_rows()
    summary = {
        "amplitude_first": float(result.amplitudes[0]),
        "amplitude_last": float(result.amplitudes[-1]),
        "total_time_span_s": float(result.total_times[-1]
                                   - result.total_times[0]),
    }
    return {"files": {"echo_trace.csv": {"header": header, "rows": rows}},
            "summary": summary}


def _execute_t1(config: RunConfig) -> dict:
    exp = config.experiment
    result = run_t1_recovery(np.asarray(exp["waits"], dtype=float),
                             config.levels, config.dissipators, exp["pump"])
    summary = {
        "fitted_t1_s": float(result.fitted_t1),
        "pump_fidelity": float(result.pump.fidelity),
        "t1_rate_per_s": float(config.dissipators.t1_rate),
    }
    return {"files": {"t1_trace.csv": _trace_payload(result.trace)},
            "summary": summary}


def _execute_pump(config: RunConfig) -> dict:
    settings = config.experiment["pump"]
    result = optical_pump(DensityMatrix.scrambled().matrix, config.levels,
                          settings.rabi, settings.duration,
                          config.dissipators, settings.samples)
    rows = list(zip(result.times, result.emission_rate))
    summary = {"fidelity": float(result.fidelity),
               "pump_rabi_rad_per_s": float(settings.rabi),
               "pump_duration_s": float(settings.duration)}
    return {"files": {"pump_trace.csv": {
                "header": ["time_s", "emission_rate_Hz"], "rows": rows}},
            "summary": summary}


def _write_payload(run_dir: Path, payload: dict) -> list:
    written = []
    for name, entry in payload["files"].items():
        path = run_dir / name
        write_trace_file(path, entry["header"], entry["rows"],
                         entry.get("comments", ()))
        written.append(path)
    meta_path = run_dir / f"{payload['kind']}_meta.yaml"
    _write_meta(meta_path, payload["meta"])
    written.append(meta_path)
    return written


# ---------------------------------------------------------------------------
# subcommands


def _config_args(args) -> tuple:
    """The config path and the overrides the shared flags ask for."""
    if not args.config:
        raise ValidationError("--config is required for this command")
    overrides = list(args.set or ())
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.out is not None:
        overrides.append(f"output={args.out}")
    return args.config, overrides


def _load_config(args) -> RunConfig:
    return load_run_config(*_config_args(args))


def cmd_simulate(args) -> int:
    config = _load_config(args)
    payload = _execute(config)
    run_dir = _make_run_dir(config.output, payload["meta"]["config_digest"])
    written = _write_payload(run_dir, payload)
    print(run_dir)
    for path in written:
        print(f"  {path.name}")
    return 0


def cmd_estimate(args) -> int:
    config = _load_config(args)
    section = config.fit if isinstance(config.fit, dict) else {}
    theta2 = section.get("theta2", None)
    theta2 = parse_quantity(theta2, "angle", key="fit.theta2") \
        if theta2 is not None else math.pi / 2.0
    variant = section.get("variant", ID_VARIANTS[0])
    if variant not in ID_VARIANTS:
        raise ValidationError(f"fit.variant must be one of {ID_VARIANTS}, "
                              f"got {variant!r}")
    budget = decoherence_budget(config.material, theta2=theta2,
                                variant=variant)
    digest = config_digest(config.resolved)
    run_dir = _make_run_dir(config.output, digest)
    report = {
        "config": config.resolved,
        "config_digest": digest,
        "seed": config.seed,
        "budget": budget.as_report(),
    }
    _write_meta(run_dir / "estimate_report.yaml", report)
    (run_dir / "estimate_report.txt").write_text(budget.as_table() + "\n",
                                                 encoding="utf-8")
    print(run_dir)
    print(budget.as_table())
    return 0


def _canonical_models(names) -> list:
    out = []
    for name in names:
        kind = _MODEL_ALIASES.get(name.strip(), name.strip())
        if kind not in MODEL_KINDS:
            raise ValidationError(
                f"unknown model {name!r}; known: {sorted(MODEL_KINDS)} "
                f"(aliases: {sorted(_MODEL_ALIASES)})")
        out.append(kind)
    return out


def cmd_fit(args) -> int:
    if not args.data:
        raise ValidationError("fit requires at least one --data file")
    fit_section = {}
    resolved = {"fit": {}}
    seed = args.seed if args.seed is not None else 0
    out_base = args.out or "runs"
    if args.config:
        config = _load_config(args)
        fit_section = config.fit or {}
        resolved = config.resolved
        seed = config.seed
        out_base = config.output
    traces = [ingest_trace(path) for path in args.data]

    if args.compare:
        kinds = _canonical_models(args.compare.split(","))
    elif fit_section.get("compare"):
        kinds = _canonical_models(fit_section["compare"])
    else:
        kinds = _canonical_models([fit_section.get("model", "exp_decay")])

    reports = []
    for trace in traces:
        x = trace.abscissa
        y = trace.ordinate
        stderr = trace.stderr
        weights = None
        if stderr is not None and np.all(stderr > 0):
            weights = 1.0 / np.square(stderr)
        if len(kinds) > 1:
            results = compare_models(kinds, x, y, weights)
        else:
            results = {kinds[0]: fit_curve(kinds[0], x, y, weights)}
        entry = {"data": str(trace.path), "models": {}}
        for kind, result in results.items():
            entry["models"][kind] = {
                "parameters": result.parameters,
                "uncertainties": result.uncertainties,
                "residual_norm": result.residual_norm,
                "converged": result.converged,
                "message": result.message,
            }
        best = min(results.values(), key=lambda r: r.residual_norm)
        entry["best_model"] = [k for k, r in results.items()
                               if r is best][0]
        reports.append(entry)

    digest = config_digest(resolved)
    run_dir = _make_run_dir(out_base, digest)
    _write_meta(run_dir / "fit_report.yaml", {
        "config": resolved, "config_digest": digest, "seed": seed,
        "fits": reports,
    })
    print(run_dir)
    for entry in reports:
        print(f"  {Path(entry['data']).name}: best model "
              f"{entry['best_model']}")
        for kind, body in entry["models"].items():
            print(f"    {kind}: residual_norm="
                  f"{body['residual_norm']:.6g} "
                  f"converged={body['converged']}")
    return 0


def _axis_values(text: str) -> tuple:
    """The sweep values as given, and their numbers (a unit may follow)."""
    values = [v.strip() for v in text.split(",") if v.strip()]
    if not values:
        raise ValidationError("sweep needs at least one value")
    return values, [_axis_number(value) for value in values]


def _axis_number(value: str) -> float:
    try:
        loaded = yaml.safe_load(value)
    except yaml.YAMLError:
        loaded = None
    if isinstance(loaded, (int, float)) and not isinstance(loaded, bool):
        return float(loaded)
    if isinstance(loaded, str):
        try:
            return float(loaded.split()[0])
        except (ValueError, IndexError):
            pass
    raise ValidationError(
        f"sweep axis values must be numeric (optionally with a unit), "
        f"got {value!r}")


def _document_has_path(document: dict, path: str) -> bool:
    node = document
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return False
        node = node[key]
    return True


def _sweep_one(base_document: dict, axis: str, value: str) -> dict:
    document = apply_overrides(base_document, [f"{axis}={value}"])
    return _execute(parse_run_config(document))


def cmd_sweep(args) -> int:
    if not args.axis or args.values is None:
        raise ValidationError("sweep requires --axis and --values")
    values, numeric_values = _axis_values(args.values)
    document = load_config_document(*_config_args(args))
    config = parse_run_config(document)  # validates the base document
    if not _document_has_path(document, args.axis):
        raise ValidationError(
            f"sweep axis {args.axis!r} does not name an existing config key")

    jobs = args.jobs or os.cpu_count() or 1
    if jobs > 1 and len(values) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(values))) as pool:
            payloads = list(pool.map(_sweep_one, [document] * len(values),
                                     [args.axis] * len(values), values))
    else:
        payloads = [_sweep_one(document, args.axis, v) for v in values]

    slope = None
    if payloads[0]["kind"] == "t1" and len(values) >= 2:
        slope = _loglog_slope(numeric_values,
                              [p["summary"]["fitted_t1_s"] for p in payloads])

    digest = config_digest(config.resolved)
    sweep_dir = _make_run_dir(config.output, digest)
    summary_rows = []
    summary_keys = sorted({k for p in payloads for k in p["summary"]
                           if isinstance(p["summary"][k], (int, float))
                           and p["summary"][k] is not None})
    for value, numeric, payload in zip(values, numeric_values, payloads):
        sub_dir = sweep_dir / f"{_slug(args.axis)}-{_slug(value)}"
        sub_dir.mkdir()
        _write_payload(sub_dir, payload)
        row = [numeric]
        for k in summary_keys:
            cell = payload["summary"].get(k, math.nan)
            row.append(math.nan if cell is None else float(cell))
        summary_rows.append(row)

    sweep_meta = {
        "axis": args.axis,
        "values": values,
        "config": config.resolved,
        "config_digest": digest,
        "seed": config.seed,
        "summaries": {v: p["summary"] for v, p in zip(values, payloads)},
    }
    if slope is not None:
        sweep_meta["loglog_slope"] = slope
        sweep_meta["rate_exponent"] = -slope
    write_trace_file(sweep_dir / "sweep_summary.csv",
                     [_slug(args.axis)] + summary_keys, summary_rows,
                     comments=[f"sweep over {args.axis}",
                               f"config digest: {digest}"])
    _write_meta(sweep_dir / "sweep_meta.yaml", sweep_meta)
    print(sweep_dir)
    return 0


def _loglog_slope(axis_values, t1s) -> float:
    """Slope of log T1 against the log of the swept value."""
    axis_values = np.asarray(axis_values, dtype=float)
    t1s = np.asarray(t1s, dtype=float)
    if not np.all(np.isfinite(axis_values) & (axis_values > 0)):
        raise ValidationError(
            f"the log-log T1 fit needs finite positive sweep values, got "
            f"{axis_values.tolist()}")
    if not np.all(np.isfinite(t1s) & (t1s > 0)):
        raise NumericsError(
            f"the log-log T1 fit needs finite positive fitted T1 values, "
            f"got {t1s.tolist()} s")
    return float(np.polyfit(np.log(axis_values), np.log(t1s), 1)[0])


def _slug(text) -> str:
    return "".join(c if c.isalnum() or c in ".-" else "_"
                   for c in str(text).strip())


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="donorspin",
        description="Simulation and estimation toolkit for optically "
                    "controlled donor spins.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a YAML run configuration")
        p.add_argument("--out", help="output base directory (overrides "
                                     "config 'output')")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--jobs", type=int,
                       help="worker pool size for sweeps (default: CPUs)")
        p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE",
                       help="override one config entry (repeatable)")

    p_sim = sub.add_parser("simulate", help="run the configured experiment")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate",
                           help="write the decoherence budget report")
    common(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_fit = sub.add_parser("fit", help="fit models to trace files")
    common(p_fit)
    p_fit.add_argument("--data", action="append",
                       help="trace file to fit (repeatable)")
    p_fit.add_argument("--compare",
                       help="comma-separated model list to compare")
    p_fit.set_defaults(func=cmd_fit)

    p_sweep = sub.add_parser("sweep",
                             help="repeat the experiment over an axis")
    common(p_sweep)
    p_sweep.add_argument("--axis", help="dotted config key to sweep")
    p_sweep.add_argument("--values",
                         help="comma-separated values for the axis")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as err:
        print("validation error:", file=sys.stderr)
        for problem in err.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 2
    except (NumericsError, np.linalg.LinAlgError, FloatingPointError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o failure: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
