"""Command-line front end: reproducible runs from config documents.

Subcommands ``simulate``, ``estimate``, ``fit`` and ``sweep`` share the
flags ``--config``, ``--out``, ``--seed`` and repeatable
``--set key.path=value`` overrides; ``sweep`` adds ``--jobs``, the
worker pool for the values of a pulse experiment (rabi, ramsey, echo);
t1 and pump values run in this process. Every run writes one directory
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
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from .config import (
    _KINDS,
    RunConfig,
    apply_overrides,
    config_digest,
    load_config_document,
    load_run_config,
    parse_run_config,
    plain_data,
)
from .errors import NumericsError, ValidationError
from .estimators import decoherence_budget
from .fitting import canonical_models, compare_models, ingest_trace
from .materials import dump_yaml, load_yaml

__all__ = ["main", "build_parser"]


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
    path.write_text(dump_yaml(plain_data(document)), encoding="utf-8")


def _meta_head(resolved: dict, seed: int) -> dict:
    """The config, its digest and the seed: the head of every metadata
    document a run writes."""
    return {"config": resolved, "config_digest": config_digest(resolved),
            "seed": seed}


def _make_run_dir(base: str, digest: str) -> Path:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    run_dir = Path(base) / f"{stamp}-{digest}"
    run_dir.mkdir(parents=True, exist_ok=False)
    return run_dir


# ---------------------------------------------------------------------------
# experiment execution (pure: returns payloads, writes nothing)


def _execute(config: RunConfig) -> dict:
    kind = config.experiment_kind
    files, summary = _KINDS[kind].runner(config)
    meta = dict(_meta_head(config.resolved, config.seed), summary=summary)
    return {"kind": kind, "files": files, "summary": summary, "meta": meta}


def _write_payload(run_dir: Path, payload: dict) -> list:
    meta = payload["meta"]
    comments = ["donorspin trace", f"experiment: {payload['kind']}",
                f"seed: {meta['seed']}",
                f"config digest: {meta['config_digest']}"]
    written = []
    for name, (header, rows) in payload["files"].items():
        path = run_dir / name
        write_trace_file(path, header, rows, comments)
        written.append(path)
    meta_path = run_dir / f"{payload['kind']}_meta.yaml"
    _write_meta(meta_path, meta)
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


def cmd_simulate(args) -> int:
    config = load_run_config(*_config_args(args))
    payload = _execute(config)
    run_dir = _make_run_dir(config.output, payload["meta"]["config_digest"])
    written = _write_payload(run_dir, payload)
    print(run_dir)
    for path in written:
        print(f"  {path.name}")
    return 0


def cmd_estimate(args) -> int:
    document = load_config_document(*_config_args(args))
    config = parse_run_config(document)
    material_bath = (document.get("bath") or {}).get("kind") == "material"
    budget = decoherence_budget(config.material, theta2=config.fit["theta2"],
                                field_direction=config.field.orientation,
                                variant=config.fit["variant"],
                                bath=config.bath if material_bath else None)
    report = _meta_head(config.resolved, config.seed)
    run_dir = _make_run_dir(config.output, report["config_digest"])
    report["budget"] = budget.as_report()
    _write_meta(run_dir / "estimate_report.yaml", report)
    (run_dir / "estimate_report.txt").write_text(budget.as_table() + "\n",
                                                 encoding="utf-8")
    print(run_dir)
    print(budget.as_table())
    return 0


def cmd_fit(args) -> int:
    if not args.data:
        raise ValidationError("fit requires at least one --data file")
    kinds = ["exp_decay"]
    resolved = {"fit": {}}
    seed = args.seed if args.seed is not None else 0
    out_base = args.out or "runs"
    if args.config:
        config = load_run_config(*_config_args(args))
        kinds = config.fit["models"]
        resolved = config.resolved
        seed = config.seed
        out_base = config.output
    traces = [ingest_trace(path) for path in args.data]
    if args.compare is not None:
        kinds = canonical_models(args.compare.split(","), "--compare")

    reports = []
    for trace in traces:
        stderr = trace.stderr
        weights = 1.0 / np.square(stderr) \
            if stderr is not None and np.all(stderr > 0) else None
        results = compare_models(kinds, trace.abscissa, trace.ordinate,
                                 weights)
        entry = {"data": str(trace.path), "models": {}}
        for kind, result in results.items():
            entry["models"][kind] = {"error": str(result)} \
                if isinstance(result, Exception) else {
                    "parameters": result.parameters,
                    "uncertainties": result.uncertainties,
                    "residual_norm": result.residual_norm,
                    "converged": result.converged,
                    "message": result.message,
                }
        fitted = [k for k, r in results.items()
                  if not isinstance(r, Exception)]
        entry["best_model"] = min(fitted,
                                  key=lambda k: results[k].residual_norm)
        reports.append(entry)

    report = _meta_head(resolved, seed)
    run_dir = _make_run_dir(out_base, report["config_digest"])
    report["fits"] = reports
    _write_meta(run_dir / "fit_report.yaml", report)
    print(run_dir)
    for entry in reports:
        print(f"  {Path(entry['data']).name}: best model "
              f"{entry['best_model']}")
        for kind, body in entry["models"].items():
            print(f"    {kind}: cannot fit: {body['error']}" if "error" in body
                  else f"    {kind}: residual_norm="
                  f"{body['residual_norm']:.6g} "
                  f"converged={body['converged']}")
    return 0


def _axis_values(text: str) -> tuple:
    """The sweep values as given, and their numbers (a unit may follow)."""
    values = [v.strip() for v in text.split(",") if v.strip()]
    if not values:
        raise ValidationError("sweep needs at least one value")
    if len({_slug(value) for value in values}) < len(values):
        raise ValidationError(f"sweep values must name distinct run "
                              f"directories, got {values}")
    return values, [_axis_number(value) for value in values]


def _axis_number(value: str) -> float:
    try:
        loaded = load_yaml(value)
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
    if len({" ".join(v.split()[1:]) for v in values}) > 1:
        raise ValidationError(f"sweep values must share one unit (the text "
                              f"after their number), got {values}")
    document = load_config_document(*_config_args(args))
    config = parse_run_config(document)  # validates the base document
    if not _document_has_path(document, args.axis):
        raise ValidationError(
            f"sweep axis {args.axis!r} does not name an existing config key")
    loglog = len(values) >= 2 and _KINDS[config.experiment_kind].loglog
    problems = []
    if args.jobs is not None and args.jobs < 1:
        problems.append(f"--jobs must be at least 1, got {args.jobs}")
    if loglog and not all(math.isfinite(v) and v > 0 for v in numeric_values):
        problems.append(f"the log-log T1 fit needs finite positive sweep "
                        f"values, got {numeric_values}")
    if loglog and len(set(numeric_values)) < len(values):
        problems.append(f"the log-log T1 fit needs distinct sweep values, "
                        f"got {numeric_values}")
    if problems:
        raise ValidationError("; ".join(problems), problems)

    # a forked worker costs more than a t1 or pump value takes to run
    jobs = args.jobs or os.cpu_count() or 1
    if jobs > 1 and len(values) > 1 \
            and "pulse" in _KINDS[config.experiment_kind].needs:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(values))) as pool:
            payloads = list(pool.map(_sweep_one, [document] * len(values),
                                     [args.axis] * len(values), values))
    else:
        payloads = [_sweep_one(document, args.axis, v) for v in values]

    slope = _loglog_slope(numeric_values, [
        p["summary"][loglog] for p in payloads]) if loglog else None

    sweep_meta = _meta_head(config.resolved, config.seed)
    digest = sweep_meta["config_digest"]
    sweep_dir = _make_run_dir(config.output, digest)
    summary_rows = []
    summary_keys = sorted({k for p in payloads for k, v in p["summary"].items()
                           if isinstance(v, (int, float))})
    for value, numeric, payload in zip(values, numeric_values, payloads):
        sub_dir = sweep_dir / f"{_slug(args.axis)}-{_slug(value)}"
        sub_dir.mkdir()
        _write_payload(sub_dir, payload)
        row = [numeric]
        for k in summary_keys:
            cell = payload["summary"].get(k, math.nan)
            row.append(math.nan if cell is None else float(cell))
        summary_rows.append(row)

    sweep_meta.update(axis=args.axis, values=values, summaries={
        v: p["summary"] for v, p in zip(values, payloads)})
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
    """Slope of log T1 against the log of the swept value; the swept
    values are checked finite and positive before the sweep runs."""
    t1s = np.asarray(t1s, dtype=float)
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
    p_sweep.add_argument("--jobs", type=int,
                         help="worker processes for a rabi, ramsey or echo "
                              "sweep (default: CPUs)")
    p_sweep.add_argument("--axis", help="dotted config key to sweep")
    p_sweep.add_argument("--values",
                         help="comma-separated values for the axis")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def _attach_values(argv: list) -> list:
    """Join `--values V` into `--values=V`: argparse reads a V such as
    `-1e-7` or `-3,5` as an option flag and exits before any check."""
    joined, tokens = [], iter(argv)
    for token in tokens:
        if token == "--values":
            token = f"--values={next(tokens, '')}"
        joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _attach_values(sys.argv[1:] if argv is None else list(argv)))
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
