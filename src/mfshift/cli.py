"""Command-line surface: model ingestion, dispatch, CSV/JSON output.

One structured-text model format (JSON document with label, N, ratios,
measures, potential_depth) and a separate observable-table format for the
Birkhoff commands.  Every command writes either CSV with a fixed, documented
column order or a single JSON document mirroring the same fields; -inf
values are emitted as the literal string "-inf" in CSV and as null plus a
flag entry in JSON.

Exit codes: 0 success, 2 infeasible or empty-constraint result, 3 usage,
parse or validation failure, 4 enumeration budget exceeded, 5 bracket failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import birkhoff as birkhoff_mod
from . import mfzeta as mfzeta_mod
from . import oracle as oracle_mod
from . import pressure as pressure_mod
from . import spectrum as spectrum_mod
from .errors import (
    BracketFailure,
    BudgetExceeded,
    InfeasibleConstraint,
    MfShiftError,
    ParseError,
    ValidationError,
)
from .logsum import NEG_INF
from .model import ModelSpec, PotentialTable, TargetBox
from .birkhoff import ObservableTable

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_DEGENERATE = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4
EXIT_BRACKET = 5


@dataclass
class RunConfig:
    """Resolved invocation: model path, command and its knobs."""

    command: str
    model_path: str
    target: Optional[str] = None
    mode: str = "L"
    n_max: int = 400
    shrinking: bool = False
    radii: Optional[str] = None
    grid: Optional[str] = None
    observable_path: Optional[str] = None
    route: str = "both"
    n: int = 10
    t: float = 1.0
    tol: float = 1e-9
    output: str = "-"
    fmt: str = "csv"
    timestamp: bool = True


def parse_model(path) -> ModelSpec:
    """Load and validate a model document; diagnostics name the bad field."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read model file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: model document must be a JSON object")
    for key in ("ratios", "measures"):
        if key not in doc:
            raise ParseError(f"{path}: missing required field '{key}'")
    ratios = doc["ratios"]
    measures = doc["measures"]
    n_declared = doc.get("N")
    if n_declared is not None and n_declared != len(ratios):
        raise ValidationError(
            f"{path}: N={n_declared} does not match len(ratios)={len(ratios)}"
        )
    for row in measures:
        if len(row) != len(ratios):
            raise ValidationError(
                f"{path}: measures row of length {len(row)}, expected {len(ratios)}"
            )
    try:
        return ModelSpec(
            ratios=np.asarray(ratios, dtype=float),
            measures=np.asarray(measures, dtype=float),
            label=str(doc.get("label", Path(path).stem)),
            potential_depth=int(doc.get("potential_depth", 1)),
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def parse_observable(path, N: int) -> ObservableTable:
    """Load an observable table {depth, gamma, values, lip_bound?}."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParseError(f"cannot read observable file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    try:
        depth = int(doc["depth"])
        values = np.asarray(doc["values"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path}: need 'depth' and 'values' fields") from exc
    if values.size != N**depth:
        raise ValidationError(
            f"{path}: expected {N**depth} values for depth {depth}, got {values.size}"
        )
    table = PotentialTable(values.reshape((N,) * depth))
    return ObservableTable(
        f=table,
        gamma=float(doc.get("gamma", 0.5)),
        lip_bound=doc.get("lip_bound"),
    )


def parse_target(text: str) -> TargetBox:
    """Box syntax: per coordinate 'lo:hi' or a singleton 'a', comma-separated."""
    lo, hi = [], []
    for part in text.split(","):
        piece = part.strip()
        if ":" in piece:
            a, b = piece.split(":", 1)
            lo.append(float(a))
            hi.append(float(b))
        else:
            v = float(piece)
            lo.append(v)
            hi.append(v)
    return TargetBox.interval(lo, hi)


def parse_grid(text: str) -> np.ndarray:
    """Grid syntax 'start:stop:count' (count >= 1, inclusive endpoints)."""
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ParseError(f"bad grid '{text}', expected start:stop:count") from exc
    if count < 1:
        raise ValidationError("grid count must be >= 1")
    if count == 1:
        return np.array([start])
    return np.linspace(start, stop, count)


def parse_radii(text: Optional[str]) -> Optional[np.ndarray]:
    if text is None:
        return None
    return np.array([float(p) for p in text.split(",")])


# ---------------------------------------------------------------------------
# Output formatting


def _fmt_value(x):
    if x is None:
        return ""
    if isinstance(x, float):
        if x == NEG_INF:
            return "-inf"
        if math.isinf(x):
            return "inf"
        return repr(x)
    return str(x)


def write_csv(stream, header, rows):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt_value(v) for v in row])


def _json_cell(x):
    # strict JSON has no Infinity/NaN literals
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def write_json(stream, config: RunConfig, label: str, header, rows):
    payload_rows = []
    for row in rows:
        entry = {}
        flags = {}
        for key, val in zip(header, row):
            entry[key] = _json_cell(val)
            if isinstance(val, float) and not math.isfinite(val):
                if math.isnan(val):
                    flags[key] = "nan"
                else:
                    flags[key] = "-inf" if val < 0 else "inf"
        if flags:
            entry["flags"] = flags
        payload_rows.append(entry)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": config.command,
        "model": label,
        "osc_assumed": True,
        "rows": payload_rows,
    }
    if config.timestamp:
        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    json.dump(doc, stream, indent=2)
    stream.write("\n")


_FLAG_VALUES = {"-inf": NEG_INF, "inf": math.inf, "nan": math.nan}


def read_json_rows(text: str):
    """Re-read a JSON document, restoring flagged non-finite cells."""
    doc = json.loads(text)
    rows = []
    for entry in doc["rows"]:
        restored = dict(entry)
        for key, flag in entry.get("flags", {}).items():
            restored[key] = _FLAG_VALUES[flag]
        restored.pop("flags", None)
        rows.append(restored)
    return doc, rows


# ---------------------------------------------------------------------------
# Command implementations.  Each returns (header, rows, degenerate).


def _scaling_potential(spec: ModelSpec) -> PotentialTable:
    return PotentialTable(spec.log_ratios)


def cmd_pressure(config: RunConfig, spec: ModelSpec):
    grid = parse_grid(config.grid or "0:2:21")
    lam = _scaling_potential(spec)
    rows = [
        (float(t), float(pressure_mod.pressure_exact(lam.scale(t)))) for t in grid
    ]
    return ("t", "pressure"), rows, False


def cmd_dimension(config: RunConfig, spec: ModelSpec):
    lam = _scaling_potential(spec)
    root = pressure_mod.bowen_root(
        lambda t: pressure_mod.pressure_exact(lam.scale(t)),
        bracket=(0.0, 1.0),
        tol=min(config.tol, 1e-10),
    )
    return ("quantity", "value"), [("dimension", root)], False


def cmd_beta(config: RunConfig, spec: ModelSpec):
    if spec.M != 1:
        raise ValidationError("beta grid command handles M=1 models")
    grid = parse_grid(config.grid or "-5:5:41")
    rows = []
    for q in grid:
        bp = spectrum_mod.beta(spec, q)
        rows.append((float(q), bp.beta, float(bp.alpha[0])))
    return ("q", "beta", "alpha"), rows, False


def cmd_spectrum(config: RunConfig, spec: ModelSpec):
    if spec.M != 1:
        raise ValidationError("spectrum grid command handles M=1 models")
    grid = parse_grid(config.grid or "0.4:2.0:33")
    rows = []
    for a in grid:
        res = spectrum_mod.legendre(spec, a)
        rows.append((float(a), res.f, float(res.q_star[0])))
    degenerate = all(f == NEG_INF for _, f, _ in rows)
    return ("alpha", "f", "q_at_min"), rows, degenerate


def cmd_sup_spectrum(config: RunConfig, spec: ModelSpec):
    if config.target is None:
        raise ParseError("sup-spectrum needs --target")
    C = parse_target(config.target)
    res = spectrum_mod.sup_spectrum(spec, C)
    argmax = [float(a) for a in np.atleast_1d(res.argmax)]
    rows = [tuple(["sup"] + [res.value] + argmax)]
    header = tuple(
        ["quantity", "value"] + [f"argmax_{i+1}" for i in range(len(argmax))]
    )
    return header, rows, res.value == NEG_INF


def cmd_mf_bowen(config: RunConfig, spec: ModelSpec):
    if config.target is None:
        raise ParseError("mf-bowen needs --target")
    C = parse_target(config.target)
    header = ("kind", "r", "value")
    if not config.shrinking:
        value = mfzeta_mod.mf_bowen_fixed(
            spec, C, n_max=config.n_max, tol=config.tol, mode=config.mode
        )
        return header, [("fixed", None, value)], value == NEG_INF
    res = mfzeta_mod.mf_bowen_shrinking(
        spec,
        C,
        r_schedule=parse_radii(config.radii),
        n_max=config.n_max,
        tol=config.tol,
        mode=config.mode,
    )
    rows = [("radius", float(r), float(t)) for r, t in zip(res.radii, res.roots)]
    rows.append(("extrapolated", None, res.value))
    return header, rows, res.value == NEG_INF


def cmd_zeta(config: RunConfig, spec: ModelSpec):
    phi = _scaling_potential(spec).scale(config.t)
    C = parse_target(config.target) if config.target else None
    coeffs = mfzeta_mod.mf_zeta_series(
        spec, phi, C, n_max=config.n_max, mode=config.mode
    )
    per_n = coeffs.per_n()
    rows = [
        ("coefficient", n, float(coeffs.log_a[n]), float(per_n[n]))
        for n in range(1, coeffs.n_max + 1)
    ]
    try:
        est = pressure_mod.radius_estimate(coeffs)
        rows.append(("radius", None, est.log_radius, est.trend_diagnostic))
        degenerate = False
    except MfShiftError:
        rows.append(("radius", None, math.inf, None))
        degenerate = True
    return ("record", "n", "log_a", "per_n"), rows, degenerate


def cmd_birkhoff(config: RunConfig, spec: ModelSpec):
    if config.observable_path is None:
        raise ParseError("birkhoff needs --observable")
    if config.target is None:
        raise ParseError("birkhoff needs --target")
    obs = parse_observable(config.observable_path, spec.N)
    C = parse_target(config.target)
    rows = []
    degenerate = False
    if config.route in ("variational", "both"):
        try:
            res = birkhoff_mod.erg_spectrum_variational(spec, obs, C)
            rows.append(("variational", None, res.value, res.constraint_gap))
        except InfeasibleConstraint:
            rows.append(("variational", None, NEG_INF, None))
            degenerate = True
    if config.route in ("zeta", "both"):
        res = birkhoff_mod.erg_bowen(
            spec, obs, C, mode="shrinking", n_max=config.n_max, tol=config.tol
        )
        for r, t in zip(res.radii, res.roots):
            rows.append(("zeta-radius", float(r), float(t), None))
        rows.append(("zeta", None, res.value, None))
        degenerate = degenerate or res.value == NEG_INF
    return ("route", "r", "value", "gap"), rows, degenerate


def cmd_oracle(config: RunConfig, spec: ModelSpec):
    C = parse_target(config.target) if config.target else None
    phi = _scaling_potential(spec).scale(0.0)  # phi = 0: counting sums
    rows = []
    worst = 0.0
    for n in range(1, config.n + 1):
        rep = oracle_mod.compare_constrained(spec, phi, C, n, mode=config.mode)
        rows.append(
            (rep.quantity, n, rep.naive, rep.fast, rep.abs_deviation, rep.rel_deviation)
        )
        worst = max(worst, rep.rel_deviation)
    if C is not None and spec.N <= 3:
        rep = oracle_mod.compare_variational(spec, C)
        rows.append(
            (rep.quantity, None, rep.naive, rep.fast, rep.abs_deviation, rep.rel_deviation)
        )
    header = ("quantity", "n", "naive", "fast", "abs_dev", "rel_dev")
    return header, rows, False


COMMANDS = {
    "pressure": cmd_pressure,
    "dimension": cmd_dimension,
    "beta": cmd_beta,
    "spectrum": cmd_spectrum,
    "sup-spectrum": cmd_sup_spectrum,
    "mf-bowen": cmd_mf_bowen,
    "zeta": cmd_zeta,
    "birkhoff": cmd_birkhoff,
    "oracle": cmd_oracle,
}


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a ParseError (exit 3), not argparse's exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
        prog="mfshift",
        description="Multifractal pressure, zeta series and spectra on full shifts",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--model", required=True, help="model JSON file")
        sp.add_argument("--target", help="box 'lo:hi' or point 'a', comma-separated coords")
        sp.add_argument("--mode", choices=("L", "M"), default="L")
        sp.add_argument("--grid", help="start:stop:count")
        sp.add_argument("--n-max", type=int, default=400)
        sp.add_argument("--n", type=int, default=10, help="levels for oracle runs")
        sp.add_argument(
            "--t", type=float, default=1.0, help="scaling multiplier for zeta"
        )
        sp.add_argument("--shrinking", action="store_true")
        sp.add_argument("--radii", help="comma-separated decreasing radii")
        sp.add_argument("--observable", help="observable JSON file (birkhoff)")
        sp.add_argument(
            "--route", choices=("zeta", "variational", "both"), default="both"
        )
        sp.add_argument("--tol", type=float, default=1e-9)
        sp.add_argument("--output", default="-", help="output path, '-' for stdout")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit the timestamp field for byte-identical reruns",
        )
    return p


def config_from_args(args) -> RunConfig:
    return RunConfig(
        command=args.command,
        model_path=args.model,
        target=args.target,
        mode=args.mode,
        n_max=args.n_max,
        shrinking=args.shrinking,
        radii=args.radii,
        grid=args.grid,
        observable_path=args.observable,
        route=args.route,
        n=args.n,
        t=args.t,
        tol=args.tol,
        output=args.output,
        fmt=args.format,
        timestamp=not args.no_timestamp,
    )


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    spec = parse_model(config.model_path)
    header, rows, degenerate = COMMANDS[config.command](config, spec)
    buf = io.StringIO()
    if config.fmt == "csv":
        write_csv(buf, header, rows)
    else:
        write_json(buf, config, spec.label, header, rows)
    text = buf.getvalue()
    if config.output == "-":
        sys.stdout.write(text)
    else:
        Path(config.output).write_text(text)
    return EXIT_DEGENERATE if degenerate else EXIT_OK


def main(argv=None) -> int:
    try:
        return run(config_from_args(build_parser().parse_args(argv)))
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BracketFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BRACKET
    except InfeasibleConstraint as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except MfShiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
