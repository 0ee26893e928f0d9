"""Command-line surface: coefficient tables, model samples, spectra, sweeps.

Output is CSV (default) or JSON; every run embeds its fully resolved
configuration in the header so a plot can be reproduced from the file
alone. Exit codes: 0 success, 2 usage error, 3 numerical-certification
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__, asympt, coeffs, halfline, riesz, spectra1d
from .errors import CertificationError

USAGE_EXIT = 2
CERTIFICATION_EXIT = 3

_COMMANDS = ("coeff", "model", "spectrum", "sweep")


class _UsageError(Exception):
    pass


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _parse_floats(text, option):
    items = [s.strip() for s in str(text).split(",") if s.strip() != ""]
    if not items:
        raise _UsageError(f"{option} needs a non-empty comma-separated list")
    try:
        return [float(s) for s in items]
    except ValueError as exc:
        raise _UsageError(f"{option}: {exc}") from None


def _load_config(path, known_keys):
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_no, raw in enumerate(handle, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise _UsageError(f"{path}:{line_no}: expected 'key = value'")
                key, _, val = line.partition("=")
                key = key.strip()
                if key not in known_keys:
                    raise _UsageError(f"{path}:{line_no}: unknown config key {key!r}")
                values[key] = val.strip()
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}") from None
    return values


def _resolve(args, key, fallback=None):
    """Flag value if given, else config-file value, else fallback."""
    value = getattr(args, key.replace("-", "_"))
    if value is not None:
        return value
    if key in args._config_values:
        return args._config_values[key]
    return fallback


def _as_bool(value, option):
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise _UsageError(f"{option}: expected a boolean, got {value!r}")


def _write_output(path, config, columns, rows, fit=None, fmt="csv"):
    lines = []
    if fmt == "csv":
        lines.append(f"# robin-semiclassics {__version__}")
        for key in sorted(config):
            lines.append(f"# {key} = {config[key]}")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        if fit is not None:
            lines.append("# fit = " + json.dumps(fit, sort_keys=True))
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "artifact_version": __version__,
            "config": {k: str(v) for k, v in config.items()},
            "columns": list(columns),
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        if fit is not None:
            doc["fit"] = fit
        text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write output to {path}: {exc}") from None


def _cmd_coeff(args):
    d = int(_resolve(args, "d", 2))
    b_list = _parse_floats(_resolve(args, "b"), "--b") if _resolve(args, "b") is not None else None
    if b_list is None:
        raise _UsageError("coeff requires --b with at least one value")
    columns = ("d", "b", "l1_d", "l1_dm1", "c_d", "l2", "abs_err")
    l1_d = coeffs.l1(d).value
    l1_dm1 = coeffs.l1(d - 1).value
    cd = coeffs.c_d(d).value
    rows = []
    for b in b_list:
        val = coeffs.l2(d, b)
        rows.append((d, b, l1_d, l1_dm1, cd, val.value, val.abs_error_estimate))
    return columns, rows, None


def _cmd_model(args):
    d = int(_resolve(args, "d", 2))
    if _resolve(args, "b") is None:
        raise _UsageError("model requires --b")
    b = float(_resolve(args, "b"))
    if _resolve(args, "t") is None:
        raise _UsageError("model requires --t with at least one value")
    t_list = _parse_floats(_resolve(args, "t"), "--t")
    columns = ("t", "psi", "psi_bound", "i_b")
    rows = []
    for t in t_list:
        if t < 0.0:
            raise _UsageError(f"--t values must be >= 0, got {t}")
        rows.append((t, halfline.psi(b, t), halfline.psi_bound(b, t),
                     halfline.i_b(d, b, t).value))
    return columns, rows, None


def _cmd_spectrum(args):
    if _resolve(args, "L") is None or _resolve(args, "Lambda") is None:
        raise _UsageError("spectrum requires --L and --Lambda")
    iv = spectra1d.RobinInterval(
        float(_resolve(args, "L")),
        float(_resolve(args, "cl", 0.0)),
        float(_resolve(args, "cr", 0.0)),
    )
    spectrum = spectra1d.enumerate_eigenvalues(iv, float(_resolve(args, "Lambda")))
    columns = ("n", "lambda", "bracket_lo", "bracket_hi")
    rows = []
    for n, lam in enumerate(spectrum.eigenvalues):
        lo, hi = spectra1d.eigenvalue_bracket(iv, lam)
        rows.append((n, lam, lo, hi))
    return columns, rows, None


def _parse_facets(text, d, option):
    vals = _parse_floats(text, option)
    if len(vals) == 1:
        vals = vals * (2 * d)
    if len(vals) != 2 * d:
        raise _UsageError(f"{option} needs 1 or {2 * d} values for a {d}-d box, got {len(vals)}")
    return tuple((vals[2 * i], vals[2 * i + 1]) for i in range(d))


def _cmd_sweep(args):
    sides = tuple(_parse_floats(_resolve(args, "sides", "1,1.4142135623730951"), "--sides"))
    d = len(sides)
    kind = _resolve(args, "regime")
    if kind is None:
        raise _UsageError("sweep requires --regime {fixed,small,large}")
    if _resolve(args, "b0") is None:
        raise _UsageError("sweep requires --b0")
    facets = _parse_facets(_resolve(args, "b0"), d, "--b0")
    exponent = 0.0
    if kind == asympt.REGIME_SMALL:
        exponent = float(_resolve(args, "s", 0.5))
    elif kind == asympt.REGIME_LARGE:
        if _resolve(args, "gamma") is None:
            raise _UsageError("large regime requires --gamma")
        exponent = float(_resolve(args, "gamma"))
    try:
        regime = asympt.RegimeSpec(kind, facets, exponent)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    box = riesz.BoxDomain(sides, facets)
    h_list = _parse_floats(_resolve(args, "h", "0.04,0.02,0.01,0.005"), "--h")
    if len(set(h_list)) != len(h_list):
        raise _UsageError("--h values must be distinct")
    if len(h_list) < 4:
        raise _UsageError("sweep needs at least 4 h values for the remainder fit")
    timings = _as_bool(_resolve(args, "timings", False), "--timings")

    reports = []
    seconds = []
    for h in sorted(h_list, reverse=True):
        start = time.perf_counter()
        batch = asympt.run_sweep(box, regime, [h])
        seconds.append(time.perf_counter() - start)
        reports.extend(batch)
    bad = [r.h for r in reports if not r.kroger_ok]
    if bad:
        raise CertificationError(f"Kroger lower bound violated at h = {bad}")
    fit = asympt.fit_sweep(box, regime, reports)

    columns = ["h", "trace", "weyl", "boundary", "remainder", "remainder_normalized",
               "eig_count", "kroger_ok"]
    if timings:
        columns.append("seconds")
    rows = []
    for i, rep in enumerate(reports):
        row = [rep.h, rep.trace, rep.weyl_term, rep.boundary_term, rep.remainder,
               asympt.normalized_remainder(regime, rep, d), rep.eig_count, rep.kroger_ok]
        if timings:
            row.append(round(seconds[i], 3))
        rows.append(tuple(row))
    fit_doc = {
        "points": [[h, y] for h, y in fit.points],
        "fitted_exponent": fit.fitted_exponent,
        "fit_residual": fit.fit_residual,
        "sign_flips": fit.sign_flips,
        "decay_verified": fit.decay_verified,
    }
    return tuple(columns), rows, fit_doc


_COMMAND_OPTIONS = {
    "coeff": ("d", "b", "format", "output", "config"),
    "model": ("d", "b", "t", "format", "output", "config"),
    "spectrum": ("L", "cl", "cr", "Lambda", "format", "output", "config"),
    "sweep": ("sides", "b0", "regime", "s", "gamma", "h", "timings",
              "format", "output", "config"),
}

_RUNNERS = {
    "coeff": _cmd_coeff,
    "model": _cmd_model,
    "spectrum": _cmd_spectrum,
    "sweep": _cmd_sweep,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="robin-semiclassics",
        description="Robin-Laplacian box spectra, Riesz means, and two-term sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--output", default=None, help="output path, '-' for stdout")
        p.add_argument("--config", default=None, help="key = value config file; flags win")

    p = sub.add_parser("coeff", help="semiclassical coefficient table over a b grid")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--b", default=None, help="comma-separated Robin coefficients")
    common(p)

    p = sub.add_parser("model", help="half-line model-operator samples")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--t", default=None, help="comma-separated t values")
    common(p)

    p = sub.add_parser("spectrum", help="1-D Robin interval eigenvalues")
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--cl", type=float, default=None)
    p.add_argument("--cr", type=float, default=None)
    p.add_argument("--Lambda", type=float, default=None)
    common(p)

    p = sub.add_parser("sweep", help="two-term regime sweep over an h list")
    p.add_argument("--sides", default=None)
    p.add_argument("--b0", default=None)
    p.add_argument("--regime", default=None, choices=("fixed", "small", "large"))
    p.add_argument("--s", type=float, default=None, help="small-regime exponent in theta = h^s")
    p.add_argument("--gamma", type=float, default=None, help="large-regime exponent in Theta = h^-gamma")
    p.add_argument("--h", default=None, help="comma-separated h values (>= 4)")
    p.add_argument("--timings", action="store_true", default=None,
                   help="append measured wall seconds per row (breaks byte reproducibility)")
    common(p)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        known = _COMMAND_OPTIONS[args.command]
        config_path = args.config
        args._config_values = _load_config(config_path, set(known)) if config_path else {}
        columns, rows, fit = _RUNNERS[args.command](args)
        fmt = _resolve(args, "format", "csv")
        if fmt not in ("csv", "json"):
            raise _UsageError(f"unknown format {fmt!r}")
        resolved = {key: _resolve(args, key) for key in known
                    if key not in ("output", "config") and _resolve(args, key) is not None}
        resolved["command"] = args.command
        _write_output(_resolve(args, "output"), resolved, columns, rows, fit=fit, fmt=fmt)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except CertificationError as exc:
        print(f"numerical certification failure: {exc}", file=sys.stderr)
        return CERTIFICATION_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
