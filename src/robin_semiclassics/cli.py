"""Command-line surface: coefficient tables, model samples, spectra, sweeps.

argparse owns every option: its type, choices and default. A ``--config``
file of ``key = value`` lines is read as flags placed before the command
line's own, so argparse checks each value as it checks a flag and explicit
flags still win. The parser is built once, at import, and never changed.
Every run embeds all resolved options, defaults included, in the header
(CSV ``#`` lines or the JSON ``config`` object), so a plot can be
reproduced from the file alone. A sweep ends with its fit and a spectrum
with its completeness certificate, each a ``# name = {...}`` line (a JSON
object of that name). Output is CSV (default) or JSON. Exit
codes: 0 success, 2 usage error, 3 numerical-certification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import __version__, asympt, coeffs, halfline, riesz, spectra1d
from .errors import CertificationError

USAGE_EXIT = 2
CERTIFICATION_EXIT = 3


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors reach main as usage errors; --help still exits 0."""

    def error(self, message):
        raise _UsageError(message)


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _parse_floats(text, option):
    items = [s.strip() for s in text.split(",") if s.strip() != ""]
    if not items:
        raise _UsageError(f"{option} needs a non-empty comma-separated list")
    try:
        return [float(s) for s in items]
    except ValueError as exc:
        raise _UsageError(f"{option}: {exc}") from None


def _as_bool(text, option):
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise _UsageError(f"{option}: expected a boolean, got {text!r}")


def _config_flags(path, command):
    """The ``key = value`` lines of ``path`` as flags of the subparser ``command``.

    A valued option becomes ``--option=value``, a form that keeps a value
    such as ``-1,0,1`` from reading as a flag; a store_true switch is given
    when its value is true. argparse then types and checks each one exactly
    as it does a flag on the command line.
    """
    actions = {a.dest: a for a in command._actions if a.dest not in ("help", "config")}
    flags = []
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            for line_no, raw in enumerate(handle, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, eq, val = (part.strip() for part in line.partition("="))
                where = f"{path}:{line_no}"
                if not eq:
                    raise _UsageError(f"{where}: expected 'key = value'")
                action = actions.get(key)
                if action is None:
                    raise _UsageError(f"{where}: unknown config key {key!r}")
                if not isinstance(action.default, bool):
                    flags.append(f"{action.option_strings[0]}={val}")
                elif _as_bool(val, f"{where}: {key}"):
                    flags.append(action.option_strings[0])
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}") from None
    return flags


def _write_output(path, fmt, config, columns, rows, trailer):
    """Header, rows and each ``trailer`` object as a ``# name = {...}`` line or JSON key."""
    lines = []
    if fmt == "csv":
        lines.append(f"# robin-semiclassics {__version__}")
        for key in sorted(config):
            lines.append(f"# {key} = {config[key]}")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        for name, value in trailer.items():
            lines.append(f"# {name} = " + json.dumps(value, sort_keys=True))
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "artifact_version": __version__,
            "config": {k: str(v) for k, v in config.items()},
            "columns": list(columns),
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        doc.update(trailer)
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
    b_list = _parse_floats(args.b, "--b")
    d = args.d
    columns = ("d", "b", "l1_d", "l1_dm1", "c_d", "l2", "abs_err")
    cd = coeffs.c_d(d).value  # checks d against the coefficients' range first
    l1_d = coeffs.l1(d).value
    l1_dm1 = coeffs.l1(d - 1).value
    rows = []
    for b in b_list:
        val = coeffs.l2(d, b)
        rows.append((d, b, l1_d, l1_dm1, cd, val.value, val.abs_error_estimate))
    return columns, rows, {}


def _cmd_model(args):
    t_list = _parse_floats(args.t, "--t")
    columns = ("t", "psi", "psi_bound", "i_b")
    rows = []
    for t in t_list:
        rows.append((t, halfline.psi(args.b, t), halfline.psi_bound(args.b, t),
                     halfline.i_b(args.d, args.b, t)))
    return columns, rows, {}


def _cmd_spectrum(args):
    iv = spectra1d.RobinInterval(args.L, args.cl, args.cr)
    spectrum = spectra1d.enumerate_eigenvalues(iv, args.Lambda)
    rows = list(enumerate(spectrum.eigenvalues.tolist()))
    return ("n", "lambda"), rows, {"certificate": dataclasses.asdict(spectrum.certificate)}


def _parse_facets(text, d, option):
    vals = _parse_floats(text, option)
    if len(vals) == 1:
        vals = vals * (2 * d)
    if len(vals) != 2 * d:
        raise _UsageError(f"{option} needs 1 or {2 * d} values for a {d}-d box, got {len(vals)}")
    return tuple((vals[2 * i], vals[2 * i + 1]) for i in range(d))


def _cmd_sweep(args):
    sides = tuple(_parse_floats(args.sides, "--sides"))
    facets = _parse_facets(args.b0, len(sides), "--b0")
    exponent = {asympt.REGIME_SMALL: args.s, asympt.REGIME_LARGE: args.gamma}.get(args.regime, 0.0)
    if exponent is None:
        raise _UsageError("large regime requires --gamma")
    regime = asympt.RegimeSpec(args.regime, exponent)
    box = riesz.BoxDomain(sides, facets)
    h_list = _parse_floats(args.h, "--h")
    if len(h_list) < 4:
        raise _UsageError("sweep needs at least 4 h values for the remainder fit")

    reports = asympt.run_sweep(box, regime, h_list)
    bad = [r.h for r in reports if not r.kroger_ok]
    if bad:
        raise CertificationError(f"Kroger lower bound violated at h = {bad}")
    fit = asympt.fit_sweep(box, regime, reports)

    columns = ["h", "trace", "weyl", "boundary", "remainder", "remainder_normalized",
               "eig_count", "kroger_ok"]
    if args.timings:
        columns.append("seconds")
    rows = []
    for rep in reports:
        row = [rep.h, rep.trace, rep.weyl_term, rep.boundary_term, rep.remainder,
               asympt.normalized_remainder(box, regime, rep), rep.eig_count, rep.kroger_ok]
        if args.timings:
            row.append(round(rep.seconds, 3))
        rows.append(tuple(row))
    return tuple(columns), rows, {"fit": {**dataclasses.asdict(fit), "decay_verified": fit.decay_verified}}


def _build_parser():
    """The parser and its subparsers by command name."""
    parser = _Parser(
        prog="robin-semiclassics",
        description="Robin-Laplacian box spectra, Riesz means, and two-term sweeps.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, required):
        # Not argparse's required=True, which would reject a value from --config.
        p = commands.add_parser(name, help=help)
        p.set_defaults(run=run, required=required)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", help="output path, '-' for stdout")
        p.add_argument("--config", help="key = value config file; flags win")
        return p

    p = command("coeff", _cmd_coeff, "semiclassical coefficient table over a b grid", ("b",))
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--b", help="comma-separated Robin coefficients; a list that starts "
                               "with a negative value needs the --b=-1,0,1 form")

    p = command("model", _cmd_model, "half-line model-operator samples", ("b", "t"))
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--b", type=float)
    p.add_argument("--t", help="comma-separated t values")

    p = command("spectrum", _cmd_spectrum, "1-D Robin interval eigenvalues", ("L", "Lambda"))
    p.add_argument("--L", type=float)
    p.add_argument("--cl", type=float, default=0.0)
    p.add_argument("--cr", type=float, default=0.0)
    p.add_argument("--Lambda", type=float)

    p = command("sweep", _cmd_sweep, "two-term regime sweep over an h list", ("regime", "b0"))
    p.add_argument("--sides", default="1,1.4142135623730951")
    p.add_argument("--b0", help="reference coefficients b0, 1 or 2d comma-separated values; "
                                "a list that starts with a negative value needs the --b0=-1,0,1,1 form")
    p.add_argument("--regime", choices=("fixed", "small", "large"))
    p.add_argument("--s", type=float, default=0.5, help="small-regime exponent in theta = h^s")
    p.add_argument("--gamma", type=float, help="large-regime exponent in Theta = h^-gamma")
    p.add_argument("--h", default="0.04,0.02,0.01,0.005", help="comma-separated h values (>= 4)")
    p.add_argument("--timings", action="store_true",
                   help="append measured wall seconds per row (breaks byte reproducibility)")
    return parser, commands.choices


_PARSER, _COMMANDS = _build_parser()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _PARSER.parse_args(argv)
        if args.config is not None:
            # Config flags go right after the command name, so the command line's own flags win.
            flags = _config_flags(args.config, _COMMANDS[args.command])
            args = _PARSER.parse_args(argv[:1] + flags + argv[1:])
        missing = [f"--{key}" for key in args.required if getattr(args, key) is None]
        if missing:
            raise _UsageError(f"{args.command} requires {' and '.join(missing)}")
        columns, rows, trailer = args.run(args)
        config = {key: value for key, value in vars(args).items()
                  if key not in ("run", "required", "output", "config") and value is not None}
        _write_output(args.output, args.format, config, columns, rows, trailer)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except CertificationError as exc:
        print(f"numerical certification failure: {exc}", file=sys.stderr)
        return CERTIFICATION_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
