import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from robin_semiclassics import cli, coeffs, halfline, riesz, spectra1d


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    comments, columns, rows = [], None, []
    for line in text.strip().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, columns, rows


def test_readme_cli_examples_run(capsys):
    # A list that starts with a negative value must be written --b=-1,0,1:
    # argparse reads a separate -1,0,1 as a flag.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [line for line in block.splitlines() if line.startswith("robin-semiclassics ")]
    assert len(examples) == 5
    for line in examples:
        code, _, err = run_cli(shlex.split(line)[1:], capsys)
        assert code == 0, (line, err)


def test_workflow_run_steps_are_single_yaml_values():
    # A plain (unquoted) YAML scalar may not hold ": ", which reads as a
    # mapping key, and " #" ends it, starting a comment. The first makes the
    # workflow fail to load, so no CI job runs; the second cuts the command.
    # Such a step is written as a block scalar, "run: |".
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
    for number, line in enumerate(workflow.read_text().splitlines(), start=1):
        step = re.match(r"\s*(?:- )?run: (.*)", line)
        if step and not step.group(1).startswith(("|", ">", "'", '"')):
            assert ": " not in step.group(1) and " #" not in step.group(1), f"tier1.yml:{number}: {line.strip()}"


def test_coeff_row_values(capsys):
    code, out, _ = run_cli(["coeff", "--d", "2", "--b", "0"], capsys)
    assert code == 0
    comments, columns, rows = parse_csv(out)
    assert columns == ["d", "b", "l1_d", "l1_dm1", "c_d", "l2", "abs_err"]
    row = dict(zip(columns, rows[0]))
    assert abs(float(row["l2"]) - 1.0 / (6.0 * math.pi)) < 1e-12
    assert any("command = coeff" in c for c in comments)


def test_coeff_cross_module_identity(capsys):
    code, out, _ = run_cli(["coeff", "--d", "2", "--b", "-1"], capsys)
    assert code == 0
    _, columns, rows = parse_csv(out)
    l2_cell = float(dict(zip(columns, rows[0]))["l2"])
    target = coeffs.c_d(2).value * (halfline.i_b_integral(2, -1.0) + math.pi * 2.0**1.5)
    assert abs(l2_cell - target) <= 1e-6


def test_coeff_empty_grid_usage_error(capsys):
    code, _, err = run_cli(["coeff", "--d", "2", "--b", ""], capsys)
    assert code == 2
    assert "non-empty" in err


def test_coeff_d1_reports_the_coefficient_range(capsys):
    # l1(d - 1) once checked d first and reported the range [1, 8] for d - 1 = 0.
    code, out, err = run_cli(["coeff", "--d", "1", "--b", "1"], capsys)
    assert code == 2 and out == ""
    assert "dimension must lie in [2, 8], got 1" in err


@pytest.mark.parametrize("d", ["50", "-3"])
def test_model_dimension_out_of_range_is_a_usage_error(capsys, d):
    code, out, err = run_cli(["model", "--d", d, "--b", "1", "--t", "1"], capsys)
    assert code == 2 and out == ""
    assert f"dimension must lie in [2, 8], got {d}" in err


def test_sweep_nan_h_is_a_usage_error(capsys):
    code, out, err = run_cli(["sweep", "--regime", "fixed", "--b0", "1",
                              "--h", "nan,0.01,0.02,0.03"], capsys)
    assert code == 2 and out == ""
    assert "need h > 0, got nan" in err


@pytest.mark.parametrize("regime", [["--regime", "small", "--b0", "1"],
                                    ["--regime", "large", "--gamma", "0.25", "--b0", "-1"]],
                         ids=["small", "large"])
def test_sweep_nan_h_names_h_in_every_regime(capsys, regime):
    # These regimes once realized the facets first and named them instead.
    code, out, err = run_cli(["sweep", *regime, "--h", "nan,0.01,0.02,0.03"], capsys)
    assert code == 2 and out == ""
    assert "need h > 0, got nan" in err


SWEEP = ["sweep", "--regime", "fixed", "--b0", "1", "--h", "0.2,0.1,0.05,0.025"]


@pytest.mark.parametrize("args,config,code,message", [
    (["coeff"], None, 2, "coeff requires --b"),
    (["model", "--t", "1"], None, 2, "model requires --b"),
    (["model"], "b = 1\n", 2, "model requires --t"),
    (["model"], None, 2, "model requires --b and --t"),
    (["spectrum", "--Lambda", "100"], None, 2, "spectrum requires --L"),
    (["spectrum"], "L = 1\n", 2, "spectrum requires --Lambda"),
    (["sweep"], "b0 = 1\n", 2, "sweep requires --regime"),
    (["sweep", "--regime", "fixed"], None, 2, "sweep requires --b0"),
    (["sweep", "--regime", "large", "--b0", "-1"], None, 2, "large regime requires --gamma"),
    # Once a Neumann sweep labelled small.
    (["sweep", "--regime", "small", "--s", "inf", "--b0", "1"], None, 2,
     "small regime needs a finite exponent s > 0, got inf"),
    (["sweep", "--regime", "fixed", "--b0", "1,2,3"], None, 2, "--b0 needs 1 or 4 values"),
    (["coeff", "--b", "1,one"], None, 2, "--b: could not convert"),
    (["model", "--b", "1", "--t=-1"], None, 2, "t >= 0, got -1.0"),
    (SWEEP[:-1] + ["0.2,0.1,0.05"], None, 2, "at least 4 h values"),
    (["coeff", "--b", "0", "--config", "{tmp}/absent.cfg"], None, 2, "cannot read config file"),
    (["coeff", "--b", "0"], "d 2\n", 2, "expected 'key = value'"),
    (["coeff", "--b", "0", "--output", "{tmp}/absent/out.csv"], None, 2, "cannot write output"),
    (SWEEP, None, 3, "Kroger lower bound violated"),
    # The box is the one check on b0, in every regime.
    (["sweep", "--regime", "fixed", "--b0", "nan"], None, 2, "facet Robin coefficients must be finite"),
    (["sweep", "--regime", "large", "--gamma", "0.25", "--b0", "1,1,inf,1"], None, 2,
     "facet Robin coefficients must be finite"),
    # A finite b0 whose realized coupling overflows is refused naming it and h:
    # c = b/h in the fixed regime, scale(h) * b0 in the large one.
    (["sweep", "--regime", "fixed", "--b0=1e308", "--h", "0.1,0.05,0.02,0.01"], None, 2,
     "c = b/h overflows a float for facet b = 1e+308 at h = 0.1"),
    (["sweep", "--regime", "large", "--gamma", "0.9", "--b0=1e306", "--h", "1e-3,5e-4,2e-4,1e-4"], None, 2,
     "b = scale(h) * b0 overflows a float for facet b0 = 1e+306 at h = 0.001"),
    # About 3e149 phase indices, refused before any array is allocated.
    (["spectrum", "--L", "1", "--Lambda", "1e300"], None, 2, "3.183e+149 eigenvalues"),
    # A phi mesh of 2e9 panels, refused before it is built.
    (["model", "--b", "1", "--t", "1e9"], None, 3, "needs 2e+09 panels"),
], ids=["coeff-b", "model-b", "model-t-config", "model-both", "spectrum-L", "spectrum-Lambda-config",
        "sweep-regime-config", "sweep-b0", "gamma", "s-inf", "b0-count", "non-float", "negative-t",
        "three-h", "config-unreadable", "config-no-equals", "output-unwritable", "kroger",
        "b0-nan", "b0-inf", "c-overflow", "realized-b-overflow", "phase-count-cap", "phi-panel-budget"])
def test_usage_errors_name_the_option(tmp_path, monkeypatch, capsys, args, config, code, message):
    if code == 3:
        monkeypatch.setattr(riesz, "kroger_check", lambda box, h, trace: False)
    args = [a.replace("{tmp}", str(tmp_path)) for a in args]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        args += ["--config", str(tmp_path / "run.cfg")]
    got, out, err = run_cli(args, capsys)
    assert got == code
    assert out == ""
    assert message in err


def test_sweep_h_whose_inverse_square_overflows_is_a_usage_error(capsys):
    # It once ended in an OverflowError traceback; every h is checked before any point runs.
    code, out, err = run_cli(["sweep", "--regime", "fixed", "--b0", "0",
                              "--h", "0.04,0.02,0.01,1e-160"], capsys)
    assert code == 2 and out == ""
    assert "h = 1e-160 is too small: h^-2 overflows a float" in err


def test_six_dimensional_fold_past_the_budget_is_a_usage_error():
    # At h = 1e-3 one half's fold would build 355762 x 780 sums, 2.07 GiB,
    # which once ended in a numpy memory-error traceback. The child runs
    # under a 2.5 GB address-space cap, so an unguarded fold fails there.
    resource = pytest.importorskip("resource")
    sides = ",".join(repr(math.sqrt(n)) for n in range(1, 7))
    src = str(Path(cli.__file__).resolve().parents[1])

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2_500_000_000, 2_500_000_000))

    run = subprocess.run([sys.executable, "-m", "robin_semiclassics", "sweep", "--sides", sides,
                          "--regime", "fixed", "--b0", "1", "--h", "4e-3,3e-3,2e-3,1e-3"],
                         env=dict(os.environ, PYTHONPATH=src), preexec_fn=cap,
                         capture_output=True, text=True, check=False)
    assert run.returncode == 2 and run.stdout == ""
    assert "a fold of 355762 x 780 eigenvalue sums is past the budget of 134217728" in run.stderr
    assert "sums at h = 0.001" in run.stderr
    assert "Traceback" not in run.stderr


def test_python_m_entry_point():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def run(*args):
        return subprocess.run([sys.executable, "-m", "robin_semiclassics", *args], env=env,
                              capture_output=True, text=True, check=False)

    ok = run("coeff", "--d", "2", "--b", "1")
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.startswith("# robin-semiclassics")
    usage = run("coeff")
    assert usage.returncode == 2 and usage.stdout == ""
    assert "coeff requires --b" in usage.stderr


def test_cli_runs_without_loading_scipy(tmp_path):
    # scipy serves only the finite-difference test oracle; importing it
    # would take most of a call's start-up time. b0 = -1 solves bound states.
    script = (
        "import sys\n"
        "from robin_semiclassics import cli\n"
        "code = cli.main(['sweep', '--regime', 'fixed', '--b0', '-1', '--h', '0.04,0.02,0.01,0.005',\n"
        f"                 '--output', {str(tmp_path / 'sweep.csv')!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=False)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0", "[]"]


def test_csv_cells_roundtrip(capsys):
    code, out, _ = run_cli(["coeff", "--d", "3", "--b", "0.7,-2.5"], capsys)
    assert code == 0
    _, columns, rows = parse_csv(out)
    for row, b in zip(rows, (0.7, -2.5)):
        cell = dict(zip(columns, row))
        assert float(cell["l2"]) == coeffs.l2(3, b).value
        assert float(cell["c_d"]) == coeffs.c_d(3).value


def test_spectrum_neumann(capsys):
    code, out, _ = run_cli(["spectrum", "--L", "1", "--cl", "0", "--cr", "0",
                            "--Lambda", "100"], capsys)
    assert code == 0
    comments, columns, rows = parse_csv(out)
    assert columns == ["n", "lambda"]
    # The zero ground state is neither negative nor positive.
    assert comments[-1] == '# certificate = {"n_negative": 0, "n_positive": 3}'
    lams = [float(dict(zip(columns, r))["lambda"]) for r in rows]
    expected = [0.0, math.pi**2, 4 * math.pi**2, 9 * math.pi**2]
    assert len(lams) == 4
    assert max(abs(a - b) for a, b in zip(lams, expected)) < 1e-9


def test_spectrum_negative_pair(capsys):
    code, out, _ = run_cli(["spectrum", "--L", "1", "--cl", "-3", "--cr", "-3",
                            "--Lambda", "100"], capsys)
    assert code == 0
    _, columns, rows = parse_csv(out)
    lams = [float(dict(zip(columns, r))["lambda"]) for r in rows]
    assert sum(1 for lam in lams if lam < 0.0) == 2


def test_spectrum_deep_near_degenerate_pair(capsys):
    # The two wells' states differ by less than float resolution.
    code, out, _ = run_cli(["spectrum", "--L", "1.4352426176743935", "--cl", "-2537.9354549289155",
                            "--cr", "-2537.93545492892", "--Lambda", "100"], capsys)
    assert code == 0
    _, columns, rows = parse_csv(out)
    lams = [float(dict(zip(columns, r))["lambda"]) for r in rows]
    assert sum(1 for lam in lams if lam < 0.0) == 2


def test_spectrum_uncertified_bound_state_exits_3(monkeypatch, capsys):
    # A branch of the boundary form with no sign change is a certification
    # failure (exit 3), not a usage error.
    monkeypatch.setattr(spectra1d, "_boundary_form_branch", lambda kappa, iv, upper: 1.0)
    code, out, err = run_cli(["spectrum", "--L", "1", "--cl", "-3", "--cr", "-3",
                              "--Lambda", "100"], capsys)
    assert code == 3
    assert out == ""
    assert "different signs" in err


@pytest.mark.parametrize("cl,cr", [("1e200", "1e200"), ("-1e200", "-1e200"), ("-1e200", "0")])
def test_spectrum_overflowing_couplings_usage_error(cl, cr, capsys):
    code, out, err = run_cli(["spectrum", "--L", "1", f"--cl={cl}", f"--cr={cr}",
                              "--Lambda", "100"], capsys)
    assert code == 2
    assert out == ""
    assert "overflows" in err


def test_model_bound_state(capsys):
    code, out, _ = run_cli(["model", "--b", "-1", "--t", "0"], capsys)
    assert code == 0
    _, columns, rows = parse_csv(out)
    cell = dict(zip(columns, rows[0]))
    assert abs(float(cell["psi_bound"]) - math.sqrt(2.0)) < 1e-12
    assert abs(float(cell["psi"]) - 1.0 / math.sqrt(2.0)) < 1e-12


def test_model_tiny_b_is_the_b_zero_kernel(capsys):
    # --b 1e-300 once exited 3: the quadrature saw 0/0 at the cluster cuts.
    code, out, err = run_cli(["model", "--b", "1e-300", "--t", "1"], capsys)
    assert code == 0, err
    _, columns, rows = parse_csv(out)
    assert abs(float(dict(zip(columns, rows[0]))["i_b"]) - halfline.i_b(2, 0.0, 1.0)) <= 1e-9


def test_model_huge_b_is_minus_the_b_zero_kernel(capsys):
    # --b=1e200 once exited 3: b * b overflowed in the kernel factors.
    code, out, err = run_cli(["model", "--b=1e200", "--t", "1"], capsys)
    assert code == 0, err
    _, columns, rows = parse_csv(out)
    assert abs(float(dict(zip(columns, rows[0]))["i_b"]) + halfline.i_b(2, 0.0, 1.0)) <= 1e-12


def test_coeff_tiny_b_is_the_b_zero_coefficient(capsys):
    # --b=1e-300 once exited 3: the rest integral saw 0/0.
    code, out, err = run_cli(["coeff", "--d", "2", "--b=1e-300"], capsys)
    assert code == 0, err
    _, columns, rows = parse_csv(out)
    assert float(dict(zip(columns, rows[0]))["l2"]) == coeffs.l2(2, 0.0).value


@pytest.mark.parametrize("b", ["-1e120", "-1e200"])
def test_coeff_bound_state_overflow_usage_error(b, capsys):
    # --b=-1e120 once ended in an OverflowError traceback, --b=-1e200 printed l2 = inf.
    code, out, err = run_cli(["coeff", "--d", "2", f"--b={b}"], capsys)
    assert code == 2
    assert "bound-state mass" in err and "overflows" in err


def test_model_requires_t(capsys):
    code, _, err = run_cli(["model", "--b", "1"], capsys)
    assert code == 2


@pytest.mark.parametrize("args", [["--b", "1", "--t", "nan"], ["--b", "nan", "--t", "1"],
                                  ["--b", "1", "--t", "inf"]])
def test_model_non_finite_usage_error(args, capsys):
    code, _, err = run_cli(["model", *args], capsys)
    assert code == 2
    assert "finite" in err


def test_sweep_gamma_rejected(capsys):
    code, _, err = run_cli(["sweep", "--regime", "large", "--gamma", "1.0", "--b0", "-1"], capsys)
    assert code == 2
    assert "gamma" in err


def test_sweep_duplicate_h_rejected(capsys):
    code, _, err = run_cli(["sweep", "--regime", "fixed", "--b0", "1",
                            "--h", "0.04,0.04,0.02,0.01"], capsys)
    assert code == 2
    assert "distinct" in err


def test_sweep_runs_and_reports_fit(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(["sweep", "--regime", "fixed", "--b0", "1",
                          "--h", "0.2,0.1,0.05,0.025", "--output", str(out_file)], capsys)
    assert code == 0
    comments, columns, rows = parse_csv(out_file.read_text())
    assert columns == ["h", "trace", "weyl", "boundary", "remainder",
                       "remainder_normalized", "eig_count", "kroger_ok"]
    assert len(rows) == 4
    assert all(dict(zip(columns, r))["kroger_ok"] == "true" for r in rows)
    fit_lines = [c for c in comments if c.startswith("# fit = ")]
    assert len(fit_lines) == 1
    fit = json.loads(fit_lines[0][len("# fit = "):])
    assert "fitted_exponent" in fit


def test_sweep_neumann_default_h_list(tmp_path, capsys):
    out_file = tmp_path / "neumann.csv"
    code, _, _ = run_cli(["sweep", "--regime", "fixed", "--b0", "0",
                          "--output", str(out_file)], capsys)
    assert code == 0
    comments, columns, rows = parse_csv(out_file.read_text())
    assert len(rows) == 4  # default h list 0.04, 0.02, 0.01, 0.005
    fit = json.loads([c for c in comments if c.startswith("# fit = ")][0][len("# fit = "):])
    assert fit["fitted_exponent"] > 0.3


def test_sweep_timings_column_opt_in(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(["sweep", "--regime", "fixed", "--b0", "0",
                          "--h", "0.2,0.1,0.05,0.025", "--timings",
                          "--output", str(out_file)], capsys)
    assert code == 0
    _, columns, rows = parse_csv(out_file.read_text())
    assert columns[-1] == "seconds"
    assert all(float(dict(zip(columns, r))["seconds"]) >= 0.0 for r in rows)


def test_json_format(capsys):
    code, out, _ = run_cli(["coeff", "--d", "2", "--b", "0,1", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["d", "b", "l1_d", "l1_dm1", "c_d", "l2", "abs_err"]
    assert len(doc["rows"]) == 2
    assert abs(doc["rows"][0]["l2"] - 1.0 / (6.0 * math.pi)) < 1e-12
    assert doc["config"]["command"] == "coeff"


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 2\nb = 0\n")
    code, out, _ = run_cli(["coeff", "--config", str(cfg), "--b", "1"], capsys)
    assert code == 0
    _, columns, rows = parse_csv(out)
    row = dict(zip(columns, rows[0]))
    assert float(row["b"]) == 1.0  # flag wins over config file
    assert float(row["d"]) == 2.0


def test_config_boolean_parsing(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("timings = false\nregime = fixed\nb0 = 0\nh = 0.2,0.1,0.05,0.025\n")
    code, out, _ = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 0
    _, columns, _ = parse_csv(out)
    assert "seconds" not in columns


@pytest.mark.parametrize("text,timed", [
    ("# a comment line\n\ntimings = yes\n", True),
    ("timings = off\n", False),
], ids=["comment-blank-yes", "off"])
def test_config_timings_switch(tmp_path, capsys, text, timed):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + "regime = fixed\nb0 = 0\nh = 0.2,0.1,0.05,0.025\n")
    code, out, _ = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 0
    _, columns, _ = parse_csv(out)
    assert ("seconds" in columns) == timed


def test_config_with_byte_order_mark(tmp_path, capsys):
    # A UTF-8 byte-order mark is not part of the first key.
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfregime = fixed\nb0 = 0\nh = 0.2,0.1,0.05,0.025\n")
    code, out, err = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 0, err
    assert "# regime = fixed" in out.splitlines()


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 2\nbanana = 7\n")
    code, _, err = run_cli(["coeff", "--config", str(cfg), "--b", "0"], capsys)
    assert code == 2
    assert "banana" in err


def test_byte_identical_reruns(tmp_path, capsys):
    args = ["sweep", "--regime", "fixed", "--b0", "1", "--h", "0.2,0.1,0.05,0.025"]
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        assert run_cli(args + ["--output", str(p)], capsys)[0] == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("command,text,option", [
    (["coeff", "--b", "0"], "format = xml\n", "format"),  # checked against the flag's choices
    (["coeff", "--b", "0"], "d = two\n", "--d"),  # converted by the option's type
    (["sweep", "--regime", "fixed", "--b0", "1"], "timings = maybe\n", "timings"),
], ids=["format", "d", "timings"])
def test_config_values_checked_like_flags(tmp_path, capsys, command, text, option):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, out, err = run_cli([*command, "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert "error:" in err and option in err


@pytest.mark.parametrize("args", [
    ["coeff", "--b", "0", "--bogus"],
    ["coeff", "--d", "two", "--b", "0"],
    ["sweep", "--regime", "medium", "--b0", "1"],
    [],
], ids=["unknown-flag", "bad-type", "bad-choice", "no-command"])
def test_bad_flags_return_usage_exit(capsys, args):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--help"])
    assert exc.value.code == 0
    assert "--regime" in capsys.readouterr().out


def test_config_choice_accepted_and_flag_wins(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = json\nd = 3\n")
    code, out, _ = run_cli(["coeff", "--config", str(cfg), "--b", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["d"] == 3  # typed by argparse, not kept as a string
    assert doc["config"]["format"] == "json"
    code, out, _ = run_cli(["coeff", "--config", str(cfg), "--b", "0", "--format", "csv"], capsys)
    assert code == 0
    assert out.startswith("# robin-semiclassics")


def test_config_leaves_no_state_for_the_next_call(tmp_path, capsys):
    # The parser is shared by every call in a process; a config file must not change it.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = json\nd = 3\n")
    assert run_cli(["coeff", "--config", str(cfg), "--b", "0"], capsys)[0] == 0
    code, out, _ = run_cli(["coeff", "--b", "0"], capsys)
    assert code == 0
    _, columns, rows = parse_csv(out)
    assert dict(zip(columns, rows[0]))["d"] == "2"
    sweep = ["sweep", "--regime", "fixed", "--b0", "0", "--h", "0.2,0.1,0.05,0.025"]
    cfg.write_text("timings = yes\n")
    code, out, _ = run_cli([*sweep, "--config", str(cfg)], capsys)
    assert code == 0 and "seconds" in parse_csv(out)[1]
    code, out, _ = run_cli(sweep, capsys)
    assert code == 0 and "seconds" not in parse_csv(out)[1]


def test_flag_before_config_still_wins(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("b = 1\n")
    code, out, _ = run_cli(["coeff", "--b", "0", "--config", str(cfg)], capsys)
    assert code == 0
    _, columns, rows = parse_csv(out)
    assert [float(dict(zip(columns, row))["b"]) for row in rows] == [0.0]


def test_config_negative_list(tmp_path, capsys):
    # A separate "-1,0,1" would read as a flag; the config value is passed as --b=-1,0,1.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("b = -1,0,1\n")
    code, out, _ = run_cli(["coeff", "--config", str(cfg)], capsys)
    assert code == 0
    _, columns, rows = parse_csv(out)
    assert [float(dict(zip(columns, row))["b"]) for row in rows] == [-1.0, 0.0, 1.0]


def test_header_records_defaults(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(["sweep", "--regime", "small", "--b0", "1",
                          "--h", "0.2,0.1,0.05,0.025", "--output", str(out_file)], capsys)
    assert code == 0
    comments, _, _ = parse_csv(out_file.read_text())
    header = dict(c[2:].split(" = ", 1) for c in comments[1:] if not c.startswith("# fit = "))
    assert header["sides"] == "1,1.4142135623730951"
    assert header["s"] == "0.5"
    assert header["h"] == "0.2,0.1,0.05,0.025"
    assert header["format"] == "csv"
    assert header["timings"] == "False"
    assert "gamma" not in header and "output" not in header


def test_spectrum_tiny_symmetric_well(capsys):
    # The depth bound's slack once rounded away at L = 1e-300 (exit 3).
    code, out, err = run_cli(["spectrum", "--L", "1e-300", "--cl", "-1", "--cr", "-1",
                              "--Lambda", "1"], capsys)
    assert code == 0, err
    _, columns, rows = parse_csv(out)
    cell = dict(zip(columns, rows[0]))
    assert len(rows) == 1
    assert abs(float(cell["lambda"]) + 2e300) <= 1e-15 * 2e300


def test_spectrum_json_carries_the_certificate(capsys):
    code, out, _ = run_cli(["spectrum", "--L", "1", "--cl", "-3", "--cr", "-3",
                            "--Lambda", "100", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"] == {"n_negative": 2, "n_positive": 2}
    assert len(doc["rows"]) == 4 and "fit" not in doc
