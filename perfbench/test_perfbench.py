"""Tests of the benchmark itself: tracer bindings, gate sensitivity, exact counts.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``
(the repository's own suite under tests/ does not collect this file).
The count test runs every workload traced twice and takes a few minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from robin_semiclassics import cli, coeffs, halfline, quadrature, riesz, spectra1d  # noqa: E402

# Counts a later change may rest a claim on: they must repeat bit for bit.
EXACT_COUNTS = ("spectra1d.roots", "spectra1d.brackets", "spectra1d.neg_calls",
                "riesz.tuples", "riesz.pair_candidates", "quadrature.panels")


def bench(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600, check=False)


def test_tracer_wraps_every_namespace_and_restores():
    originals = {
        ("spectra1d", "enumerate_eigenvalues"): spectra1d.enumerate_eigenvalues,
        ("riesz", "enumerate_eigenvalues"): riesz.enumerate_eigenvalues,
        ("riesz", "negative_eigenvalues"): riesz.negative_eigenvalues,
        ("coeffs", "adaptive_quadrature"): coeffs.adaptive_quadrature,
        ("halfline", "adaptive_quadrature"): halfline.adaptive_quadrature,
        ("quadrature", "adaptive_quadrature"): quadrature.adaptive_quadrature,
        ("cli", "main"): cli.main,
    }
    with tracer.Tracer() as active:
        patched = set(active.patched)
        for module, name in originals:
            assert (f"robin_semiclassics.{module}", name) in patched
        assert riesz.enumerate_eigenvalues is spectra1d.enumerate_eigenvalues
        assert riesz.enumerate_eigenvalues is not originals[("riesz", "enumerate_eigenvalues")]
    modules = {"spectra1d": spectra1d, "riesz": riesz, "coeffs": coeffs, "halfline": halfline,
               "quadrature": quadrature, "cli": cli}
    for (module, name), original in originals.items():
        assert getattr(modules[module], name) is original


def test_self_times_partition_the_root_span():
    box = riesz.BoxDomain.uniform((1.0, math.sqrt(2.0)), -1.0)
    with tracer.Tracer() as active:
        report = riesz.riesz_mean(box, 0.01)
        spans = active.take()
    assert spans[0].name == "riesz_mean" and spans[0].parent is None
    assert spans[0].result.eig_count == report.eig_count
    busy = tracer.self_seconds(spans)
    assert math.isclose(sum(busy.values()), spans[0].seconds, rel_tol=1e-9)
    # Two bound-state lookups in axis_spectra, two more inside enumerate_eigenvalues.
    assert [s.name for s in spans].count("negative_eigenvalues") == 4
    assert [s.name for s in spans].count("enumerate_eigenvalues") == 2


def test_clock_rescales_each_gap_by_its_probes():
    clock = speed.Clock(speed.Probe("fixed", lambda: None, 1.0, 1.0))
    # Probe runs of 1, 1 and 2 s: the first gap runs at the reference speed, the second at 1/1.5.
    clock.marks = [(0.0, 1.0), (3.0, 4.0), (8.0, 10.0)]
    assert clock.seconds(0.0, 10.0) == (6.0, 2.0 + 4.0 / 1.5)
    assert clock.seconds(2.0, 9.0) == (5.0, 1.0 + 4.0 / 1.5)
    assert clock.probe_seconds(2.0, 9.0) == 2.0


def test_clock_probes_while_the_program_runs():
    with speed.Clock(speed.SPIN) as clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            sum(range(1000))
        end = time.perf_counter()
    wall, ref = clock.seconds(start, end)
    assert len(clock.marks) >= 4
    assert math.isclose(wall + clock.probe_seconds(start, end), end - start, rel_tol=1e-9)
    assert ref > 0.0


def test_gate_flags_wrong_outputs():
    sweep = workloads.build("sweep2d", 3).ops[0]
    oracle = gates.SweepOracle(sweep)
    text = sweep.run().output
    assert oracle.check(text) == []
    _, rows, _ = gates.parse_sweep_csv(text)
    top = rows[0]["trace"]
    assert oracle.check(text.replace(top, repr(float(top) * (1.0 + 1e-8)), 1))
    assert oracle.check(text.replace("true", "false", 1))
    value = coeffs.l2(3, -0.5).value
    assert gates.check_l2(3, -0.5, value) == []
    assert gates.check_l2(3, -0.5, value * (1.0 + 1e-8))
    assert gates.check_i_b_integral(2, 2.0, -0.5021209361072527) == []
    assert gates.check_i_b_integral(2, 2.0, -0.5021) != []


def test_refuses_to_run_without_the_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for source in HERE.glob("*.py"):
        shutil.copy(source, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep2d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("name", workloads.NAMES)
def test_counts_repeat_across_traced_runs(name):
    results = []
    for _ in range(2):
        proc = bench("--workload", name, "--seed", "11", "--seconds", "0.1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    first, second = results
    assert first["correct"] and second["correct"]
    for metric in EXACT_COUNTS:
        assert first["metrics"][metric]["value"] == second["metrics"][metric]["value"], metric
    assert (first["failed"] / first["attempted"]) == (second["failed"] / second["attempted"])
    expected_failed = 14 / 116 if name == "constants" else 0.0
    assert first["failed"] / first["attempted"] == expected_failed
