"""Benchmark for robin_semiclassics: end-to-end metrics per workload, per-layer metrics traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep2d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One run measures set-up time, then repeats passes over the workload's
seeded operations for about ``--seconds`` (at least one pass, two when
traced; the last pass ends within half a pass of the deadline), then
checks every operation's output against independent oracles outside the
timed region. End-to-end timings are rescaled to a reference machine
speed measured while they run (speed.py), because a shared VM's speed
drifts by more than any bound. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics. The last line of standard output is one
JSON object; a fuller record goes to perfbench/out/.
"""

from __future__ import annotations

import os

# Held fixed before numpy loads, so both sides of a comparison use one thread.
THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE = "robin_semiclassics"

# Set-up: a fresh interpreter imports the package and runs one tiny CLI call.
SETUP_SAMPLES = 5
SETUP_ARGV = ("coeff", "--d", "2", "--b", "1")
SETUP_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "frontier_op_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "ratio",
}
PER_LAYER = {
    "spectra1d.busy_s": "s",
    "spectra1d.calls": "count",
    "spectra1d.roots": "count",
    "spectra1d.roots_per_s": "1/s",
    "spectra1d.brackets": "count",
    "spectra1d.neg_calls": "count",
    "spectra1d.inflated_share": "ratio",
    "spectra1d.failed": "count",
    "riesz.busy_s": "s",
    "riesz.tuples": "count",
    "riesz.tuples_per_s": "1/s",
    "riesz.pair_candidates": "count",
    "riesz.pair_keep_ratio": "ratio",
    "riesz.bytes_computed": "B",
    "coeffs.l2_calls": "count",
    "coeffs.l2_busy_s": "s",
    "coeffs.l2_failed": "count",
    "quadrature.calls": "count",
    "quadrature.panels": "count",
    "quadrature.busy_s": "s",
    "halfline.i_b_integral_calls": "count",
    "halfline.i_b_integral_busy_s": "s",
    "halfline.failed": "count",
    "asympt.busy_s": "s",
    "cli.busy_s": "s",
    "cli.bytes_written": "B",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
}
# Per-layer values that vary from pass to pass and are reported as medians: the
# timings, and the CSV size, whose --timings column holds measured seconds.
# Every other value is a count or a ratio of counts and must repeat exactly.
VARYING_LAYER_METRICS = {"spectra1d.busy_s", "spectra1d.roots_per_s", "riesz.busy_s",
                         "riesz.tuples_per_s", "coeffs.l2_busy_s", "quadrature.busy_s",
                         "halfline.i_b_integral_busy_s", "asympt.busy_s", "cli.busy_s",
                         "cli.bytes_written"}
# Largest pair-sum block the traced run materializes when it recounts the reduction.
RECOUNT_CHUNK = 4_000_000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="sweep2d, sweep2d_large, box4d, constants, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_vars": THREAD_VARS,
    }


def measure_setup():
    """(wall, reference) seconds from spawning an interpreter until it imported the package and ran one call."""
    import speed

    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    samples = []
    for _ in range(SETUP_SAMPLES):
        with speed.Clock(speed.SPIN) as clock:
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", PACKAGE, *SETUP_ARGV], cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=SETUP_TIMEOUT_S, check=False)
            end = time.perf_counter()
        samples.append(clock.seconds(start, end))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up call failed: {proc.stderr.decode(errors='replace')}")
    return samples


def run_pass(workload):
    """One pass under a speed clock; ``*_ref_s`` values are rescaled to the reference speed."""
    import speed
    import workloads

    with speed.Clock(speed.PROBES[workload.probe]) as clock:
        cpu0 = time.process_time()
        start = time.perf_counter()
        results = [workloads.timed(op) for op in workload.ops]
        end = time.perf_counter()
        cpu = time.process_time() - cpu0
    wall, ref = clock.seconds(start, end)
    # The probes run on this thread, so their time is CPU time of the pass too.
    cpu -= clock.probe_seconds(start, end)
    return {
        "wall_s": wall,
        "ref_s": ref,
        "cpu_s": cpu,
        "cpu_ref_s": cpu * ref / wall,
        "frontier_s": workload.frontier_seconds(results),
        "frontier_ref_s": clock.seconds(*workload.frontier_interval(results))[1],
        "probes": len(clock.marks),
        "results": results,
    }


def reduction_counts(spectra, h):
    """Candidates, kept sums and computed bytes of riesz_mean's d >= 3 pair reduction.

    Recomputes the same elementwise sums and comparisons as the reduction,
    from the public axis_spectra output, so kept counts match exactly.
    Bytes are computed from array sizes: 8 per candidate sum, 1 per mask
    entry, 8 per kept sum, and 8 per entry of the final prefix-sum array.
    """
    import numpy as np

    cutoff = h**-2
    combined = spectra[0]
    size = combined.size
    candidates = kept = computed = 0
    for i in range(1, len(spectra) - 1):
        allowance = sum(min(0.0, float(spec.min())) for spec in spectra[i + 1:])
        limit = cutoff - allowance
        other = spectra[i]
        step = max(1, RECOUNT_CHUNK // max(other.size, 1))
        parts = []
        size = 0
        for r in range(0, combined.size, step):
            block = (combined[r:r + step, None] + other[None, :]).ravel()
            block = block[block <= limit]
            size += block.size
            parts.append(block)
        pairs = combined.size * other.size
        candidates += pairs
        kept += size
        computed += 9 * pairs + 8 * size
        combined = np.concatenate(parts) if parts else np.empty(0)
    computed += 8 * (size + 1)
    return candidates, kept, computed


def layer_metrics(spans, outputs):
    """Per-layer values of one traced pass; times are self times in seconds."""
    import tracer

    busy = tracer.self_seconds(spans)
    ok = [span for span in spans if not span.failed]

    def named(name):
        return [span for span in ok if span.name == name]

    enum = named("enumerate_eigenvalues")
    roots = sum(len(span.result.eigenvalues) for span in enum)
    above = total = 0
    candidates = kept = computed = 0
    for span in named("axis_spectra"):
        h = span.args[1]
        above += sum(int((spec > h**-2).sum()) for spec in span.result)
        total += sum(spec.size for spec in span.result)
        if span.parent is not None and spans[span.parent].name == "riesz_mean":
            c, k, b = reduction_counts(span.result, h)
            candidates += c
            kept += k
            computed += b
    tuples = sum(span.result.eig_count for span in named("riesz_mean"))
    l2 = [span for span in spans if span.name == "l2"]
    quad = [span for span in spans if span.name == "adaptive_quadrature"]
    ib = [span for span in spans if span.name == "i_b_integral"]
    return {
        "spectra1d.busy_s": busy["spectra1d"],
        "spectra1d.calls": len([s for s in spans if s.name == "enumerate_eigenvalues"]),
        "spectra1d.roots": roots,
        "spectra1d.roots_per_s": roots / busy["spectra1d"] if busy["spectra1d"] > 0 else 0.0,
        "spectra1d.brackets": sum(span.result.certificate.bracket_count for span in enum),
        "spectra1d.neg_calls": len([s for s in spans if s.name == "negative_eigenvalues"]),
        "spectra1d.inflated_share": above / total if total else 0.0,
        "spectra1d.failed": tracer.outermost_failures(spans, "spectra1d"),
        "riesz.busy_s": busy["riesz"],
        "riesz.tuples": tuples,
        "riesz.tuples_per_s": tuples / busy["riesz"] if busy["riesz"] > 0 else 0.0,
        "riesz.pair_candidates": candidates,
        "riesz.pair_keep_ratio": kept / candidates if candidates else 0.0,
        "riesz.bytes_computed": computed,
        "coeffs.l2_calls": len(l2),
        "coeffs.l2_busy_s": busy["coeffs"],
        "coeffs.l2_failed": tracer.outermost_failures(spans, "coeffs"),
        "quadrature.calls": len(quad),
        "quadrature.panels": sum(span.result.panels for span in quad if not span.failed),
        "quadrature.busy_s": busy["quadrature"],
        "halfline.i_b_integral_calls": len(ib),
        "halfline.i_b_integral_busy_s": busy["halfline"],
        "halfline.failed": tracer.outermost_failures(spans, "halfline"),
        "asympt.busy_s": busy["asympt"],
        "cli.busy_s": busy["cli"],
        "cli.bytes_written": sum(len(text.encode()) for text in outputs if isinstance(text, str)),
    }


def gate(workload, passes):
    """Check every operation of every pass; returns (failed, wrong, failure messages)."""
    import gates
    import workloads

    oracles = {i: gates.SweepOracle(op) for i, op in enumerate(workload.ops)
               if isinstance(op, workloads.Sweep)}
    failed = wrong = 0
    messages = {}
    for p in passes:
        for i, (op, res) in enumerate(zip(workload.ops, p["results"])):
            if res.error is not None:
                problems = [res.error]
            elif isinstance(op, workloads.Sweep):
                problems = oracles[i].check(res.output)
            elif isinstance(op, workloads.L2):
                problems = gates.check_l2(op.d, op.b, res.output)
            else:
                problems = gates.check_i_b_integral(op.d, op.b, res.output)
            if problems:
                failed += 1
                wrong += res.error is None
                key = f"{op.label} {getattr(op, 'd', '')} {getattr(op, 'b', '')}: {problems[0]}"
                messages[key] = messages.get(key, 0) + 1
    return failed, wrong, messages


def measure(workload, seconds, traced):
    """Timed passes until ``seconds`` have elapsed; traced runs alternate plain and traced passes."""
    import tracer

    passes = []
    start = time.perf_counter()
    while True:
        with_trace = traced and len(passes) % 2 == 1
        if with_trace:
            with tracer.Tracer() as active:
                p = run_pass(workload)
                p["spans"] = active.take()
        else:
            p = run_pass(workload)
        p["traced"] = with_trace
        passes.append(p)
        # Stop once a further pass would end more than half a pass past the deadline.
        elapsed = time.perf_counter() - start
        if len(passes) >= (2 if traced else 1) and elapsed + 0.5 * p["wall_s"] >= seconds:
            return passes


def end_to_end(setup, passes, failed, attempted, peak_rss_mb):
    return {
        "setup_s": statistics.median(ref for _, ref in setup),
        "pass_s": statistics.median(p["ref_s"] for p in passes),
        "frontier_op_s": statistics.median(p["frontier_ref_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_ref_s"] for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "ops_ok_frac": 1.0 - failed / attempted,
    }


def per_layer(passes):
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    per_pass = [layer_metrics(p["spans"], [r.output for r in p["results"]]) for p in traced]
    values = {}
    for name in per_pass[0]:
        if name in VARYING_LAYER_METRICS:
            values[name] = statistics.median(m[name] for m in per_pass)
        else:
            values[name] = per_pass[0][name]
    traced_s = statistics.median(p["ref_s"] for p in traced)
    values["trace.pass_s"] = traced_s
    values["trace.overhead_s"] = traced_s - statistics.median(p["ref_s"] for p in plain)
    counts_repeat = all(m[n] == per_pass[0][n] for m in per_pass for n in m
                        if n not in VARYING_LAYER_METRICS)
    return values, per_pass, counts_repeat


def span_records(passes):
    records = []
    for index, p in enumerate(passes):
        if p["traced"]:
            t0 = p["spans"][0].start if p["spans"] else 0.0
            records.append({"pass": index, "spans": [
                [s.sid, s.parent, f"{s.module}.{s.name}", s.start - t0, s.end - t0, s.failed]
                for s in p["spans"]]})
    return records


def run_one(args):
    import workloads

    workload = workloads.build(args.workload, args.seed)
    # Warm-up: imports, lazy scipy set-up and first-call paths, outside timing.
    workloads.Sweep("warmup", workloads.RECTANGLE, "fixed", 1.0, 0.0,
                    (0.04, 0.02, 0.01, 0.005)).run()
    setup = measure_setup()
    passes = measure(workload, args.seconds, bool(args.trace))
    # Read before the gate, whose oracles allocate more than some workloads.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, wrong, messages = gate(workload, passes)
    attempted = len(passes) * len(workload.ops)
    record = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "inputs": [repr(op) for op in workload.ops],
        "setup_samples_s": [{"wall_s": wall, "ref_s": ref} for wall, ref in setup],
        "passes": [{k: p[k] for k in ("wall_s", "ref_s", "cpu_s", "cpu_ref_s", "frontier_s",
                                      "frontier_ref_s", "probes", "traced")} for p in passes],
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "failures": messages,
    }
    if args.trace:
        values, per_pass, counts_repeat = per_layer(passes)
        units = PER_LAYER
        record["per_pass_layers"] = per_pass
        record["counts_repeat_within_run"] = counts_repeat
        # Busy times are wall seconds, so they are shares of the traced passes' wall time.
        pass_s = statistics.median(p["wall_s"] for p in passes if p["traced"])
        record["busy_share_of_traced_pass"] = {
            m: values[k] / pass_s for m, k in (
                ("spectra1d", "spectra1d.busy_s"), ("riesz", "riesz.busy_s"),
                ("coeffs", "coeffs.l2_busy_s"), ("quadrature", "quadrature.busy_s"),
                ("halfline", "halfline.i_b_integral_busy_s"), ("asympt", "asympt.busy_s"),
                ("cli", "cli.busy_s"))}
    else:
        values = end_to_end(setup, passes, failed, attempted, peak_rss_mb)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if args.trace:
        with open(OUT / f"spans-{stem}.json", "w", encoding="utf-8") as handle:
            json.dump(span_records(passes), handle)
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:30s} {m['value']:.6g} {m['unit']}")
    for message, count in sorted(messages.items()):
        print(f"{args.workload:14s} failed x{count}: {message[:160]}")
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args):
    """Every workload in its own process; prints each metric by name and unit."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=False, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: {SRC / PACKAGE} not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import robin_semiclassics
    from robin_semiclassics import cli  # noqa: F401  (the tracer wraps cli.main)

    if Path(robin_semiclassics.__file__).resolve().parent != SRC / PACKAGE:
        print(f"error: imported {robin_semiclassics.__file__}, not the checkout's copy",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    print(json.dumps(run_one(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
