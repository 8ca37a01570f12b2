#!/usr/bin/env python3
"""Benchmark for holed-entropy: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload tower_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20
    python3 bench/run.py --workload all --seed 1 --seconds 0 --smoke

One run measures one workload in this process: it times the CLI cold start of
the workload's smallest item (``setup_s``), then repeats whole passes of the
workload until ``--seconds`` have elapsed and reports medians over passes.
With ``--trace 1`` untraced and traced passes alternate; the traced ones
record spans (written to ``bench/out/``) and give the per-layer metrics.
``--workload all`` runs every workload in its own process, untraced and
traced, and prints every metric.  See bench/README.md for the metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Only the standard
library is used; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from tracing import NullTracer, Tracer, duration, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("oracle_refine", "markov_sweep", "tower_sweep")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}

# per-layer metric -> unit; every one is reported on every workload, 0 where
# the workload does not reach that layer
PER_LAYER_UNITS = {
    "cylinders.self_s": "s",
    "cylinders.refine.scaled_s": "s",
    "cylinders.refine.generic_s": "s",
    "cylinders.refine.components": "count",
    "cylinders.refine.ns_per_component.scaled": "ns",
    "cylinders.refine.ns_per_component.generic": "ns",
    "cylinders.refine.traced_peak_mb": "MB",
    "markov.self_s": "s",
    "markov.refine_markov_s": "s",
    "markov.transition_matrix_s": "s",
    "markov.spectral_report_s": "s",
    "markov.states_max": "count",
    "markov.breakpoints_sum": "count",
    "markov.rank_path_rows": "count",
    "polyexact.self_s": "s",
    "polyexact.berkowitz_s": "s",
    "polyexact.square_free_s": "s",
    "polyexact.largest_real_root_s": "s",
    "polyexact.char_poly_degree_max": "count",
    "kneading.self_s": "s",
    "kneading.build_orbit_s": "s",
    "kneading.determinant_s": "s",
    "kneading.leading_root_s": "s",
    "kneading.coeffs_emitted": "count",
    "kneading.poly_terms": "count",
    "kneading.determinant.useful_ratio": "ratio",
    "kneading.poly_degree_max": "count",
    "kneading.bracket_verified_frac": "ratio",
    "regularity.self_s": "s",
    "regularity.entropy_at.rows": "count",
    "regularity.entropy_at.ms_p50": "ms",
    "regularity.entropy_at.ms_p90": "ms",
    "regularity.holder_s": "s",
    "cli.cold_start_s": "s",
    "cli.import_pkg_s": "s",
    "cli.import_numpy_s": "s",
    "cli.import_sympy_s": "s",
    "process.wall_raw_s": "s",
    "process.cpu_raw_s": "s",
    "process.cpu_util": "ratio",
    "process.ref_loop_s": "s",
    "trace.overhead_s": "s",
}

TIMED_LAYERS = ("cylinders", "markov", "kneading", "regularity")
# CLI cold starts are timed before and after the timed passes, so that
# setup_s spans the run like wall_s does; each side runs at least this many
# times and for at least this long
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 1.5
IMPORT_REPS = 3
# The CPU speed of a shared machine drifts by up to ~30% over minutes, which
# moves every pass of a run alike.  A fixed pure-Python loop (Fraction and int
# arithmetic, tuple allocation, like the engines) is timed in the same process
# just before and just after every untraced pass; wall_s and cpu_s are the
# pass time divided by the loop's mean time, times REF_SECONDS, i.e. seconds
# at the speed where the loop takes REF_SECONDS.  setup_s is scaled the same
# way by the run's median loop time.  Raw seconds are printed and traced too.
REF_SECONDS = 0.06
REF_REPS = 3
# tracemalloc slows refinement about twentyfold, so the traced peak is taken
# at this many levels below each item's depth
TRACEMALLOC_DEPTH_CUT = 6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs that still exercise every span and check")
    args = ap.parse_args(argv)
    if not (SRC / "holed_entropy" / "__init__.py").is_file():
        print(f"error: the program is missing: no {SRC / 'holed_entropy'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def reference_loop() -> tuple[float, float]:
    """(wall, cpu) seconds of the reference loop, median of REF_REPS runs."""
    walls, cpus = [], []
    for _ in range(REF_REPS):
        c0, t0 = time.process_time(), time.perf_counter()
        acc, items = Fraction(0), []
        for i in range(1, 12_000):
            acc += Fraction(i % 13, i % 17 + 1)
            if acc > 50:
                acc = Fraction(0)
            items.append((i, 2 * i))
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
    return statistics.median(walls), statistics.median(cpus)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(workload: str, reps: int, seconds: float, check_setup
                  ) -> tuple[list[float], int]:
    """Fresh-interpreter CLI runs of the workload's smallest item, at least
    ``reps`` of them and at least ``seconds`` in total."""
    from workloads import SETUP_COMMANDS
    times, failed = [], 0
    while len(times) < reps or sum(times) < seconds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "holed_entropy.cli", *SETUP_COMMANDS[workload]],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or not check_setup(workload, proc.stdout):
            failed += 1
            print(f"setup command failed its check:\n{proc.stderr}", file=sys.stderr)
    return times, failed


def measure_import(module: str, reps: int) -> float:
    """Median time to import ``module`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
    times = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def run_one(args) -> int:
    import workloads as wl

    workload, trace = args.workload, bool(args.trace)
    inputs = wl.make_inputs(workload, args.seed, args.smoke)
    digest = wl.inputs_digest(inputs)
    keys = wl.expected_keys(workload, inputs)

    setup_reps = (1, 0.0) if args.smoke else (SETUP_MIN_REPS, SETUP_MIN_SECONDS)
    setup_times, setup_failed = measure_setup(workload, *setup_reps, wl.check_setup)

    null = NullTracer()
    # Warm-up on the smoke-size inputs, untimed: lazy imports inside the
    # program (numpy, sympy) are paid once per process and belong to
    # setup_s, not to the first timed pass.
    wl.run_pass(workload, wl.make_inputs(workload, args.seed, smoke=True), null)

    tracer = Tracer(time.perf_counter()) if trace else None
    captured = wl.Captured()
    untraced, traced, results, refs = [], [], [], []

    def one_pass(tr):
        gc.collect()
        if tr is null:
            before = reference_loop()
        c0, t0 = _cpu(), time.perf_counter()
        if tr is null:
            out = wl.run_pass(workload, inputs, tr)
        else:
            with tr.interpose(wl.span_targets(captured)), tr.span("bench.pass"):
                out = wl.run_pass(workload, inputs, tr)
        wall, cpu = time.perf_counter() - t0, _cpu() - c0
        results.append(out)
        if tr is null:
            # the loop brackets the pass: its mean speed stands for the pass's
            after = reference_loop()
            refs.append(((before[0] + after[0]) / 2, (before[1] + after[1]) / 2))
        return wall, cpu

    deadline = time.perf_counter() + args.seconds
    while True:
        untraced.append(one_pass(null))
        if trace:
            tracer.pass_index = len(traced)
            traced.append(one_pass(tracer))
            captured.keep = False
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    more_times, more_failed = measure_setup(workload, *setup_reps, wl.check_setup)
    setup_times += more_times

    bad = wl.check(workload, inputs, results[0])
    failed = setup_failed + more_failed
    for out in results:
        for key in keys:
            value = out.get(key)
            if key in bad or value is None or value != results[0][key]:
                failed += 1
    attempted = len(setup_times) + len(keys) * len(results)
    for key, reason in sorted(bad.items()):
        print(f"check failed: {key}: {reason}", file=sys.stderr)

    wall = statistics.median(w / r * REF_SECONDS for (w, _), (r, _) in zip(untraced, refs))
    cpu = statistics.median(c / r * REF_SECONDS for (_, c), (_, r) in zip(untraced, refs))
    raw_wall = statistics.median(w for w, _ in untraced)
    ref_wall = statistics.median(r for r, _ in refs)
    if trace:
        metrics = per_layer(workload, inputs, args, tracer, captured,
                            untraced, traced, refs, setup_times)
        OUT.mkdir(exist_ok=True)
        path = OUT / (f"trace-{workload}-seed{args.seed}"
                      f"{'-smoke' if args.smoke else ''}.json")
        path.write_text(json.dumps({"workload": workload, "seed": args.seed,
                                    "inputs_sha256": digest,
                                    "spans": tracer.spans}) + "\n")
        units = PER_LAYER_UNITS
    else:
        # cold starts run in a child process, so they are scaled by the
        # run's median loop time rather than pass by pass
        setup = statistics.median(setup_times) / ref_wall * REF_SECONDS
        metrics = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb,
                   "setup_s": setup}
        units = END_TO_END_UNITS

    print(f"workload {workload}  seed {args.seed}  inputs sha256 {digest}")
    print(f"  passes {len(untraced)} untraced, {len(traced)} traced; "
          f"setup runs {len(setup_times)}; items attempted {attempted}, "
          f"failed {failed}, failed_frac {failed / attempted:g}")
    print(f"  raw untraced pass wall_s (median {raw_wall:.4g}): "
          + " ".join(f"{w:.4g}" for w, _ in untraced))
    print(f"  reference loop wall_s (median {ref_wall:.4g}, nominal {REF_SECONDS}): "
          + " ".join(f"{r:.4g}" for r, _ in refs))
    print(f"  raw setup_s runs (median {statistics.median(setup_times):.4g}): "
          + " ".join(f"{t:.4g}" for t in setup_times))
    if trace:
        print(f"  spans written to {path.relative_to(ROOT)}")
        shares = {layer: metrics[f"{layer}.self_s"] / statistics.median(w for w, _ in traced)
                  for layer in TIMED_LAYERS}
        print("  share of traced wall_s by layer self time: "
              + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    for name, value in metrics.items():
        print(f"  {name:44s} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def pass_layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one traced pass, from its spans."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def self_sum(name):
        return sum(own[s["id"]] for s in by_name[name])

    def counts(name, key):
        return [s["counts"][key] for s in by_name[name] if "counts" in s]

    m = {f"{layer}.self_s": sum(own[s["id"]] for s in spans
                                if s["name"].startswith(layer + "."))
         for layer in TIMED_LAYERS}
    components = 0
    for path in ("scaled", "generic"):
        sp = [s for s in by_name["cylinders.refine"]
              if s.get("counts", {}).get("path") == path]
        t = sum(own[s["id"]] for s in sp)
        n = sum(s["counts"]["components"] for s in sp)
        components += n
        m[f"cylinders.refine.{path}_s"] = t
        m[f"cylinders.refine.ns_per_component.{path}"] = t / n * 1e9 if n else 0.0
    m["cylinders.refine.components"] = components
    for stage in ("refine_markov", "transition_matrix", "spectral_report"):
        m[f"markov.{stage}_s"] = self_sum(f"markov.{stage}")
    m["markov.states_max"] = max(counts("markov.transition_matrix", "states"), default=0)
    m["markov.breakpoints_sum"] = sum(counts("markov.refine_markov", "breakpoints"))
    m["markov.rank_path_rows"] = sum(a > 1 for a in counts("markov.spectral_report", "alg"))
    for stage in ("build_orbit", "determinant", "leading_root"):
        m[f"kneading.{stage}_s"] = self_sum(f"kneading.{stage}")
    coeffs = sum(counts("kneading.determinant", "coeffs"))
    terms = sum(counts("kneading.determinant", "terms"))
    verified = counts("kneading.leading_root", "certified")
    m["kneading.coeffs_emitted"] = coeffs
    m["kneading.poly_terms"] = terms
    m["kneading.determinant.useful_ratio"] = terms / coeffs if coeffs else 0.0
    m["kneading.poly_degree_max"] = max(counts("kneading.determinant", "degree"), default=0)
    m["kneading.bracket_verified_frac"] = sum(verified) / len(verified) if verified else 0.0
    parents = {s["id"]: s["name"] for s in spans}
    rows = [duration(s) * 1e3 for s in by_name["regularity.entropy_at"]
            if parents.get(s["parent"]) == "regularity.run_sweep"]
    m["regularity.entropy_at.rows"] = len(rows)
    m["regularity.entropy_at.ms_p50"] = statistics.median(rows) if rows else 0.0
    m["regularity.entropy_at.ms_p90"] = (
        statistics.quantiles(rows, n=10, method="inclusive")[8] if len(rows) > 1
        else sum(rows))
    m["regularity.holder_s"] = sum(duration(s) for name in (
        "regularity.holder_estimate", "regularity.verify_holder_bound")
        for s in by_name[name])
    return m


def replay_metrics(spans: list[dict]) -> dict:
    def total(name):
        return sum(duration(s) for s in spans if s["name"] == name)

    m = {"polyexact.berkowitz_s": total("polyexact.berkowitz_char_poly"),
         "polyexact.square_free_s": total("polyexact.square_free_decomposition"),
         "polyexact.largest_real_root_s": total("polyexact.largest_real_root")}
    m["polyexact.self_s"] = sum(m.values())
    return m


def traced_refine_peak_mb(workload: str, inputs: dict) -> float:
    """tracemalloc peak over the refine items, each cut to a shallower depth."""
    if workload != "oracle_refine":
        return 0.0
    import workloads as wl
    peak = 0
    for item in inputs["items"]:
        shallow = dict(item, depth=max(1, item["depth"] - TRACEMALLOC_DEPTH_CUT))
        gc.collect()
        tracemalloc.start()
        try:
            wl.run_pass(workload, {"items": [shallow]}, NullTracer())
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2 ** 20


def per_layer(workload, inputs, args, tracer, captured, untraced, traced,
              refs, setup_times) -> dict:
    import workloads as wl

    per_pass = [pass_layer_metrics([s for s in tracer.spans if s["pass"] == k])
                for k in range(len(traced))]
    m = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}

    tracer.pass_index = "replay"
    with tracer.span("bench.replay"):
        wl.replay_polyexact(captured, tracer)
    m.update(replay_metrics([s for s in tracer.spans if s["pass"] == "replay"]))
    degrees = [len(M.char_poly) - 1 for _, M in captured.matrices]
    m["polyexact.char_poly_degree_max"] = max(degrees, default=0)
    m["cylinders.refine.traced_peak_mb"] = traced_refine_peak_mb(workload, inputs)

    reps = 1 if args.smoke else IMPORT_REPS
    m["cli.cold_start_s"] = statistics.median(setup_times)
    m["cli.import_pkg_s"] = measure_import("holed_entropy", reps)
    m["cli.import_numpy_s"] = measure_import("numpy", reps)
    m["cli.import_sympy_s"] = measure_import("sympy", reps)

    wall = statistics.median(w for w, _ in untraced)
    m["process.wall_raw_s"] = wall
    m["process.cpu_raw_s"] = statistics.median(c for _, c in untraced)
    m["process.cpu_util"] = m["process.cpu_raw_s"] / wall
    m["process.ref_loop_s"] = statistics.median(r for r, _ in refs)
    m["trace.overhead_s"] = statistics.median(w for w, _ in traced) - wall
    return {name: m[name] for name in PER_LAYER_UNITS}


# ---------------------------------------------------------------------------
# every workload
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    """Each workload in its own process, untraced then traced."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"error: {workload} --trace {trace} exited "
                      f"{proc.returncode}", file=sys.stderr)
                return 1
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, value in result["metrics"].items():
                metrics[f"{workload}/{name}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
