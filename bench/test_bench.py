"""Smoke tests of the benchmark: every workload, span and check on tiny inputs.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_smoke_reports_every_metric_and_passes_every_check():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run("--workload", "all", "--seed", "3", "--seconds", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    metrics = result["metrics"]
    for w in workloads.WORKLOADS:
        for m in spec["end_to_end"] + spec["per_layer"]:
            assert metrics[f"{w}/{m['name']}"]["unit"] == m["unit"]
    # each layer's spans ran on the workload that reaches it
    for name in ("oracle_refine/cylinders.refine.components",
                 "oracle_refine/cylinders.refine.generic_s",
                 "oracle_refine/cylinders.refine.traced_peak_mb",
                 "markov_sweep/markov.spectral_report_s",
                 "markov_sweep/markov.rank_path_rows",
                 "markov_sweep/polyexact.largest_real_root_s",
                 "tower_sweep/kneading.determinant_s",
                 "tower_sweep/kneading.bracket_verified_frac",
                 "tower_sweep/regularity.holder_s",
                 "tower_sweep/regularity.entropy_at.ms_p90"):
        assert metrics[name]["value"] > 0, name
    trace = json.loads((BENCH / "out" / "trace-markov_sweep-seed3-smoke.json").read_text())
    assert trace["inputs_sha256"] == workloads.inputs_digest(
        workloads.make_inputs("markov_sweep", 3, smoke=True))
    names = {s["name"] for s in trace["spans"]}
    assert {"markov.refine_markov", "markov.transition_matrix",
            "markov.spectral_report", "polyexact.berkowitz_char_poly"} <= names
    assert all({"name", "start", "end", "parent", "row"} <= set(s)
               for s in trace["spans"])


def test_inputs_are_a_function_of_the_seed():
    for w in workloads.WORKLOADS:
        digest = workloads.inputs_digest(workloads.make_inputs(w, 7))
        assert digest == workloads.inputs_digest(workloads.make_inputs(w, 7))
    for w in ("markov_sweep", "tower_sweep"):
        assert (workloads.inputs_digest(workloads.make_inputs(w, 7))
                != workloads.inputs_digest(workloads.make_inputs(w, 8)))


def test_checks_flag_wrong_outputs():
    for w in workloads.WORKLOADS:
        inputs = workloads.make_inputs(w, 1, smoke=True)
        out = workloads.run_pass(w, inputs, NullTracer())
        assert workloads.check(w, inputs, out) == {}
        if w == "oracle_refine":
            key = inputs["items"][0]["id"]
            wrong = dict(out, **{key: out[key][:-1] + [out[key][-1] + 1]})
        elif w == "markov_sweep":
            key = "3/4"
            h, _p, status = out[key]
            wrong = dict(out, **{key: (h, 1, status)})
        else:
            key = "13/20"
            h, p, status = out[key]
            wrong = dict(out, **{key: (h + 1e-9, p, status)})
        assert key in workloads.check(w, inputs, wrong)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "tower_sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
