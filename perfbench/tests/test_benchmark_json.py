"""BENCHMARK.json names exactly what the benchmark prints."""

import json
import os
import subprocess
import sys

from perfbench.layers import PER_LAYER
from perfbench.run import END_TO_END
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_metrics_match_the_code():
    bench = load()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(
        PER_LAYER
    )


def test_workloads_match_the_code():
    bench = load()
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


def test_setup_bound_is_the_largest():
    bounds = {m["name"]: m["bound"] for m in load()["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "converge", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
