"""The benchmark's layer tracer still reaches every layer it hooks.

``benchmark/layertrace.py`` replaces module attributes of the package with
timing wrappers. A hook whose target is renamed is skipped, and a name that a
caller binds at import time escapes its wrapper; either way the traced run's
metrics go absent or wrong. The tracer patches modules globally, so each
check runs in its own interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
N_LINES = 500

TRACED_RUN = """
import importlib.util, json, sys, tempfile
from pathlib import Path

root, workload, n_lines = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
sys.path.insert(0, str(root / "src"))


def load(name):
    spec = importlib.util.spec_from_file_location(name, root / "benchmark" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layertrace, workloads = load("layertrace"), load("workloads")
tracer = layertrace.Tracer(sample_every=100)
missing = tracer.install()
from logsieve import cli

lines, _, config_text = workloads.GENERATORS[workload](1, n_lines)
with tempfile.TemporaryDirectory() as tmp:
    config_path = Path(tmp) / "config.yaml"
    config_path.write_text(config_text, encoding="utf-8")
    config = cli.load_config(config_path)
    stats, dag = cli.run_stream(config, lines, Path(tmp) / "out")
metrics, absent = layertrace.layer_metrics(tracer, dag, n_lines)
calls = {name: counts[0] for name, counts in tracer.stats.items()}
print(json.dumps({"missing": missing, "absent": absent, "metrics": metrics,
                  "calls": calls, "lines_parsed": stats.lines_parsed,
                  "merges": tracer.counters["merges_accepted"]}))
"""


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize("workload", ["uniform", "bursty", "merge_heavy"])
def test_every_hook_fires_once_per_line(workload):
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT), workload, str(N_LINES)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # Strict JSON: a NaN or infinite metric fails here.
    report = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert report["missing"] == []
    assert report["absent"] == []
    assert report["lines_parsed"] == N_LINES
    calls = report["calls"]
    for name in ("cli.extract_content", "preprocess.tokenize", "dag.parse_line"):
        assert calls[name] == N_LINES, name
    # Every accepted merge calls lcs through the graph module at least once,
    # so a name bound at import would leave the count short.
    assert calls.get("similarity.lcs", 0) >= report["merges"]
    if workload == "merge_heavy":
        assert report["merges"] > 0
