"""logsieve benchmark: one workload, one seed, end-to-end or traced.

    python3 benchmark/run.py --workload uniform --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The input is generated from ``--seed`` before any timing. Then, for
``--seconds``, passes run one after another, each in a fresh worker process
(``worker.py``) that streams the input through ``logsieve.cli.run_stream``
with one reader in a closed loop: line i+1 is pulled only after row i is
written. After every pass the outputs are checked: ``structured.csv`` has one
row per input line with LineId 1..N, every OutputId is in ``templates.csv``,
the Occurrences sum to N, and both files hash the same as on the first pass.

Every pass of a run uses the same ``PYTHONHASHSEED`` (the seed), so passes
repeat the same execution. ``--trace 0`` reports the end-to-end metrics. The
throughput and line latencies come from one stream composed of each
segment's fastest time over the passes (a segment is the work of one line,
plus the start and the end of the ``run_stream`` call), which keeps out the
time a pass spent slowed by other load on the machine; for the same reason
``setup_s`` is the fastest set-up over the passes. The other metrics are the
median over passes. ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of the traced ones, plus the tracing overhead;
the traced outputs must hash the same as the untraced ones.

Output: a summary table, then one JSON line with the raw per-pass values,
input digest and output fingerprints (the run record), then the result line
``{"correct", "attempted", "failed", "metrics"}``. Work files go to
``.bench_out/`` and are removed at the end, except the spans of traced runs.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import percentile  # noqa: E402

# Lines per input. A pass takes about half a second on one core, so a 40 s
# run holds about 70 passes to take fastest times and medians over.
SIZES = {
    "uniform": 20_000,
    "bursty": 20_000,
    "merge_heavy": 4_000,
}
MIN_PASSES = 3
RUN_BUDGET_S = 170  # a run must finish well within 180 s

# Metric names and units live in BENCHMARK.json, next to their bounds.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class OutputError(Exception):
    """The outputs of a pass break the output contract."""


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_outputs(out_dir: Path, n_lines: int) -> tuple[list[str], list[tuple[str, int]]]:
    """Validate structured.csv and templates.csv; return the OutputId column
    and the catalog's (OutputId, Occurrences) rows."""
    with open(out_dir / "structured.csv", newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        if next(rows, None) != ["LineId", "OutputId", "EventTemplate"]:
            raise OutputError("structured.csv: bad header")
        output_ids = []
        for expected, row in enumerate(rows, start=1):
            if len(row) != 3 or row[0] != str(expected):
                raise OutputError(f"structured.csv: row {expected} is {row[:2]}")
            output_ids.append(row[1])
    if len(output_ids) != n_lines:
        raise OutputError(f"structured.csv: {len(output_ids)} rows for {n_lines} lines")
    with open(out_dir / "templates.csv", newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        if next(rows, None) != ["OutputId", "EventTemplate", "Occurrences"]:
            raise OutputError("templates.csv: bad header")
        try:
            catalog = [(row[0], int(row[2])) for row in rows]
        except (IndexError, ValueError) as exc:
            raise OutputError(f"templates.csv: {exc}") from exc
    known = {output_id for output_id, _ in catalog}
    if len(known) != len(catalog):
        raise OutputError("templates.csv: duplicate OutputId")
    unknown = set(output_ids) - known
    if unknown:
        raise OutputError(f"structured.csv: OutputIds {sorted(unknown)[:5]} not in templates.csv")
    if sum(count for _, count in catalog) != n_lines:
        raise OutputError("templates.csv: Occurrences do not sum to the line count")
    return output_ids, catalog


def git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_pass(work: Path, n_lines: int, traced: bool, timeout: float,
             hash_seed: int) -> tuple[dict, array]:
    """Run one worker; return its result and its run_stream segments."""
    result_path = work / "result.json"
    segments_path = work / "segments.bin"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), str(work / "input.log"),
           str(n_lines), str(work / "config.yaml"), str(work / "out"), str(result_path),
           str(segments_path)]
    if traced:
        cmd.append(str(work / "spans.jsonl"))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        raise RuntimeError(f"worker failed: {tail[0]}")
    segments = array("q")
    with open(segments_path, "rb") as fh:
        segments.fromfile(fh, n_lines + 2)
    return json.loads(result_path.read_text(encoding="utf-8")), segments


def fastest_timings(segments: array, n_lines: int) -> dict:
    """Throughput and line latency of a stream whose every segment took its
    fastest time over the passes."""
    gaps = sorted(segments[1:-1])
    return {
        "lines_per_s": n_lines / (sum(segments) / 1e9),
        "line_latency_p50_us": percentile(gaps, 0.50) / 1e3,
        "line_latency_p99_us": percentile(gaps, 0.99) / 1e3,
    }


def median(values):
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run_start = time.perf_counter()
    if not (SRC / "logsieve" / "cli.py").is_file():
        print(f"error: no logsieve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from logsieve import cli  # noqa: F401  (compiles the package once, before timing)
    from logsieve.evaluation import f_measure, pair_counts

    n_lines = SIZES[args.workload]
    lines, truth, config_text = workloads.GENERATORS[args.workload](args.seed, n_lines)
    out_root = ROOT / ".bench_out"
    work = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    input_bytes = ("\n".join(lines) + "\n").encode("utf-8")
    (work / "input.log").write_bytes(input_bytes)
    (work / "config.yaml").write_text(config_text, encoding="utf-8")
    input_sha = hashlib.sha256(input_bytes).hexdigest()
    del lines, input_bytes

    passes = []  # one dict per pass: mode, raw values, fingerprint, ok
    fastest = {False: None, True: None}  # per mode, each segment's fastest time
    reference = None  # fingerprint of the first pass that passed the check
    output_ids = catalog = None
    measure_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - measure_start
        n_untraced = sum(1 for p in passes if not p["traced"])
        n_traced = len(passes) - n_untraced
        enough = n_untraced >= MIN_PASSES and (not args.trace or n_traced >= MIN_PASSES)
        if enough and elapsed >= args.seconds:
            break
        remaining = RUN_BUDGET_S - (time.perf_counter() - run_start)
        if passes and remaining < 2 * max(p["wall_s"] for p in passes):
            break
        traced = bool(args.trace) and n_traced < n_untraced
        record = {"traced": traced, "ok": False}
        pass_start = time.perf_counter()
        try:
            result, segments = run_pass(work, n_lines, traced, timeout=remaining,
                                        hash_seed=args.seed % 2**32)
            record.update(result)
            fingerprint = {
                "structured_sha256": sha256_file(work / "out" / "structured.csv"),
                "templates_sha256": sha256_file(work / "out" / "templates.csv"),
            }
            if reference is None:
                # Later passes that hash the same need no second check.
                output_ids, catalog = check_outputs(work / "out", n_lines)
                reference = fingerprint
            elif fingerprint != reference:
                raise OutputError("outputs differ from the first pass")
            record["ok"] = True
            best = fastest[traced]
            fastest[traced] = segments if best is None else array("q", map(min, best, segments))
        except (OutputError, RuntimeError, OSError, ValueError,
                subprocess.TimeoutExpired) as exc:
            record["error"] = str(exc)
        record["wall_s"] = time.perf_counter() - pass_start
        passes.append(record)
        if record.get("error", "").startswith("worker failed") and not record["traced"]:
            break  # the program under test crashes; more passes would too

    good = [p for p in passes if p["ok"] and not p["traced"]]
    good_traced = [p for p in passes if p["ok"] and p["traced"]]
    attempted = n_lines * len(passes)
    failed = n_lines * sum(1 for p in passes if not p["ok"])
    correct = failed == 0 and bool(good)

    f_value = None
    if output_ids is not None:
        predicted = dict(enumerate(output_ids, start=1))
        expected = dict(enumerate(truth, start=1))
        f_value = f_measure(pair_counts(predicted, expected))[2]

    timings = fastest_timings(fastest[False], n_lines) if good else {}
    end_to_end = {
        "lines_per_s": timings.get("lines_per_s"),
        "line_latency_p50_us": timings.get("line_latency_p50_us"),
        "line_latency_p99_us": timings.get("line_latency_p99_us"),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in good]),
        "state_bytes": median([p["state_bytes"] for p in good]),
        "setup_s": min((p["setup_s"] for p in good), default=None),
        "f_measure": f_value,
        "lines_ok_ratio": (attempted - failed) / attempted if attempted else 0.0,
    }

    layers = {}
    absent = []
    if args.trace and good_traced:
        names = set().union(*(p["layers"] for p in good_traced))
        layers = {name: median([p["layers"][name] for p in good_traced if name in p["layers"]])
                  for name in sorted(names)}
        absent = sorted(set().union(*(p["absent"] for p in good_traced)))
        if catalog is not None:
            layers["dag.groups_final"] = len(catalog)
            layers["dag.groups_per_true_template"] = len(catalog) / len(set(truth))
            layers["dag.singleton_templates"] = sum(1 for _, count in catalog if count == 1)
        if end_to_end["lines_per_s"]:
            traced_rate = fastest_timings(fastest[True], n_lines)["lines_per_s"]
            layers["trace.overhead_ratio"] = traced_rate / end_to_end["lines_per_s"]
        spans_dir = out_root / "spans"
        spans_dir.mkdir(exist_ok=True)
        shutil.copyfile(work / "spans.jsonl",
                        spans_dir / f"{args.workload}-seed{args.seed}.jsonl")

    run_record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "lines": n_lines,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "input_sha256": input_sha,
        "output_fingerprint": reference,
        "passes": [{k: v for k, v in p.items() if k != "absent"} for p in passes],
        "absent": absent,
    }
    shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items() if name in layers}
        for name in absent:
            print(f"{name:<48} absent")
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in end_to_end.items() if value is not None}
        print(f"lines_failed_ratio  {failed / attempted if attempted else 1.0:.6f}")
    for name, metric in metrics.items():
        print(f"{name:<48} {metric['value']:>16.6g} {metric['unit']}")
    for p in passes:
        if "error" in p:
            print(f"pass failed: {p['error']}")
    print(json.dumps(run_record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
