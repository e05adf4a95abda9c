"""Run every workload over several seeds and summarize.

    python3 benchmark/suite.py --seeds 1-10 --seconds 40 [--sets 2] [--traced] [--out FILE]

Calls ``run.py`` once per workload and seed (with ``--trace 0``), repeating
the seeds ``--sets`` times, one set after the other; with ``--traced`` once
more per workload on the first seed (``--trace 1``). Prints per workload and
set every end-to-end metric by name with its unit: the median over seeds, the
quartiles, the quartile spread as a share of the median, how much worse the
set's median is than the first set's, and the metric's bound from
``BENCHMARK.json``. With ``--out``
it writes every run's result and run record (per-pass raw values, input
digest, output fingerprints, git SHA, Python version, CPU count) as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import PER_LAYER, SPEC  # noqa: E402
from workloads import GENERATORS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=240, cwd=HERE.parent)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed: {proc.stderr.strip()[-500:]}")
    return {"record": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first if first else 0.0
    return -change if better == "higher" else change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    metrics = {m["name"]: m for m in SPEC["end_to_end"]}
    report = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in GENERATORS:
        sets = []
        for _ in range(args.sets):
            runs = []
            for seed in seeds:
                runs.append(run_one(workload, seed, args.seconds, 0))
                print(f"{workload} set {len(sets) + 1} seed {seed}: "
                      f"correct={runs[-1]['result']['correct']}", file=sys.stderr, flush=True)
            sets.append(runs)
        entry = {"sets": sets}
        print(f"\n== {workload} ({len(seeds)} seeds, {args.seconds} s each, {args.sets} set(s))")
        print(f"{'metric':<22} {'unit':<8} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'worse':>7} {'bound':>6}")
        for name, metric in metrics.items():
            first = None
            for number, runs in enumerate(sets, start=1):
                values = [r["result"]["metrics"][name]["value"] for r in runs
                          if name in r["result"]["metrics"]]
                if not values:
                    print(f"{name:<22} {metric['unit']:<8} {number:>3} {'absent':>12}")
                    continue
                med, q1, q3, spread = summarize(values)
                first = med if first is None else first
                worse = worse_by(first, med, metric["better"])
                print(f"{name:<22} {metric['unit']:<8} {number:>3} {med:>12.6g} {q1:>12.6g} "
                      f"{q3:>12.6g} {spread:>7.4f} {worse:>7.4f} {metric['bound']:>6}")
        all_runs = [r for runs in sets for r in runs]
        failed = sum(r["result"]["failed"] for r in all_runs)
        attempted = sum(r["result"]["attempted"] for r in all_runs)
        print(f"{'lines_failed_ratio':<22} {'ratio':<8} {'all':>3} {failed / attempted:>12.6g}")
        if args.traced:
            traced = run_one(workload, seeds[0], args.seconds, 1)
            entry["traced"] = traced
            print(f"-- traced, seed {seeds[0]}")
            for name, unit in PER_LAYER.items():
                metric = traced["result"]["metrics"].get(name)
                shown = f"{metric['value']:>14.6g}" if metric else f"{'absent':>14}"
                print(f"{name:<46} {unit:<12} {shown}")
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
