"""One measured pass, run in a fresh single-threaded process.

    python3 worker.py SRC INPUT N_LINES CONFIG OUT_DIR RESULT_JSON SEGMENTS [SPANS_JSONL]

Imports ``logsieve`` from SRC, loads CONFIG, and streams INPUT (N_LINES lines)
through ``logsieve.cli.run_stream`` into OUT_DIR, stamping the moment each
line is pulled. Writes its timings to RESULT_JSON, and to SEGMENTS the N_LINES
+ 2 segments that make up the ``run_stream`` call, in nanoseconds, as native
int64: call to first pull, then one per line (pull of line i to pull of line
i+1, i.e. parsing and writing row i), then input exhausted to return (the
catalog and stats written). With SPANS_JSONL the pass
is traced: the layer hooks are installed before the config is loaded, and the
sampled spans are written to SPANS_JSONL after the stream ends.

Set-up time runs from the start of this script's measured part to the moment
the first line is handed to ``run_stream``: importing the package, loading
the config and opening the input.
"""

import sys
import time
from array import array

SPAN_SAMPLE_EVERY = 1000


def stamped(fh, stamps, tracer):
    """Yield the lines of ``fh``, recording when each one is pulled; the last
    stamp marks the pull that finds the input exhausted."""
    clock = time.perf_counter_ns
    i = 0
    for line in fh:
        stamps[i] = clock()
        if tracer is not None:
            tracer.begin_line(i)
        i += 1
        yield line
    stamps[i] = clock()
    if tracer is not None:
        tracer.end_input()


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]


def main(argv) -> int:
    src, input_path, n_lines, config_path, out_dir, result_path, segments_path = argv[:7]
    spans_path = argv[7] if len(argv) > 7 else None
    n_lines = int(n_lines)
    stamps = array("q", bytes(8 * (n_lines + 1)))

    start_ns = time.perf_counter_ns()
    sys.path.insert(0, src)
    tracer = None
    absent: list[str] = []
    if spans_path is not None:
        import layertrace

        tracer = layertrace.Tracer(SPAN_SAMPLE_EVERY)
        absent = tracer.install()
    from logsieve import cli

    config = cli.load_config(config_path)
    with open(input_path, encoding="utf-8") as fh:
        call_ns = time.perf_counter_ns()
        stats, dag = cli.run_stream(config, stamped(fh, stamps, tracer), out_dir)
        end_ns = time.perf_counter_ns()

    import json
    import resource

    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    state_bytes = len(dag.to_json())
    segments = array("q", [stamps[0] - call_ns])
    segments.extend(stamps[i + 1] - stamps[i] for i in range(n_lines))
    segments.append(end_ns - stamps[n_lines])
    with open(segments_path, "wb") as fh:
        segments.tofile(fh)
    gaps = sorted(segments[1:-1])
    result = {
        "setup_s": (stamps[0] - start_ns) / 1e9,
        "run_s": (end_ns - call_ns) / 1e9,
        "lines_parsed": stats.lines_parsed,
        "line_latency_p50_us": percentile(gaps, 0.50) / 1e3,
        "line_latency_p99_us": percentile(gaps, 0.99) / 1e3,
        "peak_rss_mb": peak_rss_kib / 1024,
        "state_bytes": state_bytes,
    }
    if tracer is not None:
        metrics, missing = layertrace.layer_metrics(tracer, dag, n_lines)
        result["layers"] = metrics
        result["absent"] = sorted(set(absent) | set(missing))
        with open(spans_path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, line in tracer.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "line": line}) + "\n")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
