"""Operational shell: configuration, line-format handling, streaming runs,
evaluation reports and the scaling benchmark.

Subcommands:
  parse   stream raw lines into structured-log and template-catalog CSVs
  eval    parse and score against a labeled ground-truth CSV
  bench   time the parser at several input sizes and emit a scaling table

Exit codes: 0 success, 1 usage/configuration error, 2 IO error.
"""

import csv
import io
import json
import reprlib
import sys
import time
from pathlib import Path

import yaml

from .dag import ParseDag, check_merge_threshold
from .evaluation import f_measure, load_ground_truth, pair_counts
from .preprocess import ConfigError, PreprocessRule, apply_preprocess, tokenize

STRUCTURED_CSV = "structured.csv"
CATALOG_CSV = "templates.csv"
STATS_FILE = "stats.json"
REPORT_CSV = "report.csv"
BENCH_CSV = "bench.csv"
# Timed runs per size in ``run_bench``, whose fastest is the size's time.
BENCH_ROUNDS = 5
# Shows a bad config value in one short line: YAML aliases let a tiny file
# hold a value of millions of items, so nested containers show as [...].
_BRIEF = reprlib.Repr()
_BRIEF.maxlevel = 1


def extract_content(n_header: int, raw_line: str) -> str:
    """Skip the ``n_header`` leading whitespace-delimited header fields and
    return the rest of the line (internal spacing preserved) as content.

    Raises ValueError when the line has fewer fields than the format needs.
    """
    if n_header == 0:
        return raw_line
    parts = raw_line.split(None, n_header)
    if len(parts) <= n_header:
        raise ValueError(f"line has fewer than {n_header + 1} fields")
    return parts[n_header]


class RunConfig:
    def __init__(self, preprocess_rules: list[PreprocessRule] | None = None,
                 merge_threshold: float | None = None, header_fields: int = 0):
        self.preprocess_rules = [] if preprocess_rules is None else preprocess_rules
        self.merge_threshold = merge_threshold  # None turns merging off
        # Header fields before the content: line_format's names but the last.
        self.header_fields = header_fields

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is RunConfig else NotImplemented


def load_config(path) -> RunConfig:
    """Read a YAML configuration file into a RunConfig. A value of the wrong
    type, or a file that is not YAML, raises ConfigError. ``merge_enabled:
    false``, the default, sets no threshold; a given threshold is checked
    either way."""
    with open(path, encoding="utf-8") as fh:
        # The YAML composer recurses once per nesting level.
        try:
            raw = yaml.safe_load(fh) or {}
        except (yaml.YAMLError, UnicodeDecodeError, RecursionError) as exc:
            raise ConfigError(f"{path}: not valid YAML: {' '.join(str(exc).split())}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    known = {"preprocess_rules", "merge_enabled", "merge_threshold", "line_format"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown, key=str)}")

    def check(key, ok, expected):
        if key in raw and not ok(raw[key]):
            raise ConfigError(f"{path}: {key} must be {expected}, not {_BRIEF.repr(raw[key])}")

    check("preprocess_rules", lambda v: v is None or isinstance(v, list), "a list")
    check("merge_enabled", lambda v: v is None or isinstance(v, bool), "true or false")
    check("merge_threshold", lambda v: v is None or type(v) in (int, float), "a number")
    check("line_format", lambda v: v is None or isinstance(v, list)
          and all(isinstance(name, str) for name in v), "a list of field names")
    rules = []
    for entry in raw.get("preprocess_rules") or []:
        if not isinstance(entry, dict) or not all(
            isinstance(entry.get(k), str) for k in ("pattern", "replacement")
        ):
            raise ConfigError(f"{path}: each preprocess rule needs a pattern and a replacement string")
        unknown = set(entry) - {"pattern", "replacement"}
        if unknown:
            raise ConfigError(f"{path}: unknown preprocess rule keys {sorted(unknown, key=str)}")
        rules.append(PreprocessRule(entry["pattern"], entry["replacement"]))
    threshold = raw.get("merge_threshold")
    check_merge_threshold(threshold)
    if not raw.get("merge_enabled"):
        threshold = None
    elif threshold is None:
        raise ConfigError("merge_threshold is required when merge_enabled is true")
    fmt = raw.get("line_format")
    if fmt == []:
        raise ConfigError("line_format must name at least the content field")
    return RunConfig(preprocess_rules=rules, merge_threshold=threshold,
                     header_fields=0 if fmt is None else len(fmt) - 1)


class RunStats:
    def __init__(self):  # stats.json holds these counters in this order
        self.lines_parsed = 0
        self.malformed_skipped = 0
        self.templates_final = 0
        self.wall_time = 0.0
        self.cache_hits = 0
        self.exact_hits = 0
        self.groups_created = 0
        self.groups_merged = 0
        self.wildcards_added = 0
        self.groups_at_threshold_cap = 0


def run_stream(config: RunConfig, lines, out_dir, dag: ParseDag | None = None) -> tuple[RunStats, ParseDag]:
    """Drive the parser over an iterable of raw lines.

    Each parsed line's row (its line ID, its group's output ID and that
    output's template as of the line) is appended to the structured CSV at
    once; the template catalog and stats are written at end of stream.
    Memory stays bounded by the graph size, not the input size. Line IDs
    continue from the lines the given graph has already absorbed, so a
    resumed stream goes on numbering where the saved one stopped.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if dag is None:
        dag = ParseDag(merge_threshold=config.merge_threshold)
    stats = RunStats()
    start = time.perf_counter()
    cache_hits_before, exact_hits_before = dag.cache_hits, dag.exact_hits
    groups_before, merged_before = len(dag.groups), len(dag.groups) - len(dag.outputs)
    wildcards_before = _wildcards(dag)
    rules = config.preprocess_rules
    n_header = config.header_fields
    # Read per call, not at import: hooks installed before the call see every line.
    extract, preprocess, to_tokens = extract_content, apply_preprocess, tokenize
    parse_line = dag.parse_line
    # Output ID -> (template text, CSV encoding of "OutputId,EventTemplate\r\n").
    # The text is immutable, so the same object always encodes to the same
    # tail; a changed template is a new object and is encoded again. Tokens
    # come from str.split (a loaded state's are checked), so they hold no
    # line break and only a comma or a quote needs the CSV writer.
    tails: dict[int, tuple[str, str]] = {}
    buf = io.StringIO()
    tail_writer = csv.writer(buf)
    with open(out_dir / STRUCTURED_CSV, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["LineId", "OutputId", "EventTemplate"])
        write = fh.write
        first_id = line_id = sum(g.count for g in dag.groups.values())
        for raw in lines:
            raw = raw.rstrip("\n")
            if not raw:
                continue
            try:
                content = extract(n_header, raw)
            except ValueError:
                stats.malformed_skipped += 1
                continue
            line_id += 1
            if rules:
                content = preprocess(rules, content)
            group, text = parse_line(to_tokens(content))
            output_id = group.output_id
            cached = tails.get(output_id)
            if cached is None or cached[0] is not text:
                if "," in text or '"' in text:
                    buf.seek(0)
                    buf.truncate()
                    tail_writer.writerow((output_id, text))
                    tail = buf.getvalue()
                else:
                    tail = f"{output_id},{text}\r\n"
                cached = tails[output_id] = (text, tail)
            write(f"{line_id},{cached[1]}")
    stats.lines_parsed = line_id - first_id
    stats.cache_hits = dag.cache_hits - cache_hits_before
    stats.exact_hits = dag.exact_hits - exact_hits_before
    # Each merge folds a new group into an existing output node.
    stats.groups_created = len(dag.groups) - groups_before
    stats.groups_merged = len(dag.groups) - len(dag.outputs) - merged_before
    stats.wildcards_added = _wildcards(dag) - wildcards_before
    stats.groups_at_threshold_cap = sum(g.st >= 1.0 for g in dag.groups.values())
    snapshot = dag.snapshot_groups()
    stats.templates_final = len(snapshot)
    with open(out_dir / CATALOG_CSV, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["OutputId", "EventTemplate", "Occurrences"])
        writer.writerows(snapshot)
    stats.wall_time = time.perf_counter() - start
    (out_dir / STATS_FILE).write_text(json.dumps(vars(stats), indent=2) + "\n", encoding="utf-8")
    return stats, dag


def _wildcards(dag: ParseDag) -> int:
    """Wildcards the groups have gained since they were created."""
    return sum(g.event.count(None) for g in dag.groups.values())


def run_eval(config: RunConfig, lines, out_dir, truth_path, dataset: str = "dataset"):
    """Parse the stream, score it against ground truth, write the report row.

    The predicted partition is the OutputId column of the structured CSV,
    final when written: a merge moves only a group not yet written."""
    stats, _ = run_stream(config, lines, out_dir)
    truth = load_ground_truth(truth_path)
    out_dir = Path(out_dir)
    predicted = load_ground_truth(out_dir / STRUCTURED_CSV)  # LineId -> OutputId
    precision, recall, f = f_measure(pair_counts(predicted, truth))
    with open(out_dir / REPORT_CSV, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "precision", "recall", "f_measure", "n_lines", "n_templates"])
        writer.writerow(
            [dataset, f"{precision:.6f}", f"{recall:.6f}", f"{f:.6f}", stats.lines_parsed, stats.templates_final]
        )
    print(
        f"{dataset}: precision={precision:.4f} recall={recall:.4f} f={f:.4f} "
        f"({stats.lines_parsed} lines, {stats.templates_final} templates)"
    )
    return precision, recall, f, stats


def run_bench(
    config: RunConfig,
    sizes: list[int],
    out_dir,
    pool_lines: list[str] | None = None,
    seed: int = 0,
    n_templates: int = 40,
) -> list[tuple[int, float]]:
    """Time full streaming runs at each size, sampling lines with replacement
    from the given pool (or a synthetic template pool), and write the table.

    Each size runs BENCH_ROUNDS times, the sizes taking turns round-robin so a
    slow phase of the machine slows every size alike; a size's time is the
    fastest of its runs, as other load only slows. An empty pool raises ValueError."""
    import random

    from . import synth

    rng = random.Random(seed)
    if pool_lines is None:
        templates = synth.make_templates(rng, n_templates)
        pool_lines, _ = synth.make_stream(rng, templates, 10_000)
    elif not pool_lines:
        raise ValueError("the bench input has no non-blank line to sample")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    samples = [(size, rng.choices(pool_lines, k=size)) for size in sizes]
    times = [[] for _ in samples]
    for _ in range(BENCH_ROUNDS):
        for (size, sample), runs in zip(samples, times):
            stats, _ = run_stream(config, sample, out_dir / f"bench_{size}")
            runs.append(stats.wall_time)
    rows = [(size, min(runs)) for (size, _), runs in zip(samples, times)]
    with open(out_dir / BENCH_CSV, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["size", "seconds", "lines_per_sec"])
        for size, seconds in rows:
            rate = size / seconds if seconds > 0 else float("inf")
            writer.writerow([size, f"{seconds:.6f}", f"{rate:.1f}"])
    for size, seconds in rows:
        print(f"{size:>10} lines  {seconds:8.3f} s  {size / seconds if seconds else 0:10.0f} lines/s")
    return rows


def _open_input(path: str):
    if path == "-":
        return io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", errors="replace")
    return open(path, encoding="utf-8", errors="replace")


def _sizes(text: str) -> list[int]:
    """Parse ``--sizes``: comma-separated line counts, at least one, each at least 1."""
    import argparse

    try:
        sizes = [int(s) for s in text.split(",") if s]
        if sizes and all(size >= 1 for size in sizes):
            return sizes
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad value {text!r}")


def _build_parser() -> "argparse.ArgumentParser":
    import argparse  # here: a library caller of run_stream parses no command line

    class _ArgumentParser(argparse.ArgumentParser):
        """Reports a bad command line like a bad configuration: one line, exit 1."""

        def error(self, message):
            raise ConfigError(message)

    parser = _ArgumentParser(prog="logsieve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML configuration file")
        p.add_argument("--input", default="-", help="input log file, or - for stdin")
        p.add_argument("--output-dir", default="logsieve-out", help="directory for output CSVs")

    p_parse = sub.add_parser("parse", help="parse a stream into structured CSVs")
    common(p_parse)
    p_parse.add_argument("--save-state", help="write parser state JSON here at end of stream")
    p_parse.add_argument("--load-state", help="resume from a previously saved state JSON")

    p_eval = sub.add_parser("eval", help="parse and score against ground truth")
    common(p_eval)
    p_eval.add_argument("--truth", required=True, help="ground-truth CSV (line_id,event_label)")
    p_eval.add_argument("--dataset", default="dataset", help="dataset name for the report row")

    p_bench = sub.add_parser("bench", help="scaling benchmark")
    common(p_bench)
    p_bench.add_argument(
        "--sizes", required=True, type=_sizes, help="comma-separated line counts, e.g. 10000,20000,40000"
    )
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument(
        "--templates", type=int, default=40, help="synthetic pool size when no --input is given"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = load_config(args.config) if args.config else RunConfig()
        if args.command == "parse":
            dag = None
            if args.load_state:
                dag = ParseDag.from_json(Path(args.load_state).read_text(encoding="utf-8"))
                if dag.merge_threshold != config.merge_threshold:
                    raise ValueError(f"{args.load_state}: the saved merge_threshold "
                                     "must match the config's")
            with _open_input(args.input) as fh:
                stats, dag = run_stream(config, fh, args.output_dir, dag=dag)
            if args.save_state:
                Path(args.save_state).write_text(dag.to_json(), encoding="utf-8")
            print(
                f"parsed {stats.lines_parsed} lines into {stats.templates_final} templates "
                f"in {stats.wall_time:.3f}s ({stats.cache_hits} cache hits, "
                f"{stats.malformed_skipped} malformed skipped)"
            )
        elif args.command == "eval":
            with _open_input(args.input) as fh:
                run_eval(config, fh, args.output_dir, args.truth, dataset=args.dataset)
        elif args.command == "bench":
            pool = None
            if args.input != "-":
                with _open_input(args.input) as fh:
                    pool = [line.rstrip("\n") for line in fh if line.strip()]
            run_bench(config, args.sizes, args.output_dir, pool_lines=pool, seed=args.seed,
                      n_templates=args.templates)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
