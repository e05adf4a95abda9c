"""Per-layer tracing from outside the package.

The tracer replaces the module attributes that one layer calls in the next
(``logsieve.cli.extract_content``, ``logsieve.dag.sim_seq``,
``ParseDag.parse_line``, ...) with wrappers that count calls and add up total
and self time. Self time is a call's duration minus the time of the hooked
calls made inside it. Full spans (name, start, end, parent span, line index)
are kept for every ``sample_every``-th line and written out at the end.

A hook whose target no longer exists is skipped and the metrics built on it
are reported as absent, so a refactor of the package never breaks a run.
"""

import functools
import importlib
import time

# (span name, module, class or None, attribute). The same span name may be
# hooked at several call sites, e.g. ``lcs`` called from the graph and from
# ``tem_sim``.
HOOKS = [
    ("cli.run_stream", "logsieve.cli", None, "run_stream"),
    ("cli.load_config", "logsieve.cli", None, "load_config"),
    ("cli.extract_content", "logsieve.cli", None, "extract_content"),
    ("preprocess.apply_preprocess", "logsieve.cli", None, "apply_preprocess"),
    ("preprocess.tokenize", "logsieve.cli", None, "tokenize"),
    ("preprocess.select_split_token", "logsieve.dag", None, "select_split_token"),
    ("dag.parse_line", "logsieve.dag", "ParseDag", "parse_line"),
    ("dag.search", "logsieve.dag", "ParseDag", "search"),
    ("dag.create_group", "logsieve.dag", "ParseDag", "create_group"),
    ("dag.update_group", "logsieve.dag", "ParseDag", "update_group"),
    ("dag.try_merge", "logsieve.dag", "ParseDag", "_try_merge"),
    ("dag.snapshot_groups", "logsieve.dag", "ParseDag", "snapshot_groups"),
    ("dag.render_template", "logsieve.dag", None, "render_template"),
    ("similarity.sim_seq", "logsieve.dag", None, "sim_seq"),
    ("similarity.current_st", "logsieve.dag", None, "current_st"),
    ("similarity.tem_sim", "logsieve.dag", None, "tem_sim"),
    ("similarity.lcs", "logsieve.dag", None, "lcs"),
    ("similarity.lcs", "logsieve.similarity", None, "lcs"),
]


class Tracer:
    """Call counts, total and self time per span name, plus sampled spans."""

    def __init__(self, sample_every: int):
        self.sample_every = sample_every
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counters = {"split_key_none": 0, "wildcards_added": 0, "merges_accepted": 0}
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent_span, line_index]
        self.line = -1
        self.sampled = True
        self._stack: list[list] = []  # [child_ns, span index or None]

    def begin_line(self, index: int) -> None:
        self.line = index
        self.sampled = index % self.sample_every == 0

    def end_input(self) -> None:
        # The end-of-stream calls (snapshot, catalog) are few: keep them all.
        self.line = -1
        self.sampled = True

    def install(self) -> list[str]:
        """Wrap every hook target that exists; return the names skipped."""
        on_result = {
            "preprocess.select_split_token": self._count_none_key,
            "dag.update_group": self._count_wildcards,
            "dag.try_merge": self._count_merge,
        }
        missing = []
        for name, module_name, class_name, attr in HOOKS:
            try:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                target = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(name)
                continue
            setattr(owner, attr, self._wrap(name, target, on_result.get(name)))
        return sorted(set(missing) - set(self.stats))

    def _count_none_key(self, key) -> None:
        if key is None:
            self.counters["split_key_none"] += 1

    def _count_wildcards(self, replaced) -> None:
        if isinstance(replaced, int):
            self.counters["wildcards_added"] += replaced

    def _count_merge(self, target) -> None:
        if target is not None:
            self.counters["merges_accepted"] += 1

    def _wrap(self, name, fn, on_result):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span = None
            if self.sampled or not stack:
                span = len(spans)
                spans.append([name, 0, 0, parent, self.line])
            frame = [0, span if span is not None else parent]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if span is not None:
                    spans[span][1] = start
                    spans[span][2] = end
            if on_result is not None:
                on_result(result)
            return result

        return wrapper


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, dag, n_lines: int) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced pass, and the names left absent.

    ``*.ns_per_call`` and ratios whose base is zero (the function was never
    called on this workload) read 0.
    """
    s = tracer.stats
    c = tracer.counters
    metrics: dict[str, float] = {}
    absent: list[str] = []

    def put(metric, needs, value):
        if all(n in s for n in needs):
            try:
                metrics[metric] = float(value())
                return
            except (AttributeError, TypeError, KeyError, ImportError):
                pass
        absent.append(metric)

    def calls(name):
        return s[name][0]

    def total(name):
        return s[name][1]

    def self_ns(name):
        return s[name][2]

    put("cli.extract_content.ns_per_line", ["cli.extract_content"],
        lambda: total("cli.extract_content") / n_lines)
    put("cli.run_stream.self_ns_per_line", ["cli.run_stream"],
        lambda: self_ns("cli.run_stream") / n_lines)
    put("cli.load_config.s", ["cli.load_config"], lambda: total("cli.load_config") / 1e9)

    put("preprocess.apply_preprocess.ns_per_line", ["preprocess.apply_preprocess"],
        lambda: total("preprocess.apply_preprocess") / n_lines)
    put("preprocess.tokenize.ns_per_line", ["preprocess.tokenize"],
        lambda: total("preprocess.tokenize") / n_lines)
    split = "preprocess.select_split_token"
    put(split + ".calls_per_line", [split], lambda: calls(split) / n_lines)
    put(split + ".ns_per_call", [split], lambda: _ratio(total(split), calls(split)))
    put("preprocess.split_key_none_ratio", [split],
        lambda: _ratio(c["split_key_none"], calls(split)))

    put("dag.parse_line.ns_per_line", ["dag.parse_line"],
        lambda: total("dag.parse_line") / n_lines)
    put("dag.search.self_ns_per_line", ["dag.search"], lambda: self_ns("dag.search") / n_lines)
    put("dag.cache_hit_ratio", [], lambda: dag.cache_hits / n_lines)
    put("dag.create_group.calls", ["dag.create_group"], lambda: calls("dag.create_group"))
    put("dag.create_group.self_ns_per_call", ["dag.create_group"],
        lambda: _ratio(self_ns("dag.create_group"), calls("dag.create_group")))
    put("dag.update_group.ns_per_call", ["dag.update_group"],
        lambda: _ratio(total("dag.update_group"), calls("dag.update_group")))
    put("dag.wildcards_added", ["dag.update_group"], lambda: c["wildcards_added"])
    put("dag.render_template.ns_per_line", ["dag.render_template"],
        lambda: total("dag.render_template") / n_lines)
    put("dag.snapshot_groups.s", ["dag.snapshot_groups"],
        lambda: total("dag.snapshot_groups") / 1e9)
    put("dag.max_groups_per_split_node", [], lambda: max(
        len(ids) for node in dag.length_nodes.values() for ids in node.split_nodes.values()
    ))
    put("dag.groups_at_threshold_cap", [], lambda: _groups_at_cap(dag))
    put("dag.merge_accept_ratio", ["dag.try_merge"],
        lambda: _ratio(c["merges_accepted"], calls("dag.try_merge")))

    sim = "similarity.sim_seq"
    put(sim + ".calls_per_line", [sim], lambda: calls(sim) / n_lines)
    put(sim + ".ns_per_call", [sim], lambda: _ratio(total(sim), calls(sim)))
    put("similarity.current_st.calls_per_line", ["similarity.current_st"],
        lambda: calls("similarity.current_st") / n_lines)
    put("similarity.tem_sim.calls_per_created_group", ["similarity.tem_sim", "dag.create_group"],
        lambda: _ratio(calls("similarity.tem_sim"), calls("dag.create_group")))
    put("similarity.lcs.calls", ["similarity.lcs"], lambda: calls("similarity.lcs"))
    put("similarity.lcs.ns_per_call", ["similarity.lcs"],
        lambda: _ratio(total("similarity.lcs"), calls("similarity.lcs")))
    return metrics, absent


def _groups_at_cap(dag) -> int:
    # The unhooked function: the graph module's reference is wrapped.
    from logsieve.similarity import current_st

    return sum(
        1 for g in dag.groups.values() if g.threshold is not None and current_st(g.threshold) >= 1.0
    )
