"""Seeded input generators for the benchmark workloads.

Self-contained on purpose: the generators do not use ``logsieve.synth``, so a
change to the package cannot shift the bytes a workload feeds the parser.
Every generator returns ``(lines, truth, config_yaml)`` where ``truth[i]`` is
the true template label of line ``i + 1``.
"""

import random
import string

# Line format and preprocess rules of demos/config.example.yaml, copied so the
# benchmark input does not move when the demo config is edited.
HEADER_CONFIG = """\
line_format: [Date, Time, Pid, Level, Component, Content]
preprocess_rules:
  - pattern: "blk_[0-9]+"
    replacement: "blkID"
  - pattern: "(\\\\d+\\\\.){3}\\\\d+"
    replacement: "IP"
merge_enabled: false
"""

MERGE_CONFIG = """\
line_format: [Content]
merge_enabled: true
merge_threshold: 0.9
"""

_LEVELS = ["INFO"] * 6 + ["WARN"] * 2 + ["DEBUG", "ERROR"]
_COMPONENTS = [
    "dfs.DataNode",
    "dfs.DataNode$PacketResponder",
    "dfs.FSNamesystem",
    "dfs.DataBlockScanner",
    "mapred.TaskTracker",
    "ipc.Server",
]
_VAR = None  # variable slot inside a generated template
# Typed variable slots of the header workloads; never a generated word.
_VAR_KINDS = ("<ip>", "<blk>", "<num>")


def _word(rng: random.Random, lo: int, hi: int) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(lo, hi)))


def _distinct_words(rng: random.Random, n: int, lo: int, hi: int, taken=()) -> list[str]:
    words = set()
    while len(words) < n:
        w = _word(rng, lo, hi)
        if w not in taken:
            words.add(w)
    return sorted(words)


def _header_templates(rng: random.Random, n: int) -> list[tuple]:
    """Templates of 3 to 12 tokens, an equal number of each length, with a
    distinct literal head and a literal tail; about a quarter of the interior
    positions are IP, block-ID or numeric-ID variables."""
    templates = []
    for i, head in enumerate(_distinct_words(rng, n, 4, 9)):
        tokens = [head]
        for _ in range(1 + i % 10):
            if rng.random() < 0.25:
                tokens.append(rng.choice(_VAR_KINDS))
            else:
                tokens.append(_word(rng, 2, 8))
        tokens.append(_word(rng, 3, 8))
        templates.append(tuple(tokens))
    return templates


def _render_var(rng: random.Random, kind: str) -> str:
    if kind == "<ip>":
        return "10.{}.{}.{}".format(rng.randrange(256), rng.randrange(256), rng.randrange(256))
    if kind == "<blk>":
        return "blk_{}".format(rng.randrange(10**12))
    return "id{}".format(rng.randrange(10**6))


def _header_line(rng: random.Random, template: tuple) -> str:
    content = [_render_var(rng, tok) if tok in _VAR_KINDS else tok for tok in template]
    header = "2026-{:02d}-{:02d} {:02d}:{:02d}:{:02d} {} {} {}".format(
        rng.randint(1, 12),
        rng.randint(1, 28),
        rng.randrange(24),
        rng.randrange(60),
        rng.randrange(60),
        rng.randint(100, 99999),
        rng.choice(_LEVELS),
        rng.choice(_COMPONENTS),
    )
    return header + " " + " ".join(content)


def uniform(seed: int, n_lines: int):
    """40 templates, each line drawn independently."""
    rng = random.Random(seed)
    templates = _header_templates(rng, 40)
    lines, truth = [], []
    for _ in range(n_lines):
        tid = rng.randrange(len(templates))
        lines.append(_header_line(rng, templates[tid]))
        truth.append(tid)
    return lines, truth, HEADER_CONFIG


def bursty(seed: int, n_lines: int):
    """``uniform``'s templates, rendering and config, emitted in runs of 1 to
    50 consecutive lines of one template."""
    rng = random.Random(seed)
    templates = _header_templates(rng, 40)
    lines, truth = [], []
    while len(lines) < n_lines:
        tid = rng.randrange(len(templates))
        for _ in range(min(rng.randint(1, 50), n_lines - len(lines))):
            lines.append(_header_line(rng, templates[tid]))
            truth.append(tid)
    return lines, truth, HEADER_CONFIG


def merge_heavy(seed: int, n_lines: int):
    """100 templates with merging on at 0.9. A quarter are 11 to 14 literal
    tokens whose head word varies per line over a small digit-free set, so
    one event is created under several split keys and the merge pass has
    work to do; the rest have distinct heads and numeric variables."""
    rng = random.Random(seed)
    heads = _distinct_words(rng, 5, 4, 7)
    words = _distinct_words(rng, 100, 4, 9, taken=set(heads))
    templates = []
    for i, word in enumerate(words):
        if i % 4 == 0:
            body = [_word(rng, 2, 8) for _ in range(rng.randint(10, 13))]
            templates.append((_VAR, word, *body))
        else:
            body = [
                _VAR if rng.random() < 0.25 else _word(rng, 2, 8)
                for _ in range(rng.randint(1, 8))
            ]
            templates.append((word, *body, _word(rng, 3, 8)))
    lines, truth = [], []
    for _ in range(n_lines):
        tid = rng.randrange(len(templates))
        template = templates[tid]
        if template[0] is _VAR:
            tokens = [rng.choice(heads), *template[1:]]
        else:
            tokens = [
                "id{}".format(rng.randrange(10**6)) if tok is _VAR else tok for tok in template
            ]
        lines.append(" ".join(tokens))
        truth.append(tid)
    return lines, truth, MERGE_CONFIG


GENERATORS = {
    "uniform": uniform,
    "bursty": bursty,
    "merge_heavy": merge_heavy,
}
