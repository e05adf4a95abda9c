"""logsieve: streaming log parsing with online template mining.

Raw log lines go in; each line's event ID and template come out. Templates are
mined incrementally in a fixed-depth graph with per-group self-tuning
similarity thresholds, one exact memo of the route by length and end tokens,
an exact-line memo that skips the scan for a line repeating a wildcard-free
group's first message, and an optional template-merge pass. A
pairwise-F-measure evaluator and a scaling benchmark ship alongside.
"""

from .dag import ParseDag, render_template
from .evaluation import PairCounts, f_measure, load_ground_truth, pair_counts
from .preprocess import (
    SPECIAL_CHARS,
    PreprocessRule,
    apply_preprocess,
    select_split_token,
    tokenize,
)
from .similarity import WILDCARD, current_st, lcs, sim_seq, tem_sim

__all__ = [
    "ParseDag",
    "render_template",
    "PairCounts",
    "f_measure",
    "load_ground_truth",
    "pair_counts",
    "SPECIAL_CHARS",
    "PreprocessRule",
    "apply_preprocess",
    "select_split_token",
    "tokenize",
    "WILDCARD",
    "current_st",
    "lcs",
    "sim_seq",
    "tem_sim",
]
