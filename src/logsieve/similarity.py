"""Numeric core: sequence similarity, adaptive thresholds, LCS, template similarity.

A mined template is a list of tokens where ``None`` stands for a wildcard
position (rendered as ``*``). All functions here are pure; threshold state is
mutated only by the graph code.
"""

import math
from operator import eq

from .preprocess import DIGITS

# Template token: a literal string, or None for a wildcard position.
Token = str | None

WILDCARD: Token = None


def equ(message_token: str, event_token: Token) -> int:
    """Token-pair match score: 1 only for equal literals, 0 for wildcards."""
    return 1 if event_token is not None and message_token == event_token else 0


def sim_seq(message: list[str], event: list[Token]) -> float:
    """Similarity between a message and a template of equal length.

    Token-wise matches (``equ``) over the template's literal positions,
    normalized by the literal count. An all-wildcard template constrains
    nothing and accepts any message of its length (similarity 1.0).

    Message tokens are strings, so a wildcard (``None``) position never
    compares equal and plain ``==`` counts exactly what ``equ`` would.
    """
    assert len(message) == len(event), "length layer must guarantee equal lengths"
    n_c = len(event) - event.count(None)
    if n_c == 0:
        return 1.0
    return sum(map(eq, message, event)) / n_c


class ThresholdState:
    """Per-group adaptive acceptance threshold.

    ``st_init`` and ``base`` are frozen at group creation; ``eta`` counts the
    template tokens replaced by wildcards, so it is the event's wildcard count.
    """

    __slots__ = ("st_init", "base", "eta")

    def __init__(self, st_init: float, base: int, eta: int):
        self.st_init, self.base, self.eta = st_init, base, eta

    def __eq__(self, other):
        return ((self.st_init, self.base, self.eta) == (other.st_init, other.base, other.eta)
                if type(other) is ThresholdState else NotImplemented)


def new_threshold_state(tokens: list[str]) -> ThresholdState:
    """Initialize threshold state from a new group's first (all-literal) message.

    The initial threshold estimates the constant ratio of the template:
    digit-bearing tokens are presumed variables and discounted, and the empty
    message's 0/0 counts as 0, so its group accepts every empty message.
    """
    seq_len = len(tokens)
    digits = seq_len - sum(map(DIGITS.isdisjoint, tokens))
    return ThresholdState(0.5 * (seq_len - digits) / (seq_len or 1), max(2, digits + 1), eta=0)


def current_st(state: ThresholdState) -> float:
    """Current acceptance threshold, growing with found wildcards, capped at 1."""
    return min(1.0, state.st_init + 0.5 * math.log(state.eta + 1, state.base))


def _columns(a: list, b: list) -> list[int]:
    """Bit-parallel LCS columns (Allison & Dix 1986; Hyyro 2004): ``v`` holds
    one bit per element of ``a``, ``cols[j]`` is ``v`` after ``b[:j]``, and its
    zero bits below bit ``i`` count the LCS of ``a[:i]`` and ``b[:j]``. Each
    element of ``b`` costs a few integer operations, not a pass over ``a``."""
    masks: dict = {}
    bit = 1
    for token in a:
        masks[token] = masks.get(token, 0) | bit
        bit <<= 1
    full = bit - 1
    v = full
    cols = [v]
    for token in b:
        match = masks.get(token)
        if match:
            u = v & match
            v = ((v + u) | (v - u)) & full
        cols.append(v)
    return cols


def _trim(a: list, b: list) -> tuple[int, int]:
    """The common prefix length of ``a`` and ``b`` and the common suffix length
    of what follows: some LCS keeps both ends whole (the diff trim, Myers 1986)."""
    n = min(len(a), len(b))
    p = s = 0
    while p < n and a[p] == b[p]:
        p += 1
    while s < n - p and a[-1 - s] == b[-1 - s]:
        s += 1
    return p, s


def lcs(a: list, b: list) -> list:
    """Longest common subsequence over exact element equality.

    A walk back over ``_columns``, with ties broken deterministically so
    merged templates are reproducible run-to-run: equal elements are kept;
    otherwise the walk drops from ``a`` when that keeps the LCS at least as
    long as dropping from ``b``. With T[i][j] the LCS length of the
    middles' prefixes ``[:i]`` and ``[:j]``, T[i][j] - T[i-1][j] is 1 minus
    bit i-1 of ``cols[j]``; where the elements differ, T[i][j] is the larger
    of T[i-1][j] and T[i][j-1], so dropping from ``a`` keeps the LCS exactly
    when that bit is set. The walk keeps equal end elements first, and each
    length it compares is the common prefix's plus the middles', so
    trimming the common ends first leaves its result as it was.
    """
    p, s = _trim(a, b)
    mid_a, mid_b = a[p:len(a) - s], b[p:len(b) - s]
    cols = _columns(mid_a, mid_b)
    out = []
    i, j = len(mid_a), len(mid_b)
    while i and j:
        if mid_a[i - 1] == mid_b[j - 1]:
            out.append(mid_a[i - 1])
            i -= 1
            j -= 1
        elif cols[j] >> (i - 1) & 1:
            i -= 1
        else:
            j -= 1
    out.reverse()
    return a[:p] + out + a[len(a) - s:]


def tem_sim(new_event: list[Token], exist_event: list[Token]) -> float:
    """Similarity of two templates: LCS length over the shorter length."""
    return len(lcs(new_event, exist_event)) / min(len(new_event), len(exist_event))
