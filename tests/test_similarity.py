from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from logsieve.similarity import (
    ThresholdState,
    WILDCARD,
    current_st,
    equ,
    lcs,
    new_threshold_state,
    sim_seq,
    tem_sim,
)

APPROX = 1e-9


class TestEqu:
    def test_equal_literals(self):
        assert equ("file", "file") == 1

    def test_wildcard_never_matches(self):
        assert equ("file_01", WILDCARD) == 0
        assert equ("*", WILDCARD) == 0

    def test_case_sensitive(self):
        assert equ("Send", "send") == 0


class TestSimSeq:
    def test_matching_literals_with_wildcard(self):
        assert sim_seq(["Send", "file", "file_01"], ["Send", "file", WILDCARD]) == pytest.approx(1.0, abs=APPROX)

    def test_partial_match(self):
        assert sim_seq(["Send", "data", "file_01"], ["Send", "file", WILDCARD]) == pytest.approx(0.5, abs=APPROX)

    def test_all_wildcard_accepts_anything(self):
        assert sim_seq(["a", "b"], [WILDCARD, WILDCARD]) == 1.0

    def test_identity(self):
        assert sim_seq(["x", "y", "z"], ["x", "y", "z"]) == 1.0

    @given(
        st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=8).flatmap(
            lambda msg: st.tuples(
                st.just(msg),
                st.lists(
                    st.sampled_from(["a", "b", "c", WILDCARD]),
                    min_size=len(msg),
                    max_size=len(msg),
                ),
            )
        )
    )
    def test_range_and_wildcard_invariance(self, pair):
        msg, event = pair
        score = sim_seq(msg, event)
        assert 0.0 <= score <= 1.0
        # content at wildcard positions is irrelevant
        altered = [m if e is not None else "zzz" for m, e in zip(msg, event)]
        assert sim_seq(altered, event) == score

    # Tiny vocabulary with a literal "*" (never a wildcard's equal): events
    # with wildcards, all-wildcard events and the empty event all occur.
    @given(
        st.lists(st.sampled_from(["a", "b", "*"]), max_size=6).flatmap(
            lambda msg: st.tuples(
                st.just(msg),
                st.lists(st.sampled_from(["a", "*", WILDCARD]),
                         min_size=len(msg), max_size=len(msg)),
            )
        )
    )
    def test_equals_equ_oracle(self, pair):
        msg, event = pair
        literals = sum(1 for e in event if e is not None)
        expected = sum(equ(m, e) for m, e in zip(msg, event)) / literals if literals else 1.0
        assert sim_seq(msg, event) == expected


class TestThreshold:
    def test_init_with_one_digit_token(self):
        state = new_threshold_state(["Send", "file", "file_01"])
        assert state.st_init == pytest.approx(1 / 3, abs=APPROX)
        assert state.base == 2
        assert state.eta == 0
        # st_init and base encode the digit count (here 1) and the length (3):
        # a second digit-bearing token moves both.
        state = new_threshold_state(["Send", "file_1", "file_01"])
        assert state.st_init == pytest.approx(1 / 6, abs=APPROX)
        assert state.base == 3

    def test_init_no_digits(self):
        state = new_threshold_state(["a", "b", "c"])
        assert state.st_init == pytest.approx(0.5, abs=APPROX)
        assert state.base == 2

    def test_init_all_digit_tokens(self):
        state = new_threshold_state(["n1", "n2", "n3", "n4"])
        assert state.st_init == pytest.approx(0.0, abs=APPROX)
        assert state.base == 5

    def test_current_st_at_zero_eta(self):
        state = ThresholdState(st_init=1 / 3, base=2, eta=0)
        assert current_st(state) == pytest.approx(1 / 3, abs=APPROX)

    def test_current_st_grows_with_eta(self):
        state = ThresholdState(st_init=1 / 3, base=2, eta=1)
        assert current_st(state) == pytest.approx(5 / 6, abs=APPROX)

    def test_current_st_caps_at_one(self):
        state = ThresholdState(st_init=0.5, base=2, eta=7)
        assert current_st(state) == pytest.approx(1.0, abs=APPROX)

    @given(st.floats(0, 0.5), st.integers(2, 10), st.integers(0, 50))
    def test_monotone_in_eta_and_capped(self, st_init, base, eta):
        lo = ThresholdState(st_init=st_init, base=base, eta=eta)
        hi = ThresholdState(st_init=st_init, base=base, eta=eta + 1)
        assert current_st(lo) <= current_st(hi) + APPROX
        assert current_st(hi) <= 1.0


def dp_lcs(a: list, b: list) -> list:
    """Longest common subsequence over exact element equality.

    Ties in the dynamic-programming backtrace are broken deterministically so
    merged templates are reproducible run-to-run.
    """
    la, lb = len(a), len(b)
    table = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(1, la + 1):
        row = table[i]
        prev = table[i - 1]
        ai = a[i - 1]
        for j in range(1, lb + 1):
            if ai == b[j - 1]:
                row[j] = prev[j - 1] + 1
            else:
                row[j] = prev[j] if prev[j] >= row[j - 1] else row[j - 1]
    out = []
    i, j = la, lb
    while i > 0 and j > 0:
        if a[i - 1] == b[j - 1] and table[i][j] == table[i - 1][j - 1] + 1:
            out.append(a[i - 1])
            i -= 1
            j -= 1
        elif table[i - 1][j] >= table[i][j - 1]:
            i -= 1
        else:
            j -= 1
    out.reverse()
    return out


def brute_force_lcs_len(a, b):
    """Longest common subsequence length by enumerating subsequences of a."""
    best = 0
    for r in range(len(a), 0, -1):
        for idx in combinations(range(len(a)), r):
            sub = [a[i] for i in idx]
            it = iter(b)
            if all(x in it for x in sub):
                return r
    return best


class TestLcs:
    def test_worked_example(self):
        assert lcs([1, 2, 3, 4], [2, 4, 5]) == [2, 4]

    def test_identical(self):
        assert lcs(["a", "b"], ["a", "b"]) == ["a", "b"]

    def test_disjoint(self):
        assert lcs(["a", "b"], ["c", "d"]) == []

    def test_wildcard_matches_only_wildcard(self):
        assert lcs([WILDCARD, "a"], ["b", "a"]) == ["a"]
        assert lcs([WILDCARD, "a"], [WILDCARD, "a"]) == [WILDCARD, "a"]

    seqs = st.lists(st.sampled_from("abcd"), max_size=8)

    @given(seqs, seqs)
    def test_against_brute_force(self, a, b):
        got = lcs(a, b)
        assert len(got) == brute_force_lcs_len(a, b)
        # result is a real common subsequence
        for seq in (a, b):
            it = iter(seq)
            assert all(x in it for x in got)

    # Tiny vocabulary with the wildcard: repeats, ties and empty lists are
    # common, so the walk's tie rule is exercised against the DP backtrace.
    @settings(max_examples=500)
    @given(st.lists(st.sampled_from(["a", "b", "c", WILDCARD]), max_size=8),
           st.lists(st.sampled_from(["a", "b", "c", WILDCARD]), max_size=8))
    def test_equals_dp_backtrace(self, a, b):
        assert lcs(a, b) == dp_lcs(a, b)

    @given(seqs, seqs)
    def test_length_symmetry_and_bound(self, a, b):
        assert len(lcs(a, b)) == len(lcs(b, a))
        assert len(lcs(a, b)) <= min(len(a), len(b))
        assert lcs(a, a) == a


# Pairs p + x + s and p + y + s: long shared ends around short middles, as
# merge candidates have, so the trimmed ends and the core both do work.
_TOKENS = st.lists(st.sampled_from(["a", "b", "c", WILDCARD]), max_size=3)
_ENDS = st.lists(st.sampled_from(["a", "b", "c", WILDCARD]), max_size=10)
_LONG = st.lists(st.sampled_from(["a", "b", "c", WILDCARD]), min_size=60, max_size=130)


class TestTrimmedLcs:
    @settings(max_examples=500)
    @given(_ENDS, _TOKENS, _TOKENS, _ENDS)
    @example(["a", "b"], [], [], ["c"])  # a == b
    @example(["a", WILDCARD], [], ["b", "a"], [])  # a is a prefix of b
    @example([], ["a", "b"], [], ["b", WILDCARD])  # b is a suffix of a
    @example(["a", "a"], ["a"], [], ["a"])  # the ends overlap in one list
    def test_equals_dp_backtrace(self, p, x, y, s):
        a, b = p + x + s, p + y + s
        assert lcs(a, b) == dp_lcs(a, b)
        assert lcs(b, a) == dp_lcs(b, a)

    # Middles of 60-130 elements put the walk's bit test at high positions
    # of the columns, past any machine word.
    @settings(max_examples=50, deadline=None)
    @given(_ENDS, _LONG, _LONG, _ENDS)
    def test_long_middles_equal_dp_backtrace(self, p, x, y, s):
        a, b = p + x + s, p + y + s
        assert lcs(a, b) == dp_lcs(a, b)
        assert lcs(b, a) == dp_lcs(b, a)


class TestLcsLen:
    # Tiny alphabet with the wildcard: repeats are common and None == None.
    seqs = st.lists(st.sampled_from(["a", "b", WILDCARD]), max_size=9)

    @given(seqs, seqs)
    def test_equals_dp_and_brute_force(self, a, b):
        assert len(lcs(a, b)) == len(dp_lcs(a, b)) == brute_force_lcs_len(a, b)

    def test_worked_example(self):
        assert len(lcs([1, 2, 3, 4], [2, 4, 5])) == 2
        assert len(lcs([WILDCARD, "a"], [WILDCARD, "a"])) == 2
        assert len(lcs([], ["a"])) == len(lcs(["a"], [])) == 0

    def test_longer_than_a_machine_word(self):
        a = ["x", "y"] * 50
        assert len(lcs(a, a[1:] + ["z"])) == 99


class TestTemSim:
    def test_paper_style_example(self):
        assert tem_sim([1, 2, 3, 4], [2, 4, 5]) == pytest.approx(2 / 3, abs=APPROX)

    def test_identical(self):
        assert tem_sim(["a", "b", "c"], ["a", "b", "c"]) == 1.0

    def test_disjoint(self):
        assert tem_sim(["a", "b"], ["c", "d"]) == 0.0
