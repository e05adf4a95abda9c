import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from logsieve.evaluation import (
    PairCounts,
    _check_universe,
    f_measure,
    load_ground_truth,
    pair_counts,
)


def pair_counts_brute(predicted, truth) -> PairCounts:
    """All-pairs enumeration oracle for ``pair_counts``; quadratic, and kept
    independent of the contingency table it checks."""
    _check_universe(predicted, truth)
    tp = fp = fn = 0
    for a, b in combinations(sorted(predicted), 2):
        same_pred = predicted[a] == predicted[b]
        same_truth = truth[a] == truth[b]
        if same_pred and same_truth:
            tp += 1
        elif same_pred:
            fp += 1
        elif same_truth:
            fn += 1
    return PairCounts(tp=tp, fp=fp, fn=fn)


class TestPairCounts:
    def test_identical_partitions(self):
        p = {1: "a", 2: "a", 3: "b"}
        assert pair_counts(p, p) == PairCounts(tp=1, fp=0, fn=0)

    def test_over_clustered_prediction(self):
        predicted = {1: "x", 2: "x", 3: "x"}
        truth = {1: "a", 2: "a", 3: "b"}
        assert pair_counts(predicted, truth) == PairCounts(tp=1, fp=2, fn=0)

    def test_all_singletons(self):
        predicted = {1: 1, 2: 2, 3: 3, 4: 4}
        truth = {1: "a", 2: "a", 3: "b", 4: "b"}
        assert pair_counts(predicted, truth) == PairCounts(tp=0, fp=0, fn=2)

    def test_universe_mismatch_raises(self):
        with pytest.raises(ValueError, match="universes differ"):
            pair_counts({1: "a"}, {1: "a", 2: "b"})

    def test_matches_brute_force_on_random_partitions(self):
        rng = random.Random(0)
        for _ in range(100):
            n = rng.randint(1, 30)
            predicted = {i: rng.randint(0, 5) for i in range(n)}
            truth = {i: rng.randint(0, 5) for i in range(n)}
            assert pair_counts(predicted, truth) == pair_counts_brute(predicted, truth)

    labels = st.integers(0, 4)

    @given(st.dictionaries(st.integers(0, 15), st.tuples(labels, labels), min_size=1))
    def test_contingency_equals_brute(self, both):
        predicted = {k: v[0] for k, v in both.items()}
        truth = {k: v[1] for k, v in both.items()}
        assert pair_counts(predicted, truth) == pair_counts_brute(predicted, truth)


class TestFMeasure:
    def test_perfect(self):
        assert f_measure(PairCounts(1, 0, 0)) == (1.0, 1.0, 1.0)

    def test_mixed(self):
        p, r, f = f_measure(PairCounts(1, 2, 0))
        assert p == pytest.approx(1 / 3)
        assert r == 1.0
        assert f == pytest.approx(0.5)

    def test_zero_denominator_conventions(self):
        assert f_measure(PairCounts(0, 0, 2)) == (0.0, 0.0, 0.0)
        assert f_measure(PairCounts(0, 0, 0)) == (0.0, 0.0, 0.0)

    def test_relabeling_invariance(self):
        a = {1: "x", 2: "x", 3: "y", 4: "y"}
        b = {1: 10, 2: 10, 3: 20, 4: 20}
        truth = {1: "e1", 2: "e1", 3: "e1", 4: "e2"}
        assert f_measure(pair_counts(a, truth)) == f_measure(pair_counts(b, truth))


class TestLoadGroundTruth:
    def test_with_header(self, tmp_path):
        p = tmp_path / "truth.csv"
        p.write_text("line_id,event_label\n1,E1\n2,E1\n3,E2\n")
        assert load_ground_truth(p) == {1: "E1", 2: "E1", 3: "E2"}

    def test_headerless(self, tmp_path):
        p = tmp_path / "truth.csv"
        p.write_text("1,E1\n2,E1\n")
        assert load_ground_truth(p) == {1: "E1", 2: "E1"}

    def test_headerless_with_byte_order_mark(self, tmp_path):
        # Spreadsheet exports often start with EF BB BF; line 1 is still data.
        p = tmp_path / "truth.csv"
        p.write_bytes(b"\xef\xbb\xbf1,a\n2,a\n")
        assert load_ground_truth(p) == {1: "a", 2: "a"}

    def test_empty_file(self, tmp_path):
        p = tmp_path / "truth.csv"
        p.write_text("")
        assert load_ground_truth(p) == {}

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "truth.csv"
        p.write_text("line_id,event_label\n1,E1\n1,E2\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_ground_truth(p)

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "truth.csv"
        p.write_text("line_id,event_label\n1,E1\njunk\n")
        with pytest.raises(ValueError, match=":3"):
            load_ground_truth(p)
