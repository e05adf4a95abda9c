"""Pairwise-F-measure scoring of a predicted grouping against ground truth.

Both partitions map line IDs to opaque cluster labels. Counts are over
unordered line pairs: a true positive co-clusters a pair in both partitions,
a false positive only in the prediction, a false negative only in the truth.
"""

import csv
from collections import Counter, namedtuple

# line ID -> cluster label
Partition = dict[int, object]

PairCounts = namedtuple("PairCounts", "tp fp fn")


def _check_universe(predicted: Partition, truth: Partition) -> None:
    if predicted.keys() != truth.keys():
        missing = sorted(truth.keys() - predicted.keys())
        extra = sorted(predicted.keys() - truth.keys())
        raise ValueError(
            f"partition universes differ: missing from predicted {missing[:10]}, "
            f"extra in predicted {extra[:10]}"
        )


def pair_counts(predicted: Partition, truth: Partition) -> PairCounts:
    """Pair counts via the contingency table (linear in the number of lines)."""
    _check_universe(predicted, truth)

    def pairs(n: int) -> int:
        return n * (n - 1) // 2

    joint = Counter((predicted[i], truth[i]) for i in predicted)
    pred_sizes = Counter(predicted.values())
    truth_sizes = Counter(truth.values())
    tp = sum(pairs(n) for n in joint.values())
    pred_pairs = sum(pairs(n) for n in pred_sizes.values())
    truth_pairs = sum(pairs(n) for n in truth_sizes.values())
    return PairCounts(tp=tp, fp=pred_pairs - tp, fn=truth_pairs - tp)


def f_measure(counts: PairCounts) -> tuple[float, float, float]:
    """(precision, recall, F). Zero denominators score 0 rather than raising,
    so degenerate partitions (e.g. all singletons) evaluate cleanly."""
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f


def load_ground_truth(path) -> Partition:
    """Read a two-column CSV (line_id, event_label) into a Partition.

    A header row is expected and skipped when its first cell is not an
    integer; files written without one still load. A leading UTF-8
    byte-order mark is dropped, so it cannot hide the first line ID. A file
    that is not UTF-8 raises ValueError naming it.
    """
    try:
        return _read_partition(path)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 ({exc})") from None


def _read_partition(path) -> Partition:
    partition: Partition = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise ValueError(f"{path}:{lineno}: expected line_id,event_label")
            try:
                line_id = int(row[0])
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise ValueError(f"{path}:{lineno}: line_id {row[0]!r} is not an integer")
            if line_id in partition:
                raise ValueError(f"{path}:{lineno}: duplicate line_id {line_id}")
            partition[line_id] = row[1]
    return partition
