"""Generate a synthetic labeled corpus, parse it, and score the grouping with
the pairwise F-measure.

Run: python3 demos/evaluate_accuracy.py
"""

import random

from logsieve import ParseDag, f_measure, pair_counts
from logsieve.synth import make_stream, make_templates


def main():
    rng = random.Random(1)
    templates = make_templates(rng, 50)
    lines, truth = make_stream(rng, templates, 5000)

    dag = ParseDag()
    predicted = {}
    for line_id, line in enumerate(lines, start=1):
        group, _ = dag.parse_line(line.split())
        predicted[line_id] = group.output_id

    precision, recall, f = f_measure(pair_counts(predicted, truth))
    print(f"true templates: {len(templates)}  mined templates: {len(dag.snapshot_groups())}")
    print(f"precision={precision:.4f} recall={recall:.4f} f={f:.4f}")


if __name__ == "__main__":
    main()
