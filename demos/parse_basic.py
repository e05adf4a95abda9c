"""Walk through online template mining on a handful of HDFS-style lines.

Run: python3 demos/parse_basic.py
"""

from logsieve import ParseDag, PreprocessRule, apply_preprocess, tokenize

LINES = [
    "Receiving block blk_3587 src: /10.251.42.84 dest: /10.251.42.84",
    "Receiving block blk_9001 src: /10.250.10.11 dest: /10.250.10.12",
    "PacketResponder 1 for block blk_3587 terminating",
    "PacketResponder 0 for block blk_9001 terminating",
    "Verification succeeded for blk_3587",
]

RULES = [
    PreprocessRule(r"blk_[0-9]+", "blkID"),
    PreprocessRule(r"/?\d+\.\d+\.\d+\.\d+", "IP"),
]


def main():
    dag = ParseDag()
    for line_id, raw in enumerate(LINES, start=1):
        content = apply_preprocess(RULES, raw)
        group, template = dag.parse_line(tokenize(content))
        print(f"line {line_id}: event {group.output_id}  {template}")

    print("\nfinal template catalog:")
    for output_id, template, occurrences in dag.snapshot_groups():
        print(f"  event {output_id}: {template!r}  occurrences={occurrences}")


if __name__ == "__main__":
    main()
