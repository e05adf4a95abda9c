"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import csv
import random
import time
from collections import Counter

import pytest

import logsieve.dag
from logsieve import synth
from logsieve.cli import RunConfig, run_bench, run_stream
from logsieve.dag import ParseDag, render_template
from logsieve.evaluation import f_measure, pair_counts
from logsieve.preprocess import FIRST, LAST, select_split_token
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

TOL = 1e-9


def _ok(msg):
    print(f"PASS {msg}")


def test_criterion_1_formula_unit_suite():
    start = time.perf_counter()
    assert equ("file", "file") == 1
    assert equ("file_01", WILDCARD) == 0
    assert equ("Send", "send") == 0

    assert abs(sim_seq(["Send", "file", "file_01"], ["Send", "file", WILDCARD]) - 1.0) < TOL
    assert abs(sim_seq(["Send", "data", "file_01"], ["Send", "file", WILDCARD]) - 0.5) < TOL
    assert abs(sim_seq(["a", "b"], [WILDCARD, WILDCARD]) - 1.0) < TOL
    assert abs(sim_seq(["x", "y", "z"], ["x", "y", "z"]) - 1.0) < TOL

    state = new_threshold_state(["Send", "file", "file_01"])
    assert abs(state.st_init - 1 / 3) < TOL and state.base == 2 and state.eta == 0
    state = new_threshold_state(["a", "b", "c"])
    assert abs(state.st_init - 0.5) < TOL and state.base == 2
    state = new_threshold_state(["n1", "n2", "n3", "n4"])
    assert abs(state.st_init - 0.0) < TOL and state.base == 5

    assert abs(current_st(ThresholdState(1 / 3, 2, 0)) - 1 / 3) < TOL
    assert abs(current_st(ThresholdState(1 / 3, 2, 1)) - 5 / 6) < TOL
    assert abs(current_st(ThresholdState(0.5, 2, 7)) - 1.0) < TOL

    assert abs(tem_sim([1, 2, 3, 4], [2, 4, 5]) - 2 / 3) < TOL
    assert abs(tem_sim(["a", "b"], ["a", "b"]) - 1.0) < TOL
    assert abs(tem_sim(["a", "b"], ["c", "d"]) - 0.0) < TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(f"criterion 1: formula unit suite ({elapsed:.3f}s)")


def test_criterion_2_split_token_branch_table():
    start = time.perf_counter()
    table = [
        (["1a", "x", "2b"], None),                      # digit / digit
        (["1a", "x", "done"], (LAST, "done")),          # digit / clean
        (["start", "x", "2b"], (FIRST, "start")),       # clean / digit
        (["<s>", "x", "done"], (LAST, "done")),         # special / clean
        (["<s>", "x", "<e>"], None),                    # special / special
        (["start", "x", "<e>"], (FIRST, "start")),      # clean first wins
    ]
    for tokens, expected in table:
        assert select_split_token(tokens) == expected, tokens
    assert select_split_token(["v9"]) is None           # single digit-bearing token
    assert select_split_token(["#tag"]) is None         # single token, both ends special
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(f"criterion 2: split-token branch table ({elapsed:.3f}s)")


def test_criterion_3_worked_traces():
    # template update trace
    dag = ParseDag()
    dag.parse_line(["Send", "file", "file_01"])
    _, text = dag.parse_line(["Send", "file", "file_02"])
    assert text == "Send file *"
    assert dag.groups[1].threshold.eta == 1

    # graph-growth walk for a brand-new length/token path
    dag = ParseDag()
    dag.parse_line(["Open", "user", "info", "user007", "now"])
    node = dag.length_nodes[5]
    assert list(node.split_nodes) == [(FIRST, "Open")]
    assert render_template(dag.groups[1].event) == "Open user info user007 now"

    # LCS worked example
    assert lcs([1, 2, 3, 4], [2, 4, 5]) == [2, 4]
    _ok("criterion 3: worked traces")


def test_criterion_4_oracle_equivalence():
    from test_evaluation import pair_counts_brute

    start = time.perf_counter()
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 30)
        predicted = {i: rng.randint(0, 6) for i in range(n)}
        truth = {i: rng.randint(0, 6) for i in range(n)}
        assert pair_counts(predicted, truth) == pair_counts_brute(predicted, truth)

    from test_similarity import brute_force_lcs_len

    for _ in range(200):
        a = [rng.choice("abcd") for _ in range(rng.randint(0, 8))]
        b = [rng.choice("abcd") for _ in range(rng.randint(0, 8))]
        assert len(lcs(a, b)) == brute_force_lcs_len(a, b)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _ok(f"criterion 4: oracle equivalence ({elapsed:.3f}s)")


def test_criterion_5_cache_equivalence():
    # The reference clears every length-node pointer before each line, so
    # every line takes the full length -> split key -> similarity scan.
    from test_dag import ScanOnlyDag

    rng = random.Random(2024)
    for trial in range(50):
        n_templates = rng.randint(5, 40)
        n_lines = rng.randint(200, 5000)
        templates = synth.make_templates(rng, n_templates)
        lines, _ = synth.make_stream(rng, templates, n_lines)
        dag, reference = ParseDag(), ScanOnlyDag()
        a = [dag.parse_line(l.split()) for l in lines]
        b = [reference.parse_line(l.split()) for l in lines]
        assert a == b, f"divergence on trial {trial}"
    _ok("criterion 5: fast path equals the full scan, line by line (50 streams)")


@pytest.mark.parametrize("n_templates", [20, 60, 100])
def test_criterion_6_synthetic_accuracy(n_templates):
    start = time.perf_counter()
    rng = random.Random(1000 + n_templates)
    templates = synth.make_templates(rng, n_templates)
    lines, truth = synth.make_stream(rng, templates, 10_000)
    dag = ParseDag()
    predicted = {}
    for i, line in enumerate(lines, start=1):
        predicted[i] = dag.parse_line(line.split())[0].output_id
    _, _, f = f_measure(pair_counts(predicted, truth))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    assert f >= 0.95, f"F-measure {f:.4f} below 0.95 at {n_templates} templates"
    _ok(f"criterion 6: synthetic accuracy F={f:.4f} at {n_templates} templates ({elapsed:.1f}s)")


def test_criterion_7_linear_scaling(tmp_path):
    sizes = [10_000, 20_000, 40_000, 80_000, 160_000]
    start = time.perf_counter()
    rows = run_bench(RunConfig(), sizes, tmp_path, seed=0, n_templates=40)
    elapsed = time.perf_counter() - start
    times = dict(rows)
    for small, big in zip(sizes, sizes[1:]):
        ratio = times[big] / times[small]
        assert ratio <= 2.5, f"{small}->{big} wall time ratio {ratio:.2f} exceeds 2.5"
    rate = sizes[-1] / times[sizes[-1]]
    assert rate >= 50_000, f"throughput {rate:.0f} lines/s below 50k"
    assert elapsed < 120.0
    _ok(f"criterion 7: linear scaling, {rate:.0f} lines/s at 160k lines ({elapsed:.1f}s)")


def test_criterion_7_scan_work_flat(tmp_path, monkeypatch):
    # Criterion 7's wall-time ratios drift with the machine; similarity
    # scores per line do not. Same pool and samples as run_bench's.
    sizes = [10_000, 20_000, 40_000, 80_000, 160_000]
    rng = random.Random(0)
    templates = synth.make_templates(rng, 40)
    pool, _ = synth.make_stream(rng, templates, 10_000)
    samples = {size: rng.choices(pool, k=size) for size in sizes}
    calls = []
    real = logsieve.dag.sim_seq
    monkeypatch.setattr(logsieve.dag, "sim_seq", lambda m, e: calls.append(1) or real(m, e))
    per_line, groups = {}, {}
    for size in (sizes[0], sizes[-1]):
        calls.clear()
        _, dag = run_stream(RunConfig(), samples[size], tmp_path / f"run_{size}")
        per_line[size], groups[size] = len(calls) / size, len(dag.groups)
    assert groups[sizes[-1]] == groups[sizes[0]]
    assert per_line[sizes[-1]] <= 1.05 * per_line[sizes[0]], per_line
    _ok(f"criterion 7: {per_line[sizes[0]]:.4f} and {per_line[sizes[-1]]:.4f} sim_seq calls "
        f"per line at 10k and 160k lines, {groups[sizes[-1]]} groups")


def test_criterion_8_invariant_suite(tmp_path):
    start = time.perf_counter()
    rng = random.Random(77)
    for stream in range(10):
        templates = synth.make_templates(rng, rng.randint(5, 25))
        n_lines = rng.randint(200, 1500)
        lines, _ = synth.make_stream(rng, templates, n_lines)
        dag = ParseDag()
        prev = {}
        output_ids = []
        for line in lines:
            group, _ = dag.parse_line(line.split())
            output_ids.append(group.output_id)
            if group.group_id in prev:
                old_event, old_eta = prev[group.group_id]
                # literal -> wildcard only, eta never decreases
                for o, n in zip(old_event, group.event):
                    if o is WILDCARD:
                        assert n is WILDCARD
                assert group.threshold.eta >= old_eta
            assert current_st(group.threshold) <= 1.0 + 1e-12
            prev[group.group_id] = (list(group.event), group.threshold.eta)

        # partition totality: one output per line, each a snapshot node
        # whose occurrences count exactly its lines
        snapshot = dag.snapshot_groups()
        assert set(output_ids) <= {oid for oid, _, _ in snapshot}
        assert sum(occ for _, _, occ in snapshot) == n_lines
        assert dict(Counter(output_ids)) == {oid: occ for oid, _, occ in snapshot}
        # the stream driver writes one row per line, with line IDs 1..N
        out_dir = tmp_path / f"stream_{stream}"
        run_stream(RunConfig(), lines, out_dir)
        with open(out_dir / "structured.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [int(row[0]) for row in rows] == list(range(1, n_lines + 1))
        assert [int(row[1]) for row in rows] == output_ids

        # fixed depth: every group reachable by exactly length -> key -> list
        for length, node in dag.length_nodes.items():
            for key, groups in node.split_nodes.items():
                for group in groups:
                    assert len(group.event) == length

        # determinism of the snapshot
        replay = ParseDag()
        for line in lines:
            replay.parse_line(line.split())
        assert replay.snapshot_groups() == dag.snapshot_groups()
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _ok(f"criterion 8: invariant suite over random streams ({elapsed:.1f}s)")
