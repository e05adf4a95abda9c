import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from logsieve.cli import (
    RunConfig,
    extract_content,
    load_config,
    main,
    run_bench,
    run_eval,
    run_stream,
)
from logsieve.dag import ParseDag
from logsieve.preprocess import ConfigError, PreprocessRule, select_split_token, tokenize
from test_dag import ScanOnlyDag, parse_all

HDFS_LINE = (
    "081109 204655 556 INFO dfs.DataNode$PacketResponder: "
    "Received block blk_3587508140051953248 of size 67108864 from /10.251.42.84"
)


class TestExtractContent:
    def test_hdfs_style_line(self):
        # Date, Time, Pid, Level and Component come before the content.
        content = extract_content(5, HDFS_LINE)
        assert content == (
            "Received block blk_3587508140051953248 of size 67108864 from /10.251.42.84"
        )

    def test_content_only(self):
        content = extract_content(0, "hello world")
        assert content == "hello world"

    def test_too_few_fields(self):
        with pytest.raises(ValueError):
            extract_content(2, "x y")

    def test_content_spacing_preserved(self):
        content = extract_content(1, "x a  b   c")
        assert content == "a  b   c"


class TestConfig:
    def test_load_full_config(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "preprocess_rules:\n"
            "  - pattern: 'blk_[0-9]+'\n"
            "    replacement: blkID\n"
            "merge_enabled: true\n"
            "merge_threshold: 0.95\n"
            "line_format: [Date, Content]\n"
        )
        config = load_config(cfg)
        assert config.merge_threshold == 0.95
        assert config.header_fields == 1
        assert config.preprocess_rules[0].replacement == "blkID"
        # Without a line_format the whole line is content; the demo config
        # names five header fields before it.
        cfg.write_text("merge_enabled: false\n")
        assert load_config(cfg).header_fields == 0
        demo = Path(__file__).resolve().parents[1] / "demos" / "config.example.yaml"
        assert load_config(demo).header_fields == 5

    def test_configs_compare_by_value(self, tmp_path):
        first, second = RunConfig(), RunConfig()
        assert first == second
        assert first.preprocess_rules is not second.preprocess_rules
        first.preprocess_rules.append(PreprocessRule(r"blk_[0-9]+", "blkID"))
        assert second.preprocess_rules == [] and first != second
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("preprocess_rules:\n  - {pattern: 'blk_[0-9]+', replacement: blkID}\n"
                       "merge_enabled: true\nmerge_threshold: 0.9\nline_format: [Date, Content]\n")
        assert load_config(cfg) == RunConfig(first.preprocess_rules, 0.9, 1)

    @pytest.mark.parametrize("text", ["merge_enabled: false\nmerge_threshold: 0.9\n",
                                      "merge_threshold: 0.9\n"],
                             ids=["off-with-threshold", "threshold-only"])
    def test_merging_off_sets_no_threshold(self, tmp_path, text):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text)
        assert load_config(cfg).merge_threshold is None

    def test_merge_without_threshold_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("merge_enabled: true\n")
        with pytest.raises(ConfigError):
            load_config(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("shenanigans: 1\n")
        with pytest.raises(ConfigError):
            load_config(cfg)


class TestRunStream:
    def test_toy_stream(self, tmp_path):
        lines = ["Send file file_01", "Send file file_02", "Open user info"]
        stats, dag = run_stream(RunConfig(), lines, tmp_path)
        assert stats.lines_parsed == 3
        assert stats.templates_final == 2
        assert (stats.groups_created, stats.groups_merged) == (2, 0)
        with open(tmp_path / "structured.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["LineId", "OutputId", "EventTemplate"]
        assert len(rows) == 4
        with open(tmp_path / "templates.csv") as fh:
            catalog = list(csv.reader(fh))[1:]
        assert [(r[1], int(r[2])) for r in catalog] == [("Send file *", 2), ("Open user info", 1)]

    def test_empty_input(self, tmp_path):
        stats, _ = run_stream(RunConfig(), [], tmp_path)
        assert stats.lines_parsed == 0
        assert stats.templates_final == 0

    def test_malformed_lines_skipped_and_ids_consecutive(self, tmp_path):
        config = RunConfig(header_fields=2)
        lines = ["x y hello there", "short", "x y more text here"]
        stats, _ = run_stream(config, lines, tmp_path)
        assert stats.malformed_skipped == 1
        with open(tmp_path / "structured.csv") as fh:
            ids = [int(r[0]) for r in list(csv.reader(fh))[1:]]
        assert ids == [1, 2]

    def test_preprocessing_applied(self, tmp_path):
        config = RunConfig(preprocess_rules=[PreprocessRule(r"blk_[0-9]+", "blkID")])
        stats, dag = run_stream(config, ["got blk_1 ok", "got blk_2 ok"], tmp_path)
        assert stats.templates_final == 1
        assert dag.snapshot_groups()[0][1] == "got blkID ok"

    def test_group_counters_count_this_run(self, tmp_path):
        config = RunConfig(merge_threshold=0.45)
        _, dag = run_stream(config, ["Send file", "Send a file"], tmp_path / "a")
        # "Send a big file" merges into output 1 as group 3 and "Send b big
        # file" wildcards its "a", which caps its threshold (no digits: st_init
        # 0.5, base 2, so 0.5 + 0.5 log2(2) = 1). "Open port 7" opens group 4
        # and "Open door 7" wildcards its "port", short of the cap (st_init
        # 1/3 for one digit token in three: 1/3 + 0.5 = 5/6).
        lines = ["Send a big file", "Send b big file", "Open port 7", "Open door 7"]
        stats, _ = run_stream(config, lines, tmp_path / "b", dag=dag)
        assert (stats.groups_created, stats.groups_merged) == (2, 1)
        assert (stats.wildcards_added, stats.groups_at_threshold_cap) == (2, 1)
        written = json.loads((tmp_path / "b" / "stats.json").read_text())
        assert (written["groups_created"], written["groups_merged"]) == (2, 1)
        assert (written["wildcards_added"], written["groups_at_threshold_cap"]) == (2, 1)

    def test_memo_counters_count_this_run(self, tmp_path):
        # Line 1 repeats group 1's first message, so the exact-line memo
        # routes it; line 2 has an unseen end and wildcards the "c"; line 3
        # then takes the end-token memo only.
        _, dag = run_stream(RunConfig(), ["a b c"], tmp_path / "a")
        stats, _ = run_stream(RunConfig(), ["a b c", "a b d", "a b c"], tmp_path / "b", dag=dag)
        assert (stats.cache_hits, stats.exact_hits) == (2, 1)
        written = json.loads((tmp_path / "b" / "stats.json").read_text())
        assert (written["cache_hits"], written["exact_hits"]) == (2, 1)

    def test_stats_file_holds_the_run_stats(self, tmp_path):
        stats, _ = run_stream(RunConfig(), ["a b c", "a b d"], tmp_path)
        written = json.loads((tmp_path / "stats.json").read_text())
        assert list(written) == [
            "lines_parsed", "malformed_skipped", "templates_final", "wall_time", "cache_hits",
            "exact_hits", "groups_created", "groups_merged", "wildcards_added",
            "groups_at_threshold_cap",
        ]
        assert written["lines_parsed"] == stats.lines_parsed == 2
        assert written["wall_time"] == stats.wall_time

    def test_byte_identical_reruns(self, tmp_path):
        lines = [f"evt{i % 5} doing work item{i}" for i in range(200)]
        run_stream(RunConfig(), lines, tmp_path / "a")
        run_stream(RunConfig(), lines, tmp_path / "b")
        for name in ("structured.csv", "templates.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestRunEval:
    def test_perfect_score_on_toy_stream(self, tmp_path):
        lines = ["Send file file_01", "Send file file_02", "Open user info"]
        truth = tmp_path / "truth.csv"
        truth.write_text("line_id,event_label\n1,E1\n2,E1\n3,E2\n")
        _, _, f, _ = run_eval(RunConfig(), lines, tmp_path / "out", truth)
        assert f == 1.0
        report = (tmp_path / "out" / "report.csv").read_text()
        assert "1.000000" in report

    def test_under_parsed_pair(self, tmp_path):
        # 4 lines, parser fuses two true events of equal shape
        lines = ["job aa done", "job aa done", "job bb done", "job bb done"]
        truth = tmp_path / "truth.csv"
        truth.write_text("line_id,event_label\n1,E1\n2,E1\n3,E2\n4,E2\n")
        p, r, f, _ = run_eval(RunConfig(), lines, tmp_path / "out", truth)
        # all four co-clustered: tp=2, fp=4 -> p=1/3, r=1
        assert p == pytest.approx(1 / 3)
        assert r == 1.0
        assert f == pytest.approx(0.5)


class TestRunBench:
    def test_rows_and_csv(self, tmp_path):
        rows = run_bench(RunConfig(), [500, 1000], tmp_path, seed=1, n_templates=10)
        assert [size for size, _ in rows] == [500, 1000]
        assert all(seconds > 0 for _, seconds in rows)
        assert (tmp_path / "bench.csv").exists()

    def test_empty_sizes(self, tmp_path):
        assert run_bench(RunConfig(), [], tmp_path) == []

    def test_empty_pool(self, tmp_path):
        with pytest.raises(ValueError, match="no non-blank line"):
            run_bench(RunConfig(), [10], tmp_path, pool_lines=[])


class TestMainCli:
    def test_parse_roundtrip(self, tmp_path, capsys):
        inp = tmp_path / "in.log"
        inp.write_text("Send file file_01\nSend file file_02\n")
        code = main(["parse", "--input", str(inp), "--output-dir", str(tmp_path / "out")])
        assert code == 0
        assert "2 lines" in capsys.readouterr().out
        assert (tmp_path / "out" / "structured.csv").exists()

    def test_save_and_load_state(self, tmp_path):
        inp = tmp_path / "in.log"
        inp.write_text("Send file file_01\n")
        state = tmp_path / "state.json"
        assert main(["parse", "--input", str(inp), "--output-dir", str(tmp_path / "o1"),
                     "--save-state", str(state)]) == 0
        inp2 = tmp_path / "in2.log"
        inp2.write_text("Send file file_02\n")
        assert main(["parse", "--input", str(inp2), "--output-dir", str(tmp_path / "o2"),
                     "--load-state", str(state)]) == 0
        catalog = (tmp_path / "o2" / "templates.csv").read_text()
        assert "Send file *" in catalog
        # line IDs continue from the saved stream
        rows = (tmp_path / "o2" / "structured.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["2"]

    def test_eval_subcommand(self, tmp_path, capsys):
        inp = tmp_path / "in.log"
        inp.write_text("Send file file_01\nSend file file_02\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("line_id,event_label\n1,E1\n2,E1\n")
        code = main(["eval", "--input", str(inp), "--output-dir", str(tmp_path / "out"),
                     "--truth", str(truth)])
        assert code == 0
        assert "f=1.0000" in capsys.readouterr().out

    def test_bench_subcommand(self, tmp_path):
        code = main(["bench", "--sizes", "200,400", "--output-dir", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "bench.csv").exists()

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(["parse", "--input", str(tmp_path / "nope.log"),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2

    def test_bad_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("merge_enabled: true\n")
        code = main(["parse", "--config", str(cfg), "--input", "-"])
        assert code == 1

    @pytest.mark.parametrize("text", [
        "merge_enabled: true\nmerge_threshold: '0.9'\n",
        "special_chars: 5\n",
        "preprocess_rules: 3\n",
        "preprocess_rules:\n  - pattern: 5\n    replacement: x\n",
        "merge_enabled: [\n",
        "merge_enabled: 'false'\nmerge_threshold: 0.9\n",
        "line_format: Content\n",
        "merge_threshold: .nan\n",
        "merge_threshold: 7\n",
        "merge_enabled: false\nmerge_threshold: 0\n",
        "preprocess_rules:\n  - pattern: 'file_[0-9]+'\n    replacement: 'F\\d'\n",
        "line_format: []\n",
        "preprocess_rules:\n  - pattern: 'file_[0-9]+'\n    replacement: F\n    flags: i\n",
        "1: x\nmerge: y\n",
        "[" * 100_000,
    ], ids=["threshold-string", "special-chars-int", "rules-int", "pattern-int",
            "yaml-syntax", "enabled-string", "line-format-string", "threshold-nan-merge-off",
            "threshold-7-merge-off", "threshold-0-merge-off", "replacement-backslash",
            "line-format-empty", "rule-unknown-key", "unknown-keys-of-mixed-types",
            "nested-too-deep"])
    def test_mistyped_config_is_one_line_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text)
        inp = tmp_path / "in.log"
        inp.write_text("Send file file_01\n")
        code = main(["parse", "--config", str(cfg), "--input", str(inp),
                     "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_special_chars_is_an_unknown_key(self, tmp_path, capsys):
        # The split rule's punctuation set is fixed; a config may not set it.
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text('special_chars: "#"\n')
        code = main(["parse", "--config", str(cfg), "--input", "-"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}: unknown keys ['special_chars']\n"

    def test_alias_bomb_error_line_stays_short(self, tmp_path, capsys):
        # Each alias level repeats the one below ten times: a 218-byte file
        # whose line_format holds 11,110 strings, nested up to four lists deep.
        levels = ["&a0 [" + ", ".join(["x"] * 10) + "]"]
        levels += [f"&a{k} [" + ", ".join([f"*a{k - 1}"] * 10) + "]" for k in range(1, 4)]
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("line_format: [" + ", ".join(levels) + "]\n")
        assert cfg.stat().st_size == 218
        code = main(["parse", "--config", str(cfg), "--input", "-"])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert len(err.encode("utf-8")) < 1024

    def test_bad_sizes_is_usage_error(self, tmp_path):
        code = main(["bench", "--sizes", "12,potato", "--output-dir", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        [], ["frobnicate"], ["parse", "--bogus"], ["eval"],
        ["bench", "--sizes", "10", "--seed", "x"], ["bench"], ["bench", "--sizes=-5,0"],
        ["bench", "--sizes", ","], ["bench", "--sizes", "10", "--input", os.devnull],
    ], ids=["no-command", "unknown-command", "unknown-option", "eval-without-truth",
            "seed-not-int", "bench-without-sizes", "sizes-below-one", "sizes-none",
            "bench-input-empty"])
    def test_bad_command_line_is_one_line_usage_error(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["parse", "--help"])
        assert exc.value.code == 0
        assert "--save-state" in capsys.readouterr().out

    def test_stdin_bad_bytes_decode_like_file_input(self, tmp_path, monkeypatch):
        # Real stdin decodes with surrogateescape; a bad byte must not stop the run.
        raw = io.BytesIO(b"ok line\n\xff bad\nmore\n")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(raw, errors="surrogateescape"))
        code = main(["parse", "--input", "-", "--output-dir", str(tmp_path / "out")])
        assert code == 0
        with open(tmp_path / "out" / "structured.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [r[0] for r in rows] == ["1", "2", "3"]
        assert rows[1][2] == "\ufffd bad"


V1_STATE = {
    "schema": "logsieve-state-v1", "merge_enabled": False, "merge_threshold": None,
    "special_chars": "#$')*+,/<=>@^_`|~", "next_group_id": 2, "next_output_id": 2,
    "length_nodes": [{"length": 3, "cache": 1,
                      "split_nodes": [{"key": ["first", "Send"], "group_ids": [1]}]}],
    "groups": [{"group_id": 1, "event": ["Send", "file", {"w": True}], "member_ids": [1, 2],
                "output_id": 1, "threshold": {"st_init": 0.3333333333333333, "base": 2,
                                              "eta": 1, "dig_len": 1, "seq_len": 3}}],
    "outputs": [{"output_id": 1, "group_ids": [1], "merged_template": None}],
}


V2_STATE = {
    "schema": "logsieve-state-v2", "merge_enabled": True, "merge_threshold": 0.5,
    "special_chars": "#$')*+,/<=>@^_`|~", "cache": {"3": 1, "4": 2},
    "groups": [{"id": 1, "key": ["first", "Send"], "event": ["Send", "file", None], "count": 2,
                "output": 1, "threshold": [0.3333333333333333, 2, 1]},
               {"id": 2, "key": ["first", "Send"], "event": ["Send", "file", "f2", "now"],
                "count": 1, "output": 1, "threshold": [0.375, 2, 0]}],
    "merged": {"1": ["Send", "file"]},
}


V3_STATE = {
    "schema": "logsieve-state-v3", "merge_enabled": False, "merge_threshold": None,
    "special_chars": "#$')*+,/<=>@^_`|~", "cache": {"3": 1},
    "groups": [{"id": 1, "key": ["first", "Send"], "event": ["Send", "file", None], "count": 2,
                "output": 1, "threshold": [0.3333333333333333, 2]}],
}


V4_STATE = {
    "schema": "logsieve-state-v4", "merge_enabled": False, "merge_threshold": None,
    "special_chars": "#$')*+,/<=>@^_`|~",
    "groups": [{"id": 1, "key": ["first", "Send"], "event": ["Send", "file", None], "count": 2,
                "output": 1, "threshold": [0.3333333333333333, 2]}],
}


V5_STATE = {
    "schema": "logsieve-state-v5", "merge_threshold": None,
    "special_chars": "#$')*+,/<=>@^_`|~",
    "groups": [{"id": 1, "key": ["first", "Send"], "event": ["Send", "file", None], "count": 2,
                "output": 1, "threshold": [0.3333333333333333, 2]}],
}


V6_STATE = {
    "schema": "logsieve-state-v6", "merge_threshold": None,
    "special_chars": "#$')*+,/<=>@^_`|~",
    "groups": [{"key": ["first", "Send"], "event": ["Send", "file", None], "count": 2,
                "output": 1, "threshold": [0.3333333333333333, 2]}],
}


V7_STATE = {
    "schema": "logsieve-state-v7", "merge_threshold": None,
    "groups": [{"key": ["first", "Send"], "event": ["Send", "file", None], "count": 2,
                "output": 1, "threshold": [0.3333333333333333, 2]}],
}


class TestStateFiles:
    """Every bad --load-state gives exit 1 and one stderr line, never a traceback."""

    def saved_state(self, tmp_path) -> str:
        inp = tmp_path / "in.log"
        inp.write_text("Send file file_01\nSend file file_02\n")
        state = tmp_path / "state.json"
        assert main(["parse", "--input", str(inp), "--output-dir", str(tmp_path / "o1"),
                     "--save-state", str(state)]) == 0
        return state.read_text()

    def resume_with(self, tmp_path, capsys, state_text, *extra) -> str:
        state = tmp_path / "bad.json"
        state.write_text(state_text)
        inp = tmp_path / "in2.log"
        inp.write_text("Send file file_03\n")
        capsys.readouterr()
        code = main(["parse", "--input", str(inp), "--output-dir", str(tmp_path / "o2"),
                     "--load-state", str(state), *extra])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        return err

    def test_v1_file(self, tmp_path, capsys):
        err = self.resume_with(tmp_path, capsys, json.dumps(V1_STATE))
        assert "logsieve-state-v1" in err

    def test_v2_file(self, tmp_path, capsys):
        err = self.resume_with(tmp_path, capsys, json.dumps(V2_STATE))
        assert "logsieve-state-v8" in err

    def test_v3_file(self, tmp_path, capsys):
        err = self.resume_with(tmp_path, capsys, json.dumps(V3_STATE))
        assert err.startswith("error: bad state file:") and "logsieve-state-v8" in err

    def test_v4_file(self, tmp_path, capsys):
        err = self.resume_with(tmp_path, capsys, json.dumps(V4_STATE))
        assert err.startswith("error: bad state file:") and "logsieve-state-v8" in err

    def test_v5_file(self, tmp_path, capsys):
        err = self.resume_with(tmp_path, capsys, json.dumps(V5_STATE))
        assert err.startswith("error: bad state file:") and "logsieve-state-v8" in err

    def test_v6_file(self, tmp_path, capsys):
        err = self.resume_with(tmp_path, capsys, json.dumps(V6_STATE))
        assert err.startswith("error: bad state file:") and "logsieve-state-v8" in err

    def test_v7_file(self, tmp_path, capsys):
        # A v7 group saved its split key and threshold, not its first message.
        err = self.resume_with(tmp_path, capsys, json.dumps(V7_STATE))
        assert err.startswith("error: bad state file:") and "logsieve-state-v8" in err

    @pytest.mark.parametrize("values", [[], ["f_01", "f_02"], [None], [""], ["a b"], "f_01"],
                             ids=["none-for-the-wildcard", "one-too-many", "null", "empty",
                                  "two-tokens", "not-a-list"])
    def test_bad_values(self, tmp_path, capsys, values):
        # The saved event is "Send file *": its first message fills the one
        # wildcard with one token as str.split gives it, from which the load
        # derives the split key and the threshold.
        state = json.loads(self.saved_state(tmp_path))
        state["groups"][0]["values"] = values
        err = self.resume_with(tmp_path, capsys, json.dumps(state))
        assert err == "error: bad state file: group 1: bad values\n"

    def test_deeply_nested_file(self, tmp_path, capsys):
        err = self.resume_with(tmp_path, capsys, "[" * 100_000)
        assert err.startswith("error: bad state file:")

    @pytest.mark.parametrize("event, values, loads", [
        ([None, "file", None], ["Send", "f_01"], False),
        (["a1", "file", None], ["done"], False),
        (["Send", "file", None], ["plain"], True)],
        ids=["wildcard-first-end", "wildcard-end", "literal-end"])
    def test_split_key_not_the_literal_ends(self, tmp_path, capsys, event, values, loads):
        # The key is the first message's, and no line routed by a key can
        # wildcard the end token it names: ("first", "Send") for "* file *"
        # and ("last", "done") for "a1 file *" name a wildcard end. A literal
        # end may key a group whose other end is a wildcard.
        state = json.loads(self.saved_state(tmp_path))
        state["groups"][0].update(event=event, values=values)
        if loads:
            group = ParseDag.from_json(json.dumps(state)).groups[1]
            assert select_split_token(list(group.first_message)) == ("first", "Send")
        else:
            err = self.resume_with(tmp_path, capsys, json.dumps(state))
            assert err == "error: bad state file: group 1: split key names a wildcard end\n"

    def test_merged_group_with_merging_off(self, tmp_path, capsys):
        # With merging off every group opens its own output node: group 2
        # may not join output 1 once the saved merge_threshold is null.
        dag = ParseDag(merge_threshold=0.5)
        parse_all(dag, ["Send file now", "Send a file now"])
        state = json.loads(dag.to_json())
        assert [group["output"] for group in state["groups"]] == [1, 1]
        state["merge_threshold"] = None
        err = self.resume_with(tmp_path, capsys, json.dumps(state))
        assert err == "error: bad state file: group 2: bad output 1\n"

    @pytest.mark.parametrize("output", [1.0, True, 0, 2, None])
    def test_output_not_the_own_id_as_an_int(self, tmp_path, capsys, output):
        # A float or a boolean equal to the ID would be written as the output
        # column, "1.0" or "True".
        state = json.loads(self.saved_state(tmp_path))
        state["groups"][0]["output"] = output
        err = self.resume_with(tmp_path, capsys, json.dumps(state))
        assert err == f"error: bad state file: group 1: bad output {output!r}\n"

    @settings(max_examples=100, deadline=None)
    @given(lines=st.lists(st.lists(st.sampled_from(["Send", "file", "f1", "a,b"]), max_size=4)
                          .map(" ".join), max_size=20),
           threshold=st.sampled_from([None, 0.5, 0.9]))
    def test_state_holds_only_settings_and_groups(self, lines, threshold):
        dag = ParseDag(merge_threshold=threshold)
        for line in lines:
            dag.parse_line(tokenize(line))
        state = json.loads(dag.to_json())
        assert sorted(state) == ["groups", "merge_threshold", "schema"]
        assert len(state["groups"]) == len(dag.groups)

    def test_state_holds_no_merged_templates_or_wildcard_counts(self):
        dag = ParseDag(merge_threshold=0.5)
        for line in ["Send file f1", "Send file f2", "Send file f2 now"]:
            dag.parse_line(line.split())
        assert len(dag.outputs) == 1
        state = json.loads(dag.to_json())
        assert "merged" not in state
        assert [group["values"] for group in state["groups"]] == [["f1"], []]
        assert all(sorted(group) == ["count", "event", "output", "values"]
                   for group in state["groups"])

    def test_truncated_file(self, tmp_path, capsys):
        text = self.saved_state(tmp_path)
        self.resume_with(tmp_path, capsys, text[: len(text) // 2])

    def test_missing_key(self, tmp_path, capsys):
        state = json.loads(self.saved_state(tmp_path))
        del state["groups"][0]["count"]
        self.resume_with(tmp_path, capsys, json.dumps(state))

    def test_wrong_type(self, tmp_path, capsys):
        state = json.loads(self.saved_state(tmp_path))
        state["groups"][0]["count"] = "2"
        err = self.resume_with(tmp_path, capsys, json.dumps(state))
        assert "count" in err

    @pytest.mark.parametrize("token", ["", "a b", "a\nb", "a\r"])
    def test_token_that_str_split_never_gives(self, tmp_path, capsys, token):
        # The structured CSV writes a text without a comma or a quote as is.
        state = json.loads(self.saved_state(tmp_path))
        state["groups"][0]["event"][1] = token
        err = self.resume_with(tmp_path, capsys, json.dumps(state))
        assert "bad count or event" in err

    def test_settings_differ_from_config(self, tmp_path, capsys):
        text = self.saved_state(tmp_path)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("merge_enabled: true\nmerge_threshold: 0.9\n")
        err = self.resume_with(tmp_path, capsys, text, "--config", str(cfg))
        assert "the saved merge_threshold must match" in err

    def test_merging_off_resumes_under_an_unused_threshold(self, tmp_path):
        # Neither run merges, so the config's threshold is not a setting.
        self.saved_state(tmp_path)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("merge_enabled: false\nmerge_threshold: 0.9\n")
        inp = tmp_path / "in2.log"
        inp.write_text("Send file file_03\n")
        assert main(["parse", "--config", str(cfg), "--input", str(inp),
                     "--output-dir", str(tmp_path / "o2"),
                     "--load-state", str(tmp_path / "state.json")]) == 0
        rows = (tmp_path / "o2" / "structured.csv").read_text().splitlines()
        assert rows[1:] == ["3,1,Send file *"]


# Tiny vocabulary, shared head words and digit-bearing end tokens: many lines
# share a length and split key, and many route to the None key.
_HEADS = ["svc", "svc", "job", "n1"]
_WORDS = ["a", "b", "open", "x1", "42"]
_LINE = st.tuples(st.sampled_from(_HEADS), st.lists(st.sampled_from(_WORDS), max_size=3)).map(
    lambda parts: " ".join([parts[0], *parts[1]])
)


class TestResume:
    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(_LINE, max_size=30),
           threshold=st.sampled_from([None, 0.3, 0.5, 0.6, 0.75, 0.9, 1.0]), data=st.data())
    def test_save_load_continue_equals_one_pass(self, lines, threshold, data):
        # None turns merging off; the thresholds merge often to rarely, so a
        # resumed run scores against both saved and new merge candidates.
        split = data.draw(st.integers(0, len(lines)))
        config = RunConfig(merge_threshold=threshold)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            _, head = run_stream(config, lines[:split], out / "head")
            resumed = ParseDag.from_json(head.to_json())
            _, resumed = run_stream(config, lines[split:], out / "tail", dag=resumed)
            _, whole = run_stream(config, lines, out / "whole")

            def rows(run, name):
                return (out / run / name).read_text(encoding="utf-8").splitlines()

            head, tail = rows("head", "structured.csv"), rows("tail", "structured.csv")
            assert head + tail[1:] == rows("whole", "structured.csv")
            assert rows("tail", "templates.csv") == rows("whole", "templates.csv")
            assert resumed.to_json() == whole.to_json()


# Tokens that CSV must quote (a comma, a quote), a wildcard-like literal,
# digit-bearing tokens, and whitespace-only lines, which parse as empty
# templates under the default [Content] format.
_ROW_LINE = st.one_of(
    st.lists(st.sampled_from(["a", "b", "a,b", '"q"', ",", "*", "x1", "n2"]),
             min_size=1, max_size=4).map(" ".join),
    st.sampled_from([" ", "\t", "  "]),
)


class TestStructuredRows:
    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(_ROW_LINE, max_size=30),
           threshold=st.sampled_from([None, 0.3, 0.6, 0.9]), data=st.data())
    def test_rows_equal_plain_csv_of_each_record(self, lines, threshold, data):
        # run_stream encodes each template's row tail once per version of its
        # text; the reference writes every record of the full-scan parser with
        # a plain csv writer.
        split = data.draw(st.integers(0, len(lines)))
        config = RunConfig(merge_threshold=threshold)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            _, head = run_stream(config, lines[:split], out / "head")
            resumed = ParseDag.from_json(head.to_json())
            run_stream(config, lines[split:], out / "tail", dag=resumed)
            got = (out / "head" / "structured.csv").read_bytes()
            tail = (out / "tail" / "structured.csv").read_bytes()
            got += tail[tail.index(b"\n") + 1:]

        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["LineId", "OutputId", "EventTemplate"])
        dag = ScanOnlyDag(merge_threshold=threshold)
        for line_id, line in enumerate(lines, start=1):
            if line_id == split + 1:
                dag = ScanOnlyDag.from_json(dag.to_json())
            group, text = dag.parse_line(tokenize(line))
            writer.writerow([line_id, group.output_id, text])
        assert got == expected.getvalue().encode("utf-8")


# Template texts with the characters CSV quotes (a comma, a quote), a
# wildcard-like literal, an apostrophe and non-ASCII letters, alone and mixed.
_CSV_TOKEN = st.sampled_from(["a", "b1", ",", '"', "*", "'", "a,b", 'say"hi"', "é", "日本", "€,", "'x'"])


class TestStructuredRowEncoding:
    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(st.lists(_CSV_TOKEN, min_size=1, max_size=4).map(" ".join), max_size=20),
           threshold=st.sampled_from([None, 0.5]))
    def test_each_row_is_what_csv_writer_writes(self, lines, threshold):
        config = RunConfig(merge_threshold=threshold)
        with tempfile.TemporaryDirectory() as tmp:
            run_stream(config, lines, tmp)
            rows = (Path(tmp) / "structured.csv").read_bytes().split(b"\r\n")
        dag = ParseDag(merge_threshold=threshold)
        assert len(rows) == len(lines) + 2 and rows[-1] == b""
        for line_id, (line, row) in enumerate(zip(lines, rows[1:]), start=1):
            group, text = dag.parse_line(tokenize(line))
            expected = io.StringIO()
            csv.writer(expected).writerow((line_id, group.output_id, text))
            assert row + b"\r\n" == expected.getvalue().encode("utf-8")
