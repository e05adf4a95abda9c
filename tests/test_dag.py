import csv
import json
import random
from collections import Counter
from functools import reduce
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import logsieve.dag
from logsieve.cli import RunConfig, run_stream
from logsieve.dag import LogGroup, ParseDag, render_template
from logsieve.preprocess import ConfigError, select_split_token
from logsieve.similarity import WILDCARD, current_st, new_threshold_state, sim_seq
from logsieve import synth
from test_similarity import dp_lcs


def parse_all(dag, lines):
    return [dag.parse_line(line.split()) for line in lines]


class ScanOnlyDag(ParseDag):
    """The reference search: the exact-line memo and the end-token memo are
    cleared before each line, so every line routes by its split key and the
    similarity scan decides it."""

    def parse_line(self, tokens):
        self.exact.clear()
        self.ends.clear()
        return super().parse_line(tokens)


class TestParseLine:
    def test_first_message_creates_group(self):
        dag = ParseDag()
        group, text = dag.parse_line(["Send", "file", "file_01"])
        assert group is dag.groups[1]
        assert text == "Send file file_01"

    def test_second_message_wildcards_the_variable(self):
        dag = ParseDag()
        dag.parse_line(["Send", "file", "file_01"])
        group, text = dag.parse_line(["Send", "file", "file_02"])
        assert group.group_id == 1
        assert text == "Send file *"
        assert dag.groups[1].threshold.eta == 1

    def test_distinct_split_key_creates_new_group(self):
        dag = ParseDag()
        dag.parse_line(["Send", "file", "file_01"])
        dag.parse_line(["Send", "file", "file_02"])
        group, _ = dag.parse_line(["Open", "user", "info"])
        assert group.group_id == 2
        assert dag.snapshot_groups() == [
            (1, "Send file *", 2),
            (2, "Open user info", 1),
        ]

    def test_dag_growth_walkthrough(self):
        dag = ParseDag()
        dag.parse_line(["Open", "user", "info", "user007", "now"])
        assert 5 in dag.length_nodes
        assert ("first", "Open") in dag.length_nodes[5].split_nodes
        # second distinct event under the same token node joins the same list
        dag.parse_line(["Open", "admin", "panel", "adm01", "later"])
        assert len(dag.length_nodes[5].split_nodes[("first", "Open")]) >= 1

    def test_digit_ends_route_to_none_key(self):
        dag = ParseDag()
        dag.parse_line(["v1.2", "9000"])
        assert None in dag.length_nodes[2].split_nodes

    def test_empty_message_goes_to_catch_all_group(self):
        dag = ParseDag()
        g1, text = dag.parse_line([])
        g2, _ = dag.parse_line([])
        assert g1.group_id == g2.group_id
        assert text == ""


class TestMatchGroup:
    def test_fewest_wildcards_tie_break(self):
        # Two groups share the node, so the scan decides, memo-routed or not.
        for dag in (ParseDag(), ScanOnlyDag()):
            dag.parse_line(["Send", "file", "a1"])
            dag.parse_line(["Send", "file", "b2"])   # -> Send file *
            dag.parse_line(["Send", "mail", "c3"])
            # widen the second group so both candidates score 1.0
            dag.groups[2].event = ["Send", WILDCARD, WILDCARD]
            group, _ = dag.parse_line(["Send", "file", "x9"])
            assert group.group_id == 1  # both score 1.0; fewer wildcards wins

    def test_threshold_rejects_dissimilar(self):
        dag = ParseDag()
        dag.parse_line(["alpha", "beta", "gamma"])
        group, _ = dag.parse_line(["alpha", "xx", "yy"])
        # sim 1/3 < st 0.5 -> new group despite shared split token
        assert group.group_id == 2

    def test_exact_match_always_accepted(self):
        dag = ParseDag()
        dag.parse_line(["a", "b", "c"])
        group, _ = dag.parse_line(["a", "b", "c"])
        assert group.group_id == 1

    def test_capped_best_candidate_leaves_the_line_to_one_that_accepts(self):
        # No token holds a digit, so one wildcard caps group 1 at st 1.0. Line
        # 4 scores 2/3 against it, below its st, and 2/4 against group 2, at
        # its st 0.5: group 2 takes the line and no group is created.
        dag = ParseDag()
        records = parse_all(dag, ["svc a a a", "svc b a a", "svc a b b"])
        assert [g.group_id for g, _ in records] == [1, 1, 2]
        assert dag.groups[1].st == 1.0 and dag.groups[2].st == 0.5
        assert dag.parse_line(["svc", "c", "a", "b"])[0].group_id == 2
        assert len(dag.groups) == 2


# Digit-free tokens after one head word: lines of a length meet under one
# split key, every group starts at st 0.5 with base 2, and one wildcard caps it
# at 1.0, so capped and uncapped groups share similarity nodes.
_PLAIN_MESSAGE = st.lists(st.sampled_from(["a", "b", "c"]), min_size=2, max_size=3).map(
    lambda rest: ["svc", *rest])


def brute_force_search(dag, tokens):
    """The group a full scan of the message's similarity node must pick: of
    the groups whose score reaches their own threshold, the highest score,
    then the fewest wildcards, then the earliest; None when none accepts."""
    node = dag.length_nodes.get(len(tokens))
    groups = node.split_nodes.get(select_split_token(tokens), []) if node else []
    accepting = []
    for group in groups:
        score = sim_seq(tokens, group.event)
        if score >= group.st:
            accepting.append((-score, group.event.count(None), group.group_id))
    return min(accepting)[2] if accepting else None


class TestAcceptAwareSearch:
    @settings(max_examples=300, deadline=None)
    @given(messages=st.lists(_PLAIN_MESSAGE, max_size=40),
           dag_class=st.sampled_from([ParseDag, ScanOnlyDag]))
    def test_no_group_created_while_one_accepts(self, messages, dag_class):
        dag = dag_class()
        for tokens in messages:
            expected = brute_force_search(dag, tokens)
            n_groups = len(dag.groups)
            group, _ = dag.parse_line(tokens)
            if expected is None:
                assert group.group_id == n_groups + 1
            else:
                assert group.group_id == expected and len(dag.groups) == n_groups

    def test_groups_plateau_when_variables_hold_no_digit(self, monkeypatch):
        # Four templates: "service", six slots, "tail" + a letter. A slot is
        # variable with p 0.4, its value one of the eight words a fixed slot
        # draws from, so a group's first line often leaves a variable slot
        # literal, and a group capped at st 1.0 then rejects most lines.
        words = [f"w{c}" for c in "abcdefgh"]
        rng = random.Random(2)
        templates = [["service", *[None if rng.random() < 0.4 else rng.choice(words)
                                   for _ in range(6)], f"tail{letter}"] for letter in "abcd"]
        calls = []
        real = logsieve.dag.sim_seq
        monkeypatch.setattr(logsieve.dag, "sim_seq", lambda m, e: calls.append(1) or real(m, e))
        dag = ParseDag()
        seen = {}  # lines -> (groups, sim_seq calls per line)
        for line_id in range(1, 8001):
            template = rng.choice(templates)
            dag.parse_line([rng.choice(words) if t is None else t for t in template])
            if line_id in (4000, 8000):
                seen[line_id] = (len(dag.groups), len(calls) / line_id)
        assert seen[8000][0] == seen[4000][0]
        assert seen[8000][1] == pytest.approx(seen[4000][1], rel=0.01)


# Tiny vocabulary: shared head words, digit-bearing end tokens (n1, n2),
# digit-free SPECIAL_CHARS tokens (a/b, =c) and lengths 0-4, so lines of one
# length meet under several split keys, the None key included.
_TINY_MESSAGE = st.lists(st.sampled_from(["a", "b", "n1", "n2", "x.y", "c", "a/b", "=c"]),
                         max_size=4)


def memo(dag):
    """The end-token memo: {(length, first, last): group IDs of the node}."""
    return {ends: [g.group_id for g in groups] for ends, groups in dag.ends.items()}


class TestCache:
    @settings(max_examples=500, deadline=None)
    @given(messages=st.lists(_TINY_MESSAGE, max_size=12),
           threshold=st.sampled_from([None, 0.3, 0.6, 0.9]), data=st.data())
    def test_fast_path_equals_full_scan(self, messages, threshold, data):
        # None turns merging off; both parsers are saved and loaded at one random line.
        split = data.draw(st.integers(0, len(messages)))
        dag, reference = ParseDag(threshold), ScanOnlyDag(threshold)
        for line_id, tokens in enumerate(messages, start=1):
            if line_id == split + 1:
                dag = ParseDag.from_json(dag.to_json())
                reference = ScanOnlyDag.from_json(reference.to_json())
            assert dag.parse_line(tokens) == reference.parse_line(tokens)
        assert dag.snapshot_groups() == reference.snapshot_groups()
        assert dag.to_json() == reference.to_json()

    def test_cache_hit_counted(self):
        # Line 2's ends are group 1's first message's, so the memo routes it;
        # line 3's last token is unseen, so it routes by split key to the same
        # node, and line 4, whose ends are line 1's, takes the memo again,
        # although line 3 wildcarded that end.
        dag = ParseDag()
        dag.parse_line(["Send", "a1", "b2", "now"])
        assert dag.parse_line(["Send", "a1", "b2", "now"])[0].group_id == 1
        assert dag.cache_hits == 1
        assert dag.parse_line(["Send", "a1", "b2", "later"])[0].group_id == 1
        assert dag.groups[1].event == ["Send", "a1", "b2", WILDCARD]
        assert dag.cache_hits == 1
        assert dag.parse_line(["Send", "a1", "b2", "now"])[0].group_id == 1
        assert dag.cache_hits == 2

    @settings(max_examples=500, deadline=None)
    @given(messages=st.lists(_TINY_MESSAGE, max_size=30),
           threshold=st.sampled_from([None, 0.3, 0.6, 0.9]), data=st.data())
    def test_memo_is_the_split_key_route(self, messages, threshold, data):
        # None turns merging off. Line 0 is the empty parser; one parser is
        # saved and loaded after a random line, which rebuilds its memo.
        split = data.draw(st.integers(0, len(messages)))
        live, reloaded = ParseDag(threshold), ParseDag(threshold)
        for line_id, tokens in enumerate([None, *messages]):
            if line_id:
                live.parse_line(tokens)
                reloaded.parse_line(tokens)
            if line_id == split:
                reloaded = ParseDag.from_json(reloaded.to_json())
            assert memo(reloaded) == memo(live)
            for dag in (live, reloaded):
                assert_nodes_hold_the_registered_groups(dag)
                assert len(dag.ends) <= len(dag.groups)

    @settings(max_examples=500, deadline=None)
    @given(messages=st.lists(_TINY_MESSAGE, max_size=30),
           threshold=st.sampled_from([None, 0.3, 0.6, 0.9]), data=st.data())
    def test_split_key_chosen_at_most_once_per_line(self, messages, threshold, data):
        # A memo-routed line chooses its key only on a miss, and a line routed
        # by its key hands that key on when it misses. None turns merging off;
        # the parser is saved and loaded at a random line.
        split = data.draw(st.integers(0, len(messages)))
        calls = []
        real = logsieve.dag.select_split_token
        dag = ParseDag(threshold)
        with mock.patch.object(logsieve.dag, "select_split_token",
                               lambda tokens: calls.append(1) or real(tokens)):
            for line_id, tokens in enumerate(messages, start=1):
                if line_id == split + 1:
                    dag = ParseDag.from_json(dag.to_json())
                calls.clear()
                dag.parse_line(tokens)
                assert len(calls) <= 1, (line_id, tokens)

    @settings(max_examples=500, deadline=None)
    @given(messages=st.lists(_TINY_MESSAGE, max_size=30),
           threshold=st.sampled_from([None, 0.3, 0.6, 0.9]), data=st.data())
    def test_exact_hit_is_the_scan_answer(self, messages, threshold, data):
        # None turns merging off; the parser is saved and loaded at a random
        # line. The memo holds every group's first message, the empty one
        # and those of wildcarded groups included, and never changes an entry.
        split = data.draw(st.integers(0, len(messages)))
        dag = ParseDag(threshold)

        def assert_index():
            assert dag.exact == {g.first_message: g for g in dag.groups.values()}
            assert all(message is g.first_message for message, g in dag.exact.items())

        for line_id, tokens in enumerate(messages, start=1):
            if line_id == split + 1:
                dag = ParseDag.from_json(dag.to_json())
                assert_index()
            expected, hits = brute_force_search(dag, tokens), dag.exact_hits
            group, found = dag.search(tokens)
            if dag.exact_hits > hits:
                assert (group.group_id, found) == (expected, 1.0), (line_id, tokens)
            if group is None:
                dag.create_group(tokens, found)
            else:
                dag.update_group(group, tokens, found)
            assert_index()

    @pytest.mark.parametrize("events", [
        [["svc", "a", "b"], ["svc", "a", "b"]],
        [["svc", "a", WILDCARD], ["svc", "a", "b"]],
        [[], []],
    ], ids=["two-literal-groups", "earlier-wildcarded-group", "two-empty-messages"])
    def test_repeated_first_message_is_rejected(self, events):
        # A live run never repeats a first message: a line equal to one
        # scores 1.0 on its group, which accepts it. Group 1's values give
        # the first message "svc a b" in each case but the empty one.
        groups = [{"count": 1, "event": event, "output": gid,
                   "values": ["b"] * event.count(WILDCARD)}
                  for gid, event in enumerate(events, start=1)]
        state = {"schema": "logsieve-state-v8", "merge_threshold": None, "groups": groups}
        with pytest.raises(ValueError, match=r"^bad state file: group 2: repeats an earlier "
                                             r"group's first message$"):
            ParseDag.from_json(json.dumps(state))

    def test_repeated_empty_messages_choose_the_key_once(self):
        # The first empty message creates the group and chooses its key; the
        # memo routes the rest, as it routes any repeated first message.
        calls = []
        real = logsieve.dag.select_split_token
        dag = ParseDag()
        with mock.patch.object(logsieve.dag, "select_split_token",
                               lambda tokens: calls.append(1) or real(tokens)):
            results = [dag.parse_line([]) for _ in range(4)]
        assert [(group.group_id, text) for group, text in results] == [(1, "")] * 4
        assert len(calls) == 1
        assert (dag.cache_hits, dag.exact_hits, dag.groups[1].count) == (3, 3, 4)

    def test_cache_miss_falls_back_to_search(self):
        dag = ParseDag()
        dag.parse_line(["aaa", "bbb", "ccc"])
        dag.parse_line(["ddd", "eee", "fff"])
        group, _ = dag.parse_line(["aaa", "bbb", "ccc"])
        assert group.group_id == 1

    def test_assignments_identical_with_and_without_cache(self):
        rng = random.Random(7)
        templates = synth.make_templates(rng, 12)
        lines, _ = synth.make_stream(rng, templates, 800)
        dag, reference = ParseDag(), ScanOnlyDag()
        assert parse_all(dag, lines) == parse_all(reference, lines)
        assert dag.cache_hits > 0


def brute_force_merge_target(dag, group):
    """The unindexed merge scan: every other non-empty output node, scored by
    DP LCS length over the shorter length, in ascending ID order, the first
    best kept; accepted only strictly above the threshold. An empty event
    shares nothing: its 0/0 counts as 0."""
    best_id, best_score = None, -1.0
    for output_id in sorted(dag.outputs):
        template = dag.output_template(output_id)
        if output_id == group.output_id or not template:
            continue
        score = len(dp_lcs(group.event, template)) / (min(len(group.event), len(template)) or 1)
        if score > best_score:
            best_id, best_score = output_id, score
    return best_id if best_id is not None and best_score > dag.merge_threshold else None


class OracleCheckedDag(ParseDag):
    """A ParseDag that checks every merge decision against the brute-force
    scan, and the merged template it returns against the DP LCS of the
    target's template, as it was before placement, and the new event."""

    def _try_merge(self, new_group, counts):
        expected = brute_force_merge_target(self, new_group)
        got = super()._try_merge(new_group, counts)
        if expected is None:
            assert got is None
        else:
            assert got == (expected, dp_lcs(self.output_template(expected), new_group.event))
        return got


# Tiny vocabulary: repeated tokens, shared split keys (so groups gain
# wildcards) and digit-bearing tokens.
_MESSAGE = st.lists(st.sampled_from(["a", "b", "c", "a1", "2"]), max_size=6)


class TestMerge:
    def test_merge_similar_templates(self):
        dag = ParseDag(merge_threshold=0.45)
        dag.parse_line(["Send", "file"])
        group, _ = dag.parse_line(["Send", "a", "file"])
        assert group.output_id == 1
        assert render_template(dag.output_template(1)) == "Send file"
        assert len(dag.outputs) == 1

    def test_mt_one_never_merges(self):
        dag = ParseDag(merge_threshold=1.0)
        dag.parse_line(["Send", "file"])
        group, _ = dag.parse_line(["Send", "a", "file"])
        assert group.output_id != 1

    def test_over_parsed_family_converges(self):
        dag = ParseDag(merge_threshold=0.95)
        dag.parse_line(["Send", "file"])
        dag.parse_line(["Send", "file", "file_01"])
        dag.parse_line(["Send", "big", "file", "file_01"])
        assert len(dag.outputs) == 1
        merged = dag.output_template(1)
        assert merged == ["Send", "file"]

    def test_merged_template_shows_a_member_wildcard(self):
        # Line 3 wildcards group 1 after the merge; the merged template is
        # derived from the members' live events, so it drops the variable.
        dag = ParseDag(merge_threshold=0.7)
        records = parse_all(dag, ["send pkt alpha to host", "send pkt alpha to host now",
                                  "send pkt beta to host"])
        assert [g.output_id for g, _ in records] == [1, 1, 1]
        assert records[2][1] == "send pkt to host"
        assert dag.snapshot_groups() == [(1, "send pkt to host", 3)]

    def test_members_sharing_no_literal_render_empty(self):
        # Line 3 wildcards group 2's only token, so the members share no
        # literal; the empty template is never a merge candidate.
        dag = ParseDag(merge_threshold=0.3)
        records = parse_all(dag, ["n1 a a", "n1", "n2", "svc a"])
        assert [text for _, text in records] == ["n1 a a", "n1", "", "svc a"]
        assert [g.output_id for g, _ in records] == [1, 1, 1, 3]

    def test_threshold_must_be_in_range(self):
        # A NaN is rejected too: a saved NaN could never match on resume.
        for outside in (0.0, -0.5, 1.5, float("nan")):
            with pytest.raises(ValueError):
                ParseDag(merge_threshold=outside)

    def test_threshold_must_be_an_int_or_float(self):
        # A bool would be saved as JSON true, which a load rejects; every
        # threshold the constructor takes loads back.
        for not_a_number in (True, "0.5"):
            with pytest.raises(ConfigError):
                ParseDag(merge_threshold=not_a_number)
        for threshold in (None, 0.5, 1):
            assert ParseDag.from_json(ParseDag(threshold).to_json()).merge_threshold == threshold

    @settings(max_examples=300, deadline=None)
    @given(messages=st.lists(_MESSAGE, max_size=40),
           threshold=st.floats(0, 1, exclude_min=True), data=st.data())
    def test_indexed_scan_picks_brute_force_target(self, messages, threshold, data):
        # A save and load at a random point checks the rebuilt index too.
        split = data.draw(st.integers(0, len(messages)))
        dag = OracleCheckedDag(merge_threshold=threshold)
        parse_all(dag, [" ".join(m) for m in messages[:split]])
        dag = OracleCheckedDag.from_json(dag.to_json())
        parse_all(dag, [" ".join(m) for m in messages[split:]])

    def test_reloaded_index_counts_the_first_member(self):
        # Node 1's template lcs(a a a1, b a1 a b a1 a) is "a a"; line 3
        # wildcards group 2's tail, so the template becomes "a1". The index
        # rebuilt on load must still list a1 for node 1.
        dag = ParseDag(merge_threshold=0.5)
        parse_all(dag, ["a a a1", "b a1 a b a1 a"])
        assert dag.output_template(1) == ["a", "a"]
        dag = ParseDag.from_json(dag.to_json())
        dag.parse_line(["b", "a1", "b", "a", "a", "b"])
        assert dag.output_template(1) == ["a1"]
        assert dag.parse_line(["a1"])[0].output_id == 1

    def test_literals_counted_once_per_created_group(self, monkeypatch):
        # Groups 1, 2 and 4 open their own nodes and group 3 merges into 1;
        # the empty message's group counts its literals, none, once too.
        calls = []
        real = logsieve.dag._literal_counts
        monkeypatch.setattr(logsieve.dag, "_literal_counts",
                            lambda event: calls.append(list(event)) or real(event))
        dag = ParseDag(merge_threshold=0.6)
        records = parse_all(dag, ["send pkt to host", "open port now", "send pkt to host now",
                                  "", "send pkt to host"])
        assert [g.output_id for g, _ in records] == [1, 2, 1, 4, 1]
        assert calls == [["send", "pkt", "to", "host"], ["open", "port", "now"],
                         ["send", "pkt", "to", "host", "now"], []]

    def test_group_sharing_no_token_is_never_scored(self, monkeypatch):
        # The graph scores a candidate by its LCS with the event, template first.
        calls = []
        real = logsieve.dag.lcs
        monkeypatch.setattr(logsieve.dag, "lcs", lambda a, b: calls.append(a) or real(a, b))
        dag = ParseDag(merge_threshold=0.5)
        dag.parse_line(["Send", "file", "now"])
        dag.parse_line(["open", "port", "later"])
        assert calls == [] and len(dag.outputs) == 2
        group, _ = dag.parse_line(["Send", "file", "x", "y"])
        assert calls == [["Send", "file", "now"]] and group.output_id == 1

    def test_accepted_merge_computes_one_lcs(self, monkeypatch):
        # The LCS that scores the winner is its merged template: placing the
        # group folds nothing again, and tem_sim never runs. A created group
        # has no wildcard, so its st is st_init, without current_st. A loaded
        # merged node folds its template on first read, not on load.
        calls = {"lcs": 0, "tem_sim": 0, "current_st": 0}

        def spy(name, real):
            def counted(*args):
                calls[name] += 1
                return real(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(logsieve.dag, name, spy(name, getattr(logsieve.dag, name)))
        dag = ParseDag(merge_threshold=0.7)
        dag.parse_line(["send", "pkt", "alpha", "to", "host"])
        assert calls == {"lcs": 0, "tem_sim": 0, "current_st": 0}
        group, text = dag.parse_line(["send", "pkt", "alpha", "to", "host", "now"])
        assert group.output_id == 1 and text == "send pkt alpha to host"
        assert calls == {"lcs": 1, "tem_sim": 0, "current_st": 0}
        assert group.st == current_st(group.threshold)
        loaded = ParseDag.from_json(dag.to_json())
        assert calls["lcs"] == 1
        assert loaded.output_text(1) == text
        assert calls["lcs"] == 2


# Shared head words and digit-bearing end tokens: lines share lengths and
# split keys, groups gain wildcards, and some lines route to the None key.
_HEADED_MESSAGE = st.one_of(
    st.just([]),
    st.tuples(st.sampled_from(["svc", "svc", "job", "n1"]),
              st.lists(st.sampled_from(["a", "b", "open", "x1", "42"]), max_size=4))
    .map(lambda parts: [parts[0], *parts[1]]),
)


class TestDerivedState:
    """The cached threshold, merged template and template text always equal
    what they cache, each threshold's wildcard count is its event's, and a
    matched group's literals all agree with the message."""

    @settings(max_examples=300, deadline=None)
    @given(messages=st.lists(_HEADED_MESSAGE, max_size=40),
           threshold=st.sampled_from([None, 0.3, 0.6, 0.9, 1.0]),
           dag_class=st.sampled_from([ParseDag, ScanOnlyDag]), data=st.data())
    def test_cached_text_and_threshold_stay_current(self, messages, threshold, dag_class, data):
        # None turns merging off; a save and load at a random line rebuilds both.
        split = data.draw(st.integers(0, len(messages)))
        dag = dag_class(merge_threshold=threshold)
        for line_id, tokens in enumerate(messages, start=1):
            if line_id == split + 1:
                dag = dag_class.from_json(dag.to_json())
            group, text = dag.parse_line(tokens)
            assert text == render_template(dag.output_template(group.output_id))
            assert sim_seq(tokens, dag.groups[group.group_id].event) == 1.0
            for group in dag.groups.values():
                assert group.st == current_st(group.threshold)
                assert group.threshold.eta == group.event.count(None)
            for output_id, node in dag.outputs.items():
                if len(node.members) > 1:
                    events = [group.event for group in node.members]
                    assert dag.output_template(output_id) == reduce(dp_lcs, events)
        for output_id, text, _ in dag.snapshot_groups():
            assert text == render_template(dag.output_template(output_id))


def test_group_derives_its_threshold():
    # The first message's digit count gives st_init and base; the event's one
    # wildcard gives eta.
    group = LogGroup(1, ["a", None, "c"], 2, 1, ("a", "b1", "c"))
    expected = new_threshold_state(("a", "b1", "c"))
    expected.eta = 1
    assert group.threshold == expected
    assert group.st == current_st(group.threshold)


def test_groups_compare_by_saved_fields():
    # The threshold and st are derived, so a group differing only in them is
    # the same group; parse_line results of two graphs compare this way.
    group = LogGroup(1, ["a", None, "c"], 2, 1, ("a", "b1", "c"))
    other = LogGroup(1, ["a", None, "c"], 2, 1, ("a", "b1", "c"))
    other.st = 1.0
    assert group == other
    assert group != LogGroup(1, ["a", None, "c"], 3, 1, ("a", "b1", "c"))
    assert repr(group) == ("LogGroup(group_id=1, event=['a', None, 'c'], count=2, "
                           "output_id=1, first_message=('a', 'b1', 'c'))")


def placement(dag):
    """The graph's indexes over the groups: {length: {split key: group IDs}}
    and {output ID: group IDs}."""
    def ids(groups):
        return [g.group_id for g in groups]

    return ({length: {key: ids(groups) for key, groups in node.split_nodes.items()}
             for length, node in dag.length_nodes.items()},
            {output_id: ids(node.members) for output_id, node in dag.outputs.items()})


def derived(group):
    key = select_split_token(list(group.first_message))
    return key, group.threshold, group.st, group.first_message


def assert_nodes_hold_the_registered_groups(dag):
    """Every group in a similarity node or an output node is the registry's
    object, so the wildcards ``update_group`` adds reach every node; each
    end-token memo entry is the similarity node its length and its ends' split
    key name, that object; each group is filed under its first message's split
    key."""
    for (length, first, last), groups in dag.ends.items():
        assert groups is dag.length_nodes[length].split_nodes[select_split_token([first, last])]
    for node in dag.length_nodes.values():
        for key, groups in node.split_nodes.items():
            assert all(group is dag.groups[group.group_id] for group in groups)
            assert all(select_split_token(list(group.first_message)) == key for group in groups)
    for node in dag.outputs.values():
        assert all(group is dag.groups[group.group_id] for group in node.members)


def assert_merge_index_bounds(dag):
    """Each literal occurs in an output node's current template at most as
    often as the node's merge-index count says, the bound the indexed merge
    scan prunes by."""
    for output_id in dag.outputs:
        template = dag.output_template(output_id)
        for token, n in Counter(t for t in template if t is not None).items():
            assert n <= dag.merge_index.get(token, {}).get(output_id, 0), (output_id, token)


class TestPlacement:
    """A load replays the saved groups through the placement a created group
    takes, so a reloaded parser's graph is the live parser's."""

    @settings(max_examples=500, deadline=None)
    @given(messages=st.lists(_HEADED_MESSAGE, max_size=40),
           threshold=st.sampled_from([None, 0.3, 0.6, 0.9]), data=st.data())
    def test_reloaded_graph_equals_live_graph(self, messages, threshold, data):
        # None turns merging off. Line 0 is the empty parser; one parser is
        # saved and loaded after a random line.
        split = data.draw(st.integers(0, len(messages)))
        live, reloaded = ParseDag(threshold), ParseDag(threshold)
        for line_id, tokens in enumerate([None, *messages]):
            if line_id:
                live.parse_line(tokens)
                reloaded.parse_line(tokens)
            if line_id == split:
                reloaded = ParseDag.from_json(reloaded.to_json())
                # The load derives each key and threshold from the saved
                # first message, as create_group derived them from the line.
                assert [derived(g) for g in reloaded.groups.values()] == [
                    derived(g) for g in live.groups.values()]
            assert placement(reloaded) == placement(live)
            assert_nodes_hold_the_registered_groups(live)
            assert_nodes_hold_the_registered_groups(reloaded)
            if threshold is not None:
                assert_merge_index_bounds(live)
                assert_merge_index_bounds(reloaded)

    def test_merged_group_opens_no_output_node(self):
        dag = ParseDag(merge_threshold=0.45)
        parse_all(dag, ["Send file", "Send a file"])
        assert placement(dag) == ({2: {("first", "Send"): [1]}, 3: {("first", "Send"): [2]}},
                                  {1: [1, 2]})
        assert dag.merge_index == {"Send": {1: 1}, "file": {1: 1}}
        keys = [select_split_token(list(g.first_message)) for g in dag.groups.values()]
        assert keys == [("first", "Send")] * 2

    def test_reload_keeps_creation_order_in_a_similarity_node(self):
        # Group 2 joins node 1; group 3, created later under the same key,
        # opens node 3. A load lists 2 before 3, as creation did.
        dag = ParseDag(merge_threshold=0.6)
        parse_all(dag, ["svc a", "svc b a 42 a", "svc 42", "svc a 42 open a",
                        "svc a x1 open 42"])
        assert placement(dag) == ({2: {("first", "svc"): [1]}, 5: {("first", "svc"): [2, 3]}},
                                  {1: [1, 2], 3: [3]})
        assert placement(ParseDag.from_json(dag.to_json())) == placement(dag)


# Tokens for edited events and values: a head word, a plain and a
# digit-bearing literal, and the wildcard.
_EDIT_TOKENS = st.sampled_from(["svc", "a", "x1", "42", None])


def edit_state(state, data):
    """Make one random edit of a saved state: the merge setting, the order or
    number of the groups, or one field of one group."""
    groups = state["groups"]
    kinds = ["threshold"] + (["drop", "swap", "count", "output", "event", "values"]
                             if groups else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "threshold":
        state["merge_threshold"] = data.draw(
            st.sampled_from([None, 0.3, 0.6, 0.9, 1, 0, 2, True, "0.5"]))
        return
    i = data.draw(st.integers(0, len(groups) - 1))
    group = groups[i]
    if kind == "drop":
        del groups[i]
    elif kind == "swap":
        j = data.draw(st.integers(0, len(groups) - 1))
        groups[i], groups[j] = groups[j], groups[i]
    elif kind == "count":
        group["count"] = data.draw(st.integers(-1, 3))
    elif kind == "output":
        group["output"] = data.draw(st.integers(0, len(groups) + 1))
    elif kind == "event":
        event = group["event"]
        j = data.draw(st.integers(0, len(event)))
        if j < len(event) and data.draw(st.booleans()):
            del event[j]
        else:
            event[j:j + 1] = [data.draw(_EDIT_TOKENS)]
    else:
        group["values"] = data.draw(st.lists(_EDIT_TOKENS, max_size=3))


class TestEditedState:
    """An edited saved state either fails to load with one ValueError naming
    the state file, or loads a parser that saves it back as it was and parses
    on. A merged node's template is folded on first read after a load, so
    this checks the fold of every state a load accepts."""

    @settings(max_examples=500, deadline=None)
    @given(messages=st.lists(_HEADED_MESSAGE, max_size=20),
           more=st.lists(_HEADED_MESSAGE, max_size=10),
           threshold=st.sampled_from([None, 0.3, 0.6, 0.9]), data=st.data())
    def test_edit_fails_to_load_or_loads_whole(self, messages, more, threshold, data):
        dag = ParseDag(threshold)
        for tokens in messages:
            dag.parse_line(tokens)
        state = json.loads(dag.to_json())
        edit_state(state, data)
        try:
            dag = ParseDag.from_json(json.dumps(state))
        except ValueError as exc:
            assert str(exc).startswith("bad state file: ")
            return
        assert json.loads(dag.to_json()) == state
        for tokens in more:
            group, text = dag.parse_line(tokens)
            assert text == render_template(dag.output_template(group.output_id))
        assert_nodes_hold_the_registered_groups(dag)
        if dag.merge_threshold is not None:
            assert_merge_index_bounds(dag)
        for output_id, node in dag.outputs.items():
            events = [group.event for group in node.members]
            assert dag.output_template(output_id) == reduce(dp_lcs, events)


class TestSnapshotAndState:
    def test_fresh_dag_snapshot_empty(self):
        assert ParseDag().snapshot_groups() == []

    def test_single_message_snapshot(self):
        dag = ParseDag()
        dag.parse_line(["hello", "world", "x"])
        assert dag.snapshot_groups() == [(1, "hello world x", 1)]

    def test_state_roundtrip_continues_identically(self):
        rng = random.Random(3)
        templates = synth.make_templates(rng, 10)
        lines, _ = synth.make_stream(rng, templates, 400)
        head, tail = lines[:200], lines[200:]

        straight = ParseDag()
        parse_all(straight, lines)

        first = ParseDag()
        parse_all(first, head)
        resumed = ParseDag.from_json(first.to_json())
        parse_all(resumed, tail)

        assert resumed.snapshot_groups() == straight.snapshot_groups()

    def test_empty_message_group_is_an_ordinary_group(self):
        # The empty message's constant ratio 0/0 counts as 0: st_init 0.0,
        # base 2, so st is 0.0 and every empty message scores 1.0 against it.
        dag = ParseDag()
        parse_all(dag, ["", "a b"])
        assert dag.groups[1].st == 0.0
        state = json.loads(dag.to_json())
        assert state["groups"][0] == {"count": 1, "event": [], "output": 1, "values": []}
        dag = ParseDag.from_json(dag.to_json())
        group = dag.groups[1]
        assert (select_split_token(list(group.first_message)), group.st) == (None, 0.0)
        assert dag.parse_line([])[0].group_id == 1
        assert dag.groups[1].count == 2 and len(dag.groups) == 2

    def test_empty_messages_parse_alike_with_merging_on_and_off(self):
        # An empty event's literal counts are {}: it has no merge candidate
        # and enters nothing in the merge index, so merging changes only the
        # saved setting.
        runs = []
        for threshold in (None, 0.5):
            dag = ParseDag(merge_threshold=threshold)
            records = parse_all(dag, ["", "a b", ""])
            assert dag.merge_index == ({} if threshold is None else {"a": {2: 1}, "b": {2: 1}})
            dag = ParseDag.from_json(dag.to_json())
            records.append(dag.parse_line([]))
            state = json.loads(dag.to_json())
            assert state.pop("merge_threshold") == threshold
            runs.append((records, dag.snapshot_groups(), state))
        assert runs[0] == runs[1]
        assert runs[0][1] == [(1, "", 3), (2, "a b", 1)]

    def test_bad_schema_rejected(self):
        with pytest.raises(ValueError):
            ParseDag.from_json('{"schema": "nope"}')

    def test_state_size_independent_of_stream_length(self):
        rng = random.Random(0)
        templates = synth.make_templates(rng, 40)
        pool, _ = synth.make_stream(rng, templates, 10_000)
        sizes = []
        for n_lines in (10_000, 100_000):
            dag = ParseDag()
            parse_all(dag, rng.choices(pool, k=n_lines))
            sizes.append(len(dag.to_json()))
        assert sizes[1] <= 1.05 * sizes[0]


class TestInvariants:
    def test_partition_totality_and_monotone_templates(self, tmp_path):
        rng = random.Random(11)
        templates = synth.make_templates(rng, 15)
        lines, _ = synth.make_stream(rng, templates, 1000)
        dag = ParseDag()
        prev_events = {}
        output_ids = []
        for line in lines:
            output_ids.append(dag.parse_line(line.split())[0].output_id)
            for gid, g in dag.groups.items():
                if gid in prev_events:
                    for old, new in zip(prev_events[gid], g.event):
                        if old is WILDCARD:
                            assert new is WILDCARD  # wildcard never reverts
                prev_events[gid] = list(g.event)
        assert dict(Counter(output_ids)) == {
            oid: occ for oid, _, occ in dag.snapshot_groups()
        }
        # The stream driver numbers the lines: one row per line, IDs 1..N.
        run_stream(RunConfig(), lines, tmp_path)
        with open(tmp_path / "structured.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [int(row[0]) for row in rows] == list(range(1, 1001))
        assert [int(row[1]) for row in rows] == output_ids

    def test_groups_share_length_within_node(self):
        rng = random.Random(5)
        templates = synth.make_templates(rng, 10)
        lines, _ = synth.make_stream(rng, templates, 500)
        dag = ParseDag()
        parse_all(dag, lines)
        for length, node in dag.length_nodes.items():
            for groups in node.split_nodes.values():
                for group in groups:
                    assert len(group.event) == length

    def test_determinism(self):
        rng = random.Random(19)
        templates = synth.make_templates(rng, 10)
        lines, _ = synth.make_stream(rng, templates, 500)
        d1, d2 = ParseDag(), ParseDag()
        parse_all(d1, lines)
        parse_all(d2, lines)
        assert d1.snapshot_groups() == d2.snapshot_groups()
        assert d1.to_json() == d2.to_json()
