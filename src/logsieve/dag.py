"""The parser state machine: a fixed-depth graph of length, token, similarity
and output nodes, mutated one message at a time.

Traversal per message: length node (token count) -> token node (split key) ->
similarity node (candidate groups) -> output node (final template). The nodes
hold the groups themselves; ``groups`` lists them by ID. ``ends`` maps the
length and end tokens of each group's first message to that group's
similarity node, an exact memo of the route. ``exact`` maps each group's first
message to the group: while the group has no wildcard, a line equal to it is
that group's with score 1.0, routed without a scan. The groups are the only
primary state; ``_place`` enters a group in every node and index, and a load
replays each saved group through the placement a new group takes.
A group derives its threshold from its first message and its event. Its split
key is not stored: ``search`` (on a miss) or ``from_json`` derives it and
hands it to ``_place``, which files the group under it.

Single-writer contract: one ParseDag is driven by one logical stream at a
time; snapshots may be read when no writer is active.
"""

import json
from functools import reduce

from .preprocess import FIRST, ConfigError, SplitKey, select_split_token
from .similarity import (
    Token,
    WILDCARD,
    current_st,
    lcs,
    new_threshold_state,
    sim_seq,
    tem_sim,  # unused here: benchmark/layertrace.py hooks this module's name
)

SNAPSHOT_SCHEMA = "logsieve-state-v8"


def render_template(event: list[Token]) -> str:
    """Space-joined template text with wildcards shown as ``*``."""
    return " ".join(["*" if t is None else t for t in event])


class LogGroup:
    __slots__ = ("group_id", "event", "count", "output_id", "first_message", "threshold", "st")

    def __init__(self, group_id: int, event: list[Token], count: int, output_id: int,
                 first_message: tuple[str, ...]):
        self.group_id = group_id
        self.event = event
        self.count = count  # messages absorbed so far
        self.output_id = output_id
        # The message that created the group; the split key of the similarity
        # node holding the group and the threshold's st_init and base are those
        # of this message.
        self.first_message = first_message
        # Derived, never serialized: the threshold (eta is the event's wildcard
        # count) and current_st(threshold), advanced when the group gains a wildcard.
        self.threshold = new_threshold_state(first_message)
        self.threshold.eta = eta = event.count(None)
        # At eta 0 current_st adds 0.5 * log(1) == 0.0, so st is st_init exactly.
        self.st = current_st(self.threshold) if eta else self.threshold.st_init

    def _saved(self) -> tuple:
        return self.group_id, self.event, self.count, self.output_id, self.first_message

    def __eq__(self, other):  # the saved fields only: the rest is derived from them
        return self._saved() == other._saved() if type(other) is LogGroup else NotImplemented

    def __repr__(self):
        return ("LogGroup(group_id={!r}, event={!r}, count={!r}, output_id={!r}, "
                "first_message={!r})".format(*self._saved()))


class OutputNode:
    __slots__ = ("members", "template", "text")

    def __init__(self, members: list[LogGroup], template: list[Token] | None):
        self.members = members
        # Derived, never serialized, and both cleared whenever a member gains a
        # wildcard or a loaded group joins: the template (a lone member's live
        # event itself, or the LCS fold of the members' live events) and the
        # rendered template, each filled again on first read.
        self.template = template
        self.text: str | None = None


class LengthNode:
    __slots__ = ("split_nodes",)

    def __init__(self):
        # split key -> creation-ordered groups (the similarity node)
        self.split_nodes: dict[SplitKey, list[LogGroup]] = {}


class ParseDag:
    """Online template miner over a stream of tokenized log messages."""

    def __init__(self, merge_threshold: float | None = None):
        check_merge_threshold(merge_threshold)
        self.merge_threshold = merge_threshold  # None turns merging off
        self.length_nodes: dict[int, LengthNode] = {}
        self.groups: dict[int, LogGroup] = {}
        self.outputs: dict[int, OutputNode] = {}
        # Merge candidates: literal token -> {output ID: count}, filled only
        # when merging is on. A node's counts are those of its first member's
        # event when it was placed; they stay upper bounds, as a template is
        # a subsequence of that event, whose literals only shrink.
        self.merge_index: dict[str, dict[int, int]] = {}
        # (length, first, last token) of a group's first message -> its
        # similarity node, that list; derived by ``_place``, never serialized.
        self.ends: dict[tuple[int, str, str], list[LogGroup]] = {}
        # First message -> the group it created, the key being the group's
        # own ``first_message``; derived by ``_place``, never serialized. No
        # two groups share a first message: a line equal to one scores 1.0 on
        # its group, which accepts it.
        self.exact: dict[tuple[str, ...], LogGroup] = {}
        self.cache_hits = 0  # lines either memo routed
        self.exact_hits = 0  # lines the exact-line memo routed

    # -- rendering -------------------------------------------------------

    def output_template(self, output_id: int) -> list[Token]:
        """A single group's live event; for a merged node, the left fold of
        ``lcs`` over its members' live events in group-ID order, which is
        empty once the members share no literal."""
        node = self.outputs[output_id]
        if node.template is None:
            node.template = reduce(lcs, [group.event for group in node.members])
        return node.template

    def output_text(self, output_id: int) -> str:
        """The rendered output template, rendered again only after it changed."""
        node = self.outputs[output_id]
        if node.text is None:
            node.text = render_template(self.output_template(output_id))
        return node.text

    # -- search ----------------------------------------------------------

    def search(self, tokens: list[str]) -> tuple[LogGroup, float] | tuple[None, SplitKey]:
        """Find the group accepting this message and its score; on a miss,
        return None and the message's split key, which ``create_group`` takes.

        The message routes by length, then split key, to a similarity node.
        The best candidate there that accepts the message (the score reaches
        the candidate's own threshold) wins; ties go to the template with the
        fewest wildcards, then earliest creation. The paper tests only the
        best candidate, whose cap can turn away what a younger group accepts.

        Memo: the split key reads only the two end tokens, so a message whose
        length and ends a group's first message had routes to that group's
        node by one ``ends`` probe; it chooses a key only on a miss. Unseen
        ends, and the empty message before its group exists, route by split
        key, which a miss returns.

        Exact-line memo: while a group has no wildcard, a line equal to its
        first message is the group's, with score 1.0, without a scan. The
        group sits in the node the ends route to, and only an identical
        event, another group's of the same first message, could tie.
        """
        group = self.exact.get(tuple(tokens))
        if group is not None and not group.threshold.eta:  # the event's wildcard count
            self.cache_hits += 1
            self.exact_hits += 1
            return group, 1.0
        groups = self.ends.get((len(tokens), tokens[0], tokens[-1])) if tokens else None
        by_memo = groups is not None
        if by_memo:
            self.cache_hits += 1
        else:
            key = select_split_token(tokens)
            length_node = self.length_nodes.get(len(tokens))
            groups = length_node.split_nodes.get(key) if length_node else None
            if groups is None:
                return None, key
        best = None
        best_score = -1.0
        for group in groups:
            score = sim_seq(tokens, group.event)
            # A score is never below 0, so ``best`` is set before any tie.
            if score >= group.st and (score > best_score or score == best_score
                                      and group.event.count(None) < best.event.count(None)):
                best = group
                best_score = score
        if best is not None:
            return best, best_score
        return None, select_split_token(tokens) if by_memo else key

    # -- update ----------------------------------------------------------

    def create_group(self, tokens: list[str], key: SplitKey) -> LogGroup:
        """Start a group whose template is the unmatched message, under the
        message's split key, and place it, with merging on in the output node
        ``_try_merge`` picks, if any, whose merged template ``_try_merge``
        has already computed."""
        # Group IDs are 1..n in creation order; a group that opens its own
        # output node gives it its ID.
        group_id = len(self.groups) + 1
        group = LogGroup(group_id, list(tokens), 1, group_id, tuple(tokens))
        counts = merged = None
        if self.merge_threshold is not None:
            counts = _literal_counts(tokens)
            target = self._try_merge(group, counts)
            if target is not None:
                group.output_id, merged = target
        self._place(group, key, counts, merged)
        return group

    def _try_merge(self, new_group: LogGroup,
                   counts: dict[str, int]) -> tuple[int, list[Token]] | None:
        """The existing output node most similar to the fresh group, if
        template similarity strictly exceeds the merge threshold, and the
        node's template merged with the new event; else None. Ties go to the
        lowest output ID.

        Only nodes sharing a literal with the new event are visited. The LCS
        is at most the shared literal count, so a node whose shared count
        over the shorter length does not exceed the threshold, or the best
        score so far, cannot win and is not scored, nor can an empty template.
        A scored node's LCS with the event, template first as the fold takes
        it, gives its score (LCS length over the shorter length) and, for the
        winner, the merged template. ``counts`` are the new event's literal
        counts."""
        event = new_group.event
        index = self.merge_index
        shared: dict[int, int] = {}
        for token, n in counts.items():
            posting = index.get(token)
            if posting is not None:
                for output_id, m in posting.items():
                    shared[output_id] = shared.get(output_id, 0) + (n if n < m else m)
        best = None
        best_score = self.merge_threshold
        for output_id in sorted(shared):
            template = self.output_template(output_id)
            if not template or shared[output_id] / min(len(event), len(template)) <= best_score:
                continue
            merged = lcs(template, event)
            score = len(merged) / min(len(event), len(template))
            if score > best_score:
                best_score = score
                best = output_id, merged
        return best

    def _place(self, group: LogGroup, key: SplitKey, counts: dict[str, int] | None = None,
               merged: list[Token] | None = None) -> None:
        """Enter a group in the graph, under its first message's split key
        ``key``, that message's length and ends in ``ends`` and the message in
        ``exact``, entries no later call changes. A group whose output ID is
        its own opens that output node and, with merging on, enters its
        literal counts (``counts``, if already counted) in the merge index. A
        group joining a node sets the node's template to ``merged``: the fold
        ``_try_merge`` computed for a created group, None for a loaded one."""
        group_id, event, message = group.group_id, group.event, group.first_message
        self.groups[group_id] = group
        length_node = self.length_nodes.get(len(event))
        if length_node is None:
            length_node = self.length_nodes[len(event)] = LengthNode()
        groups = length_node.split_nodes.setdefault(key, [])
        groups.append(group)
        if message:  # equal ends give equal keys, so an entry never changes
            self.ends[len(message), message[0], message[-1]] = groups
        self.exact[message] = group
        if group.output_id == group_id:
            self.outputs[group_id] = OutputNode([group], event)
            if self.merge_threshold is not None:
                for token, n in (_literal_counts(event) if counts is None else counts).items():
                    self.merge_index.setdefault(token, {})[group_id] = n
        else:
            node = self.outputs[group.output_id]
            node.template = merged
            node.text = None
            node.members.append(group)

    def update_group(self, group: LogGroup, tokens: list[str], score: float) -> int:
        """Absorb a matched message that scored ``score`` against the group:
        count it, wildcard every literal position that disagrees, and advance
        the threshold counter. Only the group and its output node's cached
        template and text change. Returns the number of wildcards added."""
        group.count += 1
        # sim_seq is 1.0 only when every literal position agreed.
        if score == 1.0:
            return 0
        replaced = 0
        event = group.event
        for i, token in enumerate(tokens):
            if event[i] is not None and event[i] != token:
                event[i] = WILDCARD
                replaced += 1
        if replaced:
            group.threshold.eta += replaced
            group.st = current_st(group.threshold)
            node = self.outputs[group.output_id]
            node.template = node.text = None
        return replaced

    def parse_line(self, tokens: list[str]) -> tuple[LogGroup, str]:
        """Match or create a group for one preprocessed, tokenized message;
        return the group and its output template's text as of this message."""
        group, found = self.search(tokens)
        if group is None:  # ``found`` is the message's split key
            group = self.create_group(tokens, found)
        else:  # ``found`` is the score
            self.update_group(group, tokens, found)
        return group, self.output_text(group.output_id)

    # -- reporting -------------------------------------------------------

    def snapshot_groups(self) -> list[tuple[int, str, int]]:
        """Creation-ordered (output_id, template_text, occurrences) per output
        node; occurrences sum the counts of the node's groups."""
        return [
            (
                output_id,
                self.output_text(output_id),
                sum(group.count for group in node.members),
            )
            for output_id, node in sorted(self.outputs.items())
        ]

    # -- persistence -----------------------------------------------------

    def to_json(self) -> str:
        """Serialize what resuming the stream needs: the merge setting a resumed
        run must match and one entry per group, a group's ID being its
        position. Wildcards are JSON null; ``values`` holds the first message's
        tokens at the wildcards, so the event and ``values`` give that message."""
        state = {
            "schema": SNAPSHOT_SCHEMA,
            "merge_threshold": self.merge_threshold,
            "groups": [
                {"event": g.event, "count": g.count, "output": g.output_id,
                 "values": [m for m, t in zip(g.first_message, g.event) if t is None]}
                for g in self.groups.values()  # entered in ID order
            ],
        }
        return json.dumps(state, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ParseDag":
        """Rebuild a parser from ``to_json`` output: check each saved group,
        then replay it in ID order through ``_place``, the placement a new
        group takes. A group's split key is its first message's, and the group
        derives its threshold, as a created group does.
        Raises ValueError naming the first problem of any other input."""
        try:
            state = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # the decoder recurses per level
            raise ValueError(f"bad state file: not valid JSON ({exc})") from None
        schema = state.get("schema") if isinstance(state, dict) else None
        _require(schema == SNAPSHOT_SCHEMA, f"schema {schema!r} is not {SNAPSHOT_SCHEMA!r}")
        _require(sorted(state) == _STATE_KEYS, f"the keys must be {_STATE_KEYS}")
        merge_threshold, groups = state["merge_threshold"], state["groups"]
        try:
            dag = cls(merge_threshold)
        except ConfigError as exc:
            raise ValueError(f"bad state file: {exc}") from None
        _require(isinstance(groups, list), "bad groups")
        for gid, group in enumerate(groups, start=1):
            _require(isinstance(group, dict) and sorted(group) == _GROUP_KEYS,
                     f"group {gid}: the keys must be {_GROUP_KEYS}")
            count, event, out, values = (group[name] for name in _GROUP_KEYS)
            _require(type(count) is int and count > 0 and _is_event(event),
                     f"group {gid}: bad count or event")
            _require(_is_event(values) and None not in values and len(values) == event.count(None),
                     f"group {gid}: bad values")
            fill = iter(values)
            message = tuple(next(fill) if t is None else t for t in event)
            # A line equal to a group's first message scores 1.0 there and joins it.
            _require(message not in dag.exact,
                     f"group {gid}: repeats an earlier group's first message")
            # No line routed by a key can wildcard the end token the key names.
            key = select_split_token(message)
            _require(key is None or event[0 if key[0] == FIRST else -1] is not None,
                     f"group {gid}: split key names a wildcard end")
            # With merging off, every group opens its own output node.
            _require(type(out) is int and (out == gid or merge_threshold is not None
                                           and out in dag.outputs),
                     f"group {gid}: bad output {out!r}")
            dag._place(LogGroup(gid, event, count, out, message), key)
        return dag


def check_merge_threshold(merge_threshold: float | None) -> None:
    """Raise ConfigError unless the threshold is None (merging off) or an int
    or float in (0, 1]; a resumed run must match the saved threshold, which a
    NaN never does, and a saved bool would not load."""
    if merge_threshold is not None and not (type(merge_threshold) in (int, float)
                                            and 0.0 < merge_threshold <= 1.0):
        raise ConfigError("merge_threshold must be in (0, 1]")


def _literal_counts(template: list[Token]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for token in template:
        if token is not None:
            counts[token] = counts.get(token, 0) + 1
    return counts


# -- state validation ----------------------------------------------------

_STATE_KEYS = ["groups", "merge_threshold", "schema"]
_GROUP_KEYS = ["count", "event", "output", "values"]


def _require(ok: bool, problem: str) -> None:
    if not ok:
        raise ValueError(f"bad state file: {problem}")


def _is_event(value) -> bool:
    # Tokens as str.split gives them: the structured CSV quotes only , and ".
    return isinstance(value, list) and all(t is None or type(t) is str and t.split() == [t]
                                           for t in value)
