from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from logsieve.preprocess import (
    ConfigError,
    FIRST,
    LAST,
    PreprocessRule,
    SPECIAL_CHARS,
    apply_preprocess,
    has_digit,
    has_special,
    select_split_token,
    tokenize,
)


class TestApplyPreprocess:
    def test_block_id_rule(self):
        rule = PreprocessRule(r"blk_[0-9]+", "blkID")
        assert apply_preprocess([rule], "Receiving block blk_3587 src") == "Receiving block blkID src"

    def test_no_rules_is_identity(self):
        assert apply_preprocess([], "Send file file_01") == "Send file file_01"

    def test_core_id_rule(self):
        rule = PreprocessRule(r"core\.[0-9]+", "coreID")
        assert apply_preprocess([rule], "error on core.1023 detected") == "error on coreID detected"

    def test_rules_apply_in_declaration_order(self):
        rules = [PreprocessRule("ab", "X"), PreprocessRule("Xc", "Y")]
        assert apply_preprocess(rules, "abc") == "Y"

    def test_invalid_pattern_rejected_at_load(self):
        with pytest.raises(ConfigError):
            PreprocessRule("[unclosed", "X")

    def test_whitespace_replacement_rejected(self):
        with pytest.raises(ConfigError):
            PreprocessRule("a+", "two words")

    @pytest.mark.parametrize("replacement", [r"\d", r"\1", r"\g<0>"])
    def test_backslash_replacement_rejected(self, replacement):
        # re would read it as an escape or a group reference, not a constant.
        with pytest.raises(ConfigError):
            PreprocessRule(r"blk_[0-9]+", replacement)


_ATOMS = ["a", "b", "A", "1", r"\.", "[ab]", r"\d", "."]
_BOUNDED = ["", "", "?", "{0,2}", "{1,3}", "{3}"]


@st.composite
def _regex(draw, depth=2, in_repeat=False):
    """A sequence of quantified atoms, groups, case-insensitive groups and
    lookarounds, or an alternation of two. Only an atom outside every repeat
    may repeat without bound, which keeps backtracking on short strings
    bounded."""
    branches = []
    for _ in range(draw(st.integers(1, 2))):
        parts = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["atom", "group", "icase", "ahead", "behind"]
                                        if depth else ["atom"]))
            if kind == "atom":
                unbounded = [] if in_repeat else ["*", "+"]
                parts.append(draw(st.sampled_from(_ATOMS))
                             + draw(st.sampled_from(_BOUNDED + unbounded)))
            elif kind == "behind":  # fixed width, as re requires
                literal = draw(st.sampled_from(["a", "A", r"\.", "b1"]))
                parts.append(draw(st.sampled_from(["(?<={})", "(?<!{})"])).format(literal))
            elif kind == "ahead":
                inner = draw(_regex(depth - 1, in_repeat))
                parts.append(draw(st.sampled_from(["(?={})", "(?!{})"])).format(inner))
            else:
                quant = draw(st.sampled_from(_BOUNDED))
                inner = draw(_regex(depth - 1, in_repeat or quant != ""))
                parts.append(("({})" if kind == "group" else "(?i:{})").format(inner) + quant)
        branches.append("".join(parts))
    return "|".join(branches)


_PATTERN = st.tuples(st.sampled_from(["", "(?i)"]), _regex()).map("".join)


class TestRequiredLiteral:
    @pytest.mark.parametrize("pattern,required", [
        (r"blk_[0-9]+", "blk_"),
        (r"(\d+\.){3}\d+", "."),
        (r"/?\d+\.\d+\.\d+\.\d+", "."),
        (r"(?i)blk_\d+", ""),
        ("a|b", ""),
        (r"a(b)c", "abc"),
        (r"(abc)?d", "d"),
        (r"(?i:abc)d", "d"),
        (r"(?=abc)d", "d"),
    ])
    def test_required_literal(self, pattern, required):
        assert PreprocessRule(pattern, "X").required == required

    @settings(max_examples=200, deadline=None)
    @given(_regex())
    def test_required_literal_is_in_every_match(self, regex):
        # Every string of up to four characters, and the pattern also made
        # case-insensitive as a whole and as a group.
        for pattern in (regex, f"(?i){regex}", f"(?i:{regex})"):
            rule = PreprocessRule(pattern, "X")
            for n in range(5):
                for chars in product("aAb1.", repeat=n):
                    for m in rule.regex.finditer("".join(chars)):
                        assert rule.required in m.group()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_PATTERN, st.sampled_from(["", "R", "a."])),
                    min_size=1, max_size=3),
           st.text(alphabet="aAbB1.x", max_size=10))
    def test_skipping_rules_changes_nothing(self, specs, content):
        rules = [PreprocessRule(pattern, replacement) for pattern, replacement in specs]
        expected = content
        for rule in rules:
            expected = rule.regex.sub(rule.replacement, expected)
        assert apply_preprocess(rules, content) == expected


class TestTokenize:
    def test_simple(self):
        assert tokenize("Send file file_01") == ["Send", "file", "file_01"]

    def test_empty(self):
        assert tokenize("") == []

    def test_whitespace_runs_collapse(self):
        assert tokenize("  a   b ") == ["a", "b"]

    @given(st.lists(st.text(alphabet=st.characters(blacklist_categories=("Z", "C")), min_size=1)))
    def test_join_then_tokenize_roundtrips(self, tokens):
        assert tokenize(" ".join(tokens)) == tokens


class TestCharClasses:
    def test_has_digit(self):
        assert has_digit("file_01")
        assert not has_digit("Send")
        assert not has_digit("blkID")

    def test_has_special(self):
        assert has_special("<info>")
        assert not has_special("opened")
        assert not has_special("a.b")  # '.' is not in the set

    def test_default_set_contents(self):
        assert SPECIAL_CHARS == frozenset("#^$'*+,/<=>@_`)|~")


class TestSelectSplitToken:
    @pytest.mark.parametrize(
        "tokens,expected",
        [
            (["Send", "file", "file_01"], (FIRST, "Send")),
            (["10", "bytes", "are", "sent"], (LAST, "sent")),
            (["blk_1", "to", "node9"], None),
            (["<info>", "session", "opened"], (LAST, "opened")),
            (["<a>", "x", "<b>"], None),
            (["plain", "words", "here"], (FIRST, "plain")),
            ([], None),
        ],
    )
    def test_branches(self, tokens, expected):
        assert select_split_token(tokens) == expected

    def test_single_token_with_digit(self):
        assert select_split_token(["x9"]) is None

    def test_single_clean_token(self):
        assert select_split_token(["hello"]) == (FIRST, "hello")

    token_strat = st.text(
        alphabet=st.sampled_from("abz019#<>*_."), min_size=1, max_size=6
    )

    @given(st.lists(token_strat, min_size=1, max_size=8))
    def test_payload_comes_from_an_end_and_never_has_digits(self, tokens):
        key = select_split_token(tokens)
        if key is None:
            return
        kind, payload = key
        assert payload == (tokens[0] if kind == FIRST else tokens[-1])
        assert not has_digit(payload)

    @given(st.lists(token_strat, min_size=1, max_size=8))
    def test_pure_function(self, tokens):
        assert select_split_token(tokens) == select_split_token(tokens)

    @staticmethod
    def reference_split_token(tokens):
        """The split rule written with the public character-class tests."""
        if not tokens:
            return None
        first, last = tokens[0], tokens[-1]
        if has_digit(first):
            return None if has_digit(last) else (LAST, last)
        if has_digit(last):
            return (FIRST, first)
        if has_special(first):
            return None if has_special(last) else (LAST, last)
        return (FIRST, first)

    # Every character of the fixed set, plus letters, digits and punctuation
    # outside it.
    any_char_token = st.text(alphabet=st.sampled_from(sorted(SPECIAL_CHARS) + list("az09.:-")),
                             min_size=1, max_size=4)

    @given(st.lists(any_char_token, max_size=8))
    def test_matches_the_rule_built_from_has_digit_and_has_special(self, tokens):
        assert select_split_token(tokens) == self.reference_split_token(tokens)
