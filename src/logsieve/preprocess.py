"""Preprocessing, tokenization and split-token selection for raw log content.

A raw log message's content string first passes through user-supplied regex
substitution rules (domain knowledge: IP addresses, block IDs, ...), is then
split into whitespace-delimited tokens, and finally yields a split key that
routes the message through the token layer of the parse graph.
"""

import re

# Punctuation characters commonly found in variable tokens of system logs: a
# fixed set, so every run and every saved state routes a message alike.
SPECIAL_CHARS = frozenset("#^$'*+,/<=>@_`)|~")

DIGITS = frozenset("0123456789")

# The parser ``re`` itself uses (``sre_parse`` before 3.11, where importing it
# by that name is deprecated); ``re`` has already imported it.
_sre = getattr(re, "_parser", None) or re.sre_parse

# Split-key variants for the token layer.
FIRST = "first"
LAST = "last"

# A SplitKey is ("first", token), ("last", token) or None.
SplitKey = tuple[str, str] | None


class ConfigError(ValueError):
    """Invalid user configuration (bad regex, malformed rule, bad option)."""


class PreprocessRule:
    """One substitution rule: regex pattern -> constant replacement.

    The replacement must not contain whitespace so a substitution cannot
    silently change token boundaries inside the replaced span, nor a
    backslash, which ``re`` would read as an escape or a group reference.
    Rules are equal, and hash alike, by pattern and replacement.
    """

    __slots__ = ("pattern", "replacement", "regex", "required")

    def __init__(self, pattern: str, replacement: str):
        try:
            compiled = re.compile(pattern)
        except re.error as exc:
            raise ConfigError(f"invalid preprocess pattern {pattern!r}: {exc}") from exc
        if any(c.isspace() for c in replacement):
            raise ConfigError(f"preprocess replacement {replacement!r} must not contain whitespace")
        if "\\" in replacement:
            raise ConfigError(
                f"preprocess replacement {replacement!r} must not contain a backslash")
        self.pattern = pattern
        self.replacement = replacement
        self.regex = compiled
        # Derived: a literal every match contains ("" when none is known), so
        # content without it is left alone without running the regex.
        self.required = _required_literal(compiled)

    def __eq__(self, other):
        return ((self.pattern, self.replacement) == (other.pattern, other.replacement)
                if type(other) is PreprocessRule else NotImplemented)

    def __hash__(self):
        return hash((self.pattern, self.replacement))


def _required_literal(regex: re.Pattern) -> str:
    """The longest run of plain literals that every match of ``regex`` must
    contain, or "" when none is known.

    Walks the parse tree: literal runs continue through groups, and a repeat
    of at least one iteration contributes the runs of its body. A branch, a
    lookaround, an optional repeat, a case-insensitive pattern or group, and
    anything else end the run and add nothing.
    """
    if regex.flags & re.IGNORECASE:
        return ""
    runs = [""]

    def walk(items):
        for op, arg in items:
            if op is _sre.LITERAL:
                runs[-1] += chr(arg)
            elif op is _sre.SUBPATTERN and not arg[1] & re.IGNORECASE:
                walk(arg[-1])
            elif op in (_sre.MAX_REPEAT, _sre.MIN_REPEAT) and arg[0] >= 1:
                runs.append("")
                walk(arg[2])
                runs.append("")
            else:
                runs.append("")

    walk(_sre.parse(regex.pattern, regex.flags))
    return max(runs, key=len)


def apply_preprocess(rules: list[PreprocessRule], content: str) -> str:
    """Apply each rule's non-overlapping substitutions, in declaration order.
    A rule whose required literal is absent cannot match and is not run."""
    for rule in rules:
        if rule.required in content:
            content = rule.regex.sub(rule.replacement, content)
    return content


def tokenize(content: str) -> list[str]:
    """Split content on runs of whitespace; empty string yields no tokens."""
    return content.split()


def has_digit(token: str) -> bool:
    """True iff the token contains an ASCII decimal digit."""
    return not DIGITS.isdisjoint(token)


def has_special(token: str) -> bool:
    """True iff the token contains a character of ``SPECIAL_CHARS``."""
    return not SPECIAL_CHARS.isdisjoint(token)


def select_split_token(tokens: list[str]) -> SplitKey:
    """Pick the token that routes graph traversal, or None when both ends
    look variable or there is no token.

    Tokens containing digits are unlikely to be constants, so a digit-bearing
    end token is never chosen. When neither end has digits, punctuation in the
    first token defers to the last one.
    """
    if not tokens:
        return None
    # has_digit and has_special, inlined: this runs on most lines.
    first = tokens[0]
    last = tokens[-1]
    if not DIGITS.isdisjoint(first):
        if not DIGITS.isdisjoint(last):
            return None
        return (LAST, last)
    if not DIGITS.isdisjoint(last):
        return (FIRST, first)
    if not SPECIAL_CHARS.isdisjoint(first):
        if not SPECIAL_CHARS.isdisjoint(last):
            return None
        return (LAST, last)
    return (FIRST, first)
