"""Preprocessing, tokenization and split-token selection for raw log content.

A raw log message's content string first passes through user-supplied regex
substitution rules (domain knowledge: IP addresses, block IDs, ...), is then
split into whitespace-delimited tokens, and finally yields a split key that
routes the message through the token layer of the parse graph.
"""

import re
from dataclasses import dataclass, field

# Punctuation characters commonly found in variable tokens of system logs.
# User-configurable; stored as an explicit constant for bit-stable behavior.
DEFAULT_SPECIAL_CHARS = frozenset("#^$'*+,/<=>@_`)|~")

_DIGITS = frozenset("0123456789")

# Split-key variants for the token layer.
FIRST = "first"
LAST = "last"

# A SplitKey is ("first", token), ("last", token) or None.
SplitKey = tuple[str, str] | None


class ConfigError(ValueError):
    """Invalid user configuration (bad regex, malformed rule, bad option)."""


@dataclass(frozen=True)
class PreprocessRule:
    """One substitution rule: regex pattern -> constant replacement.

    The replacement must not contain whitespace so a substitution cannot
    silently change token boundaries inside the replaced span.
    """

    pattern: str
    replacement: str
    regex: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            compiled = re.compile(self.pattern)
        except re.error as exc:
            raise ConfigError(f"invalid preprocess pattern {self.pattern!r}: {exc}") from exc
        if any(c.isspace() for c in self.replacement):
            raise ConfigError(
                f"preprocess replacement {self.replacement!r} must not contain whitespace"
            )
        object.__setattr__(self, "regex", compiled)


def apply_preprocess(rules: list[PreprocessRule], content: str) -> str:
    """Apply each rule's non-overlapping substitutions, in declaration order."""
    for rule in rules:
        content = rule.regex.sub(rule.replacement, content)
    return content


def tokenize(content: str) -> list[str]:
    """Split content on runs of whitespace; empty string yields no tokens."""
    return content.split()


def has_digit(token: str) -> bool:
    """True iff the token contains an ASCII decimal digit."""
    return not _DIGITS.isdisjoint(token)


def has_special(token: str, special_chars: frozenset[str] = DEFAULT_SPECIAL_CHARS) -> bool:
    """True iff the token contains a character from the special set (a set
    of characters, not a string)."""
    return not special_chars.isdisjoint(token)


def select_split_token(
    tokens: list[str], special_chars: frozenset[str] = DEFAULT_SPECIAL_CHARS
) -> SplitKey:
    """Pick the token that routes graph traversal, or None when both ends
    look variable.

    Tokens containing digits are unlikely to be constants, so a digit-bearing
    end token is never chosen. When neither end has digits, punctuation in the
    first token defers to the last one.
    """
    first = tokens[0]
    last = tokens[-1]
    if has_digit(first):
        if has_digit(last):
            return None
        return (LAST, last)
    if has_digit(last):
        return (FIRST, first)
    if has_special(first, special_chars):
        if has_special(last, special_chars):
            return None
        return (LAST, last)
    return (FIRST, first)
