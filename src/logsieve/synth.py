"""Synthetic log corpora with known ground-truth templates.

Used by the accuracy and scaling tests and by the bench subcommand when no
base corpus is given. Templates mix literal words with variable slots that
render as digit-bearing identifiers; the first and last positions are kept
literal so messages route stably, mirroring how real logging statements tend
to start or end with constants.
"""

import random
import string
from collections import namedtuple

_VAR = None  # variable-slot marker inside a synthetic template

# ``tokens`` is a tuple: str for literals, None for variable slots.
SyntheticTemplate = namedtuple("SyntheticTemplate", "template_id tokens")


def _word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


def make_templates(rng: random.Random, n_templates: int) -> list[SyntheticTemplate]:
    """Generate distinct templates, 3 to 12 tokens long.

    Head words are sampled without replacement so templates rarely collide on
    (length, first token); interior positions are variable with probability
    about one in four.
    """
    heads = set()
    while len(heads) < n_templates:
        heads.add(_word(rng, rng.randint(4, 9)))
    templates = []
    for tid, head in enumerate(sorted(heads), start=1):
        length = rng.randint(3, 12)
        tokens: list = [head]
        for _ in range(length - 2):
            if rng.random() < 0.25:
                tokens.append(_VAR)
            else:
                tokens.append(_word(rng, rng.randint(2, 8)))
        tokens.append(_word(rng, rng.randint(3, 8)))
        templates.append(SyntheticTemplate(template_id=tid, tokens=tuple(tokens)))
    return templates


def render_line(rng: random.Random, template: SyntheticTemplate) -> str:
    parts = []
    for tok in template.tokens:
        if tok is _VAR:
            parts.append(f"id{rng.randrange(1_000_000)}")
        else:
            parts.append(tok)
    return " ".join(parts)


def make_stream(
    rng: random.Random, templates: list[SyntheticTemplate], n_lines: int
) -> tuple[list[str], dict[int, int]]:
    """Draw n_lines lines with replacement; returns (lines, line_id -> template_id)."""
    lines = []
    truth = {}
    for line_id in range(1, n_lines + 1):
        template = rng.choice(templates)
        lines.append(render_line(rng, template))
        truth[line_id] = template.template_id
    return lines, truth
