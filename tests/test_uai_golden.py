"""A byte golden of what ``parse_uai`` makes of valid and damaged UAI text.

A seeded corpus of generated models, hand-written and edge texts, and
mutations of them (truncations, token swaps, deletions, replacements,
trailing tokens, header damage, dropped lines and other line breaks) is
parsed in both ``values`` modes.  Each outcome is hashed: the ``write_uai``
bytes of the model, or the exception's type, message and ``.line``.  The
digest pins every error message and line number along with the models.

Two kinds of input are left out, because the reader's handling of them
was mended after the digest was recorded: a negative factor count (once
accepted) and a non-finite table entry in cost mode (once rejected by the
model, which named its sorted scope).  ``test_io_cli.TestParseUai`` tests
both.
"""

import hashlib
import math
import re

import numpy as np

from mapprune import InstanceSpec, MapPruneError, generate, parse_uai, write_uai

HAND_WRITTEN = (
    "MARKOV\n3\n2 3 2\n5\n0\n2 1 0\n1 2\n3 2 0 1\n2 0 1\n\n"
    "1\n -1.5\n\n6\n 0.5 0.25 1 0.125 0 0.75\n\n2\n 0.5 0\n\n"
    "12\n 0.1 0.2 0.3 0.4 0.5 0.6\n 0.7 0.8 0.9 1 0.0625 0.03125\n\n"
    "6\n 1 0.5 0 0.25 0.75 0.375\n"
)

EDGE_TEXTS = (
    "",
    "  \n\t\n",
    "MARKOV",
    "markov\n0\n0\n",
    "MARKOV\r\n1\r\n2\r\n1\r\n1 0\r\n2\r\n0.25 0.75\r\n",
    "MARKOV\n1\n2\n1\n0\n1\n 3.5\n",
    "MARKOV\n2\n1 2\n2\n2 1 0\n1 1\n2\n ١ 1_0\n2\n 2e0 -0\n",
)

# Tokens that mutations insert: malformed, boundary and Unicode numbers.
VOCABULARY = (
    "x", "MARKOV", "0", "1", "2", "3", "7", "-1", "-0", "+2", "1.5", "0.0",
    "1_0", "١", "2e0", "1e999", "nan", "inf", "-inf", "0x1", "", "9999",
)

BREAKS = ("\r\n", "\r", "\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", " ", "\n\n")


def _sources() -> list[str]:
    texts = []
    for seed in range(6):
        for spec in (
            InstanceSpec(kind="potts-grid", height=2, width=3, labels=2 + seed % 2, seed=seed),
            InstanceSpec(kind="random-pairwise", num_nodes=4, labels=3, seed=seed),
            InstanceSpec(kind="random-hyper", num_nodes=4, labels=2, hyper_count=2, seed=seed),
            InstanceSpec(kind="frustrated-cycle", num_nodes=3, labels=2, seed=seed),
        ):
            texts.append(write_uai(generate(spec)))
    return texts + [HAND_WRITTEN, *EDGE_TEXTS]


def _mutate(text: str, rng: np.random.Generator) -> str:
    """One or two random edits of ``text``, each keeping line breaks
    where it does not change them on purpose."""
    for _ in range(int(rng.integers(1, 3))):
        parts = re.split(r"(\s+)", text)  # tokens at even indices
        tokens = list(range(0, len(parts), 2))
        op = int(rng.integers(9))
        if op == 0:
            text = text[: int(rng.integers(len(text) + 1))]
            continue
        if op == 1:
            text = text + rng.choice(["\n", " "]) + " ".join(
                rng.choice(VOCABULARY, size=int(rng.integers(1, 3)))
            )
            continue
        if op == 2:
            new = str(rng.choice(BREAKS))
            text = text.replace("\n", new, -1 if rng.uniform() < 0.5 else 1)
            continue
        if op == 3:
            lines = text.split("\n")
            del lines[int(rng.integers(len(lines)))]
            text = "\n".join(lines)
            continue
        a, b = (int(t) for t in rng.choice(tokens, size=2))
        if op == 4:
            parts[a], parts[b] = parts[b], parts[a]
        elif op == 5:
            parts[a] = ""
        elif op == 6:  # header damage
            parts[tokens[min(int(rng.integers(4)), len(tokens) - 1)]] = str(rng.choice(VOCABULARY))
        else:
            parts[a] = str(rng.choice(VOCABULARY))
        text = "".join(parts)
    return text


def _negative_factor_count(tokens: list[str]) -> bool:
    try:
        return int(tokens[2 + int(tokens[1])]) < 0
    except (IndexError, ValueError):
        return False


def _non_finite(tokens: list[str]) -> bool:
    for tok in tokens:
        try:
            if not math.isfinite(float(tok)):
                return True
        except ValueError:
            pass
    return False


def corpus() -> list[tuple[str, str]]:
    """(text, values mode) pairs: every source and 5,000 seeded mutations."""
    rng = np.random.default_rng(20260)
    sources = _sources()
    texts = sources + [_mutate(str(rng.choice(sources)), rng) for _ in range(5000)]
    out = []
    for text in texts:
        tokens = text.split()
        if _negative_factor_count(tokens):
            continue
        if not _non_finite(tokens):
            out.append((text, "cost"))
        out.append((text, "probability"))
    return out


def outcome(text: str, values: str) -> str:
    try:
        return "model\n" + write_uai(parse_uai(text, values=values))
    except MapPruneError as e:
        return f"{type(e).__name__} {getattr(e, 'line', None)} {e}"


def test_parse_outcomes_golden():
    h = hashlib.sha256()
    for text, values in corpus():
        h.update(f"{values}\0{outcome(text, values)}\0".encode())
    assert h.hexdigest() == "73b0e6fa480ab97d2bfd6b6db4425f0a4b815773a8215062a3d420dd057d01dc"
