"""Reader/writer for the UAI Markov-network text format.

Tables are read verbatim as costs by default; with values="probability"
entries are mapped through -log, and zero probabilities become a per-model
big-M cost (see ``_probability_costs``).  Scopes may appear in any
node order in the file; tables are permuted onto the sorted scope used
internally, and duplicate scopes merge by addition.  A constant factor has
arity 0 and a one-entry table.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UaiParseError
from .model import GraphicalModel, _factor_rows
from .tolerance import BIG_M_MARGIN

def _tokenize(text: str) -> list[tuple[str, int]]:
    out = []
    for ln, line in enumerate(text.splitlines(), start=1):
        for tok in line.split():
            out.append((tok, ln))
    return out


class _TokenStream:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.tokens)

    @property
    def last_line(self) -> int:
        return self.tokens[-1][1] if self.tokens else 1

    def next(self, what: str) -> tuple[str, int]:
        if self.exhausted:
            raise UaiParseError(f"unexpected end of input, expected {what}", self.last_line)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def next_int(self, what: str) -> int:
        tok, ln = self.next(what)
        try:
            return int(tok)
        except ValueError:
            raise UaiParseError(f"expected {what} (an integer), got {tok!r}", ln) from None

    def next_float(self, what: str) -> float:
        tok, ln = self.next(what)
        try:
            return float(tok)
        except ValueError:
            raise UaiParseError(f"expected {what} (a number), got {tok!r}", ln) from None


def parse_uai(text: str, values: str = "cost") -> GraphicalModel:
    """Parse UAI text into a model.  values: "cost" (verbatim) or
    "probability" (-log, with a per-model big-M for zero probabilities)."""
    if values not in ("cost", "probability"):
        raise UaiParseError(f"unknown values mode {values!r}")
    ts = _TokenStream(text)
    header, ln = ts.next("the MARKOV preamble")
    if header.upper() != "MARKOV":
        raise UaiParseError(f"expected MARKOV preamble, got {header!r}", ln)
    n = ts.next_int("the variable count")
    if n < 0:
        raise UaiParseError("negative variable count")
    cards = []
    for v in range(n):
        k = ts.next_int(f"cardinality of variable {v}")
        if k < 1:
            raise UaiParseError(f"variable {v} has cardinality {k}")
        cards.append(k)
    num_factors = ts.next_int("the factor count")

    scopes: list[list[int]] = []
    for i in range(num_factors):
        arity = ts.next_int(f"arity of factor {i}")
        if arity < 0:
            raise UaiParseError(f"factor {i} has arity {arity}")
        scope = []
        for j in range(arity):
            tok, ln = ts.next(f"scope entry {j} of factor {i}")
            try:
                v = int(tok)
            except ValueError:
                raise UaiParseError(f"bad scope entry {tok!r} in factor {i}", ln) from None
            if not 0 <= v < n:
                raise UaiParseError(f"factor {i} scope index {v} out of range", ln)
            scope.append(v)
        if len(set(scope)) != len(scope):
            raise UaiParseError(f"factor {i} repeats a variable in its scope")
        scopes.append(scope)

    tables: list[np.ndarray] = []
    for i, scope in enumerate(scopes):
        count = ts.next_int(f"table size of factor {i}")
        expected = math.prod(cards[v] for v in scope)
        if count != expected:
            raise UaiParseError(
                f"factor {i} declares {count} table entries, scope needs {expected}"
            )
        try:
            vals = [ts.next_float(f"table entry of factor {i}") for _ in range(count)]
        except UaiParseError as e:
            raise UaiParseError(f"truncated table for factor {i}: {e}") from None
        tables.append(np.array(vals).reshape([cards[v] for v in scope]))

    if not ts.exhausted:
        tok, ln = ts.next("end of input")
        raise UaiParseError(f"trailing content {tok!r}", ln)
    if values == "probability":
        tables = _probability_costs(tables)
    by_shape: dict[tuple[int, ...], tuple[list, list]] = {}
    for scope, arr in zip(scopes, tables):
        order = sorted(range(len(scope)), key=lambda p: scope[p])
        table = np.transpose(arr, order)
        block = by_shape.setdefault(table.shape, ([], []))
        block[0].append(sorted(scope))
        block[1].append(table)
    blocks = [
        (np.array(s, dtype=np.int64).reshape(len(s), len(shape)), np.array(t))
        for shape, (s, t) in by_shape.items()
    ]
    return GraphicalModel.from_arrays(cards, blocks)


def _probability_costs(tables: list[np.ndarray]) -> list[np.ndarray]:
    """-log of each positive entry; entries <= 0 are forbidden and get a big-M.

    A NaN or infinite entry is no probability and raises UaiParseError.

    A forbidden entry of factor g costs g's largest finite cost plus the sum
    over all factors of their finite spreads (max - min), plus a margin.  A
    labeling that uses it then costs at least the margin more than any
    labeling that uses no forbidden entry, whatever the other factors add.
    The margin is 1 plus BIG_M_MARGIN times the summed largest finite
    magnitudes, which bound every feasible energy, so it exceeds the
    relative cost tolerances that ``tolerance.BIG_M_MARGIN`` names at that
    scale.  The costs stay near the scale of the finite ones, where float64
    keeps unit-scale differences exact enough for every solver and
    criterion.
    """
    costs, allowed = [], []
    for i, arr in enumerate(tables):
        bad = arr[~np.isfinite(arr)]
        if bad.size:
            raise UaiParseError(f"factor {i} has probability {float(bad[0])}, not a finite number")
        ok = arr > 0.0
        if not ok.any():
            raise UaiParseError(
                f"factor {i} gives every entry probability zero, so no labeling is feasible"
            )
        costs.append(-np.log(np.maximum(arr, 1e-300)))
        allowed.append(ok)
    spread = sum(float(c[ok].max() - c[ok].min()) for c, ok in zip(costs, allowed))
    scale = sum(float(np.abs(c[ok]).max()) for c, ok in zip(costs, allowed))
    margin = 1.0 + BIG_M_MARGIN * scale
    return [
        np.where(ok, c, float(c[ok].max()) + spread + margin) for c, ok in zip(costs, allowed)
    ]


def write_uai(model: GraphicalModel) -> str:
    """Serialize with 17 significant digits (float64 round-trips exactly)."""
    rows = _factor_rows(model)
    lines = ["MARKOV", str(model.num_nodes)]
    lines.append(" ".join(str(k) for k in model.label_counts))
    lines.append(str(len(rows)))
    for scope, _ in rows:
        lines.append(f"{len(scope)} " + " ".join(str(v) for v in scope))
    for _, table in rows:
        flat = table.ravel().tolist()  # Python floats format faster, to the same text
        lines.append("")
        lines.append(str(len(flat)))
        for start in range(0, len(flat), 8):
            lines.append(" " + " ".join(f"{x:.17g}" for x in flat[start : start + 8]))
    return "\n".join(lines) + "\n"
