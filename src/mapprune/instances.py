"""Seeded synthetic instance generators.

Every generator is a pure function of its spec: the same seed yields a
bit-identical model (all draws happen in a fixed documented order).  Each
returns its factors as (scopes, tables) blocks, one per factor kind, and
``generate`` builds the model from them with ``GraphicalModel.from_arrays``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import GraphicalModel, _integers

KINDS = ("potts-grid", "random-pairwise", "random-hyper", "frustrated-cycle")

_Blocks = list[tuple[np.ndarray, np.ndarray]]  # (scopes, tables) pairs for from_arrays


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for one synthetic instance.

    For grids set height x width; for the other kinds set num_nodes.
    coupling draws pairwise strengths, noise draws unary costs (uniform).
    """

    kind: str
    labels: int = 2
    height: int = 0
    width: int = 0
    num_nodes: int = 0
    coupling: tuple[float, float] = (0.0, 1.0)
    noise: tuple[float, float] = (0.0, 1.0)
    seed: int = 0
    edge_probability: float = 0.5
    hyper_count: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown generator kind {self.kind!r}")
        for field in ("labels", "height", "width", "num_nodes", "seed"):
            value = getattr(self, field)
            (count,) = _integers((value,), DomainError(f"{field} must be an integer, got {value!r}"))
            object.__setattr__(self, field, count)
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if self.labels < 1:
            raise DomainError("label count must be positive")
        if self.kind == "potts-grid":
            if self.height < 1 or self.width < 1:
                raise DomainError("potts-grid needs positive height and width")
        elif self.num_nodes < 1:
            raise DomainError(f"{self.kind} needs a positive node count")
        if self.kind == "random-hyper":
            most = math.comb(self.num_nodes, 3)  # distinct ternary scopes
            if _integers((self.hyper_count,)) is None or not 0 <= self.hyper_count <= most:
                raise DomainError(f"hyper_count must be an integer in [0, {most}], got {self.hyper_count!r}")
        for field in ("coupling", "noise"):
            pair = getattr(self, field)
            if not _finite_pair(pair):
                raise DomainError(f"{field} must be a pair of finite numbers, got {pair!r}")
            lo, hi = pair
            if hi < lo:
                raise DomainError(f"{field} range is inverted")
        if not (_finite(self.edge_probability) and 0 <= self.edge_probability <= 1):
            raise DomainError(f"edge_probability must be in [0, 1], got {self.edge_probability!r}")

    @property
    def name(self) -> str:
        if self.kind == "potts-grid":
            size = f"{self.height}x{self.width}"
        else:
            size = str(self.num_nodes)
        return f"{self.kind}-{size}-L{self.labels}-s{self.seed}"


def _finite(value) -> bool:
    """Whether ``value`` is a finite real number (a string is not)."""
    try:
        return math.isfinite(value)
    except TypeError:
        return False


def _finite_pair(pair) -> bool:
    try:
        lo, hi = pair
    except (TypeError, ValueError):
        return False
    return _finite(lo) and _finite(hi)


def _uniform(rng: np.random.Generator, lo: float, hi: float, shape) -> np.ndarray:
    if hi == lo:
        return np.full(shape, lo, dtype=np.float64)
    return rng.uniform(lo, hi, shape)


def generate(spec: InstanceSpec) -> GraphicalModel:
    rng = np.random.default_rng(spec.seed)
    build = {
        "potts-grid": _potts_grid,
        "random-pairwise": _random_pairwise,
        "random-hyper": _random_hyper,
        "frustrated-cycle": _frustrated_cycle,
    }[spec.kind]
    n = spec.height * spec.width if spec.kind == "potts-grid" else spec.num_nodes
    return GraphicalModel.from_arrays([spec.labels] * n, build(spec, rng))


def _unaries(spec: InstanceSpec, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (scopes, tables) block of one noise-drawn unary per node."""
    return np.arange(n, dtype=np.int64)[:, None], _uniform(rng, *spec.noise, (n, spec.labels))


def _grid_edges(h: int, w: int) -> np.ndarray:
    """int64 (E, 2): each node's right, then down, edge, so rows ascend."""
    v = np.arange(h * w, dtype=np.int64)
    edges = np.stack([v, v + 1, v, v + w], axis=1).reshape(-1, 2)
    return edges[np.stack([v % w + 1 < w, v + w < h * w], axis=1).ravel()]


def _potts_grid(spec: InstanceSpec, rng: np.random.Generator) -> _Blocks:
    """4-connected grid, per-edge Potts strength alpha*[x_u != x_v]."""
    unaries = _unaries(spec, rng, spec.height * spec.width)
    edges = _grid_edges(spec.height, spec.width)
    alphas = _uniform(rng, *spec.coupling, len(edges))
    return [unaries, (edges, alphas[:, None, None] * (1.0 - np.eye(spec.labels)))]


def _random_pairwise(spec: InstanceSpec, rng: np.random.Generator) -> _Blocks:
    n, k = spec.num_nodes, spec.labels
    unaries = _unaries(spec, rng, n)
    edges, tables = [], []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.uniform() < spec.edge_probability:
                edges.append((u, v))
                tables.append(_uniform(rng, *spec.coupling, (k, k)))
    return [unaries, (np.array(edges, dtype=np.int64).reshape(-1, 2), np.array(tables).reshape(-1, k, k))]


def _random_hyper(spec: InstanceSpec, rng: np.random.Generator) -> _Blocks:
    """A random pairwise base plus hyper_count distinct ternary factors."""
    if spec.num_nodes < 3:
        raise DomainError("random-hyper needs at least 3 nodes")
    blocks = _random_pairwise(spec, rng)
    k = spec.labels
    tables: dict[tuple[int, ...], np.ndarray] = {}
    while len(tables) < spec.hyper_count:
        scope = tuple(sorted(rng.choice(spec.num_nodes, size=3, replace=False).tolist()))
        if scope not in tables:
            tables[scope] = _uniform(rng, *spec.coupling, (k, k, k))
    scopes = np.array(list(tables), dtype=np.int64).reshape(-1, 3)
    return blocks + [(scopes, np.array(list(tables.values())).reshape(-1, k, k, k))]


def _frustrated_cycle(spec: InstanceSpec, rng: np.random.Generator) -> _Blocks:
    """An n-cycle whose edges pay alpha for agreement and alpha/2 otherwise.

    With two labels and odd n the relaxation's unique optimum is the
    half-integral vertex of value n*alpha/2, strictly below the true optimum
    (n+1)*alpha/2, so no node can be committed.  The strength alpha is the
    lower end of the coupling range.  Zero noise draws no unaries.
    """
    n, k = spec.num_nodes, spec.labels
    if n < 3:
        raise DomainError("a cycle needs at least 3 nodes")
    table = spec.coupling[0] * (np.eye(k) + 1.0) / 2.0
    edges = np.array([(v, v + 1) for v in range(n - 1)] + [(0, n - 1)], dtype=np.int64)
    cycle = (edges, np.repeat(table[None], n, axis=0))
    return [cycle] if spec.noise == (0.0, 0.0) else [_unaries(spec, rng, n), cycle]


def frustrated_cycle(n: int = 3, labels: int = 2, alpha: float = 1.0) -> GraphicalModel:
    """Convenience wrapper for the canonical frustrated instance."""
    return generate(
        InstanceSpec(
            kind="frustrated-cycle",
            num_nodes=n,
            labels=labels,
            coupling=(alpha, alpha),
            noise=(0.0, 0.0),
        )
    )
