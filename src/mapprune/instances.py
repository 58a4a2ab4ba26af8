"""Seeded synthetic instance generators.

Every generator is a pure function of its spec: the same seed yields a
bit-identical model (all draws happen in a fixed documented order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import Factor, GraphicalModel, _integers

KINDS = ("potts-grid", "random-pairwise", "random-hyper", "frustrated-cycle")


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
        lo, hi = self.coupling
        if hi < lo:
            raise DomainError("coupling range is inverted")
        lo, hi = self.noise
        if hi < lo:
            raise DomainError("noise range is inverted")

    @property
    def name(self) -> str:
        if self.kind == "potts-grid":
            size = f"{self.height}x{self.width}"
        else:
            size = str(self.num_nodes)
        return f"{self.kind}-{size}-L{self.labels}-s{self.seed}"


def _uniform(rng: np.random.Generator, lo: float, hi: float, shape) -> np.ndarray:
    if hi == lo:
        return np.full(shape, lo, dtype=np.float64)
    return rng.uniform(lo, hi, shape)


def generate(spec: InstanceSpec) -> GraphicalModel:
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "potts-grid":
        return _potts_grid(spec, rng)
    if spec.kind == "random-pairwise":
        return _random_pairwise(spec, rng)
    if spec.kind == "random-hyper":
        return _random_hyper(spec, rng)
    return _frustrated_cycle(spec)


def _grid_edges(h: int, w: int) -> list[tuple[int, int]]:
    edges = []
    for r in range(h):
        for c in range(w):
            v = r * w + c
            if c + 1 < w:
                edges.append((v, v + 1))
            if r + 1 < h:
                edges.append((v, v + w))
    return edges


def _potts_grid(spec: InstanceSpec, rng: np.random.Generator) -> GraphicalModel:
    """4-connected grid, per-edge Potts strength alpha*[x_u != x_v]."""
    n = spec.height * spec.width
    k = spec.labels
    unaries = _uniform(rng, *spec.noise, (n, k))
    factors = [Factor((v,), unaries[v]) for v in range(n)]
    off_diag = 1.0 - np.eye(k)
    for (u, v) in _grid_edges(spec.height, spec.width):
        alpha = float(_uniform(rng, *spec.coupling, ()))
        factors.append(Factor((u, v), alpha * off_diag))
    return GraphicalModel([k] * n, factors)


def _random_pairwise(spec: InstanceSpec, rng: np.random.Generator) -> GraphicalModel:
    n, k = spec.num_nodes, spec.labels
    unaries = _uniform(rng, *spec.noise, (n, k))
    factors = [Factor((v,), unaries[v]) for v in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.uniform() < spec.edge_probability:
                factors.append(Factor((u, v), _uniform(rng, *spec.coupling, (k, k))))
    return GraphicalModel([k] * n, factors)


def _random_hyper(spec: InstanceSpec, rng: np.random.Generator) -> GraphicalModel:
    """A random pairwise base plus hyper_count distinct ternary factors."""
    if spec.num_nodes < 3:
        raise DomainError("random-hyper needs at least 3 nodes")
    base = _random_pairwise(spec, rng)
    k = spec.labels
    tables: dict[tuple[int, ...], np.ndarray] = {}
    while len(tables) < spec.hyper_count:
        scope = tuple(sorted(rng.choice(spec.num_nodes, size=3, replace=False).tolist()))
        if scope not in tables:
            tables[scope] = _uniform(rng, *spec.coupling, (k, k, k))
    scopes = np.array(list(tables), dtype=np.int64).reshape(-1, 3)
    blocks = [(g.scopes, g.tables) for g in base.groups]
    blocks.append((scopes, np.array(list(tables.values())).reshape(-1, k, k, k)))
    return GraphicalModel.from_arrays(base.label_counts, blocks)


def _frustrated_cycle(spec: InstanceSpec) -> GraphicalModel:
    """An n-cycle whose edges pay alpha for agreement and alpha/2 otherwise.

    With two labels and odd n the relaxation's unique optimum is the
    half-integral vertex of value n*alpha/2, strictly below the true optimum
    (n+1)*alpha/2, so no node can be committed.  The strength alpha is the
    lower end of the coupling range.
    """
    n, k = spec.num_nodes, spec.labels
    if n < 3:
        raise DomainError("a cycle needs at least 3 nodes")
    alpha = spec.coupling[0]
    table = alpha * (np.eye(k) + 1.0) / 2.0
    factors = []
    if spec.noise != (0.0, 0.0):
        rng = np.random.default_rng(spec.seed)
        unaries = _uniform(rng, *spec.noise, (n, k))
        factors += [Factor((v,), unaries[v]) for v in range(n)]
    edges = [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)]
    factors += [Factor(e, table) for e in edges]
    return GraphicalModel([k] * n, factors)


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
