"""Coloring value types exchanged by the invariant checkers and constructions.

Colors are integers 1..palette.  A coloring never references a Graph object;
its domain is carried explicitly (vertex count via the color tuple, edge
domain via the sorted edge tuple), which keeps the types hashable and easy to
serialize.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .errors import ContractError, MalformedInputError
from .graph_core import Edge


def _check_colors(colors: tuple[int, ...], palette: int) -> None:
    if palette < 1:
        raise MalformedInputError(f"palette size must be >= 1, got {palette}")
    for c in colors:
        if not 1 <= c <= palette:
            raise MalformedInputError(f"color {c} outside palette 1..{palette}")


@dataclass(frozen=True)
class VertexColoring:
    """Color per vertex index, colors in 1..palette."""

    colors: tuple[int, ...]
    palette: int

    def __post_init__(self):
        _check_colors(self.colors, self.palette)

    def color_of(self, v: int) -> int:
        return self.colors[v]


@dataclass(frozen=True)
class EdgeColoring:
    """Color per unordered vertex pair; ``edges`` is the sorted domain."""

    edges: tuple[Edge, ...]
    colors: tuple[int, ...]
    palette: int

    def __post_init__(self):
        if len(self.edges) != len(self.colors):
            raise MalformedInputError("edge domain and color list differ in length")
        if tuple(sorted(self.edges)) != self.edges:
            raise MalformedInputError("edge domain must be lexicographically sorted")
        _check_colors(self.colors, self.palette)

    @classmethod
    def from_dict(cls, mapping: Mapping[Edge, int], palette: int) -> "EdgeColoring":
        norm = {}
        for (u, v), c in mapping.items():
            norm[(u, v) if u < v else (v, u)] = c
        edges = tuple(sorted(norm))
        return cls(edges=edges, colors=tuple(norm[e] for e in edges), palette=palette)

    @cached_property
    def _position(self) -> dict[Edge, int]:
        """Index of each domain edge into ``edges`` and ``colors``."""
        return {e: k for k, e in enumerate(self.edges)}

    def color_of(self, u: int, v: int) -> int:
        e = (u, v) if u < v else (v, u)
        try:
            return self.colors[self._position[e]]
        except KeyError:
            raise ContractError(f"edge {e} not in coloring domain") from None

    def as_dict(self) -> dict[Edge, int]:
        return dict(zip(self.edges, self.colors))


@dataclass(frozen=True)
class TotalColoring:
    """A vertex part and an edge part sharing one palette."""

    vertex_part: VertexColoring
    edge_part: EdgeColoring

    def __post_init__(self):
        if self.vertex_part.palette != self.edge_part.palette:
            raise MalformedInputError("vertex and edge parts must share one palette")

    @property
    def palette(self) -> int:
        return self.vertex_part.palette
