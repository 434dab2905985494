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
    if type(colors) is not tuple:  # a list would leave the coloring unhashable
        raise MalformedInputError(f"colors must be a tuple, got {type(colors).__name__}")
    if type(palette) is not int or palette < 1:
        raise MalformedInputError(f"palette size must be an integer >= 1, got {palette!r}")
    for c in colors:
        if type(c) is not int or not 1 <= c <= palette:
            raise MalformedInputError(f"color {c!r} is not an integer in 1..{palette}")


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
        last = (-1, -1)
        for e in self.edges if type(self.edges) is tuple else (self.edges,):
            if not (type(e) is tuple and len(e) == 2 and type(e[0]) is type(e[1]) is int
                    and 0 <= e[0] < e[1] and e > last):
                raise MalformedInputError(
                    f"edge domain must be a tuple of increasing pairs 0 <= u < v, got {e!r}")
            last = e
        if len(self.edges) != len(self.colors):
            raise MalformedInputError("edge domain and color list differ in length")
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
