"""The Parameter Buffer and per-tile Display Lists.

The Polygon List Builder stores each primitive's attributes once in the
Parameter Buffer (a main-memory structure, cached by the tile cache) and
appends a pointer to them into the Display List of every tile the
primitive overlaps.

To support EVR's reordering (Algorithm 1), every Display List is *two*
lists: the raster pipeline drains the first list, then the second.  The
baseline pipeline simply never uses the second list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Tuple

from ..geom import ScreenTriangle

POINTER_BYTES = 4
LAYER_ID_BYTES = 2


class DisplayListEntry(NamedTuple):
    """One Display List record: a primitive pointer plus EVR metadata.

    Binning creates one per (primitive, tile) pair, so the record is a
    named tuple: immutable like the hardware entry, and cheap to build.

    Attributes:
        primitive: the referenced primitive (stands in for dereferencing
            the Parameter Buffer pointer).
        offset: byte offset of the primitive's attributes in the
            Parameter Buffer, used to model pointer dereference traffic.
        layer: the layer identifier assigned to the primitive *in this
            tile* (stored alongside the pointer, Section V-A).
        predicted_occluded: EVR's visibility prediction for this tile.
        pointer_offset: byte address of this Display List record itself
            (the pointer the raster pipeline dereferences).
    """

    primitive: ScreenTriangle
    offset: int
    layer: int
    predicted_occluded: bool = False
    pointer_offset: int = 0


@dataclass
class DisplayList:
    """The two-part display list of one tile (Section IV-A)."""

    first: List[DisplayListEntry] = field(default_factory=list)
    second: List[DisplayListEntry] = field(default_factory=list)

    def append_first(self, entry: DisplayListEntry) -> None:
        self.first.append(entry)

    def append_second(self, entry: DisplayListEntry) -> None:
        self.second.append(entry)

    def promote_second(self) -> None:
        """Move the second list to the end of the first (Algorithm 1's
        response to an arriving NWOZ primitive)."""
        self.first.extend(self.second)
        self.second.clear()

    def __len__(self) -> int:
        return len(self.first) + len(self.second)

    def __iter__(self) -> Iterator[DisplayListEntry]:
        """Render order: the whole first list, then the second."""
        yield from self.first
        yield from self.second


class ParameterBuffer:
    """Frame-lifetime storage of primitive attributes and Display Lists."""

    def __init__(self, num_tiles: int, attribute_bytes_per_primitive: int = 144):
        self._attribute_bytes = attribute_bytes_per_primitive
        self._next_offset = 0
        self._display_lists: Dict[int, DisplayList] = {
            tile: DisplayList() for tile in range(num_tiles)
        }
        self.stored_primitives = 0

    @property
    def attribute_bytes_per_primitive(self) -> int:
        return self._attribute_bytes

    def store_primitive(self, primitive: ScreenTriangle) -> int:
        """Store a primitive's attributes; returns its byte offset."""
        offset = self._next_offset
        self._next_offset += self._attribute_bytes
        self.stored_primitives += 1
        return offset

    def display_list(self, tile: int) -> DisplayList:
        return self._display_lists[tile]

    def tiles(self) -> Iterator[Tuple[int, DisplayList]]:
        return iter(self._display_lists.items())

    @property
    def total_bytes(self) -> int:
        """Attribute bytes written so far (excludes pointers/layers)."""
        return self._next_offset

    def reset(self) -> None:
        """Recycle the buffer for the next frame."""
        self._next_offset = 0
        self.stored_primitives = 0
        for display_list in self._display_lists.values():
            display_list.first.clear()
            display_list.second.clear()
