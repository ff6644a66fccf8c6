"""Bit vector signatures (BVS) and mask-based population count.

TAD* represents each object's membership across the clusters of a crowd as a
bit vector: bit ``i`` is set when the object appears in the ``i``-th cluster.
Counting a participator's occurrences is then a Hamming-weight computation,
which the paper implements with the classic binary-tree mask method
(Knuth, TAOCP 4A): sum adjacent 1-bit fields, then 2-bit fields, then 4-bit
fields, ... — ``log2(n)`` steps for an ``n``-bit vector.

Sub-crowds are represented by *masks* over the same signatures instead of
physically splitting them, so the signatures are built once per crowd and
reused across every TAD recursion.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = ["BitVector", "build_signatures", "popcount_tree"]


@lru_cache(maxsize=None)
def _tree_masks(width: int) -> Tuple[Tuple[int, int], ...]:
    """The ``(shift, mask)`` pairs for the binary-tree popcount at ``width`` bits.

    Cached per width: TAD* calls :func:`popcount_tree` once per object and
    recursion level, always at the crowd's width, so recomputing the mask
    ladder on every call dominated the counting cost.
    """
    masks = []
    shift = 1
    while shift < width:
        # e.g. shift=1 -> 0b0101...., shift=2 -> 0b00110011...., etc.
        block = (1 << shift) - 1
        pattern = 0
        position = 0
        while position < width:
            pattern |= block << position
            position += 2 * shift
        masks.append((shift, pattern))
        shift *= 2
    return tuple(masks)


def popcount_tree(value: int, width: int) -> int:
    """Hamming weight of ``value`` (``width`` bits) via the mask method.

    This mirrors the paper's Section III-B-2 example; it is intentionally not
    just ``bin(value).count("1")`` so the reproduced algorithm matches the
    published one (tests cross-check both).
    """
    if value < 0:
        raise ValueError("bit vectors are unsigned")
    if width < 1:
        raise ValueError("width must be at least 1")
    x = value & ((1 << width) - 1)
    for shift, mask in _tree_masks(width):
        x = (x & mask) + ((x >> shift) & mask)
    return x


class BitVector:
    """A fixed-width bit vector with the operations TAD* needs."""

    __slots__ = ("width", "value")

    def __init__(self, width: int, value: int = 0) -> None:
        if width < 1:
            raise ValueError("width must be at least 1")
        if value < 0:
            raise ValueError("value must be non-negative")
        self.width = width
        self.value = value & ((1 << width) - 1)

    # -- construction -----------------------------------------------------------
    @classmethod
    def from_positions(cls, width: int, positions: Iterable[int]) -> "BitVector":
        """Create a vector with the given bit positions set (0 = first cluster)."""
        value = 0
        for pos in positions:
            if pos < 0 or pos >= width:
                raise ValueError(f"bit position {pos} out of range for width {width}")
            value |= 1 << pos
        return cls(width, value)

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "BitVector":
        """Create a vector from an explicit bit sequence (index 0 = first cluster)."""
        width = len(bits)
        if width == 0:
            raise ValueError("bit sequence must be non-empty")
        value = 0
        for idx, bit in enumerate(bits):
            if bit not in (0, 1):
                raise ValueError("bits must be 0 or 1")
            if bit:
                value |= 1 << idx
        return cls(width, value)

    # -- bit access ---------------------------------------------------------------
    def get(self, position: int) -> bool:
        if position < 0 or position >= self.width:
            raise IndexError(f"bit position {position} out of range")
        return bool((self.value >> position) & 1)

    def set(self, position: int) -> "BitVector":
        if position < 0 or position >= self.width:
            raise IndexError(f"bit position {position} out of range")
        return BitVector(self.width, self.value | (1 << position))

    def bits(self) -> List[int]:
        return [(self.value >> i) & 1 for i in range(self.width)]

    def positions(self) -> List[int]:
        return [i for i in range(self.width) if (self.value >> i) & 1]

    # -- bitwise algebra -------------------------------------------------------------
    def __and__(self, other: "BitVector") -> "BitVector":
        if self.width != other.width:
            raise ValueError("bit vectors must share the same width")
        return BitVector(self.width, self.value & other.value)

    def __or__(self, other: "BitVector") -> "BitVector":
        if self.width != other.width:
            raise ValueError("bit vectors must share the same width")
        return BitVector(self.width, self.value | other.value)

    def masked(self, mask: "BitVector") -> "BitVector":
        """Restrict the signature to a sub-crowd mask (bitwise AND)."""
        return self & mask

    # -- counting ----------------------------------------------------------------------
    def hamming_weight(self) -> int:
        """Number of set bits.

        The paper implements this with the binary-tree mask method (exposed
        here as :func:`popcount_tree` and cross-checked in the tests); at
        runtime we use the interpreter's native popcount, which is the
        closest Python analogue of the hardware popcount a C# implementation
        would compile to.
        """
        return self.value.bit_count()

    def count_in_mask(self, mask: "BitVector") -> int:
        """Occurrences of the object within the sub-crowd selected by ``mask``."""
        return (self & mask).hamming_weight()

    # -- dunder niceties ---------------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVector)
            and self.width == other.width
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.width, self.value))

    def __repr__(self) -> str:
        bit_string = "".join(str(b) for b in self.bits())
        return f"BitVector({bit_string!r})"


def build_signatures(crowd) -> Dict[int, BitVector]:
    """Build the BVS of every object of a crowd with a single scan.

    Parameters
    ----------
    crowd:
        A :class:`~repro.core.crowd.Crowd` (any sequence of snapshot clusters
        exposing ``object_ids()`` works).

    Returns
    -------
    Mapping from object id to its :class:`BitVector` over the crowd's clusters.
    """
    width = len(crowd)
    positions: Dict[int, List[int]] = {}
    for index, cluster in enumerate(crowd):
        for object_id in cluster.object_ids():
            positions.setdefault(object_id, []).append(index)
    return {
        object_id: BitVector.from_positions(width, pos_list)
        for object_id, pos_list in positions.items()
    }
