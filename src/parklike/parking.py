"""Parking-like structures over an arbitrary base species.

For a non-decreasing map chi, a parking-like structure on a label set U of
size u is a sequence of chi(u+1) base structures whose underlying sets
(V_1, ..., V_{chi(u+1)}) are disjoint, cover U, and satisfy the parking
condition

    |V_1| + ... + |V_{chi(k)}|  >=  k        for every 1 <= k <= u.

With chi the identity and base the set species this is exactly the
preimage-sequence view of a classical parking function.  The value itself
(ParkingLike) lives in structures.py, its generation rule in generate.py,
and its validation, the base at every slot included, in membership.py; this
module holds the parking condition and the classical parking functions.
"""

from __future__ import annotations

from .chi import ChiMap
from .errors import BlockLengthMismatchError, InvalidStructureError
from .frozen import Frozen
from .structures import (
    ParkingLike,
    SetVal,
    serialize,  # unused here: bench/tracing.py patches this name
)


def is_parking_blocks(sizes, chi: ChiMap, n: int) -> bool:
    """The parking condition on a block-size vector.

    sizes must have length chi(n+1); returns whether the first chi(k) sizes
    sum to at least k for every k up to n.
    """
    sizes = list(sizes)
    expected = chi(n + 1)
    if len(sizes) != expected:
        raise BlockLengthMismatchError(
            f"expected {expected} blocks for n={n}, got {len(sizes)}"
        )
    total = 0
    prefix = [0]
    for s in sizes:
        total += s
        prefix.append(total)
    return all(prefix[min(chi(k), len(sizes))] >= k for k in range(1, n + 1))


class ParkingFunction(Frozen):
    """A map from labels to positive slot numbers satisfying the classical
    condition: at least k labels map into the first k slots, for every k."""

    __slots__ = ("mapping",)  # tuple of (label, slot) pairs sorted by label

    def __init__(self, mapping):
        if isinstance(mapping, dict):
            mapping = mapping.items()
        Frozen.__init__(self, tuple(sorted(mapping)))

    @property
    def domain(self) -> frozenset:
        return frozenset(l for l, _ in self.mapping)

    def as_dict(self) -> dict:
        return dict(self.mapping)

    def __call__(self, label: int) -> int:
        return self.as_dict()[label]


def validate_parking_function(pf: ParkingFunction) -> bool:
    pf_to_blocks(pf)
    return True


def pf_to_blocks(pf: ParkingFunction) -> ParkingLike:
    """The preimage-sequence view: slot i holds the set of labels mapped to i."""
    n = len(pf.mapping)
    if len(pf.domain) != n:
        raise InvalidStructureError("duplicate labels in parking function")
    blocks = [set() for _ in range(n + 1)]
    for label, slot in pf.mapping:
        if not 1 <= slot <= n + 1:
            raise InvalidStructureError(f"slot {slot} is outside 1..{n + 1}")
        blocks[slot - 1].add(label)
    identity = ChiMap.identity()
    if not is_parking_blocks(map(len, blocks), identity, n):
        raise InvalidStructureError("slot counts violate the parking condition")
    return ParkingLike(identity, tuple(SetVal(frozenset(b)) for b in blocks))


def blocks_to_pf(p: ParkingLike) -> ParkingFunction:
    """Inverse of pf_to_blocks (base must be the set species, chi identity)."""
    if not p.chi.is_identity:
        raise InvalidStructureError("blocks_to_pf needs the identity chi")
    pairs = []
    for i, s in enumerate(p.sequence, start=1):
        if not isinstance(s, SetVal):
            raise InvalidStructureError("blocks_to_pf needs set-species entries")
        pairs.extend((label, i) for label in s.labels)
    pf = ParkingFunction(tuple(pairs))
    if pf_to_blocks(pf) != p:
        raise InvalidStructureError("sequence length is not label count + 1")
    return pf
