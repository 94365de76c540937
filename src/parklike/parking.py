"""Parking-like structures over an arbitrary base species.

For a non-decreasing map chi, a parking-like structure on a label set U of
size u is a sequence of chi(u+1) base structures whose underlying sets
(V_1, ..., V_{chi(u+1)}) are disjoint, cover U, and satisfy the parking
condition

    |V_1| + ... + |V_{chi(k)}|  >=  k        for every 1 <= k <= u.

With chi the identity and base the set species this is exactly the
preimage-sequence view of a classical parking function.  Generation follows
the recursive decomposition: peel off the first chi(1) slots as a power
structure on some non-empty subset (or on nothing, in the empty case) and
recurse on the rest with the shifted map rho_n(m) = chi(n+m) - chi(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .chi import ChiMap
from .errors import BlockLengthMismatchError, InvalidStructureError
from .expr import Park, Power, SpeciesExpr
from .structures import (
    UNIT,
    ProdVal,
    SetVal,
    from_jsonable,
    register_json_reader,
    serialize,  # unused here: bench/tracing.py patches this name
)


@dataclass(frozen=True, slots=True)
class ParkingLike:
    chi: ChiMap
    sequence: tuple  # tuple of Structure

    def __post_init__(self):
        if not isinstance(self.sequence, tuple):
            object.__setattr__(self, "sequence", tuple(self.sequence))

    def underlying(self) -> frozenset:
        out: frozenset = frozenset()
        for s in self.sequence:
            out |= s.underlying()
        return out

    def relabel(self, mapping) -> "ParkingLike":
        return ParkingLike(self.chi, tuple(s.relabel(mapping) for s in self.sequence))

    def to_jsonable(self):
        return {"chi": self.chi.key(), "seq": [s.to_jsonable() for s in self.sequence]}


def _parking_from_jsonable(data) -> ParkingLike:
    chi = ChiMap.from_string(data["chi"])
    seq = tuple(from_jsonable(s) for s in data["seq"])
    return ParkingLike(chi, seq)


register_json_reader("parking", _parking_from_jsonable)


def flatten_power(s, k: int) -> tuple:
    """Split a k-fold power structure (nested pairs ending in unit) into a tuple."""
    out = []
    for _ in range(k):
        if not isinstance(s, ProdVal):
            raise InvalidStructureError(f"expected a {k}-fold power structure")
        out.append(s.left)
        s = s.right
    if s != UNIT:
        raise InvalidStructureError(f"expected a {k}-fold power structure")
    return tuple(out)


def generate_parking_raw(gen, base: SpeciesExpr, chi: ChiMap, labels: frozenset) -> list:
    """All parking-like structures over base on labels (construction order).

    Used by Generator dispatch; callers wanting sorted output should go
    through Generator.generate on a Park expression.
    """
    u = len(labels)
    k1 = chi(1)
    power = Power(base, k1)
    out = []
    if u == 0:
        for pw in gen._gen(power, labels):
            out.append(ParkingLike(chi, flatten_power(pw, k1)))
        return out
    items = sorted(labels)
    for n in range(1, u + 1):
        rho = chi.shift(n)
        tail_expr = Park(base, rho)
        for combo in combinations(items, n):
            first = frozenset(combo)
            heads = gen._gen(power, first)
            if not heads:
                continue
            tails = gen._gen(tail_expr, labels - first)
            if not tails:
                continue
            for pw in heads:
                prefix = flatten_power(pw, k1)
                for tail in tails:
                    out.append(ParkingLike(chi, prefix + tail.sequence))
    return out


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


def validate_parking(p: ParkingLike, base: SpeciesExpr | None = None, gen=None) -> bool:
    """Check the structural invariants; raises InvalidStructureError if broken.

    With a base species (and optionally a Generator), also checks each entry
    is genuinely a base structure on its underlying set.
    """
    seen: set = set()
    sets = []
    for s in p.sequence:
        v = s.underlying()
        if v & seen:
            raise InvalidStructureError("slot underlying sets are not disjoint")
        seen |= v
        sets.append(v)
    u = len(seen)
    if len(p.sequence) != p.chi(u + 1):
        raise InvalidStructureError(
            f"sequence length {len(p.sequence)} != chi(u+1) = {p.chi(u + 1)}"
        )
    if not is_parking_blocks([len(v) for v in sets], p.chi, u):
        raise InvalidStructureError("block sizes violate the parking condition")
    tail_start = p.chi(u) if u >= 1 else 0
    for i in range(tail_start, len(sets)):
        if sets[i]:
            raise InvalidStructureError(f"slot {i + 1} should be empty")
    if base is not None:
        if gen is None:
            from .generate import Generator

            gen = Generator()
        for s, v in zip(p.sequence, sets):
            if not gen.contains(base, s):
                raise InvalidStructureError(
                    f"entry on {sorted(v)} is not a base-species structure"
                )
    return True


@dataclass(frozen=True)
class ParkingFunction:
    """A map from labels to positive slot numbers satisfying the classical
    condition: at least k labels map into the first k slots, for every k."""

    mapping: tuple  # tuple of (label, slot) pairs sorted by label

    def __post_init__(self):
        pairs = self.mapping
        if isinstance(pairs, dict):
            pairs = pairs.items()
        object.__setattr__(self, "mapping", tuple(sorted(pairs)))

    @property
    def domain(self) -> frozenset:
        return frozenset(l for l, _ in self.mapping)

    def as_dict(self) -> dict:
        return dict(self.mapping)

    def __call__(self, label: int) -> int:
        return self.as_dict()[label]


def validate_parking_function(pf: ParkingFunction) -> bool:
    n = len(pf.mapping)
    if len(pf.domain) != n:
        raise InvalidStructureError("duplicate labels in parking function")
    slots = sorted(slot for _, slot in pf.mapping)
    for k, slot in enumerate(slots, start=1):
        if slot < 1:
            raise InvalidStructureError(f"slot {slot} is not positive")
        if slot > k:
            raise InvalidStructureError(
                f"only {k - 1} labels in the first {slot - 1} slots"
            )
    return True


def pf_to_blocks(pf: ParkingFunction) -> ParkingLike:
    """The preimage-sequence view: slot i holds the set of labels mapped to i."""
    validate_parking_function(pf)
    n = len(pf.mapping)
    blocks = [set() for _ in range(n + 1)]
    for label, slot in pf.mapping:
        blocks[slot - 1].add(label)
    return ParkingLike(
        ChiMap.identity(), tuple(SetVal(frozenset(b)) for b in blocks)
    )


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
    validate_parking_function(pf)
    if len(p.sequence) != len(pairs) + 1:
        raise InvalidStructureError("sequence length is not label count + 1")
    return pf
