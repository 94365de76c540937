"""Concrete structures and the generic operations on them.

A structure is a finite labeled object built from six core shapes:

    UnitVal                     the empty structure (species 1)
    SetVal(labels)              a bare set (species E and E+)
    AtomVal(label)              a single label (species X)
    SumVal(side, inner)         a tagged alternative ("L" or "R")
    ProdVal(left, right)        an ordered pair on disjoint label sets
    ComposeVal(outer, blocks)   a partition into non-empty blocks, an inner
                                structure per block, and an outer structure
                                on the block representatives

The representative of a block is its minimum label; ComposeVal keeps blocks
sorted by representative so every structure has exactly one form.  Every
value — including the parking-like and tree-like values defined elsewhere —
implements the same small protocol: underlying(), relabel(mapping) and
to_jsonable().  Generation never relabels: it builds each label set from
shared sub-results.  relabel serves membership tests, validation, the
tree unfolding and the functoriality checks.

Serialization is canonical JSON (sorted keys, no spaces), so structures are
equal iff their serializations are byte-equal; enumeration order everywhere
is lexicographic on that string.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Union

from .errors import InvalidStructureError, SpeciesError

_EMPTY = frozenset()


@dataclass(frozen=True, slots=True)
class UnitVal:
    def underlying(self) -> frozenset:
        return _EMPTY

    def relabel(self, mapping) -> "UnitVal":
        return self

    def to_jsonable(self):
        return {"k": "unit"}


@dataclass(frozen=True, slots=True)
class SetVal:
    labels: frozenset

    def __post_init__(self):
        if not isinstance(self.labels, frozenset):
            object.__setattr__(self, "labels", frozenset(self.labels))

    def underlying(self) -> frozenset:
        return self.labels

    def relabel(self, mapping) -> "SetVal":
        return SetVal(frozenset(map(mapping.__getitem__, self.labels)))

    def to_jsonable(self):
        return {"k": "set", "labels": sorted(self.labels)}


@dataclass(frozen=True, slots=True)
class AtomVal:
    label: int

    def underlying(self) -> frozenset:
        return frozenset((self.label,))

    def relabel(self, mapping) -> "AtomVal":
        return AtomVal(mapping[self.label])

    def to_jsonable(self):
        return {"k": "atom", "label": self.label}


@dataclass(frozen=True, slots=True)
class SumVal:
    side: str  # "L" or "R"
    inner: "Structure"

    def __post_init__(self):
        if self.side not in ("L", "R"):
            raise InvalidStructureError(f"sum side must be 'L' or 'R', got {self.side!r}")

    def underlying(self) -> frozenset:
        return self.inner.underlying()

    def relabel(self, mapping) -> "SumVal":
        return SumVal(self.side, self.inner.relabel(mapping))

    def to_jsonable(self):
        return {"k": "sum", "side": self.side, "in": self.inner.to_jsonable()}


@dataclass(frozen=True, slots=True)
class ProdVal:
    left: "Structure"
    right: "Structure"

    def underlying(self) -> frozenset:
        return self.left.underlying() | self.right.underlying()

    def relabel(self, mapping) -> "ProdVal":
        return ProdVal(self.left.relabel(mapping), self.right.relabel(mapping))

    def to_jsonable(self):
        return {"k": "prod", "l": self.left.to_jsonable(), "r": self.right.to_jsonable()}


@dataclass(frozen=True, slots=True)
class ComposeVal:
    outer: "Structure"
    blocks: tuple  # tuple of (frozenset, Structure), sorted by min label

    def __post_init__(self):
        blocks = self.blocks
        if not isinstance(blocks, tuple) or not all(
            isinstance(b, frozenset) for b, _ in blocks
        ):
            blocks = tuple(
                (b if isinstance(b, frozenset) else frozenset(b), s)
                for b, s in blocks
            )
            object.__setattr__(self, "blocks", blocks)
        if any(not b for b, _ in blocks):
            raise InvalidStructureError("composition blocks must be non-empty")
        mins = [min(b) for b, _ in blocks]
        if any(mins[i] > mins[i + 1] for i in range(len(mins) - 1)):
            object.__setattr__(
                self, "blocks", tuple(sorted(blocks, key=lambda p: min(p[0])))
            )

    def underlying(self) -> frozenset:
        out = _EMPTY
        for block, _inner in self.blocks:
            out |= block
        return out

    def relabel(self, mapping) -> "ComposeVal":
        # Representatives may change under non-monotone mappings, so the
        # outer structure is transported old-representative -> new one.
        new_blocks = []
        rep_map = {}
        for block, inner in self.blocks:
            new_block = frozenset(map(mapping.__getitem__, block))
            rep_map[min(block)] = min(new_block)
            new_blocks.append((new_block, inner.relabel(mapping)))
        return ComposeVal(self.outer.relabel(rep_map), tuple(new_blocks))

    def to_jsonable(self):
        return {
            "k": "comp",
            "outer": self.outer.to_jsonable(),
            "blocks": [
                {"labels": sorted(block), "in": inner.to_jsonable()}
                for block, inner in self.blocks
            ],
        }


Structure = Union[UnitVal, SetVal, AtomVal, SumVal, ProdVal, ComposeVal]

UNIT = UnitVal()


def serialize(s) -> str:
    """Canonical serialization: sorted keys, no whitespace."""
    return json.dumps(s.to_jsonable(), sort_keys=True, separators=(",", ":"))


# Values defined in other modules (parking-like sequences, tree-like trees)
# hook their parsers in here; see register_json_reader.
_JSON_READERS: dict = {}


def register_json_reader(shape: str, reader: Callable) -> None:
    _JSON_READERS[shape] = reader


def from_jsonable(data) -> "Structure":
    """Inverse of to_jsonable; raises InvalidStructureError on bad input."""
    if not isinstance(data, dict):
        raise InvalidStructureError(f"expected a JSON object, got {type(data).__name__}")
    kind = data.get("k")
    try:
        if kind == "unit":
            return UNIT
        if kind == "set":
            return SetVal(frozenset(_label(l) for l in data["labels"]))
        if kind == "atom":
            return AtomVal(_label(data["label"]))
        if kind == "sum":
            return SumVal(data["side"], from_jsonable(data["in"]))
        if kind == "prod":
            return ProdVal(from_jsonable(data["l"]), from_jsonable(data["r"]))
        if kind == "comp":
            blocks = tuple(
                (frozenset(_label(l) for l in b["labels"]), from_jsonable(b["in"]))
                for b in data["blocks"]
            )
            return ComposeVal(from_jsonable(data["outer"]), blocks)
        if kind is None:
            if "chi" in data and "seq" in data and "parking" in _JSON_READERS:
                return _JSON_READERS["parking"](data)
            if "root" in data and "children" in data and "treelike" in _JSON_READERS:
                return _JSON_READERS["treelike"](data)
    except (KeyError, TypeError) as exc:
        raise InvalidStructureError(f"malformed structure JSON: {exc}") from exc
    raise InvalidStructureError(f"unrecognized structure JSON: {data!r}")


def _label(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidStructureError(f"labels must be integers, got {value!r}")
    return value


def deserialize(text: str) -> "Structure":
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidStructureError(f"bad JSON: {exc}") from exc
    return from_jsonable(data)


# -- label-set helpers -------------------------------------------------------


def canonical_labels(n: int) -> frozenset:
    """The canonical label set [n] = {1, ..., n}."""
    if n < 0:
        raise SpeciesError(f"label count must be >= 0, got {n}")
    return frozenset(range(1, n + 1))


def order_isomorphism(src, dst) -> dict:
    """The unique order-preserving bijection between two equal-size sets."""
    src_sorted, dst_sorted = sorted(src), sorted(dst)
    if len(src_sorted) != len(dst_sorted):
        raise InvalidStructureError(
            f"label sets differ in size: {len(src_sorted)} vs {len(dst_sorted)}"
        )
    return dict(zip(src_sorted, dst_sorted))
