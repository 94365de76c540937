"""The JSON form of a structure, built field by field as a dict tree.

It is the tests' independent oracle for the canonical text: serialize(s)
must equal json.dumps(to_jsonable(s), sort_keys=True, separators=(",", ":")),
and `enumerate --format json` must print json.dumps of the listing's forms.
"""

from parklike.structures import (
    AtomVal,
    ComposeVal,
    ParkingLike,
    ProdVal,
    SetVal,
    SumVal,
    TreeLike,
    UnitVal,
)


def to_jsonable(s):
    if isinstance(s, UnitVal):
        return {"k": "unit"}
    if isinstance(s, SetVal):
        return {"k": "set", "labels": sorted(s.labels)}
    if isinstance(s, AtomVal):
        return {"k": "atom", "label": s.label}
    if isinstance(s, SumVal):
        return {"k": "sum", "side": s.side, "in": to_jsonable(s.inner)}
    if isinstance(s, ProdVal):
        return {"k": "prod", "l": to_jsonable(s.left), "r": to_jsonable(s.right)}
    if isinstance(s, ComposeVal):
        return {
            "k": "comp",
            "outer": to_jsonable(s.outer),
            "blocks": [
                {"labels": sorted(block), "in": to_jsonable(inner)}
                for block, inner in s.blocks
            ],
        }
    if isinstance(s, ParkingLike):
        return {"chi": s.chi.key(), "seq": [to_jsonable(part) for part in s.sequence]}
    if isinstance(s, TreeLike):
        return {
            "root": to_jsonable(s.root),
            "children": [
                {"label": head, "subtree": to_jsonable(sub)} for head, sub in s.children
            ],
        }
    raise TypeError(f"not a structure: {s!r}")
