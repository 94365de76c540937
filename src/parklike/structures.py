"""Concrete structures and the generic operations on them.

A structure is a finite labeled object of one of eight shapes:

    UnitVal                     the empty structure (species 1)
    SetVal(labels)              a bare set (species E and E+)
    AtomVal(label)              a single label (species X)
    SumVal(side, inner)         a tagged alternative ("L" or "R")
    ProdVal(left, right)        an ordered pair on disjoint label sets
    ComposeVal(outer, blocks)   a partition into non-empty blocks, an inner
                                structure per block, and an outer structure
                                on the block representatives
    ParkingLike(chi, sequence)  a slot sequence of base structures (park)
    TreeLike(root, children)    a base structure on the head labels and a
                                subtree per head, sorted by head (tree)

The representative of a block is its minimum label; ComposeVal keeps blocks
sorted by representative so every structure has exactly one form.

Values are Frozen (frozen.py): slotted classes whose base states the value
protocol once.  Each class's own __init__ first normalises and checks its
arguments (a set becomes a frozenset, a sequence a tuple, blocks and children
are sorted), then fills the slots through the slot descriptors' setters,
bound once after the classes, since Frozen's __setattr__ refuses every
assignment.  Equality (same class, equal fields), hashing and the repr
Name(field=value, ...) are Frozen's, except TreeLike's, which loop over its
nodes, and assigning to a field of a built value raises FrozenInstanceError.

Every value implements the same small protocol: underlying() and
relabel(mapping).  Generation never relabels: it builds each label set from
shared sub-results, and membership (membership.py) reads each value on its
own labels.  relabel serves the tree unfolding and the functoriality checks.
No walk of a TreeLike recurses per level: each reads TreeLike.nodes(), and
the tree JSON reader walks its input in the same breadth-first order.

Serialization is canonical JSON (sorted keys, no spaces), so structures are
equal iff their serializations are byte-equal; enumeration order everywhere
is lexicographic on that string.  _PIECES spells each kind's text once, and
serialize and the writers of both styles (WRITERS: canonical, and spaced as
json.dumps spaces by default, which `enumerate --format json` prints) are
built from it.  The writers write a text from the texts of its parts, with
no value at all: generate's text fold lists with them, so `enumerate` builds
and serializes no structure.  This module is the one writer of the format
and, by read_json, the one reader of JSON text: each document is decoded
once, at any depth.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache, partial
from types import SimpleNamespace

from .chi import ChiMap
from .dsl import parse_chi_text
from .errors import InvalidStructureError, ParseError, SpeciesError, shown
from .frozen import Frozen

_EMPTY = frozenset()


class UnitVal(Frozen):
    __slots__ = ()

    def underlying(self) -> frozenset:
        return _EMPTY

    def relabel(self, mapping) -> "UnitVal":
        return self


class SetVal(Frozen):
    __slots__ = ("labels",)

    def __init__(self, labels):
        _set_labels(self, labels if isinstance(labels, frozenset) else frozenset(labels))

    def underlying(self) -> frozenset:
        return self.labels

    def relabel(self, mapping) -> "SetVal":
        return SetVal(frozenset(map(mapping.__getitem__, self.labels)))


class AtomVal(Frozen):
    __slots__ = ("label",)

    def __init__(self, label):
        _atom_label(self, label)

    def underlying(self) -> frozenset:
        return frozenset((self.label,))

    def relabel(self, mapping) -> "AtomVal":
        return AtomVal(mapping[self.label])


class SumVal(Frozen):
    __slots__ = ("side", "inner")  # side: "L" or "R"

    def __init__(self, side, inner):
        if side not in ("L", "R"):
            raise InvalidStructureError(f"sum side must be 'L' or 'R', got {side!r}")
        _sum_side(self, side)
        _sum_inner(self, inner)

    def underlying(self) -> frozenset:
        return self.inner.underlying()

    def relabel(self, mapping) -> "SumVal":
        return SumVal(self.side, self.inner.relabel(mapping))


class ProdVal(Frozen):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        _prod_left(self, left)
        _prod_right(self, right)

    def underlying(self) -> frozenset:
        return self.left.underlying() | self.right.underlying()

    def relabel(self, mapping) -> "ProdVal":
        return ProdVal(self.left.relabel(mapping), self.right.relabel(mapping))


class ComposeVal(Frozen):
    __slots__ = ("outer", "blocks")  # blocks: (frozenset, Structure) pairs, sorted by min label

    def __init__(self, outer, blocks):
        if not isinstance(blocks, tuple) or not all(
            isinstance(b, frozenset) for b, _ in blocks
        ):
            blocks = tuple(
                (b if isinstance(b, frozenset) else frozenset(b), s)
                for b, s in blocks
            )
        if any(not b for b, _ in blocks):
            raise InvalidStructureError("composition blocks must be non-empty")
        mins = [min(b) for b, _ in blocks]
        if mins != sorted(mins):
            blocks = tuple(sorted(blocks, key=lambda p: min(p[0])))
        _compose_outer(self, outer)
        _compose_blocks(self, blocks)

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


class ParkingLike(Frozen):
    __slots__ = ("chi", "sequence")  # sequence: a tuple of Structure

    def __init__(self, chi, sequence):
        _parking_chi(self, chi)
        _parking_sequence(self, sequence if isinstance(sequence, tuple) else tuple(sequence))

    def underlying(self) -> frozenset:
        out: frozenset = frozenset()
        for s in self.sequence:
            out |= s.underlying()
        return out

    def relabel(self, mapping) -> "ParkingLike":
        return ParkingLike(self.chi, tuple(s.relabel(mapping) for s in self.sequence))


class TreeLike(Frozen):
    # root: a base structure on the set of head labels; children: a tuple of
    # (head label, TreeLike) pairs, sorted by label.
    __slots__ = ("root", "children")

    def __init__(self, root, children):
        if type(children) is not tuple:
            children = tuple(children)
        # Generation and order-preserving relabeling already build these
        # sorted, so only pay for a sort when the order is actually broken.
        # By head alone: validate_tree names a head listed twice.
        if len(children) > 1:
            prev = children[0][0]
            for pair in children:
                head = pair[0]
                if head < prev:
                    children = tuple(sorted(children, key=lambda pair: pair[0]))
                    break
                prev = head
        _tree_root(self, root)
        _tree_children(self, children)

    @property
    def heads(self) -> frozenset:
        return self.root.underlying()

    def child(self, label: int) -> "TreeLike":
        for head, sub in self.children:
            if head == label:
                return sub
        raise KeyError(label)

    def nodes(self) -> list:
        """Every node, each after its parent: breadth-first, children in head
        order.  A loop over the growing list, not one interpreter frame per
        level (a tree nests one level per label); reversed, children come first."""
        nodes = [self]
        for node in nodes:
            nodes.extend([sub for _head, sub in node.children])
        return nodes

    # Equality and hash read nodes() too, and repr is a loop, so none of them
    # takes a frame per level.  Trees are equal iff their nodes, in nodes()
    # order, have equal roots and equal child heads.
    def _shape(self) -> list:
        return [(node.root, tuple([head for head, _sub in node.children])) for node in self.nodes()]

    def __eq__(self, other):
        if other.__class__ is not TreeLike:
            return NotImplemented
        return self is other or self._shape() == other._shape()

    def __hash__(self):
        return hash(tuple(self._shape()))

    def __repr__(self) -> str:
        """Frozen's text, written from a stack of pieces and subtrees."""
        out, stack = [], [self]
        while stack:
            item = stack.pop()
            if type(item) is str:
                out.append(item)
                continue
            pieces = [f"TreeLike(root={item.root!r}, children=("]
            for i, (head, sub) in enumerate(item.children):
                pieces += [", " if i else "", f"({head!r}, ", sub, ")"]
            pieces.append(",))" if len(item.children) == 1 else "))")
            stack.extend(reversed(pieces))
        return "".join(out)

    def underlying(self) -> frozenset:
        return frozenset().union(*[node.root.underlying() for node in self.nodes()])

    def relabel(self, mapping) -> "TreeLike":
        moved = {}  # id(node) -> its relabeled copy, children before parents
        for node in reversed(self.nodes()):
            moved[id(node)] = TreeLike(
                node.root.relabel(mapping),
                tuple([(mapping[head], moved[id(sub)]) for head, sub in node.children]),
            )
        return moved[id(self)]


# The slot setters the constructors fill values through (see the module doc).
_set_labels = SetVal.labels.__set__
_atom_label = AtomVal.label.__set__
_sum_side, _sum_inner = SumVal.side.__set__, SumVal.inner.__set__
_prod_left, _prod_right = ProdVal.left.__set__, ProdVal.right.__set__
_compose_outer, _compose_blocks = ComposeVal.outer.__set__, ComposeVal.blocks.__set__
_parking_chi, _parking_sequence = ParkingLike.chi.__set__, ParkingLike.sequence.__set__
_tree_root, _tree_children = TreeLike.root.__set__, TreeLike.children.__set__

Structure = UnitVal | SetVal | AtomVal | SumVal | ProdVal | ComposeVal | ParkingLike | TreeLike

UNIT = UnitVal()


# -- the canonical format ------------------------------------------------------
#
# _PIECES holds the literal pieces of each kind's text, keys in sorted order: a
# value's text is its kind's pieces with the texts of its parts between them.
# A sum's side and a chi key are parts, quoted as they are (neither needs an
# escape), and the pieces' own strings (keys and kinds) hold no "," or ":", so
# _SPACED, the pieces with json.dumps's default ", " and ": ", spaces them
# outside strings only (a chi key such as affine(2,0) keeps its comma).
# Spacing adds a space after a separator and nothing else, so two texts first
# differ at the same pair of characters in either style: sorted, spaced texts
# come in the compact order.
_PIECES = {
    ",": (",",),  # between the items of a list
    "labels": (',"labels":[', "]"),
    "unit": ('{"k":"unit"}',),
    "set": ('{"k":"set"', "}"),  # labels
    "atom": ('{"k":"atom","label":', "}"),  # label
    "sum": ('{"in":', ',"k":"sum","side":', "}"),  # inner, side
    "prod": ('{"k":"prod","l":', ',"r":', "}"),  # left, right
    "comp": ('{"blocks":[', '],"k":"comp","outer":', "}"),  # blocks, outer
    "block": ('{"in":', "}"),  # inner, labels
    "park": ('{"chi":', ',"seq":[', "]}"),  # chi key, slots
    "tree": ('{"children":[', '],"root":', "}"),  # children, root
    "child": ('{"label":', ',"subtree":', "}"),  # head, subtree
}
_SPACED = {
    kind: tuple(p.replace(",", ", ").replace(":", ": ") for p in pieces) for kind, pieces in _PIECES.items()
}


def _writers(p: dict) -> SimpleNamespace:
    """The writers of the style of the pieces p, the makes of generate.py's
    text fold: each writes, from the texts of the parts, the text of the
    value the list fold makes of them.  A make is a template or a function.
    A term takes its factors in the order its text takes them, so every
    writer of fixed arity is a template (_template), joined in C: prod, each
    side of sum, the composition of one partition and the tree of one head
    set, and the park lines, whose factors are the heads' and tails' slot
    sequences, each joined by joined.  power and slots, which walk chains of
    any length, stay functions.  A power's factors come as chains, (first
    text, chain of the others), the product's own pairs (link is None), so
    its text is joined once; a slot sequence is a flat tuple of slot texts,
    so a kept tail shares them.  text is serialize's table: per structure
    type, a value's pieces and the parts whose texts go between them."""
    (sep,), (l0, l1), (unit,), (s0, s1), (a0, a1) = p[","], p["labels"], p["unit"], p["set"], p["atom"]
    (u0, u1, u2), (p0, p1, p2), (c0, c1, c2), (b0, b1) = p["sum"], p["prod"], p["comp"], p["block"]
    (k0, k1, k2), (t0, t1, t2), (h0, h1, h2) = p["park"], p["tree"], p["child"]

    def labels(values) -> str:
        return f"{l0}{sep.join(map(str, sorted(values)))}{l1}"

    @lru_cache(maxsize=128)
    def head(chi) -> str:
        """A parking-like text up to its first slot, once per chi map."""
        return f'{k0}"{chi.key()}"{k1}'

    def power(chain) -> str:
        """The text of the products nested to the right that a chain stands for."""
        pieces = []
        while type(chain) is tuple:
            left, chain = chain
            pieces += (p0, left, p1)
        pieces += (chain, p2 * (len(pieces) // 3))
        return "".join(pieces)

    def slots(chain) -> tuple:
        """The texts of a chain's factors, as a slot sequence."""
        texts = []
        while type(chain) is tuple:
            left, chain = chain
            texts.append(left)
        return tuple(texts)

    def park(chi) -> tuple:
        """The templates of park(., chi)'s texts from the first heads' slots
        joined, and from them and the tails' slots joined."""
        start = head(chi)
        return _template(f"{start}\0{k2}"), _template(f"{start}\0{sep}\0{k2}")

    def compose_text(v):
        yield c0
        for i, (block, inner) in enumerate(v.blocks):
            yield sep + b0 if i else b0
            yield inner
            yield labels(block) + b1
        yield c1
        yield v.outer
        yield c2

    def tree_text(v):
        yield t0
        for i, (label, sub) in enumerate(v.children):
            yield f"{sep if i else ''}{h0}{label}{h1}"
            yield sub
            yield h2
        yield t1
        yield v.root
        yield t2

    sides = {side: _template(f'{u0}\0{u1}"{side}"{u2}') for side in "LR"}
    w = SimpleNamespace(
        unit=lambda: unit, atom=lambda label: f"{a0}{label}{a1}",
        set=lambda values: f"{s0}{labels(values)}{s1}", sum=sides.__getitem__,
        prod=_template(f"{p0}\0{p1}\0{p2}"),
        compose=lambda sets: _template(
            c0 + sep.join([f"{b0}\0{labels(b)}{b1}" for b in sets]) + f"{c1}\0{c2}"),
        tree=lru_cache(maxsize=1024)(  # once per head set (a sorted tuple), as head per chi
            lambda heads: _template(t0 + sep.join([f"{h0}{h}{h1}\0{h2}" for h in heads]) + f"{t1}\0{t2}")),
        link=None, power=power, slots=slots, park=park, joined=partial(map, sep.join),
    )
    w.text = {
        UnitVal: lambda v: (unit,),
        SetVal: lambda v: (f"{s0}{labels(v.labels)}{s1}",),
        AtomVal: lambda v: (f"{a0}{v.label}{a1}",),
        SumVal: lambda v: (u0, v.inner, f'{u1}"{v.side}"{u2}'),
        ProdVal: lambda v: (p0, v.left, p1, v.right, p2),
        ComposeVal: compose_text,
        ParkingLike: lambda v: (head(v.chi), *_between(sep, v.sequence), k2),
        TreeLike: tree_text,
    }
    return w


def _template(text: str) -> tuple:
    """A writer as a template, from its text with a NUL in the place of each
    factor (no piece holds one): the constant pieces, each a one-element
    factor, with None between them, where generate._listing puts the
    factors, in order, to join each choice of them into the text."""
    return tuple(_between(None, [(piece,) for piece in text.split("\0")]))


def _between(sep, items) -> list:
    """The items with sep between every two of them."""
    out = [sep] * (2 * len(items) - 1)
    out[::2] = items
    return out


WRITERS = {False: _writers(_PIECES), True: _writers(_SPACED)}  # by whether spaced
_TEXT = WRITERS[False].text


def serialize(s) -> str:
    """Canonical serialization: sorted keys, no whitespace.

    The text is json.dumps(..., sort_keys=True, separators=(",", ":")) of the
    value's JSON form (the one from_jsonable reads), written as one list of
    pieces and joined once.  The walk is a loop over a stack of iterators
    over _TEXT pieces, not recursion, so nesting depth costs no interpreter
    frames.
    """
    pieces = []
    stack = [iter(_TEXT[type(s)](s))]
    while stack:
        for piece in stack[-1]:
            if type(piece) is str:
                pieces.append(piece)
                continue
            stack.append(iter(_TEXT[type(piece)](piece)))
            break
        else:
            stack.pop()
    return "".join(pieces)


def from_jsonable(data) -> "Structure":
    """The structure a JSON value stands for, the inverse of
    json.loads(serialize(s)); raises InvalidStructureError on bad input."""
    if not isinstance(data, dict):
        raise InvalidStructureError(f"expected a JSON object, got {type(data).__name__}")
    kind = data.get("k")
    try:
        if kind == "unit":
            return UNIT
        if kind == "set":
            return SetVal(_labels(data["labels"]))
        if kind == "atom":
            return AtomVal(_label(data["label"]))
        if kind == "sum":
            return SumVal(data["side"], from_jsonable(data["in"]))
        if kind == "prod":
            return ProdVal(from_jsonable(data["l"]), from_jsonable(data["r"]))
        if kind == "comp":
            blocks = tuple((_labels(b["labels"]), from_jsonable(b["in"])) for b in data["blocks"])
            blocks = _array(data["blocks"], "blocks", blocks)
            return ComposeVal(from_jsonable(data["outer"]), blocks)
        if kind is None:
            if "chi" in data and "seq" in data:
                chi = _chi(data["chi"])
                return ParkingLike(chi, _array(data["seq"], "seq", tuple(map(from_jsonable, data["seq"]))))
            if "root" in data and "children" in data:
                return _tree_from_jsonable(data)
    except (KeyError, TypeError) as exc:
        raise InvalidStructureError(f"malformed structure JSON: {exc}") from exc
    raise InvalidStructureError(f"unrecognized structure JSON: {shown(data)}")


def _chi(text) -> ChiMap:
    if not isinstance(text, str):
        raise InvalidStructureError(f"not a chi map: {shown(text)}")
    try:
        return parse_chi_text(text)
    except ParseError as exc:
        raise InvalidStructureError(f"not a chi map: {shown(text)}: {exc}") from exc


def _tree_from_jsonable(data) -> TreeLike:
    nodes = [data]  # the JSON of every node, each after its parent, as nodes()
    for node in nodes:
        nodes.extend(_array(node["children"], "children", [child["subtree"] for child in node["children"]]))
    built = {}  # id(node JSON) -> its TreeLike, children before parents
    for node in reversed(nodes):
        built[id(node)] = TreeLike(
            from_jsonable(node["root"]),
            [(_label(child["label"]), built[id(child["subtree"])]) for child in node["children"]],
        )
    return built[id(data)]


def _label(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidStructureError(f"labels must be integers, got {shown(value)}")
    return value


def _labels(values) -> frozenset:
    labels = _array(values, "labels", frozenset(map(_label, values)))
    if len(labels) != len(values):
        raise InvalidStructureError(f"labels must be distinct, got {shown(values)}")
    return labels


def _array(values, key, items):
    """items, once read from values, if values (the JSON at key) is an array."""
    if not isinstance(values, list):
        raise InvalidStructureError(f"{key} must be an array, got {shown(values)}")
    return items


def deserialize(text: str) -> "Structure":
    """The structure of a text holding one JSON document, in any layout."""
    try:
        documents = read_json(text)
    except json.JSONDecodeError as exc:
        raise InvalidStructureError(f"bad JSON: {exc}") from exc
    if len(documents) != 1:
        raise InvalidStructureError(f"bad JSON: expected one document, got {len(documents)}")
    return from_jsonable(documents[0])


_DECODER = json.JSONDecoder()
_blank = re.compile(r"[ \t\n\r]*").match


def read_json(text: str) -> list:
    """The values of the JSON documents in text, each starting on a new line:
    one document in any layout, or JSON Lines.  Each is decoded once, by
    raw_decode, or by _read_deep if it nests too deeply for raw_decode.
    Raises json.JSONDecodeError, with line and column in the whole text."""
    documents, i = [], _blank(text).end()
    while i < len(text):
        try:
            value, end = _DECODER.raw_decode(text, i)
        except RecursionError:
            value, end = _read_deep(text, i)
        documents.append(value)
        i = _blank(text, end).end()
        if i < len(text) and "\n" not in text[end:i]:
            raise json.JSONDecodeError("Extra data", text, i)
    return documents


def _read_deep(text: str, i: int):
    """raw_decode's (value, end), by a loop: arrays and objects go on an
    explicit stack, and raw_decode reads the scalars and keys."""
    stack = []  # each open container as [its closing bracket, its items]
    while True:  # i is at a value, or at a key where an object has even items
        if stack and stack[-1][0] == "}" and not len(stack[-1][1]) % 2 and text[i : i + 1] != '"':
            raise json.JSONDecodeError("Expecting property name enclosed in double quotes", text, i)
        if text.startswith("[", i) or text.startswith("{", i):
            stack.append(["]" if text[i] == "[" else "}", []])
            i = _blank(text, i + 1).end()
            if not text.startswith(stack[-1][0], i):
                continue
            value, i = [] if stack.pop()[0] == "]" else {}, i + 1
        else:
            value, i = _DECODER.raw_decode(text, i)
        while stack:  # place the value; close what it completes
            closer, items = stack[-1]
            items.append(value)
            i = _blank(text, i).end()
            after = ":" if closer == "}" and len(items) % 2 else ","  # after a key, or an item
            if text.startswith(after, i):
                i = _blank(text, i + 1).end()
                break
            if after == ":" or not text.startswith(closer, i):
                raise json.JSONDecodeError(f"Expecting '{after}' delimiter", text, i)
            stack.pop()
            value, i = items if closer == "]" else dict(zip(items[::2], items[1::2])), i + 1
        else:
            return value, i


# -- label-set helpers -------------------------------------------------------


def canonical_labels(n: int) -> frozenset:
    """The canonical label set [n] = {1, ..., n}."""
    if n < 0:
        raise SpeciesError(f"label count must be >= 0, got {n}")
    return frozenset(range(1, n + 1))

