"""Seeded `biject` input documents, built without importing the library.

Parking-like documents come from uniform random parking functions (Pollak's
circular argument); tree-like documents come from uniform random rooted
forests (Pruefer sequences of trees on {0..n} rooted at 0).  Each slot or
node then gets a random base structure: a set for E, a shuffled order for L,
a random partition for Par.  Documents are written in the canonical JSON form
(sorted keys, no spaces), so a correct round trip returns the same bytes.

The JSON shapes are the documented structure forms (README "Structures are
plain immutable values with one canonical JSON form"); writing them here by
hand keeps the benchmark's inputs independent of the code under test.
"""

from __future__ import annotations

import json
import random

BASES = ("E", "L", "Par")

# Slots and nodes of L and Par documents hold at most this many labels (about
# 2% of uniform 40-label documents have a larger one and are redrawn).  The
# validation `biject` runs today lists every base structure on a slot's label
# set (k! orders, Bell(k) partitions): one 6-label L slot costs about 100 ms,
# so how many of them a seed happens to draw would decide its time.  E slots
# are unbounded: they have one candidate each.
MAX_BLOCK = {"E": None, "L": 5, "Par": 5}


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def parking_function(rng: random.Random, n: int) -> list:
    """A uniform parking function on cars 1..n, as the list of their slots.

    Pollak: n cars with uniform preferences on a circle of n+1 spots leave
    exactly one spot empty; rotating so that spot comes last gives each
    parking function from exactly n+1 preference sequences.
    """
    spots = n + 1
    prefs = [rng.randrange(spots) for _ in range(n)]
    taken = [False] * spots
    for p in prefs:
        while taken[p]:
            p = (p + 1) % spots
        taken[p] = True
    empty = taken.index(False)
    return [(p - empty - 1) % spots + 1 for p in prefs]


def forest_children(rng: random.Random, n: int) -> list:
    """A uniform rooted forest on 1..n: children[v] for v in 0..n, 0 = virtual root.

    Rooted forests on n labels are trees on {0..n} rooted at 0, and the
    Pruefer sequence of such a tree is uniform on {0..n}^(n-1).
    """
    children = [[] for _ in range(n + 1)]
    if n == 0:
        return children
    seq = [rng.randrange(n + 1) for _ in range(n - 1)]
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n + 1) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (x for x in range(n + 1) if degree[x] == 1)
    edges.append((u, w))
    adjacent = [[] for _ in range(n + 1)]
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in adjacent[v]:
            if u not in seen:
                seen.add(u)
                children[v].append(u)
                stack.append(u)
    for c in children:
        c.sort()
    return children


def base_structure(base: str, labels, rng: random.Random) -> dict:
    labels = sorted(labels)
    if base == "E":
        return {"k": "set", "labels": labels}
    if base == "L":
        order = labels[:]
        rng.shuffle(order)
        doc = {"k": "sum", "side": "L", "in": {"k": "unit"}}
        for label in reversed(order):
            doc = {
                "k": "sum",
                "side": "R",
                "in": {"k": "prod", "l": {"k": "atom", "label": label}, "r": doc},
            }
        return doc
    if base == "Par":
        blocks: list = []
        shuffled = labels[:]
        rng.shuffle(shuffled)
        for label in shuffled:
            i = rng.randrange(len(blocks) + 1)
            if i == len(blocks):
                blocks.append([label])
            else:
                blocks[i].append(label)
        blocks = sorted(sorted(b) for b in blocks)
        return {
            "k": "comp",
            "outer": {"k": "set", "labels": [b[0] for b in blocks]},
            "blocks": [{"labels": b, "in": {"k": "set", "labels": b}} for b in blocks],
        }
    raise ValueError(f"unknown base {base!r}")


def _slots(pf: list) -> list:
    slots = [[] for _ in range(len(pf) + 1)]
    for car, slot in enumerate(pf, start=1):
        slots[slot - 1].append(car)
    return slots


def _fits(base: str, groups) -> bool:
    cap = MAX_BLOCK[base]
    return cap is None or max(map(len, groups)) <= cap


def parking_doc(base: str, n: int, rng: random.Random) -> dict:
    while True:
        slots = _slots(parking_function(rng, n))
        if _fits(base, slots):
            break
    return {"chi": "id", "seq": [base_structure(base, s, rng) for s in slots]}


def tree_doc(base: str, n: int, rng: random.Random) -> dict:
    while True:
        children = forest_children(rng, n)
        if _fits(base, children):
            break

    def node(v):
        return {
            "root": base_structure(base, children[v], rng),
            "children": [{"label": c, "subtree": node(c)} for c in children[v]],
        }

    return node(0)


# -- reject slice ----------------------------------------------------------------


def unparked_doc(n: int, rng: random.Random) -> dict:
    """Every label one slot later than a parking function puts it: slot 1 is empty."""
    slots = _slots(parking_function(rng, n))
    slots = [[]] + slots[:-1]
    return {"chi": "id", "seq": [base_structure("E", s, rng) for s in slots]}


def reused_label_parking_doc(n: int, rng: random.Random) -> dict:
    """A parking function with one label copied into a second slot."""
    slots = _slots(parking_function(rng, n))
    src = rng.choice([i for i, s in enumerate(slots) if s])
    dst = rng.choice([i for i in range(len(slots)) if i != src])
    slots[dst] = slots[dst] + [rng.choice(slots[src])]
    return {"chi": "id", "seq": [base_structure("E", s, rng) for s in slots]}


def _leaves(node, out):
    for child in node["children"]:
        if child["subtree"]["children"]:
            _leaves(child["subtree"], out)
        else:
            out.append(child)
    return out


def reused_label_tree_doc(n: int, rng: random.Random) -> dict:
    """A forest where one leaf gets a child whose label is already used."""
    doc = tree_doc("E", n, rng)
    leaf = rng.choice(_leaves(doc, []))
    reused = rng.choice([v for v in range(1, n + 1) if v != leaf["label"]])
    leaf["subtree"] = {
        "root": {"k": "set", "labels": [reused]},
        "children": [{"label": reused, "subtree": {"root": {"k": "set", "labels": []}, "children": []}}],
    }
    return doc


def subtree_missing_doc(n: int, rng: random.Random) -> dict:
    """A forest with one child entry lacking its "subtree" key."""
    doc = tree_doc("E", n, rng)
    victim = rng.choice(_leaves(doc, []))
    del victim["subtree"]
    return doc
