"""Non-decreasing slot-count maps chi and the shift rho_n.

A chi map sends positive integers to non-negative integers and never
decreases.  It controls how many slots a parking-like sequence exposes:
a structure on u labels is a sequence of chi(u+1) entries.  Three kinds
are supported:

* ``identity``   -- chi(m) = m, the classical parking case;
* ``affine(a,b)``-- chi(m) = a*m + b with a >= 0 and a + b >= 0
  (``affine(1,0)`` is stored as the identity);
* ``table(...)`` -- explicit finite values; evaluating past the last
  entry raises ChiTableExhaustedError, which names the table as written
  and the chi(m) that was needed, also when a shifted table runs out.

Identity and affine maps are closed forms and valid for every m; only
tables have a horizon.  Shifting by n produces rho_n(m) = chi(n+m) - chi(1),
which stays inside the same three kinds (identity and affine(a, b) both
shift to affine(a, a*(n-1)), tables to shorter tables).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ChiTableExhaustedError, SpeciesError

_CHI_STRING = re.compile(
    r"^(?:id|affine\(\s*-?\d+\s*,\s*-?\d+\s*\)|table\(\s*\d+(?:\s*,\s*\d+)*\s*\))$"
)


@dataclass(frozen=True)
class ChiMap:
    kind: str  # "id" | "affine" | "table"
    a: int = 0
    b: int = 0
    table: tuple[int, ...] = ()
    # A table made by shift() keeps (unshifted table, total shift) so that
    # running out of entries is reported on the map that was written.  Not
    # part of the value: equal tables are equal whatever their origin.
    origin: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.kind == "id":
            pass
        elif self.kind == "affine":
            if self.a < 0:
                raise SpeciesError(f"affine chi needs a >= 0, got a={self.a}")
            if self.a + self.b < 0:
                raise SpeciesError(
                    f"affine chi needs chi(1) = a + b >= 0, got {self.a + self.b}"
                )
            if (self.a, self.b) == (1, 0):
                # One form per map: affine(1,0) is the identity.
                object.__setattr__(self, "kind", "id")
                object.__setattr__(self, "a", 0)
        elif self.kind == "table":
            values = self.table
            if not values:
                raise SpeciesError("chi table needs at least the value chi(1)")
            if any(v < 0 for v in values):
                raise SpeciesError(f"chi values must be non-negative: {values}")
            if any(values[i] > values[i + 1] for i in range(len(values) - 1)):
                raise SpeciesError(f"chi must be non-decreasing: {values}")
        else:
            raise SpeciesError(f"unknown chi kind {self.kind!r}")

    @staticmethod
    def identity() -> "ChiMap":
        return ChiMap("id")

    @staticmethod
    def affine(a: int, b: int) -> "ChiMap":
        return ChiMap("affine", a=a, b=b)

    @staticmethod
    def from_table(values) -> "ChiMap":
        return ChiMap("table", table=tuple(int(v) for v in values))

    def __call__(self, m: int) -> int:
        if m < 1:
            raise SpeciesError(f"chi is defined on positive integers, got {m}")
        if self.kind == "id":
            return m
        if self.kind == "affine":
            return self.a * m + self.b
        if m > len(self.table):
            raise self._exhausted(m)
        return self.table[m - 1]

    def _exhausted(self, m: int) -> ChiTableExhaustedError:
        """The error for a missing chi(m), stated on the unshifted table."""
        root, offset = self.origin or (self, 0)
        return ChiTableExhaustedError(
            f"chi {root.key()} has {len(root.table)} entries, "
            f"needed chi({offset + m})"
        )

    def shift(self, n: int) -> "ChiMap":
        """The map rho_n : m -> chi(n + m) - chi(1)."""
        if n < 1:
            raise SpeciesError(f"shift amount must be positive, got {n}")
        if self.kind == "id":
            # rho_n(m) = (n + m) - 1; only the n = 1 shift is the identity.
            return self if n == 1 else ChiMap.affine(1, n - 1)
        if self.kind == "affine":
            return ChiMap.affine(self.a, self.a * (n - 1))
        if n >= len(self.table):
            raise self._exhausted(n + 1)  # rho_n(1) = chi(n + 1) - chi(1)
        root, offset = self.origin or (self, 0)
        base = self(1)
        return ChiMap(
            "table",
            table=tuple(self.table[n + m] - base for m in range(len(self.table) - n)),
            origin=(root, offset + n),
        )

    @property
    def is_identity(self) -> bool:
        # Tables never count: their horizon is finite even if the visible
        # entries match the identity.
        return self.kind == "id"

    def key(self) -> str:
        """Canonical string form, used in JSON and as a cache key."""
        if self.kind == "id":
            return "id"
        if self.kind == "affine":
            return f"affine({self.a},{self.b})"
        return "table({})".format(",".join(str(v) for v in self.table))

    @staticmethod
    def from_string(text: str) -> "ChiMap":
        if not isinstance(text, str):
            raise SpeciesError(f"not a chi map: {text!r}")
        text = text.strip()
        if not _CHI_STRING.match(text):
            raise SpeciesError(f"not a chi map: {text!r}")
        if text == "id":
            return ChiMap.identity()
        if text.startswith("affine"):
            a, b = (int(v) for v in text[len("affine(") : -1].split(","))
            return ChiMap.affine(a, b)
        return ChiMap.from_table(int(v) for v in text[len("table(") : -1].split(","))
