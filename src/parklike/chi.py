"""Non-decreasing slot-count maps chi and the shift rho_n.

A chi map sends positive integers to non-negative integers and never
decreases.  It controls how many slots a parking-like sequence exposes:
a structure on u labels is a sequence of chi(u+1) entries.  Two kinds
are supported:

* ``affine(a,b)``-- chi(m) = a*m + b with a >= 0 and a + b >= 0; the
  identity chi(m) = m, the classical parking case, is ``affine(1,0)``
  and prints as ``id``;
* ``table(...)`` -- explicit finite values; evaluating past the last
  entry raises ChiTableExhaustedError, which names the table as written
  and the chi(m) that was needed, also when a shifted table runs out.

Affine maps are closed forms and valid for every m; only tables have a
horizon.  Shifting by n produces rho_n(m) = chi(n+m) - chi(1), which stays
inside the same kind (affine(a, b) shifts to affine(a, a*(n-1)), tables to
shorter tables).

The text form (``key()``) is the ``chi`` production of the DSL, which reads
it in ``park(A, chi)`` and, through ``dsl.parse_chi_text``, in the ``chi``
field of parking-like JSON.
"""

from __future__ import annotations

from .errors import ChiTableExhaustedError, SpeciesError, cut, shown
from .frozen import Keyed


class ChiMap(Keyed):
    # kind is "affine" or "table".  A table made by shift() keeps origin =
    # (unshifted table, total shift) so that running out of entries is
    # reported on the map that was written.  origin is not part of the
    # value: equal tables are equal whatever their origin.
    __slots__ = ("kind", "a", "b", "table", "origin")
    _fields = ("kind", "a", "b", "table")

    def __init__(self, kind: str, a: int = 0, b: int = 0, table: tuple = (), origin=None):
        if kind == "affine":
            if a < 0:
                raise SpeciesError(f"affine chi needs a >= 0, got a={shown(a)}")
            if a + b < 0:
                raise SpeciesError(f"affine chi needs chi(1) = a + b >= 0, got {shown(a + b)}")
        elif kind == "table":
            if not table:
                raise SpeciesError("chi table needs at least the value chi(1)")
            if any(v < 0 for v in table):
                raise SpeciesError(f"chi values must be non-negative: {shown(table)}")
            if any(table[i] > table[i + 1] for i in range(len(table) - 1)):
                raise SpeciesError(f"chi must be non-decreasing: {shown(table)}")
        else:
            raise SpeciesError(f"unknown chi kind {kind!r}")
        Keyed.__init__(self, kind, a, b, table)
        object.__setattr__(self, "origin", origin)

    @staticmethod
    def identity() -> "ChiMap":
        return ChiMap.affine(1, 0)

    @staticmethod
    def affine(a: int, b: int) -> "ChiMap":
        return ChiMap("affine", a=a, b=b)

    @staticmethod
    def from_table(values) -> "ChiMap":
        return ChiMap("table", table=tuple(int(v) for v in values))

    def __call__(self, m: int) -> int:
        if m < 1:
            raise SpeciesError(f"chi is defined on positive integers, got {shown(m)}")
        if self.kind == "affine":
            return self.a * m + self.b
        if m > len(self.table):
            raise self._exhausted(m)
        return self.table[m - 1]

    def _exhausted(self, m: int) -> ChiTableExhaustedError:
        """The error for a missing chi(m), stated on the unshifted table."""
        root, offset = self.origin or (self, 0)
        return ChiTableExhaustedError(
            f"chi {cut(root.key())} has {len(root.table)} entries, "
            f"needed chi({offset + m})"
        )

    def shift(self, n: int) -> "ChiMap":
        """The map rho_n : m -> chi(n + m) - chi(1)."""
        if n < 1:
            raise SpeciesError(f"shift amount must be positive, got {shown(n)}")
        if self.kind == "affine":
            b = self.a * (n - 1)
            return self if b == self.b else ChiMap.affine(self.a, b)
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
        return self.kind == "affine" and (self.a, self.b) == (1, 0)

    def key(self) -> str:
        """Canonical string form, used in JSON and as a cache key."""
        if self.is_identity:
            return "id"
        if self.kind == "affine":
            return f"affine({self.a},{self.b})"
        return "table({})".format(",".join(str(v) for v in self.table))
