"""Memoization with a fixed-point driver for recursive definitions.

Structure generation and series evaluation both solve a Ref by iterating its
body from an empty value until two rounds agree, or until a round reads no
approximation of its own.  While a solve runs, its current approximation
stands in for the Ref, so any result computed from it is provisional: Memo
caches a result only if no approximation was read while it was computed, and
a solve's result only if every approximation read during the solve was its
own.  Each caller picks its own key, empty value, round bound and error text.
reuse() counts a provisional result used again, as a read of the innermost
solve's own if it read that one; `solving` views the solves in progress.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import DivergentRecursionError


class Memo:
    """A result cache plus the approximations of the solves in progress.

    ``cache`` is a plain dict so hot callers can look it up inline.  With
    ``enabled=False`` nothing is ever stored.
    """

    def __init__(self, enabled: bool = True):
        self.cache: dict = {}
        self.enabled = enabled
        self.reads = 0  # approximation reads so far; see store()
        self._approx: dict = {}  # key -> [approximation, reads of it], innermost last
        self.solving = MappingProxyType(self._approx)  # read-only view of _approx

    def store(self, key, result, reads_before: int):
        """Cache result unless an approximation was read since reads_before."""
        if self.enabled and self.reads == reads_before:
            self.cache[key] = result
        return result

    def reuse(self, innermost: bool) -> None:
        """Count the reuse of a result built on an approximation, as a read of
        the innermost solve's own if the result read that one."""
        self.reads += 1
        if innermost:
            self._approx[next(reversed(self._approx))][1] += 1

    def solve(self, key, empty, rounds: int, step, error: str):
        """The fixed point of step() for key, starting from empty.

        A nested request for a key being solved returns its current
        approximation.  Raises DivergentRecursionError with the given text if
        rounds iterations do not stabilize.
        """
        entry = self._approx.get(key)
        if entry is not None:
            self.reads += 1
            entry[1] += 1
            return entry[0]
        entry = self._approx[key] = [empty, 0]
        reads_before = self.reads
        try:
            for _ in range(rounds):
                own_before = entry[1]
                result = step()
                # A round that read no approximation of key's has nothing to improve.
                if result == entry[0] or entry[1] == own_before:
                    break
                entry[0] = result
            else:
                raise DivergentRecursionError(error)
        finally:
            del self._approx[key]
        # Final only if every approximation read during the solve was key's.
        if self.enabled and self.reads - reads_before == entry[1]:
            self.cache[key] = result
        return result
