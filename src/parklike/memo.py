"""Memoization with a fixed-point driver for recursive definitions.

Structure generation and series evaluation both solve a Ref by iterating its
body from an empty value until two rounds agree.  While a solve runs, its
current approximation stands in for the Ref, so any result computed from it
is provisional: Memo caches a result only if no approximation was read while
it was computed.  Each caller picks its own cache key, empty value, round
bound and error text.
"""

from __future__ import annotations

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
        self._approx: dict = {}
        self._driver_reads: list = []

    def store(self, key, result, reads_before: int):
        """Cache result unless an approximation was read since reads_before."""
        if self.enabled and self.reads == reads_before:
            self.cache[key] = result
        return result

    def _note_approx_read(self, key) -> None:
        self.reads += 1
        for reads in self._driver_reads:
            reads.add(key)

    def solve(self, key, empty, rounds: int, step, error: str):
        """The fixed point of step() for key, starting from empty.

        A nested request for a key being solved returns its current
        approximation.  Raises DivergentRecursionError with the given text if
        rounds iterations do not stabilize.
        """
        if key in self._approx:
            self._note_approx_read(key)
            return self._approx[key]
        self._approx[key] = empty
        reads: set = set()
        self._driver_reads.append(reads)
        try:
            for _ in range(rounds):
                result = step()
                if result == self._approx[key]:
                    break
                self._approx[key] = result
            else:
                raise DivergentRecursionError(error)
        finally:
            del self._approx[key]
            self._driver_reads.pop()
        # Final only if no *other* recursion was mid-iteration.
        if self.enabled and not (reads - {key}):
            self.cache[key] = result
        return result
