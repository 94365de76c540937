"""Memoization with a fixed-point driver for recursive definitions.

Structure generation and series evaluation both solve a key by iterating its
body from an empty value until two rounds agree, or until a round reads no
approximation of its own.  While a solve runs, its current approximation
stands in for the key, so a result computed from it is provisional.  One log,
`read`, holds the keys of the approximations read, each a solve still in
progress: a solve drops its own key from the log when it ends.  So one rule
decides what is kept: a result is final iff it read no solve in progress, iff
the log gained no entry while it was computed.  store() caches a final result
and keeps any other in `round`, the store of the current round, with the
solves it read; reused() returns a kept result and logs those reads again.
Each round of a solve opens a fresh store, so a kept result serves until an
approximation it read changes.  Each caller picks its own key, empty value,
round bound and error text, and stores what a solve returns; `solving` maps
the solves in progress, innermost last, to their approximations.
"""

from __future__ import annotations

from .errors import DivergentRecursionError


class Memo:
    """A result cache, the current round's store and the solves in progress.

    ``cache`` is a plain dict so hot callers can look it up inline.
    """

    def __init__(self):
        self.cache: dict = {}
        self.read: list = []  # keys of the approximations read, all in progress
        self.round: dict = {}  # key -> (provisional result, solves in progress it read)
        self.solving: dict = {}  # key -> approximation, innermost last

    def store(self, key, result, mark: int):
        """Cache result if the log gained no entry since it held mark, else
        keep it for the round with the solves it read, one entry each."""
        if len(self.read) == mark:
            self.cache[key] = result
            return result
        reads = set(self.read[mark:])
        self.read[mark:] = reads
        self.round[key] = result, reads
        return result

    def reused(self, key):
        """The result kept for key in this round, its reads logged again, or None."""
        kept = self.round.get(key)
        if kept is None:
            return None
        self.read.extend(kept[1])
        return kept[0]

    def solve(self, key, empty, rounds: int, step, error: str):
        """The fixed point of step() for key from empty, which the caller stores.

        A nested request for a key being solved returns its current
        approximation.  Raises DivergentRecursionError with the given text if
        rounds iterations do not stabilize.
        """
        if key in self.solving:
            self.read.append(key)
            return self.solving[key]
        outer, mark = self.round, len(self.read)
        self.solving[key] = approx = empty
        try:
            for _ in range(rounds):
                self.round, start = {}, len(self.read)
                result = step()
                # A round that read no approximation of key's has nothing to improve.
                if result == approx or len(self.read) == start or key not in self.read[start:]:
                    break
                self.solving[key] = approx = result
            else:
                raise DivergentRecursionError(error)
        finally:
            del self.solving[key]
            self.round = outer
        if len(self.read) != mark:  # key's own reads end with its solve
            self.read[mark:] = [k for k in self.read[mark:] if k != key]
        return result
