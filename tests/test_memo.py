"""The fixed-point driver that generation and series share (Memo.solve)."""

from collections import Counter
from math import factorial

import pytest

from parklike import Generator, SpeciesEnv, egf_of_species
from parklike.expr import Compose, Prod, Ref, X
from parklike.memo import Memo


@pytest.fixture
def solves(monkeypatch):
    """Per key, the solves that ran a round and the rounds they ran."""
    started, rounds = Counter(), Counter()
    solve = Memo.solve

    def counting(self, key, empty, bound, step, error):
        ran = []

        def counted():
            if not ran:
                started[key] += 1
                ran.append(True)
            rounds[key] += 1
            return step()

        return solve(self, key, empty, bound, counted, error)

    monkeypatch.setattr(Memo, "solve", counting)
    return started, rounds


def test_a_round_that_reads_no_approximation_of_its_own_ends_the_solve(solves):
    # L on 7 labels reads L on every smaller subset, never on its own: one
    # round per solve, where a confirming second round only repeated it.  The
    # list fold solves L once per subset, the count fold once per size.
    started, rounds = solves
    assert len(Generator(SpeciesEnv.standard()).raw(Ref("L"), range(7))) == factorial(7)
    assert sum(started.values()) == 128 == sum(rounds.values())
    started.clear()
    rounds.clear()
    assert Generator(SpeciesEnv.standard()).count(Ref("L"), 7) == factorial(7)
    assert sum(started.values()) == 8 == sum(rounds.values())


def test_a_solve_that_reads_only_its_own_approximation_is_final(solves):
    # L's Newton rounds reuse results built on L's approximation within the
    # round; those reads are L's own, so L is solved once, not once per round
    # of TreeFix.
    env = SpeciesEnv.standard()
    env.bind("TreeFix", Compose(Ref("L"), Prod(X(), Ref("TreeFix"))))
    started, _rounds = solves
    counts = egf_of_species(Ref("TreeFix"), env, 30).counts
    assert counts == tuple(factorial(2 * n) // factorial(n + 1) for n in range(31))
    assert started[Ref("L")] == 1
