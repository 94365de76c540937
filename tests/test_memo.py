"""The fixed-point driver that generation and series share (Memo.solve)."""

from collections import Counter
from math import factorial

import pytest

from parklike import Generator, SpeciesEnv, egf_of_species
from parklike.cli import main
from parklike.expr import Compose, Prod, Ref, X
from parklike.memo import Memo
from parklike.series import _Evaluator
from parklike.structures import canonical_labels


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


def test_a_reused_result_is_a_read_of_the_solves_it_read(defined):
    # B's solve, inside A's, reuses a result that read A's approximation: a
    # read of A, not of no solve, so A's result, which read only A, is final;
    # B's read A's approximation and is not.
    env = defined("A:=B", "B:=tree((restrict(A,1)*(A + E+)))")
    evaluator = _Evaluator(env, 4)
    assert evaluator.eval(Ref("A"))[0] == [0] * 5
    assert Ref("A") in evaluator._memo.cache
    assert Ref("B") not in evaluator._memo.cache


# A mutual system with no structure at all, whose inner name reads the outer
# approximation on every label set.
NO_STRUCTURE = "tree((park(B,affine(0,2)) + (A)@(X*E)))"


def test_an_inner_solve_that_read_the_outer_approximation_is_kept_for_the_round(defined, monkeypatch):
    # B's result is kept for the rest of A's round, not solved again from
    # nothing on every request: 143 solves to n = 4, where keeping nothing
    # made 465,044 by n = 3.
    calls = Counter()
    solve = Memo.solve
    monkeypatch.setattr(Memo, "solve", lambda memo, *args: calls.update([1]) or solve(memo, *args))
    gen = Generator(defined(f"A:={NO_STRUCTURE}", f"B:={NO_STRUCTURE}"))
    for n in range(5):
        assert gen.raw(Ref("A"), canonical_labels(n)) == [] and gen.count(Ref("A"), n) == 0
    assert calls[1] <= 143


def test_count_of_a_structureless_mutual_system_answers(capsys):
    argv = [f"--define={name}:={NO_STRUCTURE}" for name in "AB"]
    assert main([*argv, "count", "--expr", "A", "--n", "6"]) == 0
    assert capsys.readouterr().out == "0\n"


@pytest.fixture
def stores(monkeypatch):
    """Per key, the number of times Memo.store was called with it."""
    counts = Counter()
    store = Memo.store

    def counting(self, key, result, mark):
        counts[key] += 1
        return store(self, key, result, mark)

    monkeypatch.setattr(Memo, "store", counting)
    return counts


def test_generation_stores_each_key_once(stores):
    # A solved Ref is stored by the lookup that asked for it, not also by
    # its solve: once per size in the count fold, per subset in the list fold.
    assert Generator(SpeciesEnv.standard()).count(Ref("L"), 7) == factorial(7)
    assert len(stores) == 40 and set(stores.values()) == {1}
    stores.clear()
    assert len(Generator(SpeciesEnv.standard()).raw(Ref("L"), range(1, 6))) == factorial(5)
    assert len(stores) == 160 and set(stores.values()) == {1}


@pytest.mark.parametrize("name", ["Sub", "Par"])
def test_series_stores_a_solved_ref_once(stores, name):
    egf_of_species(Ref(name), SpeciesEnv.standard(), 8)
    assert stores[Ref(name)] == 1
