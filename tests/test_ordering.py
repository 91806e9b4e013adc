"""Pairwise comparison verdicts, intransitive cycles, non-additivity."""

import sys
from fractions import Fraction

import numpy as np
import pytest

from entconvert import (BOTH_UNIT, EQUAL, FIRST_GREATER, INTRANSITIVE_TRIPLE,
                        SECOND_GREATER, SUPERMULTIPLICATIVE_PAIR,
                        SchmidtVector, compare, find_cycle,
                        nonadditivity_search, optimal_probability,
                        ordering)
from util import rand_rational_schmidt

F = Fraction


def _recursive_find_cycle(states):
    """find_cycle as a recursive depth-first search over compare's
    verdicts, from the lowest unseen index and along each state's edges
    in index order: the reference the library's search must agree with."""
    m = len(states)
    edges = [[b for b in range(m) if a != b and compare(
        states[a], states[b]).verdict == SECOND_GREATER] for a in range(m)]
    color = [0] * m  # 0 unseen, 1 on stack, 2 done
    parent = [None] * m

    def visit(v):
        color[v] = 1
        for w in edges[v]:
            if color[w] == 1:
                cycle = [w, v]
                node = v
                while node != w:
                    node = parent[node]
                    cycle.append(node)
                cycle.reverse()  # now starts and ends at w
                return cycle
            if color[w] == 0:
                parent[w] = v
                found = visit(w)
                if found is not None:
                    return found
        color[v] = 2
        return None

    for start in range(m):
        if color[start] == 0:
            found = visit(start)
            if found is not None:
                return found
    return None


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestCompare:
    def test_skewed_pair_vs_balanced(self):
        first = SchmidtVector((F(4, 5), F(1, 5)))
        second = SchmidtVector((F(1, 2), F(1, 2)))
        result = compare(first, second)
        assert result.p_forward == F(2, 5)
        assert result.p_backward == 1
        assert result.verdict == SECOND_GREATER

    def test_first_greater(self):
        first = SchmidtVector((F(1, 2), F(1, 2)))
        second = SchmidtVector((F(9, 10), F(1, 10)))
        result = compare(first, second)
        assert result.p_forward == 1
        assert result.p_backward == F(1, 5)
        assert result.verdict == FIRST_GREATER

    def test_both_unit_for_identical_states(self):
        sv = SchmidtVector((F(3, 4), F(1, 4)))
        assert compare(sv, sv).verdict == BOTH_UNIT

    def test_equal_verdict_without_equivalence(self):
        # incomparable pair engineered so both directed optima are 4/5
        first = SchmidtVector((F(1, 2), F(3, 10), F(1, 10), F(1, 10)))
        second = SchmidtVector((F(3, 5), F(3, 20), F(1, 8), F(1, 8)))
        result = compare(first, second)
        assert result.p_forward == result.p_backward == F(4, 5)
        assert result.verdict == EQUAL

    def test_float_inputs(self):
        first = SchmidtVector((0.8, 0.2))
        second = SchmidtVector((0.5, 0.5))
        result = compare(first, second)
        assert result.p_forward == pytest.approx(0.4, abs=1e-12)
        assert result.verdict == SECOND_GREATER


class TestIntransitiveTriple:
    def test_frozen_directed_probabilities(self):
        s1, s2, s3 = INTRANSITIVE_TRIPLE
        assert optimal_probability(s1, s2) == F(6, 13)
        assert optimal_probability(s2, s1) == F(1, 2)
        assert optimal_probability(s2, s3) == F(6, 25)
        assert optimal_probability(s3, s2) == F(1, 2)
        assert optimal_probability(s3, s1) == F(1, 4)
        assert optimal_probability(s1, s3) == F(36, 97)

    def test_relation_loops(self):
        # each state converts to the next less readily than the reverse,
        # all the way around: "less entangled than" has no consistent order
        s1, s2, s3 = INTRANSITIVE_TRIPLE
        assert compare(s1, s2).verdict == SECOND_GREATER
        assert compare(s2, s3).verdict == SECOND_GREATER
        assert compare(s3, s1).verdict == SECOND_GREATER

    def test_find_cycle(self):
        cycle = find_cycle(INTRANSITIVE_TRIPLE)
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert sorted(cycle[:-1]) == [0, 1, 2]

    def test_find_cycle_on_chain_returns_none(self):
        chain = (SchmidtVector((F(9, 10), F(1, 10))),
                 SchmidtVector((F(7, 10), F(3, 10))),
                 SchmidtVector((F(1, 2), F(1, 2))))
        assert find_cycle(chain) is None

    def test_find_cycle_computes_each_ordered_pair_once(self, monkeypatch):
        calls = []

        def counted(first, second):
            calls.append((first, second))
            return optimal_probability(first, second)

        monkeypatch.setattr(ordering, "optimal_probability", counted)
        assert find_cycle(INTRANSITIVE_TRIPLE) == [0, 1, 2, 0]
        assert len(calls) == len(set(calls)) == 3 * 2

    def test_find_cycle_walks_a_long_chain_without_recursing(self):
        # alpha_min increasing: every state converts to each later one less
        # readily than back, so the search walks one path through all 150
        chain = [SchmidtVector((1 - F(i, 400), F(i, 400)))
                 for i in range(1, 151)]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 100)
        try:
            assert find_cycle(chain) is None
        finally:
            sys.setrecursionlimit(limit)

    def test_find_cycle_agrees_with_the_recursive_search(self):
        # the triple at random positions among random 3- and 4-level
        # states, which may close cycles of their own first
        rng = np.random.default_rng(29)
        for _ in range(40):
            states = [rand_rational_schmidt(rng, int(rng.integers(3, 5)))
                      for _ in range(int(rng.integers(0, 5)))]
            for state in INTRANSITIVE_TRIPLE:
                states.insert(int(rng.integers(0, len(states) + 1)), state)
            assert find_cycle(states) == _recursive_find_cycle(states)

    def test_find_cycle_needs_three_states(self):
        with pytest.raises(ValueError):
            find_cycle(INTRANSITIVE_TRIPLE[:2])

    def test_no_cycle_among_random_two_level_states(self):
        # two-level states are totally ordered by their largest coefficient
        rng = np.random.default_rng(19)
        states = [rand_rational_schmidt(rng, 2) for _ in range(5)]
        if len({sv.probs for sv in states}) == len(states):
            assert find_cycle(states) is None


class TestNonadditivity:
    def test_supermultiplicative_pair_found(self):
        found = nonadditivity_search([SUPERMULTIPLICATIVE_PAIR])
        assert len(found) == 1
        inst = found[0]
        assert inst.p_single == F(5, 6)
        assert inst.p_single_squared == F(25, 36)
        assert inst.p_pair == F(25, 28)
        assert inst.p_pair > inst.p_single_squared

    def test_multiplicative_pair_not_reported(self):
        pair = (SchmidtVector((F(4, 5), F(1, 5))),
                SchmidtVector((F(1, 2), F(1, 2))))
        assert nonadditivity_search([pair]) == []

    def test_mixed_batch(self):
        plain = (SchmidtVector((F(4, 5), F(1, 5))),
                 SchmidtVector((F(1, 2), F(1, 2))))
        found = nonadditivity_search([plain, SUPERMULTIPLICATIVE_PAIR])
        assert len(found) == 1
        assert found[0].alpha is SUPERMULTIPLICATIVE_PAIR[0]


class TestFrozenConstants:
    def test_triple_entries_are_exact_and_normalized(self):
        for sv in INTRANSITIVE_TRIPLE:
            assert sv.is_exact
            assert sum(sv.probs) == 1
            assert sv.n == 4

    def test_triple_values(self):
        assert INTRANSITIVE_TRIPLE[0].probs == (
            F(108, 144), F(12, 144), F(12, 144), F(12, 144))
        assert INTRANSITIVE_TRIPLE[1].probs == (
            F(66, 144), F(66, 144), F(6, 144), F(6, 144))
        assert INTRANSITIVE_TRIPLE[2].probs == (
            F(47, 144), F(47, 144), F(47, 144), F(3, 144))
