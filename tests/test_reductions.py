import math
import random
from collections import Counter

import pytest

from rainbowkit import (
    BudgetExceeded,
    ExtremalPair,
    GenSpec,
    GuaranteeViolation,
    HasZeroSum,
    PreconditionError,
    RainbowMatching,
    ResidueMultiset,
    RowDuplicateError,
    SymbolMatrix,
    Transversal,
    brute_zero_sum,
    classify_multiset,
    edge,
    egz_family,
    enumerate_multisets,
    find_transversal,
    find_zero_sum_subset,
    generate,
    matrix_to_family,
    transversal_is_valid,
    validate_matching,
    zero_sum_is_valid,
)
from rainbowkit import rainbow_solver, reductions


class TestSymbolMatrix:
    def test_row_duplicate_named(self):
        with pytest.raises(RowDuplicateError) as info:
            SymbolMatrix(((1, 2), (3, 3)))
        assert (info.value.row, info.value.symbol) == (1, 3)

    def test_ragged_rejected(self):
        with pytest.raises(PreconditionError):
            SymbolMatrix(((1, 2), (1,)))


class TestTransversalIsValid:
    MATRIX = SymbolMatrix(((0, 1), (1, 2), (2, 0)))

    def test_full_transversal_accepted(self):
        assert transversal_is_valid(self.MATRIX, Transversal(frozenset({(0, 0), (1, 1)})))

    @pytest.mark.parametrize("entries", [
        {(0, 0), (0, 1)},
        {(0, 0), (1, 0)},
        {(0, 1), (1, 0)},
        {(0, 0)},
        {(0, 0), (5, 1)},
        # out of range, though as an index -1 would read the row's last symbol
        {(0, 0), (1, -1)},
        {(3, 0), (0, 1)},
        {(0, 2), (1, 0)},
    ], ids=["repeated-row", "repeated-column", "repeated-symbol", "short",
            "row-out-of-range", "negative-column", "row-at-the-row-count",
            "column-at-the-column-count"])
    def test_invalid_transversal_rejected(self, entries):
        assert not transversal_is_valid(self.MATRIX, Transversal(frozenset(entries)))


class TestMatrixToFamily:
    def test_one_by_one(self):
        fam = matrix_to_family(SymbolMatrix(((7,),)))
        assert len(fam) == 1
        assert list(fam[0]) == [edge(0, 0)]

    def test_rows_become_matchings(self):
        fam = matrix_to_family(SymbolMatrix(((1, 2), (1, 2), (2, 1))))
        assert len(fam) == 3
        assert all(len(m) == 2 for m in fam)
        # same symbol in different rows meets the same right vertex
        assert edge(0, 0) in fam[0] and edge(0, 0) in fam[1]
        assert edge(1, 0) in fam[2]


class TestFindTransversal:
    def test_one_by_one(self):
        result = find_transversal(SymbolMatrix(((5,),)))
        assert result.entries == {(0, 0)}

    def test_three_by_two(self):
        matrix = SymbolMatrix(((1, 2), (1, 2), (2, 1)))
        result = find_transversal(matrix)
        assert transversal_is_valid(matrix, result)
        assert len(result) == 2

    def test_two_by_two_infeasible(self):
        assert find_transversal(SymbolMatrix(((1, 2), (2, 1)))) is None

    def test_wide_matrix_uses_row_count(self):
        matrix = SymbolMatrix(((1, 2, 3),))
        result = find_transversal(matrix)
        assert len(result) == 1

    def test_random_guaranteed_matrices(self):
        rng = random.Random(5)
        for _ in range(200):
            cols = rng.randint(1, 4)
            matrix = generate(GenSpec.matrix(
                2 * cols - 1, cols, cols + rng.randint(0, 2), rng.getrandbits(63)))
            result = find_transversal(matrix)
            assert result is not None
            assert transversal_is_valid(matrix, result)


class TestResidueMultiset:
    def test_zero_modulus_rejected(self):
        with pytest.raises(PreconditionError, match="^modulus must be positive, got 0$"):
            ResidueMultiset(0, ())


class TestEgzFamily:
    def test_shift_one_mod_two(self):
        fam = egz_family(ResidueMultiset(2, (1,)))
        assert list(fam[0]) == [edge(0, 1), edge(1, 0)]

    def test_identity_shift(self):
        fam = egz_family(ResidueMultiset(3, (0,)))
        assert list(fam[0]) == [edge(0, 0), edge(1, 1), edge(2, 2)]

    def test_multiplicities_in_sorted_order(self):
        fam = egz_family(ResidueMultiset(3, (1, 0, 1, 0)))
        assert len(fam) == 4
        assert fam[0] == fam[1] and fam[2] == fam[3]
        assert fam[0] != fam[2]

    def test_equal_elements_share_one_member(self):
        multiset = ResidueMultiset(3, (0, 0, 1, 1, 2))
        fam = egz_family(multiset)
        assert fam[0] is fam[1] and fam[2] is fam[3]
        assert fam[0] is not fam[2] and fam[2] is not fam[4]
        assert fam.members == tuple(
            validate_matching(edge(i, (i + a) % 3) for i in range(3))
            for a in multiset.elements)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_shift_is_a_perfect_matching(self, n):
        # the shifts are built without a check; each must pass it unchanged
        fam = egz_family(ResidueMultiset(n, tuple(range(n))))
        for a, member in enumerate(fam):
            assert validate_matching(member.edges) == member
            assert len(member) == n
            assert sorted((e.left.index, e.right.index) for e in member.edges) == [
                (i, (i + a) % n) for i in range(n)]


class TestShiftMemo:
    """egz_family takes each shift from a bounded memo keyed by (modulus,
    residue); what it and the searches return does not depend on the memo."""

    def test_equal_shifts_are_one_object_across_calls(self):
        before = egz_family(ResidueMultiset(5, (1, 2)))
        after = egz_family(ResidueMultiset(5, (2, 2, 3)))
        assert after[0] is before[1] and after[1] is before[1]
        assert egz_family(ResidueMultiset(6, (2,)))[0] is not before[1]

    def test_searches_agree_with_a_cleared_and_a_warm_memo(self):
        rng = random.Random(32)
        multisets = [
            (generate(GenSpec.multiset(n, 2 * n - 1, rng.getrandbits(63))),
             generate(GenSpec.multiset(n, 2 * n - 2, rng.getrandbits(63))))
            for n in range(2, 10) for _ in range(5)]

        def solve(full, short):
            return find_zero_sum_subset(full), classify_multiset(short)

        cold = []
        for full, short in multisets:
            reductions._shift.cache_clear()
            cold.append(solve(full, short))
        hits = reductions._shift.cache_info().hits
        warm = [solve(full, short) for full, short in multisets]
        assert warm == cold
        assert reductions._shift.cache_info().hits > hits

    def test_memo_holds_at_most_its_bound(self):
        shifts = [(n, a) for n in range(2, 16) for a in range(n)]
        assert len(shifts) > reductions._SHIFT_MEMO_SIZE
        for n, a in shifts:
            egz_family(ResidueMultiset(n, (a,)))
        info = reductions._shift.cache_info()
        assert info.maxsize == reductions._SHIFT_MEMO_SIZE
        assert info.currsize <= reductions._SHIFT_MEMO_SIZE
        # an evicted shift is built again, equal to what it was
        (member,) = egz_family(ResidueMultiset(2, (1,)))
        assert list(member) == [edge(0, 1), edge(1, 0)]
        # more distinct residues than the memo keeps: equal ones still share
        fam = egz_family(ResidueMultiset(100, tuple(range(100)) * 2))
        assert all(fam[2 * a] is fam[2 * a + 1] for a in range(100))
        assert reductions._shift.cache_info().currsize <= reductions._SHIFT_MEMO_SIZE


class TestFindZeroSumSubset:
    def test_three_residues_mod_two(self):
        assert find_zero_sum_subset(ResidueMultiset(2, (0, 0, 1))) == (0, 0)

    def test_n_copies_sum_to_zero(self):
        assert find_zero_sum_subset(ResidueMultiset(3, (1,) * 5)) == (1, 1, 1)

    def test_blocking_pair(self):
        assert find_zero_sum_subset(ResidueMultiset(3, (0, 0, 1, 1))) is None

    def test_fewer_than_n_elements_build_no_family(self, monkeypatch):
        def refuse(multiset):
            raise AssertionError("shift family built")

        monkeypatch.setattr(reductions, "egz_family", refuse)
        assert find_zero_sum_subset(ResidueMultiset(20000, tuple(range(100)))) is None
        assert find_zero_sum_subset(ResidueMultiset(20000, tuple(range(100))), 1) is None
        assert find_zero_sum_subset(ResidueMultiset(1, ())) is None

    def test_sum_identity_on_random_witnesses(self):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(1, 5)
            multiset = ResidueMultiset(
                n, tuple(rng.randrange(n) for _ in range(rng.randint(1, 2 * n + 1))))
            witness = find_zero_sum_subset(multiset)
            if witness is not None:
                assert len(witness) == n
                assert sum(witness) % n == 0
                assert not Counter(witness) - Counter(multiset.elements)
            assert (witness is None) == (brute_zero_sum(multiset) is None)


class TestZeroSumIsValid:
    MULTISET = ResidueMultiset(3, (0, 1, 2, 1, 1))

    @pytest.mark.parametrize("witness", [(0, 1, 2), (1, 1, 1)])
    def test_zero_sum_accepted(self, witness):
        assert zero_sum_is_valid(self.MULTISET, witness)

    @pytest.mark.parametrize("witness", [(0, 0, 0), (0, 1), (0, 1, 1)],
                             ids=["not-a-sub-multiset", "short", "nonzero-sum"])
    def test_invalid_witness_rejected(self, witness):
        assert not zero_sum_is_valid(self.MULTISET, witness)


class TestClassifyMultiset:
    def test_blocking_pair(self):
        verdict = classify_multiset(ResidueMultiset(3, (0, 0, 1, 1)))
        assert verdict == ExtremalPair(0, 1)

    def test_two_element_case(self):
        assert classify_multiset(ResidueMultiset(2, (0, 1))) == ExtremalPair(0, 1)

    def test_all_zeros(self):
        verdict = classify_multiset(ResidueMultiset(3, (0, 0, 0, 0)))
        assert verdict == HasZeroSum((0, 0, 0))

    def test_wrong_size_rejected(self):
        with pytest.raises(PreconditionError):
            classify_multiset(ResidueMultiset(3, (0, 0, 1)))

    def test_exhaustive_small_dichotomy(self):
        for n in (2, 3, 4, 5):
            for multiset in enumerate_multisets(n, 2 * n - 2):
                verdict = classify_multiset(multiset)
                feasible = brute_zero_sum(multiset) is not None
                assert isinstance(verdict, HasZeroSum) == feasible
                counts = Counter(multiset.elements)
                pair = sorted(counts)
                blocking = (len(pair) == 2 and counts[pair[0]] == n - 1
                            and math.gcd(pair[1] - pair[0], n) == 1)
                if blocking:
                    assert verdict == ExtremalPair(*pair)
                else:
                    assert isinstance(verdict, HasZeroSum)


class TestShiftFamilyCharge:
    """find_zero_sum_subset and classify_multiset charge the shift family's
    n edges per distinct residue against their own budget before building
    it, so library callers are bounded like the CLI."""

    @pytest.fixture(autouse=True)
    def refuse_family(self, monkeypatch):
        def refuse(multiset):
            raise AssertionError("shift family built")

        monkeypatch.setattr(reductions, "egz_family", refuse)

    @pytest.mark.parametrize("search", [find_zero_sum_subset, classify_multiset])
    def test_edges_over_budget_refused_before_building(self, search):
        # 198 residues mod 100, every residue present: 100 edges for each
        multiset = ResidueMultiset(100, (*range(100), *range(98)))
        with pytest.raises(BudgetExceeded, match="^10000 edges exceed the budget$"):
            search(multiset, 9999)

    def test_charge_comes_before_the_classification_checks(self):
        # 100 residues mod 100 is the wrong size to classify, but the charge
        # comes first
        multiset = ResidueMultiset(100, tuple(range(100)))
        with pytest.raises(BudgetExceeded, match="^10000 edges exceed the budget$"):
            classify_multiset(multiset, 9999)
        with pytest.raises(PreconditionError):
            classify_multiset(multiset, 10000)


class TestGuaranteeOwnedBySolver:
    def test_miss_at_the_guarantee_raises(self, monkeypatch):
        # a search that finds nothing: the solver's size threshold holds on
        # both uniform families, so the solver itself raises
        monkeypatch.setattr(rainbow_solver, "_search", lambda *args: None)
        with pytest.raises(GuaranteeViolation):
            find_transversal(SymbolMatrix(((1, 2), (1, 2), (2, 1))))
        with pytest.raises(GuaranteeViolation):
            find_zero_sum_subset(ResidueMultiset(3, (0, 0, 1, 1, 2)))

    def test_wrong_pullback_raises(self, monkeypatch):
        # a rainbow matching too small for the instance fails the from-scratch
        # revalidation of what it pulls back to
        monkeypatch.setattr(reductions, "find_rainbow_matching",
                            lambda *args: RainbowMatching(()))
        with pytest.raises(GuaranteeViolation,
                           match="^pulled-back transversal failed revalidation$"):
            find_transversal(SymbolMatrix(((0,),)))
        monkeypatch.setattr(reductions, "find_rainbow_matching",
                            lambda *args: RainbowMatching(((0, edge(0, 1)),)))
        with pytest.raises(GuaranteeViolation,
                           match="^zero-sum witness failed revalidation$"):
            find_zero_sum_subset(ResidueMultiset(2, (0, 1, 1)))
