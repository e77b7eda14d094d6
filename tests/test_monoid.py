"""Monoid construction, validation, builders, and enumeration.

Frozen counts and witnesses below were computed by independent brute
force (raw product enumeration with a triple-loop associativity check,
recursive partition generation) before the tests were written.
"""

import itertools

import pytest

import actcovers.monoid as monoid_module
from actcovers import (
    BadIndexError,
    EmptySemigroupError,
    Monoid,
    NoIdentityError,
    NotAssociativeError,
    OrderTooLargeError,
    build_from_table,
    enumerate_monoids,
    is_cancellative,
    is_group,
    qiao_wei_presentation,
    qiao_wei_truncated,
    right_zero_adjoin_one,
)
from actcovers.monoid import _first_violated

Z3 = build_from_table(("1", "g", "g2"), [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
SEMILATTICE = build_from_table(("1", "e"), [[0, 1], [1, 1]])


def brute_monoids(n):
    """Every associative table on 0..n-1 with 0 a two-sided identity,
    by raw enumeration of the free cells."""
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    found = []
    for combo in itertools.product(range(n), repeat=len(cells)):
        t = [[0] * n for _ in range(n)]
        for j in range(n):
            t[0][j] = j
        for i in range(n):
            t[i][0] = i
        for (i, j), v in zip(cells, combo):
            t[i][j] = v
        if all(
            t[t[a][b]][c] == t[a][t[b][c]]
            for a in range(n) for b in range(n) for c in range(n)
        ):
            found.append(tuple(tuple(r) for r in t))
    return found


class TestValidation:
    def test_identity_must_be_index_zero(self):
        with pytest.raises(NoIdentityError):
            Monoid(("a", "b"), ((1, 0), (0, 1)))

    def test_identity_column_checked(self):
        # row 0 is the identity's, but z * 1 = 1: a right-zero semigroup
        # with no identity, caught only by the column test
        with pytest.raises(NoIdentityError):
            Monoid(("1", "z"), ((0, 1), (0, 1)))

    def test_associativity_witness(self):
        # right-zero-ish table broken at one cell
        with pytest.raises(NotAssociativeError) as err:
            Monoid(("1", "a", "b"), ((0, 1, 2), (1, 1, 1), (2, 2, 1)))
        a, b, c = err.value.witness
        assert 0 <= a < 3

    def test_bad_index(self):
        with pytest.raises(BadIndexError) as err:
            Monoid(("1", "a"), ((0, 1), (1, 7)))
        assert err.value.cell == (1, 1, 7)

    def test_labels_must_be_distinct(self):
        with pytest.raises(ValueError):
            Monoid(("1", "1"), ((0, 1), (1, 0)))

    def test_power(self):
        assert Z3.power(1, 0) == 0
        assert Z3.power(1, 1) == 1
        assert Z3.power(1, 3) == 0
        assert Z3.power(2, 2) == 1

    def test_submonoid_closure(self):
        m = right_zero_adjoin_one(2)
        # identity always belongs to a submonoid
        assert m.submonoid_closure((1,)) == (0, 1)
        assert m.submonoid_closure(()) == (0,)
        assert Z3.submonoid_closure((1,)) == (0, 1, 2)

    @pytest.mark.parametrize("seed", [(-1,), (3,), (1, "1")])
    def test_submonoid_closure_rejects_out_of_range_seed(self, seed):
        with pytest.raises(ValueError, match=f"seed element {seed[-1]!r} out of range"):
            Z3.submonoid_closure(seed)

    def test_index_label_roundtrip(self):
        m = right_zero_adjoin_one(3)
        for i in range(m.order):
            assert m.index(m.label(i)) == i


class TestRightZero:
    def test_table(self):
        m = right_zero_adjoin_one(2)
        assert m.elements == ("1", "z1", "z2")
        # s * z_i = z_i for every s
        assert m.table == ((0, 1, 2), (1, 1, 2), (2, 1, 2))

    def test_larger(self):
        m = right_zero_adjoin_one(4)
        assert m.order == 5
        for s in range(5):
            for z in range(1, 5):
                assert m.mul(s, z) == z

    def test_not_right_cancellative_least_witness(self):
        ok, wit = is_cancellative(right_zero_adjoin_one(2), "right")
        assert not ok
        # 1 * z1 = z1 * z1; the scan finds this before (z1, z2, z1)
        assert wit == (0, 1, 1)

    def test_not_group(self):
        assert not is_group(right_zero_adjoin_one(2))


class TestTrustedFamilies:
    # the two scenario families skip the constructor's checks; rebuilding
    # each through build_from_table checks them and must give an equal
    # monoid
    @staticmethod
    def rebuilt(m):
        return build_from_table(m.elements, m.table)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rightzero(self, n):
        m = right_zero_adjoin_one(n)
        assert self.rebuilt(m) == m

    def test_qiao_wei_grid(self):
        for n in range(1, 5):
            for cap in range(1, 7):
                m = qiao_wei_truncated(n, cap)
                assert self.rebuilt(m) == m, (n, cap)

    def test_qiao_wei_8_8(self):
        m = qiao_wei_truncated(8, 8)
        assert self.rebuilt(m) == m


class TestQiaoWei:
    def test_element_set_2_3(self):
        m = qiao_wei_truncated(2, 3)
        assert m.order == 7
        assert m.elements == (
            "1", "x0^1", "x0^2", "x0^3", "x1^1", "x2^1", "x2^2")

    def test_element_set_3_4(self):
        # x_3^3 = x_3^2 is forced by the relations, so the element set
        # stabilizes at min(k, 2) powers of x_k: 10 elements, not 11.
        m = qiao_wei_truncated(3, 4)
        assert m.order == 10
        assert "x3^2" in m.elements and "x3^3" not in m.elements

    def test_cube_collapses_to_square(self):
        # x_j^3 = x_j^2 for every j >= 1: x_j^3 = (x_1 x_j) x_j
        # = x_1 (x_1 x_j) = (x_1 x_1) x_j = x_1 x_j = x_j^2.
        for n, cap in ((2, 3), (3, 4), (4, 5)):
            m = qiao_wei_truncated(n, cap)
            for j in range(2, n + 1):
                xj = m.index(f"x{j}^1")
                assert m.power(xj, 3) == m.power(xj, 2)

    def test_cube_rewrites_to_square_in_the_presentation(self):
        # The derivation x_j^3 = (x_1 x_j) x_j = x_1 (x_1 x_j)
        # = (x_1 x_1) x_j = x_1 x_j = x_j^2, replayed on words: every
        # step rewrites one subword by one defining relation, read in
        # either direction, and no multiplication table is consulted.
        # So x_j has at most min(j, 2) distinct powers; since the table
        # with 10 distinct normal forms satisfies every relation
        # (test_presentation_holds), qiao_wei_truncated(3, 4) has
        # exactly 1 + 4 + (1 + 2 + 2) = 10 elements, not 11.
        n = 4
        relations = qiao_wei_presentation(n, n + 1)

        def rewrite(word, pos, lhs, rhs):
            assert (lhs, rhs) in relations or (rhs, lhs) in relations
            assert word[pos:pos + len(lhs)] == lhs
            return word[:pos] + rhs + word[pos + len(lhs):]

        for j in range(2, n + 1):
            word = (j, j, j)
            word = rewrite(word, 0, (j, j), (1, j))  # (x_1 x_j) x_j
            word = rewrite(word, 1, (j, j), (1, j))  # x_1 (x_1 x_j)
            word = rewrite(word, 0, (1, 1), (1,))    # x_1 x_j
            word = rewrite(word, 0, (1, j), (j, j))  # x_j^2
            assert word == (j, j)
        assert ((1,), (1, 1)) in relations  # x_1 has one power

    def test_default_cap(self):
        assert qiao_wei_truncated(2).order == qiao_wei_truncated(2, 3).order

    def test_defining_products(self):
        m = qiao_wei_truncated(2, 3)
        x0, x1, x2 = (m.index(f"x{i}^1") for i in range(3))
        assert m.mul(x1, x2) == m.index("x2^2")
        assert m.mul(x0, x1) == x0
        assert m.mul(x1, x0) == x0
        assert m.mul(x1, x1) == x1  # x_1^2 = x_1

    def test_presentation_holds(self):
        for n, cap in ((1, 1), (2, 3), (3, 4), (4, 6)):
            m = qiao_wei_truncated(n, cap)
            assignment = tuple(m.index(f"x{i}^1") for i in range(n + 1))
            assert _first_violated(m, assignment, qiao_wei_presentation(n, cap)) is None

    def test_presentation_violation_reported(self):
        # with a = g in Z3, a = a holds and both a*a = a and a = 1 fail:
        # the first failing pair is reported
        relations = (((0,), (0,)), ((0, 0), (0,)), ((0,), ()))
        assert _first_violated(Z3, (1,), relations) == ((0, 0), (0,))

    def test_x0_cap_is_zero(self):
        for n, cap in ((2, 3), (3, 4), (1, 1)):
            m = qiao_wei_truncated(n, cap)
            zero = m.power(m.index("x0^1"), cap)
            for s in range(m.order):
                assert m.mul(s, zero) == zero
                assert m.mul(zero, s) == zero

    def test_not_left_cancellative_least_witness(self):
        ok, wit = is_cancellative(qiao_wei_truncated(2, 3), "left")
        assert not ok
        # x_0 * 1 = x_0 * x_1; found before (x_0, x_1, x_2)
        m = qiao_wei_truncated(2, 3)
        assert wit == (m.index("x0^1"), 0, m.index("x1^1"))

    def test_parameter_validation(self):
        with pytest.raises(EmptySemigroupError):
            qiao_wei_truncated(0, 3)
        with pytest.raises(ValueError):
            qiao_wei_truncated(2, 0)


class TestCancellativityAndGroups:
    def test_group_is_cancellative(self):
        assert is_cancellative(Z3, "left") == (True, None)
        assert is_cancellative(Z3, "right") == (True, None)
        assert is_group(Z3)

    def test_semilattice(self):
        assert not is_group(SEMILATTICE)
        ok, wit = is_cancellative(SEMILATTICE, "right")
        assert not ok and wit == (0, 1, 1)

    def test_trivial_monoid(self):
        m = build_from_table(("1",), [[0]])
        assert is_group(m)
        assert is_cancellative(m, "left") == (True, None)

    def test_bad_side(self):
        with pytest.raises(ValueError):
            is_cancellative(Z3, "up")

    def test_group_is_the_two_sided_definition(self):
        # is_group reads one row per element; the definition asks for a
        # b with a*b = b*a = 1
        def two_sided(m):
            r = range(m.order)
            return all(any(m.mul(a, b) == m.mul(b, a) == 0 for b in r) for a in r)

        monoids = [m for n in range(1, 5) for m in enumerate_monoids(n)]
        monoids += [right_zero_adjoin_one(n) for n in range(1, 5)]
        monoids += [qiao_wei_truncated(n, cap) for n in range(1, 5) for cap in range(1, 7)]
        verdicts = [is_group(m) for m in monoids]
        assert verdicts == [two_sided(m) for m in monoids]
        # the labelled groups with identity 0: the trivial group, Z2, Z3,
        # three tables of Z4 and one of the Klein group
        assert verdicts.count(True) == 1 + 1 + 1 + 3 + 1


class TestEnumeration:
    # frozen counts, confirmed by the raw enumeration in brute_monoids
    COUNTS = {1: 1, 2: 2, 3: 11, 4: 156}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_brute_force(self, n):
        assert [m.table for m in enumerate_monoids(n)] == brute_monoids(n)

    def test_matches_brute_force_order_4(self):
        tables = [m.table for m in enumerate_monoids(4)]
        assert len(tables) == self.COUNTS[4]
        assert tables == brute_monoids(4)

    @pytest.mark.parametrize("n,count", sorted(COUNTS.items()))
    def test_frozen_counts(self, n, count):
        assert sum(1 for _ in enumerate_monoids(n)) == count

    def test_order_two_tables(self):
        tables = [m.table for m in enumerate_monoids(2)]
        # Z2 then the two-element semilattice, lexicographic
        assert tables == [((0, 1), (1, 0)), ((0, 1), (1, 1))]

    def test_deterministic(self):
        a = [m.table for m in enumerate_monoids(3)]
        b = [m.table for m in enumerate_monoids(3)]
        assert a == b

    def test_order_bound(self):
        with pytest.raises(OrderTooLargeError):
            list(enumerate_monoids(5))

    def test_labels_follow_the_order(self, monkeypatch):
        monkeypatch.setattr(monoid_module, "ENUMERATION_BOUND", 5)
        first = next(enumerate_monoids(5))
        assert first.elements == ("1", "e1", "e2", "e3", "e4")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_table_rebuilds_through_the_checks(self, n):
        # the enumerator emits its tables unchecked; each must pass the
        # validating constructor and come back equal
        for m in enumerate_monoids(n):
            assert build_from_table(m.elements, m.table) == m

    def test_order_five_with_the_bound_lifted(self, monkeypatch):
        # count and both ends pinned from the enumeration that rescanned
        # every triple after each cell; the per-cell check must agree,
        # and every table must pass the validating constructor
        monkeypatch.setattr(monoid_module, "ENUMERATION_BOUND", 5)
        monoids = list(enumerate_monoids(5))
        assert all(build_from_table(m.elements, m.table) == m for m in monoids)
        tables = [m.table for m in monoids]
        assert len(tables) == 4122
        assert tables[0] == ((0, 1, 2, 3, 4), (1, 0, 2, 3, 4), (2, 2, 2, 2, 2),
                             (3, 3, 2, 2, 2), (4, 4, 2, 2, 2))
        assert tables[-1] == ((0, 1, 2, 3, 4), (1, 4, 4, 4, 4), (2, 4, 4, 4, 4),
                              (3, 4, 4, 4, 4), (4, 4, 4, 4, 4))

    def test_group_implies_cancellative(self):
        for n in range(1, 4):
            for m in enumerate_monoids(n):
                if is_group(m):
                    assert is_cancellative(m, "left")[0]
                    assert is_cancellative(m, "right")[0]
