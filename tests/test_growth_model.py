"""Signed step sequences, growth deltas, cumulative tables, degree identities,
and the growth formula and the rank bound against computed Coleman towers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwarank.cyclo_eval import rank_at_eps
from iwarank.errors import InvalidContext, PhiDivides
from iwarank.growth_model import (
    InvariantSet,
    degree_identities,
    delta_e,
    nabla_x_formula,
    s_sequence,
    sha_growth,
)
from iwarank.kobayashi_rank import nabla_coleman_tower
from iwarank.lambda_ring import X, PrimeContext, euler_phi_pk, iwasawa_invariants
from iwarank.special_matrices import good_basis_transform, parity_reference
from iwarank.verify import COLEMAN_KINDS, rand_coleman_data

ZEROS = InvariantSet(3, 0, 0, 0, 0, 0)

invariant_sets = st.builds(
    InvariantSet,
    st.just(3),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=4),
)


class TestSSequence:
    @pytest.mark.parametrize("n,expected", [(0, 0), (1, 3), (2, 6), (3, 21)])
    def test_frozen_p3(self, n, expected):
        assert s_sequence(3, n) == expected

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_recurrence(self, p):
        for n in range(1, 9):
            assert s_sequence(p, n) + s_sequence(p, n - 1) == p**n

    def test_alternating_sum(self):
        # s_4 = p^4 - p^3 + p^2 - p at p = 5
        assert s_sequence(5, 4) == 625 - 125 + 25 - 5


class TestDeltaE:
    def test_frozen_zero_invariants(self):
        assert delta_e(ZEROS, 2) == 6
        assert delta_e(ZEROS, 1) == 0

    def test_frozen_with_corank(self):
        inv = InvariantSet(3, 0, 1, 0, 0, 2)
        assert delta_e(inv, 3) == 11  # 2*6 + 1 - 2

    def test_parity_dispatch(self):
        inv = InvariantSet(3, 4, 1, 0, 0, 0)
        assert delta_e(inv, 1) == 1  # odd level uses the minus invariants
        assert delta_e(inv, 2) == 2 * 3 + 4  # even level uses the plus ones

    def test_mu_scales_with_phi(self):
        inv = InvariantSet(3, 0, 0, 0, 1, 0)
        assert delta_e(inv, 3) == 2 * 6 + (27 - 9)


class TestNablaXFormula:
    def test_frozen(self):
        assert nabla_x_formula(ZEROS, 2) == 6
        assert nabla_x_formula(InvariantSet(3, 0, 2, 0, 0, 0), 1) == 2

    @settings(max_examples=60, deadline=None)
    @given(inv=invariant_sets, n=st.integers(min_value=1, max_value=6))
    def test_relation_to_delta(self, inv, n):
        assert nabla_x_formula(inv, n) - inv.r_inf == delta_e(inv, n)


def test_formula_matches_coleman_towers():
    # the invariants of a moved Coleman pair are those of det Col^- and of
    # det Col^+ / X^2 (X divides every entry of Col^+); at every level past
    # stabilization, phi(p^n) > lambda of the governing sign, the brute
    # nabla of the tower is nabla_x_formula
    compared = with_mu = 0
    for p, n_max in ((3, 3), (5, 2)):
        ctx = PrimeContext(p)
        for kind in COLEMAN_KINDS:
            for i in range(4):
                cd = rand_coleman_data(ctx, random.Random(f"g2-{p}-{n_max}-{kind}-{i}"), kind)
                moved = cd.transformed(good_basis_transform(ctx, cd, n_max))
                minus = iwasawa_invariants(ctx, moved.col_minus.det)
                plus = iwasawa_invariants(ctx, moved.col_plus.det.exact_div(X * X))
                inv = InvariantSet(p, plus.lambda_, minus.lambda_, plus.mu, minus.mu, 0)
                for n in range(1, n_max + 1):
                    lam, mu = inv.signed(n)
                    if euler_phi_pk(p, n) <= lam:
                        continue
                    try:
                        nabla = nabla_coleman_tower(ctx, moved, n).nabla
                    except PhiDivides:
                        continue
                    assert nabla == nabla_x_formula(inv, n), (p, kind, i, n)
                    compared += 1
                    with_mu += mu > 0
    assert compared >= 60 and with_mu >= 10, (compared, with_mu)


def test_lower_rank_bounded_by_lambda():
    # the paper's bounded ranks: the rank part of a Coleman step is
    # sum_{m<n} phi(p^m) (2 - r_m), r_m the rank of the parity reference at
    # eps_m, and a drop of 2 - r_m at eps_m is paid for by Phi_m^{2 - r_m}
    # dividing det Col^- or, as Phi_m is prime to X for m >= 1, det Col^+ / X^2;
    # so it is at most lambda(det Col^-) + lambda(det Col^+ / X^2) at every n
    compared = reached = 0
    for p, n_max in ((3, 3), (5, 2)):
        ctx = PrimeContext(p)
        for kind in COLEMAN_KINDS:
            for i in range(4):
                cd = rand_coleman_data(ctx, random.Random(f"g2-{p}-{n_max}-{kind}-{i}"), kind)
                bound = (iwasawa_invariants(ctx, cd.col_minus.det).lambda_
                         + iwasawa_invariants(ctx, cd.col_plus.det.exact_div(X * X)).lambda_)
                for n in range(1, n_max + 1):
                    try:
                        lower_rank = nabla_coleman_tower(ctx, cd, n).lower_rank
                    except PhiDivides:
                        continue
                    ranks = [rank_at_eps(ctx, m, parity_reference(cd, m).columns, 2) for m in range(n)]
                    assert lower_rank == sum(euler_phi_pk(p, m) * (2 - r) for m, r in enumerate(ranks)), (p, kind, i, n)
                    assert lower_rank <= bound, (p, kind, i, n)
                    compared += 1
                    reached += 0 < lower_rank == bound
    assert compared >= 60 and reached >= 20, (compared, reached)


class TestShaGrowth:
    def test_frozen_delta_sequence(self):
        table = sha_growth(ZEROS, range(1, 5), (0, 0))
        assert [r.delta_e for r in table.rows] == [0, 6, 12, 42]
        assert [r.e_n for r in table.rows] == [0, 6, 18, 60]

    def test_csv_shape(self):
        table = sha_growth(ZEROS, range(1, 3), (0, 0))
        lines = table.to_csv().strip().split("\n")
        assert lines[0] == "n,parity,s_prev,delta_e,e_n"
        assert len(lines) == 3

    def test_nonzero_baseline(self):
        table = sha_growth(ZEROS, range(3, 5), (2, 10))
        assert table.rows[0].e_n == 10 + table.rows[0].delta_e

    def test_baseline_contiguity_enforced(self):
        with pytest.raises(InvalidContext):
            sha_growth(ZEROS, range(2, 4), (0, 0))
        with pytest.raises(InvalidContext):
            sha_growth(ZEROS, [1, 3], (0, 0))

    @settings(max_examples=40, deadline=None)
    @given(
        inv=invariant_sets,
        n0=st.integers(min_value=0, max_value=3),
        e0=st.integers(min_value=0, max_value=30),
        width=st.integers(min_value=1, max_value=5),
    )
    def test_telescoping(self, inv, n0, e0, width):
        table = sha_growth(inv, range(n0 + 1, n0 + 1 + width), (n0, e0))
        assert sum(r.delta_e for r in table.rows) == table.rows[-1].e_n - e0
        for prev, cur in zip(table.rows, table.rows[1:]):
            assert cur.e_n - prev.e_n == cur.delta_e

    def test_row_parity_labels(self):
        table = sha_growth(ZEROS, range(1, 4), (0, 0))
        assert [r.parity for r in table.rows] == ["odd", "even", "odd"]


class TestInvariantSetValidation:
    def test_rejects_even_p(self):
        with pytest.raises(InvalidContext):
            InvariantSet(4, 0, 0, 0, 0, 0)

    def test_rejects_negative(self):
        with pytest.raises(InvalidContext):
            InvariantSet(3, -1, 0, 0, 0, 0)

    def test_signed_selector(self):
        inv = InvariantSet(3, 4, 1, 2, 3, 0)
        assert inv.signed(1) == (1, 3)  # odd: minus
        assert inv.signed(2) == (4, 2)  # even: plus


class TestDegreeIdentities:
    def test_frozen_small_levels(self, ctx3):
        r1 = degree_identities(ctx3, 1)
        assert r1["odd_ok"] and r1["even_ok"]
        assert r1["deg_tilde_plus"] == 0 == s_sequence(3, 0)
        r2 = degree_identities(ctx3, 2)
        assert r2["even_ok"]
        assert r2["deg_tilde_minus"] == 2 == s_sequence(3, 1) - 1
        r3 = degree_identities(ctx3, 3)
        assert r3["odd_ok"]
        assert r3["deg_tilde_plus"] == 6 == s_sequence(3, 2)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_all_levels_up_to_eight(self, p):
        ctx = PrimeContext(p)
        for n in range(1, 9):
            row = degree_identities(ctx, n)
            assert row["odd_ok"] and row["even_ok"], (p, n)
