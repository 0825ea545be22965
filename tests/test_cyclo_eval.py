"""Valuations at eps_m, exact ranks, and the glue of local blocks.

The library reads ord_eps off the power-basis coefficients of f mod Phi_m
(Phi_m is Eisenstein, so eps_m is a uniformizer); the oracle here is
v_p of the resultant Res(Phi_m, f), from the Sylvester matrix over
Fraction, so the two computations share no code.  Ranks at eps_m are
checked through the rank profile: sum_{j<=m} phi(p^j) rank_at_eps(j)
must equal the Bareiss rank of the explicit Lambda_m-span.
"""

import random
import sys
from fractions import Fraction

import pytest
from bareiss_oracle import bareiss_rank
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iwarank.cyclo_eval import (
    INFINITE,
    _glue,
    _residue,
    matrices_proportional_at_eps,
    ord_eps,
    ord_json,
    rank_at_eps,
)
from iwarank.errors import InvalidContext, PhiDivides
from iwarank.kobayashi_rank import (
    TorsionTower,
    additivity_check,
    nabla_coleman_tower,
    nabla_cyclic,
    nabla_matrix_tower,
    nabla_torsion_tower,
)
from iwarank.lambda_ring import (
    ONE,
    X,
    ZERO,
    LambdaElement,
    LambdaMatrix,
    PrimeContext,
    cyclotomic_phi,
    euler_phi_pk,
    omega_tower,
    vp,
)
from iwarank.special_matrices import assemble_fn, factor_bd, good_basis_transform, is_special, parity_reference
from iwarank.verify import (
    COLEMAN_KINDS,
    _rand_summand,
    rand_coleman_data,
    rand_cyclic_poly,
    rand_special_matrix,
)
from iwarank.zp_modules import lambda_column_span

CTX3 = PrimeContext(3)

small_polys = st.builds(
    LambdaElement,
    st.lists(st.integers(min_value=-30, max_value=30), min_size=0, max_size=5),
)


def sylvester_resultant(a: LambdaElement, b: LambdaElement) -> Fraction:
    """Res(a, b) via the Sylvester matrix and fraction elimination."""
    da, db = a.degree, b.degree
    if da < 0 or db < 0:
        raise ValueError("resultant of the zero polynomial")
    size = da + db
    if size == 0:
        return Fraction(1)
    rows = []
    rev_a = list(reversed(a.coeffs))
    rev_b = list(reversed(b.coeffs))
    for i in range(db):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in rev_a]
                    + [Fraction(0)] * (size - i - da - 1))
    for i in range(da):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in rev_b]
                    + [Fraction(0)] * (size - i - db - 1))
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] / rows[col][col]
            if factor:
                for c in range(col, size):
                    rows[r][c] -= factor * rows[col][c]
    return det


class TestOrdEps:
    @pytest.mark.parametrize(
        "m,f,expected",
        [
            (1, X, 1),
            (1, LambdaElement((3,)), 2),
            (1, "phi2", 2),
            (3, "phi1", 2),
            (0, LambdaElement((3,)), 1),
            (0, LambdaElement((5,)), 0),
            (0, X, INFINITE),
            (2, "phi2", INFINITE),
        ],
    )
    def test_frozen(self, ctx3, m, f, expected):
        if f == "phi1":
            f = cyclotomic_phi(ctx3, 1)
        elif f == "phi2":
            f = cyclotomic_phi(ctx3, 2)
        assert ord_eps(ctx3, m, f) == expected

    def test_negative_level_rejected(self, ctx3):
        with pytest.raises(InvalidContext):
            ord_eps(ctx3, -1, ONE)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lower_phi_valuation(self, ctx3, n):
        # Res(Phi_n, Phi_m) is a p-power of exponent phi(p^m) for m < n
        for m in range(0, n):
            f = X if m == 0 else cyclotomic_phi(ctx3, m)
            assert ord_eps(ctx3, n, f) == euler_phi_pk(3, m)

    def test_p_has_full_ramification(self, ctx3):
        for m in (1, 2):
            assert ord_eps(ctx3, m, LambdaElement((3,))) == euler_phi_pk(3, m)

    @pytest.mark.parametrize("m", [0, 1, 2])
    @settings(max_examples=50, deadline=None)
    @given(f=small_polys, g=small_polys)
    def test_multiplicative(self, m, f, g):
        a = ord_eps(CTX3, m, f)
        b = ord_eps(CTX3, m, g)
        if a == INFINITE or b == INFINITE:
            assert ord_eps(CTX3, m, f * g) == INFINITE
        else:
            assert ord_eps(CTX3, m, f * g) == a + b

    @pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
    @settings(max_examples=50, deadline=None)
    @given(f=small_polys)
    def test_matches_sylvester_resultant(self, p, m, f):
        assume(not f.is_zero)
        ctx = PrimeContext(p)
        phi = cyclotomic_phi(ctx, m)
        res = sylvester_resultant(phi, f)
        got = ord_eps(ctx, m, f)
        if res == 0:
            assert got == INFINITE
        else:
            assert res.denominator == 1
            assert got == vp(res.numerator, p)

    @pytest.mark.parametrize("n,sign", [(1, "+"), (3, "+"), (2, "-")])
    def test_signed_factor_at_own_level(self, ctx3, n, sign):
        tw = omega_tower(ctx3, n)
        f = tw.omega_tilde_plus if sign == "+" else tw.omega_tilde_minus
        assert ord_eps(ctx3, n, f) == f.degree

    def test_json_encoding(self):
        assert ord_json(INFINITE) == "inf"
        assert ord_json(7) == 7


class TestMatrixAtEps:
    def test_det_ord_frozen(self, ctx3):
        phi1 = cyclotomic_phi(ctx3, 1)
        assert ord_eps(ctx3, 1, LambdaMatrix.diagonal(X, X).det) == 2
        assert ord_eps(ctx3, 1, LambdaMatrix.identity().det) == 0
        assert ord_eps(ctx3, 1, LambdaMatrix.diagonal(phi1, ONE).det) == INFINITE

    def test_rank_frozen(self, ctx3):
        phi1 = cyclotomic_phi(ctx3, 1)
        assert rank_at_eps(ctx3, 0, LambdaMatrix.diagonal(X, X).columns, 2) == 0
        assert rank_at_eps(ctx3, 0, LambdaMatrix.diagonal(X, ONE).columns, 2) == 1
        assert rank_at_eps(ctx3, 1, LambdaMatrix(((phi1, ZERO), (ONE, phi1))).columns, 2) == 1
        assert rank_at_eps(ctx3, 1, LambdaMatrix.identity().columns, 2) == 2

    @pytest.mark.parametrize("m", [0, 1, 2])
    @settings(max_examples=40, deadline=None)
    @given(
        entries=st.lists(st.integers(min_value=-6, max_value=6), min_size=8, max_size=8),
        phi_level=st.sampled_from([None, 0, 1, 2]),
    )
    def test_rank_profile_agrees_with_rank(self, m, entries, phi_level):
        polys = [LambdaElement(entries[2 * i : 2 * i + 2]) for i in range(4)]
        if phi_level is not None:
            # a Phi factor in the first column drops the rank at that level
            phi = cyclotomic_phi(CTX3, phi_level)
            polys[0], polys[2] = polys[0] * phi, polys[2] * phi
        a = LambdaMatrix(((polys[0], polys[1]), (polys[2], polys[3])))
        assert rank_profile(CTX3, a.columns, 2, m) == span_rank(CTX3, a.columns, m)

    def test_rank_profile_differential(self):
        # seeded systems: k x c with c in k-1..k+1, Phi_j factors on rows
        # and columns, and columns that are combinations of the others
        rng = random.Random(20261018)
        levels = {3: (0, 1, 2), 5: (0, 1), 7: (0, 1)}
        for _ in range(60):
            p = rng.choice((3, 5, 7))
            ctx = PrimeContext(p)
            m = rng.choice(levels[p])
            k = rng.randint(1, 4)
            c = rng.randint(max(1, k - 1), k + 1)

            def poly():
                f = LambdaElement([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))])
                return f if f else ONE

            cols = [[poly() for _ in range(k)] for _ in range(c)]
            for _ in range(rng.randint(0, 2)):
                phi = cyclotomic_phi(ctx, rng.randint(0, m))
                if rng.random() < 0.5:
                    j = rng.randrange(c)
                    cols[j] = [e * phi for e in cols[j]]
                else:
                    i = rng.randrange(k)
                    for col in cols:
                        col[i] = col[i] * phi
            if c > 1 and rng.random() < 0.4:
                s = LambdaElement((rng.randint(-3, 3), rng.randint(-3, 3)))
                cols[-1] = [a + s * b for a, b in zip(cols[0], cols[1])]
            cols = [tuple(col) for col in cols]
            assert rank_profile(ctx, cols, k, m) == span_rank(ctx, cols, m), (p, m, cols)


def proportional_by_cross_products(ctx, m, f, c) -> bool:
    """Whether F(eps_m) is a nonzero multiple of C(eps_m), read as
    matrices_proportional_at_eps first read it: every cross product
    against a nonzero reference entry of C vanishes mod Phi_m (a domain,
    so no division is needed), and F is nonzero at that entry."""
    phi = cyclotomic_phi(ctx, m)
    fe = [e.reduced_mod(phi) for e in f.entries]
    ce = [e.reduced_mod(phi) for e in c.entries]
    ref = next((i for i, e in enumerate(ce) if e), None)
    if ref is None:  # C(eps_m) = 0: only F(eps_m) = 0 is a multiple
        return not any(fe)
    return bool(fe[ref]) and all((fe[i] * ce[ref] - fe[ref] * ce[i]).reduced_mod(phi).is_zero for i in range(4))


def test_proportional_matches_cross_products():
    # the rank reading equals the cross-product one on draws with
    # C(eps_m) = 0, F(eps_m) = 0, both, F a nonzero multiple of C plus
    # Phi_m H (C mostly of rank one, as a parity reference is), and F, C
    # drawn apart
    rng = random.Random("proportional")
    counts = {}

    def entry():
        return LambdaElement([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])

    def matrix(rank_one=False):
        a, b = entry(), entry()
        if rank_one:  # the rows (a, b) and s (a, b)
            s = entry()
            return LambdaMatrix(((a, b), (s * a, s * b)))
        return LambdaMatrix(((a, b), (entry(), entry())))

    for p, m in ((3, 0), (3, 1), (3, 2), (5, 1), (7, 1)):
        ctx = PrimeContext(p)
        phi = cyclotomic_phi(ctx, m)
        for _ in range(12):
            c, h = matrix(rank_one=rng.random() < 0.7), matrix()
            draws = {
                "c-zero": (matrix(), c.scaled(phi)),
                "both-zero": (h.scaled(phi), c.scaled(phi)),
                "f-zero": (h.scaled(phi), c),
                "multiple": (c.scaled(LambdaElement.const(rng.choice((1, -1, 2)) * p ** rng.randint(0, 2)) + X)
                             + h.scaled(phi), c),
                "apart": (matrix(), c),
            }
            for name, (f, c_draw) in draws.items():
                want = proportional_by_cross_products(ctx, m, f, c_draw)
                assert matrices_proportional_at_eps(ctx, m, f, c_draw) is want, (name, p, m, f, c_draw)
                counts[name, want] = counts.get((name, want), 0) + 1
    assert set(counts) == {("c-zero", False), ("both-zero", True), ("f-zero", False), ("multiple", True),
                           ("apart", False)}, counts


def test_coleman_proportionality_matches_cross_products():
    # at p = 3, 5, for every Coleman kind and every m <= n <= 3: F_n is a
    # nonzero multiple of its parity reference at eps_m and of neither the
    # other reference nor a perturbed copy of its own; both zero is
    # proportional, exactly one zero is not; and every verdict is the
    # cross products' verdict
    rng = random.Random("coleman-proportional")
    counts = {}
    for p in (3, 5):
        ctx = PrimeContext(p)
        for kind in COLEMAN_KINDS:
            cd = rand_coleman_data(ctx, rng, kind)
            for n in range(4):
                f = assemble_fn(ctx, cd, n)
                for m in range(n + 1):
                    phi = cyclotomic_phi(ctx, m)
                    ref = parity_reference(cd, m)
                    other = cd.col_plus if ref is cd.col_minus else cd.col_minus
                    perturbed = ref + LambdaMatrix(((ONE, ZERO), (ZERO, ZERO)))
                    draws = {
                        "parity": (f, ref, True),
                        "other": (f, other, False),
                        "perturbed": (f, perturbed, False),
                        "both-zero": (f.scaled(phi), ref.scaled(phi), True),
                        "f-zero": (f.scaled(phi), LambdaMatrix.identity(), False),
                        "c-zero": (LambdaMatrix.identity(), ref.scaled(phi), False),
                    }
                    for name, (a, c, want) in draws.items():
                        got = matrices_proportional_at_eps(ctx, m, a, c)
                        assert got is proportional_by_cross_products(ctx, m, a, c), (name, p, kind, n, m)
                        assert got is want, (name, p, kind, n, m)
                        counts[name] = counts.get(name, 0) + 1
    assert counts == dict.fromkeys(draws, 2 * len(COLEMAN_KINDS) * 10), counts


def rank_profile(ctx, columns, k, m) -> int:
    return sum(euler_phi_pk(ctx.p, j) * rank_at_eps(ctx, j, columns, k) for j in range(m + 1))


def span_rank(ctx, columns, m) -> int:
    return bareiss_rank(lambda_column_span(ctx, columns, m).rows_exact())


class TestCyclotomicPointType:
    # the residue f mod Phi_m, the value f(eps_m) every reading at eps_m takes
    def test_reduction_invariant(self, ctx3):
        f = cyclotomic_phi(ctx3, 2) * X + ONE
        assert _residue(ctx3, 2, f).degree < euler_phi_pk(3, 2)
        assert ord_eps(ctx3, 2, f) == 0

    def test_level_zero_is_constant(self, ctx3):
        r = _residue(ctx3, 0, LambdaElement((7, 5, 1)))
        assert r.degree <= 0
        assert r.coeffs == (7,)

    def test_zero_flag(self, ctx3):
        assert _residue(ctx3, 1, cyclotomic_phi(ctx3, 1)).is_zero


class TestGlue:
    @staticmethod
    def assert_glued(ctx, blocks, b):
        # B = s K_m mod Phi_m at the listed levels and s I at the others
        # up to top, every entry of degree < p^top, and s = p^(top - v)
        # with v maximal: below v = top, some coefficient is prime to p
        p, top = ctx.p, max(blocks)
        assert all(e.degree < p**top for e in b.entries)
        targets = {m: blocks.get(m, LambdaMatrix.identity()) for m in range(top + 1)}

        def congruent(s):
            return all(
                (e - k * s).reduced_mod(cyclotomic_phi(ctx, m)).is_zero
                for m, target in targets.items()
                for e, k in zip(b.entries, target.entries)
            )

        primitive = any(c % p for e in b.entries for c in e.coeffs)
        assert any(congruent(p ** (top - v)) for v in (range(top + 1) if primitive else [top]))

    def test_single_level_is_its_block(self, ctx3):
        k = LambdaMatrix(((5, 1), (0, 2)))
        assert _glue(ctx3, {0: k}) == k

    def test_identity_blocks_glue_to_identity(self, ctx3):
        assert _glue(ctx3, {m: LambdaMatrix.identity() for m in (0, 1, 2)}) == LambdaMatrix.identity()

    def test_frozen_block(self, ctx3):
        # 3 I + (K - I)(3 - Phi_1) mod omega_1, by hand: s = 3, v = 0
        k = LambdaMatrix(((X, ZERO), (ONE, ONE)))
        b = LambdaMatrix(((LambdaElement((3, 6, 1)), ZERO), (LambdaElement((0, -3, -1)), 3)))
        assert _glue(ctx3, {1: k}) == b
        self.assert_glued(ctx3, {1: k}, b)

    @pytest.mark.parametrize(
        "p,levels",
        [
            (3, (0, 1)),
            (3, (0, 1, 2)),
            (3, (1, 2)),
            (3, (0, 2)),
            (3, (1, 3)),
            (5, (1, 2)),
            (5, (0, 2)),
        ],
        ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else f"p{v}",
    )
    @settings(max_examples=30, deadline=None)
    @given(
        coeffs=st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), max_size=3), min_size=12, max_size=12
        ),
        shift=st.integers(min_value=0, max_value=4),
    )
    def test_congruences_exact(self, p, levels, coeffs, shift):
        # random integer blocks, scaled by p^shift so the common p-power
        # reaches and passes top
        ctx = PrimeContext(p)
        e = [LambdaElement(c) * p**shift for c in coeffs]
        blocks = {
            m: LambdaMatrix(((e[4 * i], e[4 * i + 1]), (e[4 * i + 2], e[4 * i + 3])))
            for i, m in enumerate(levels)
        }
        self.assert_glued(ctx, blocks, _glue(ctx, blocks))


def test_only_cyclo_eval_divides_by_phi(monkeypatch):
    # every question at eps_m is asked through cyclo_eval: on small draws,
    # the specialness, factorization, good-basis, tower and additivity
    # entry points and the generators call divisible_by and reduced_mod
    # only from cyclo_eval
    callers = set()

    def spy(fn):
        def called(self, divisor):
            callers.add(sys._getframe(1).f_globals["__name__"])
            return fn(self, divisor)
        return called

    for name in ("divisible_by", "reduced_mod"):
        monkeypatch.setattr(LambdaElement, name, spy(getattr(LambdaElement, name)))
    rng = random.Random("phi-boundary")
    for p, n in ((3, 1), (3, 2), (5, 1)):
        ctx = PrimeContext(p)
        a, _ = rand_special_matrix(ctx, rng, n)
        f, _ = rand_cyclic_poly(ctx, rng, n)
        assert is_special(ctx, a, n).verdict
        fact = factor_bd(ctx, a, n)
        assert fact.b @ fact.d == a
        assert nabla_matrix_tower(ctx, a, n).agrees is True
        assert nabla_cyclic(ctx, f, n).agrees is True
        nabla_torsion_tower(ctx, TorsionTower(columns=a.columns), n)
        additivity_check(ctx, _rand_summand(ctx, rng, n), _rand_summand(ctx, rng, n), n)
        for kind in COLEMAN_KINDS:
            cd = rand_coleman_data(ctx, rng, kind)
            moved = cd.transformed(good_basis_transform(ctx, cd, n))
            try:
                nabla_coleman_tower(ctx, moved, n)
            except PhiDivides:
                pass
    assert callers == {"iwarank.cyclo_eval"}
