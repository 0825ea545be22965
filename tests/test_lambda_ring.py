"""Core ring layer: cyclotomic factors, omega towers, mu/lambda, reductions."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwarank import lambda_ring
from iwarank.errors import InvalidContext, ZeroElement
from iwarank.kobayashi_rank import nabla_cyclic
from iwarank.lambda_ring import (
    MAX_PRIME,
    ONE,
    X,
    ZERO,
    LambdaElement,
    LambdaMatrix,
    PrimeContext,
    _phi_product,
    cyclotomic_phi,
    euler_phi_pk,
    is_odd_prime,
    iwasawa_invariants,
    omega_poly,
    omega_tower,
    signed_degree,
    vp,
)

CTX3 = PrimeContext(3)

small_polys = st.builds(
    LambdaElement,
    st.lists(st.integers(min_value=-40, max_value=40), min_size=0, max_size=6),
)
nonzero_polys = small_polys.filter(lambda f: not f.is_zero)
monic_polys = st.builds(
    lambda lo: LambdaElement(tuple(lo) + (1,)),
    st.lists(st.integers(min_value=-40, max_value=40), min_size=0, max_size=5),
)


def binomial_expansion(p: int, n: int) -> LambdaElement:
    """(1+X)^{p^n} - 1 straight from binomial coefficients."""
    q = p**n
    return LambdaElement([math.comb(q, k) for k in range(q + 1)]) - ONE


def quotient_phi(p: int, m: int) -> LambdaElement:
    """Phi_m = omega_m / omega_{m-1} (X at m = 0), by one exact division."""
    return X if m == 0 else binomial_expansion(p, m).exact_div(binomial_expansion(p, m - 1))


class TestCyclotomicPhi:
    def test_frozen_p3(self, ctx3):
        assert cyclotomic_phi(ctx3, 1).coeffs == (3, 3, 1)
        assert cyclotomic_phi(ctx3, 2).coeffs == (3, 9, 18, 21, 15, 6, 1)

    def test_frozen_p5(self, ctx5):
        assert cyclotomic_phi(ctx5, 1).coeffs == (5, 10, 10, 5, 1)

    def test_level_zero_is_x(self, ctx3):
        assert cyclotomic_phi(ctx3, 0) == X

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_distinguished(self, p, m):
        ctx = PrimeContext(p)
        phi = cyclotomic_phi(ctx, m)
        assert phi.degree == euler_phi_pk(p, m)
        assert phi.coeffs[-1] == 1
        assert all(c % p == 0 for c in phi.coeffs[:-1])
        assert vp(phi.coeffs[0], p) == 1  # constant term is exactly p

    def test_product_telescopes(self, ctx3):
        # X * prod_{1<=m<=n} Phi_m = (1+X)^{p^n} - 1
        prod = X
        for m in range(1, 4):
            prod = prod * cyclotomic_phi(ctx3, m)
            assert prod == binomial_expansion(3, m)


class TestOmegaTower:
    @pytest.mark.parametrize("p,n", [(3, 0), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
    def test_omega_is_binomial_expansion(self, p, n):
        ctx = PrimeContext(p)
        assert omega_poly(ctx, n) == binomial_expansion(p, n)

    @pytest.mark.parametrize("n", range(0, 5))
    def test_signed_split(self, ctx3, n):
        tw = omega_tower(ctx3, n)
        assert tw.omega_plus * tw.omega_tilde_minus == tw.omega_n
        assert tw.omega_minus * tw.omega_tilde_plus == tw.omega_n
        assert X * tw.omega_tilde_plus == tw.omega_plus
        assert X * tw.omega_tilde_minus == tw.omega_minus

    def test_level_zero_conventions(self, ctx3):
        tw = omega_tower(ctx3, 0)
        assert tw.omega_plus == X
        assert tw.omega_minus == X
        assert tw.omega_tilde_plus == ONE
        assert tw.omega_tilde_minus == ONE

    def test_parity_of_factors(self, ctx3):
        tw = omega_tower(ctx3, 4)
        # omega_plus collects the even levels, omega_minus the odd ones
        assert tw.omega_tilde_plus == cyclotomic_phi(ctx3, 2) * cyclotomic_phi(ctx3, 4)
        assert tw.omega_tilde_minus == cyclotomic_phi(ctx3, 1) * cyclotomic_phi(ctx3, 3)

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("n", range(0, 5))
    def test_signed_degree_bookkeeping(self, p, n):
        ctx = PrimeContext(p)
        tw = omega_tower(ctx, n)
        assert signed_degree(p, n, "+") == tw.omega_tilde_plus.degree
        assert signed_degree(p, n, "-") == tw.omega_tilde_minus.degree
        assert signed_degree(p, n, "+") + 1 == tw.omega_plus.degree
        assert signed_degree(p, n, "-") + 1 == tw.omega_minus.degree

    def test_negative_level_rejected(self, ctx3):
        with pytest.raises(InvalidContext):
            omega_poly(ctx3, -1)


class TestPhiProduct:
    """The digit-pattern sum of binomial rows against multiplied factors."""

    @pytest.mark.parametrize("p,top", [(3, 5), (5, 3), (7, 3), (11, 2)])
    def test_every_subset_of_levels(self, p, top):
        ctx = PrimeContext(p)
        phis = [quotient_phi(p, m) for m in range(top + 1)]
        assert phis == [cyclotomic_phi(ctx, m) for m in range(top + 1)]
        subsets = [s for r in range(top + 2) for s in itertools.combinations(range(top + 1), r)]
        for levels in subsets:
            product = ONE
            for m in levels:
                product = product * phis[m]
            assert _phi_product(p, levels) == product, levels
        assert len(subsets) == 2 ** (top + 1)

    @pytest.mark.parametrize("p", [p for p in range(3, 30) if is_odd_prime(p)])
    def test_omega_is_a_power_of_one_plus_x(self, p):
        ctx = PrimeContext(p)
        for n in itertools.takewhile(lambda n: p**n <= 729, itertools.count()):
            assert omega_poly(ctx, n) == (ONE + X) ** p**n - ONE

    @pytest.mark.parametrize("p,m", [(3, 7), (5, 4), (7, 4), (11, 3)])
    def test_phi_times_omega_below_is_omega(self, p, m):
        ctx = PrimeContext(p)
        assert cyclotomic_phi(ctx, m) * omega_poly(ctx, m - 1) == omega_poly(ctx, m)

    def test_refused_level_leaves_no_entry(self):
        before = lambda_ring._phi_product.cache_info().currsize
        for levels in ((1, -1), (0, 99)):
            with pytest.raises(InvalidContext):
                _phi_product(3, levels)
        assert lambda_ring._phi_product.cache_info().currsize == before

    def test_builders_multiply_and_divide_nothing(self, monkeypatch):
        # the wide products are sums of binomial rows, never schoolbook
        # products or quotients of Phi factors
        for cache in (lambda_ring._phi, lambda_ring._omega, lambda_ring._phi_product):
            cache.cache_clear()
        calls = []
        for name in ("__mul__", "__rmul__", "divmod_monic"):
            def spy(*args, _name=name, _original=getattr(LambdaElement, name)):
                calls.append(_name)
                return _original(*args)
            monkeypatch.setattr(LambdaElement, name, spy)
        ctx = PrimeContext(3)
        for n in range(7):
            cyclotomic_phi(ctx, n)
            omega_poly(ctx, n)
            omega_tower(ctx, n)
        assert calls == []


class TestContext:
    def test_rejects_even_or_composite(self):
        for bad in (2, 4, 9, 1):
            with pytest.raises(InvalidContext):
                PrimeContext(bad)

    def test_primality_matches_sieve_below_1e5(self):
        limit = 10**5
        sieve = [True] * limit
        sieve[0] = sieve[1] = False
        for d in range(2, int(limit**0.5) + 1):
            if sieve[d]:
                sieve[d * d :: d] = [False] * len(range(d * d, limit, d))
        assert [p for p in range(limit) if is_odd_prime(p)] == [
            p for p in range(3, limit) if sieve[p]
        ]

    def test_primality_large(self):
        assert is_odd_prime(10**18 + 3) and is_odd_prime(2**61 - 1)
        # strong pseudoprimes to the bases 2..23 and 2..37
        assert not is_odd_prime(3825123056546413051)
        assert not is_odd_prime(318665857834031151167461)

    def test_primality_cap(self):
        assert is_odd_prime(MAX_PRIME - 2) is False  # composite, still decided
        # MAX_PRIME is a strong pseudoprime to every base 2..41
        with pytest.raises(InvalidContext):
            PrimeContext(MAX_PRIME)

    def test_moduli(self):
        # the context carries N and the echoed margin; each SNF reading
        # reduces mod p^e itself
        ctx = PrimeContext(3, precision=10, margin=5)
        assert (ctx.p, ctx.precision, ctx.margin) == (3, 10, 5)
        assert (PrimeContext(3).precision, PrimeContext(3).margin) == (40, 8)


class TestInvariants:
    @pytest.mark.parametrize(
        "coeffs,mu,lam",
        [
            ((9,), 2, 0),  # p^2
            ((0, 0, 1, 1), 0, 2),  # X^2(1+X)
            ((0, 3), 1, 1),  # 3X
            ((1, 1), 0, 0),  # unit
            ((3, 9, 18, 21, 15, 6, 1), 0, 6),  # Phi_2 is distinguished
        ],
    )
    def test_frozen(self, ctx3, coeffs, mu, lam):
        inv = iwasawa_invariants(ctx3, LambdaElement(coeffs))
        assert (inv.mu, inv.lambda_) == (mu, lam)

    def test_zero_rejected(self, ctx3):
        with pytest.raises(ZeroElement):
            iwasawa_invariants(ctx3, ZERO)

    @settings(max_examples=60, deadline=None)
    @given(f=nonzero_polys, g=nonzero_polys)
    def test_additive_under_product(self, f, g):
        a = iwasawa_invariants(CTX3, f)
        b = iwasawa_invariants(CTX3, g)
        c = iwasawa_invariants(CTX3, f * g)
        assert c.mu == a.mu + b.mu
        assert c.lambda_ == a.lambda_ + b.lambda_

    @settings(max_examples=40, deadline=None)
    @given(
        mu=st.integers(min_value=0, max_value=2),
        lam=st.integers(min_value=0, max_value=4),
        low=st.lists(st.integers(min_value=-8, max_value=8), min_size=0, max_size=3),
        unit_tail=st.lists(st.integers(min_value=-8, max_value=8), min_size=0, max_size=2),
    )
    def test_recovers_weierstrass_shape(self, mu, lam, low, unit_tail):
        dist = LambdaElement((0,) * lam + (1,)) + LambdaElement(
            [3 * c for c in low[:lam]]
        )
        unit = LambdaElement([1] + unit_tail)
        f = LambdaElement.const(3**mu) * dist * unit
        inv = iwasawa_invariants(CTX3, f)
        assert (inv.mu, inv.lambda_) == (mu, lam)


class TestElementArithmetic:
    @settings(max_examples=60, deadline=None)
    @given(f=small_polys, g=monic_polys)
    def test_divmod_monic(self, f, g):
        q, r = f.divmod_monic(g)
        assert q * g + r == f
        assert r.is_zero or r.degree < g.degree

    @settings(max_examples=60, deadline=None)
    @given(f=small_polys, g=monic_polys)
    def test_exact_division_roundtrip(self, f, g):
        prod = f * g
        assert prod.divisible_by(g)
        assert prod.exact_div(g) == f

    def test_constants_hash_like_their_integers(self):
        for c in range(-3, 4):
            assert hash(LambdaElement.const(c)) == hash(c)
            assert len({LambdaElement.const(c), c}) == len({c, LambdaElement.const(c)}) == 1
        assert hash(ZERO) == hash(0)
        assert len({ONE, 1}) == len({ZERO, 0}) == 1

    def test_divisible_by_negative_case(self):
        assert not LambdaElement((1, 1)).divisible_by(LambdaElement((0, 1)))

    @settings(max_examples=60, deadline=None)
    @given(f=small_polys)
    def test_json_roundtrip(self, f):
        assert LambdaElement.from_json_dict(f.to_json_dict()) == f

    def test_json_coefficients_are_integers(self):
        assert LambdaElement.from_json_dict({"coeffs": ["-2", 1]}) == LambdaElement((-2, 1))
        assert LambdaElement.from_json_dict("3") == LambdaElement.from_json_dict([3]) == LambdaElement((3,))
        for bad in ({"coeffs": [2.5, 1]}, {"coeffs": [True, 1]}, [1.0], False, 2.5, None, {"coeffs": ["2.5"]},
                    {"coeffs": "12"}):
            with pytest.raises(ValueError):
                LambdaElement.from_json_dict(bad)

    def test_non_integer_coefficients_are_refused(self, ctx3):
        # a coefficient that is not an integer raises instead of being
        # truncated: 3.9 + X would otherwise be read as 3 + X
        for bad in ([2.5, 1.9], [Fraction(3, 2)], [Fraction(3)], ["2"], [1, 2.0]):
            with pytest.raises(TypeError):
                LambdaElement(bad)
        with pytest.raises(TypeError):
            LambdaMatrix(((2.7, 0), (0, 1)))
        with pytest.raises(TypeError):
            nabla_cyclic(ctx3, LambdaElement([3.9, 1]), 1)
        assert LambdaElement([True, 2, 0]).coeffs == (1, 2)
        assert LambdaMatrix(((2, 0), (0, 1))) == LambdaMatrix.diagonal(LambdaElement.const(2), ONE)

    def test_matrix_json_roundtrip(self, ctx3):
        a = LambdaMatrix(((X, ONE), (cyclotomic_phi(ctx3, 1), ZERO)))
        assert LambdaMatrix.from_json_list(a.to_json_list()) == a

    def test_matmul_equals_composed_product(self):
        rng = random.Random(7)

        def entry():
            kind = rng.randrange(4)
            if kind == 0:
                return ZERO
            if kind == 1:
                return LambdaElement.const(rng.randint(-9, 9))
            bound = 2**200 if kind == 3 else 9
            return LambdaElement([rng.randint(-bound, bound) for _ in range(rng.randint(1, 5))])

        def matrix():
            return LambdaMatrix(((entry(), entry()), (entry(), entry())))

        # cancelling products strip to zero and to a lower degree
        cases = [(LambdaMatrix(((X, X), (ONE, ONE + X))), LambdaMatrix(((X, ONE), (-X, -ONE))))]
        cases += [(matrix(), matrix()) for _ in range(200)]
        for m, o in cases:
            (a, c), (b, d) = m.rows
            (e, g), (f, h) = o.rows
            got = m @ o
            assert got == LambdaMatrix(((a * e + c * f, a * g + c * h), (b * e + d * f, b * g + d * h)))
            for r in got.entries:
                assert all(type(x) is int for x in r.coeffs)
                assert not r.coeffs or r.coeffs[-1] != 0

    def test_matrix_det_convention(self):
        a = LambdaMatrix(((LambdaElement((1,)), LambdaElement((3,))),
                          (LambdaElement((2,)), LambdaElement((4,)))))
        assert a.det == LambdaElement((-2,))
        assert a.column(0) == (LambdaElement((1,)), LambdaElement((2,)))


class TestReduceModOmega:
    @settings(max_examples=40, deadline=None)
    @given(f=small_polys, h=small_polys)
    def test_well_defined_mod_omega(self, f, h):
        omega = omega_poly(CTX3, 1)
        assert f.reduced_mod(omega) == (f + omega * h).reduced_mod(omega)
