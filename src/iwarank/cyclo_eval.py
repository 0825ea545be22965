"""Evaluation at the cyclotomic points eps_m = zeta_{p^m} - 1.

Z_p[zeta_{p^m}] = Z_p[X]/(Phi_m) is totally ramified of degree
phi(p^m) = deg Phi_m over Z_p: Phi_m is Eisenstein in X, so eps_m is a
uniformizer and v(p) = phi(p^m) in the valuation normalized by
ord(eps_m) = 1.  Writing r = f mod Phi_m on the power basis,

    ord_{eps_m}(f(eps_m)) = min over r_i != 0 of phi(p^m) v_p(r_i) + i,

because the terms r_i eps_m^i have valuations that differ mod
phi(p^m) and so cannot cancel.  Level 0 uses eps_0 = 0, i.e. ord is
v_p(f(0)).  The value is infinite exactly when Phi_m | f.

Every question the package asks at eps_m is answered here from r: value
and divisibility (CyclotomicPoint), valuation (ord_eps), the vanishing
columns of a matrix (_vanishing_columns), rank (rank_at_eps) and
proportionality (matrices_proportional_at_eps).  No other module
divides by Phi_m.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, inf, lcm

from .errors import DuplicateLevel, InvalidContext
from .exactlinalg import _minor_rank
from .lambda_ring import (
    ONE,
    ZERO,
    LambdaElement,
    LambdaMatrix,
    PrimeContext,
    Record,
    cyclotomic_phi,
    euler_phi_pk,
    omega_poly,
    vp,
)

INFINITE = inf  # extended nonnegative integer; serializes as "inf"


def ord_json(v) -> object:
    return "inf" if v == INFINITE else int(v)


@dataclass(frozen=True)
class CyclotomicPoint(Record):
    """The image f(eps_m) in Z_p[zeta_{p^m}], stored on the power basis.

    ``rep`` is the reduction of f mod Phi_m: degree < phi(p^m) for
    m >= 1, and a bare constant for m = 0 (where eps_0 = 0).
    """

    m: int
    rep: LambdaElement

    @classmethod
    def of(cls, ctx: PrimeContext, m: int, f: LambdaElement) -> "CyclotomicPoint":
        return cls(m, f.reduced_mod(cyclotomic_phi(ctx, m)))

    @property
    def is_zero(self) -> bool:
        return self.rep.is_zero

    def ord(self, ctx: PrimeContext):
        """Valuation normalized by ord(eps_m) = 1; INFINITE at zero."""
        if self.rep.is_zero:
            return INFINITE
        if self.m == 0:
            return vp(self.rep.coeffs[0], ctx.p)
        e = euler_phi_pk(ctx.p, self.m)
        return min(e * vp(c, ctx.p) + i for i, c in enumerate(self.rep.coeffs) if c)


def ord_eps(ctx: PrimeContext, m: int, f: LambdaElement):
    """Normalized valuation of f(eps_m); INFINITE iff Phi_m divides f."""
    return CyclotomicPoint.of(ctx, m, f).ord(ctx)


def _vanishing_columns(ctx: PrimeContext, m: int, a: LambdaMatrix):
    """Lazily, for each column of A, whether Phi_m divides both entries:
    a column stops at its first entry that does not vanish, and any()
    stops at the first column that does."""
    return (all(CyclotomicPoint.of(ctx, m, e).is_zero for e in col) for col in a.columns)


def matrix_rank_at_eps(ctx: PrimeContext, m: int, a: LambdaMatrix) -> int:
    """Rank of A(eps_m) over the fraction field of Z_p[zeta_{p^m}]."""
    return rank_at_eps(ctx, m, a.columns, 2)


def rank_at_eps(ctx: PrimeContext, m: int, columns, k: int) -> int:
    """Rank at eps_m of the k x c polynomial matrix with the given
    columns: the size of its largest minor not divisible by Phi_m.

    Z_p[X]/Phi_m is a domain, so this is the rank over Q_p(zeta_{p^m});
    since Lambda_n x Q_p is the product of these fields for m <= n, the
    Q-rank of the matrix's Lambda_n-span is sum phi(p^m) rank_at_eps(m).
    """
    phi = cyclotomic_phi(ctx, m)
    red = [tuple(e.reduced_mod(phi) for e in col) for col in columns]
    return _minor_rank(red, k, lambda f: f.reduced_mod(phi))


def matrices_proportional_at_eps(
    ctx: PrimeContext, m: int, f: LambdaMatrix, c: LambdaMatrix
) -> bool:
    """Whether F(eps_m) = scalar * C(eps_m) for some nonzero scalar.

    Decided integrally: cross products against a reference entry, all
    mod Phi_m (an integral domain, so no division is needed).
    """
    phi = cyclotomic_phi(ctx, m)
    fe = [e.reduced_mod(phi) for e in f.entries]
    ce = [e.reduced_mod(phi) for e in c.entries]
    ref = next((i for i, e in enumerate(ce) if e), None)
    if ref is None:  # C(eps_m) = 0: only F(eps_m) = 0 is a multiple
        return not any(fe)
    return bool(fe[ref]) and all(
        (fe[i] * ce[ref] - fe[ref] * ce[i]).reduced_mod(phi).is_zero for i in range(4)
    )


# -- rational polynomials and cyclotomic CRT --------------------------


@dataclass(frozen=True)
class RationalPoly:
    """numerator / denominator with integer numerator, positive integer
    denominator, and gcd(content(numerator), denominator) = 1."""

    numerator: LambdaElement
    denominator: int

    @classmethod
    def make(cls, numerator: LambdaElement, denominator: int = 1) -> "RationalPoly":
        if denominator == 0:
            raise ZeroDivisionError("zero denominator")
        if denominator < 0:
            numerator, denominator = -numerator, -denominator
        if numerator.is_zero:
            return cls(numerator, 1)
        g = gcd(numerator.content_gcd(), denominator)
        if g > 1:
            numerator = LambdaElement(c // g for c in numerator.coeffs)
            denominator //= g
        return cls(numerator, denominator)

    def to_json_dict(self) -> dict:
        return {
            "numerator": self.numerator.to_json_dict(),
            "denominator": str(self.denominator),
        }


def crt_interpolate(ctx: PrimeContext, points) -> RationalPoly:
    """The unique F in Q[X] of degree < sum deg Phi_{m_i} with
    F = x_i mod Phi_{m_i} at every listed level m_i.

    Let t be the top listed level.  Q[X]/omega_t is the product of the
    fields Q[X]/Phi_j (j <= t), and the idempotent of the levels <= m is

        (omega_t / omega_m) / p^(t-m),   omega_t / omega_m = prod_{m<j<=t} Phi_j,

    because Phi_j(eps_i) = p for i < j.  Differences of consecutive ones
    give the idempotent e_m of level m, and F is sum x_i e_{m_i} reduced
    mod prod Phi_{m_i}.  All arithmetic is on integer numerators over
    the one denominator lcm(value denominators) * p^t, which the output's
    denominator therefore divides.
    """
    values = {}
    for m, value in points:
        if m in values:
            raise DuplicateLevel(f"level {m} listed twice")
        if isinstance(value, RationalPoly):
            values[m] = value
        elif isinstance(value, LambdaElement):
            values[m] = RationalPoly(value, 1)
        else:
            values[m] = RationalPoly(LambdaElement.const(int(value)), 1)
    if not values:
        raise InvalidContext("need at least one interpolation point")
    p = ctx.p
    t = max(values)
    omega_t = omega_poly(ctx, t)

    def lower(m: int) -> LambdaElement:
        # p^t times the idempotent of the levels <= m
        return omega_t.exact_div(omega_poly(ctx, m)) * p**m if m >= 0 else ZERO

    den = lcm(*(v.denominator for v in values.values()))
    acc = ZERO
    modulus = ONE
    for m, v in values.items():
        idem = lower(m) - lower(m - 1)
        acc = acc + v.numerator * (den // v.denominator) * idem
        modulus = modulus * cyclotomic_phi(ctx, m)
    return RationalPoly.make(acc.reduced_mod(modulus), den * p**t)
