"""Signed growth bookkeeping: s-sequence, step formulas, Sha tables.

The alternating sums s_n = p^n - p^{n-1} + ... -+ p satisfy
s_n + s_{n-1} = p^n and are the degrees of the reduced signed products:
deg omega-tilde_n^+ = s_{n-1} for n odd, deg omega-tilde_n^- =
s_{n-1} - 1 for n even.  With lambda/mu the signed invariants (minus
for odd steps, plus for even) and r the rational corank soaked up at
every step, the order of the n-th Sha group satisfies

    e_n - e_{n-1} = 2 s_{n-1} + lambda + (p^n - p^{n-1}) mu - r

for n past the base level, and the X-side step rank is the same
expression without the r term.

Read from Coleman data (Col^+, Col^-), lambda^- and mu^- are the
invariants of det Col^-, and lambda^+ and mu^+ those of det Col^+ / X^2:
X divides every entry of Col^+, so X^2 divides its determinant.  The
sign governing step n is minus for odd n and plus for even n, and the
X-side formula is the nabla of the level-n Coleman tower once the step
is past stabilization, phi(p^n) = p^n - p^{n-1} > lambda of that sign
(tests/test_growth_model.py compares the two).
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from .errors import InvalidContext
from .lambda_ring import (
    PrimeContext,
    Record,
    _require_ints,
    euler_phi_pk,
    is_odd_prime,
    omega_tower,
    signed_degree,
)

# above this explicit-construction size the degree identities are checked
# by factor-degree bookkeeping instead of building the actual products
_EXPLICIT_DEGREE_CAP = 300


@dataclass(frozen=True)
class InvariantSet(Record):
    p: int
    lambda_plus: int
    lambda_minus: int
    mu_plus: int
    mu_minus: int
    r_inf: int

    def __post_init__(self):
        _require_ints(**vars(self))
        if not is_odd_prime(self.p):
            raise InvalidContext(f"p must be an odd prime, got {self.p}")
        for name in ("lambda_plus", "lambda_minus", "mu_plus", "mu_minus", "r_inf"):
            if getattr(self, name) < 0:
                raise InvalidContext(f"{name} must be >= 0")

    def signed(self, n: int) -> tuple[int, int]:
        """(lambda, mu) of the sign governing step n: minus for odd n,
        plus for even n."""
        if n % 2 == 1:
            return self.lambda_minus, self.mu_minus
        return self.lambda_plus, self.mu_plus


@dataclass(frozen=True)
class GrowthRow(Record):
    n: int
    parity: str
    s_prev: int
    delta_e: int
    e_n: int


@dataclass(frozen=True)
class GrowthTable(Record):
    invariants: InvariantSet
    base_level: int
    base_value: int
    rows: tuple[GrowthRow, ...]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("n,parity,s_prev,delta_e,e_n\n")
        for r in self.rows:
            out.write(f"{r.n},{r.parity},{r.s_prev},{r.delta_e},{r.e_n}\n")
        return out.getvalue()


def s_sequence(p: int, n: int) -> int:
    """s_n = p^n - p^{n-1} + ... -+ p = p (p^n - (-1)^n) / (p + 1); s_0 = 0."""
    _require_ints(level=n)
    if n < 0:
        raise InvalidContext(f"s_n needs n >= 0, got {n}")
    return p * (p**n - (-1) ** n) // (p + 1)


def nabla_x_formula(inv: InvariantSet, n: int) -> int:
    """The X-side step rank 2 s_{n-1} + lambda + (p^n - p^{n-1}) mu with
    the parity-matched invariants."""
    _require_ints(level=n)
    if n < 1:
        raise InvalidContext(f"steps start at n = 1, got {n}")
    lam, mu = inv.signed(n)
    return 2 * s_sequence(inv.p, n - 1) + lam + euler_phi_pk(inv.p, n) * mu


def delta_e(inv: InvariantSet, n: int) -> int:
    """The Sha step e_n - e_{n-1}: the X-side rank minus r_inf."""
    return nabla_x_formula(inv, n) - inv.r_inf


def sha_growth(
    inv: InvariantSet, n_range, baseline: tuple[int, int]
) -> GrowthTable:
    """Cumulative table of e_n starting from a known (n_0, e_{n_0});
    n_range must be the contiguous run n_0+1, n_0+2, ..."""
    n0, e0 = baseline
    _require_ints(baseline_level=n0, baseline_value=e0)
    if n0 < 0 or e0 < 0:
        raise InvalidContext("baseline level and value must be >= 0")
    levels = list(n_range)
    if not levels:
        raise InvalidContext("empty level range")
    for n in levels:
        _require_ints(level=n)
    if levels[0] != n0 + 1 or levels != list(range(levels[0], levels[-1] + 1)):
        raise InvalidContext(
            f"levels must run contiguously from n_0+1 = {n0 + 1}, got {levels}"
        )
    rows = []
    e = e0
    for n in levels:
        d = delta_e(inv, n)
        e = e + d
        rows.append(
            GrowthRow(
                n=n,
                parity="odd" if n % 2 == 1 else "even",
                s_prev=s_sequence(inv.p, n - 1),
                delta_e=d,
                e_n=e,
            )
        )
    return GrowthTable(
        invariants=inv, base_level=n0, base_value=e0, rows=tuple(rows)
    )


def degree_identities(ctx: PrimeContext, n: int) -> dict:
    """Check deg omega-tilde_n^+ = s_{n-1} when n is odd (odd_ok) and
    deg omega-tilde_n^- = s_{n-1} - 1 when n is even (even_ok); the
    off-parity flag is vacuously true.

    Small towers are built explicitly and their actual degrees compared;
    past the explicit cap the check runs on exact factor-degree
    bookkeeping (the factors are monic, so degrees add).
    """
    _require_ints(level=n)
    if n < 1:
        raise InvalidContext(f"degree identities start at n = 1, got {n}")
    p = ctx.p
    s_prev = s_sequence(p, n - 1)
    explicit = p**n <= _EXPLICIT_DEGREE_CAP
    if explicit:
        tower = omega_tower(ctx, n)
        deg_plus = tower.omega_tilde_plus.degree
        deg_minus = tower.omega_tilde_minus.degree
    else:
        deg_plus = signed_degree(p, n, "+")
        deg_minus = signed_degree(p, n, "-")
    odd_ok = n % 2 == 0 or deg_plus == s_prev
    even_ok = n % 2 == 1 or deg_minus == s_prev - 1
    return {
        "n": n,
        "odd_ok": odd_ok,
        "even_ok": even_ok,
        "deg_tilde_plus": deg_plus,
        "deg_tilde_minus": deg_minus,
        "s_prev": s_prev,
        "explicit": explicit,
    }
