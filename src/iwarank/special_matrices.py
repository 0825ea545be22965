"""2x2 matrices over Lambda with column-divisibility structure.

A matrix A is *special relative to n* when for every m <= n with
Phi_m | det A, some full column of A is divisible by Phi_m.  Such a
matrix factors as A = B D with D diagonal carrying squarefree products
of the Phi_m (m <= n-1), the multiplicity of Phi_m in det D being the
number of divisible columns.

Coleman data is a pair (Col^+, Col^-) of 2x2 matrices; the level-n
coupling matrix is

    F_n = omega-tilde_n^+ * Col^-  +  omega-tilde_n^- * Col^+,

which at eps_m collapses to a nonzero scalar multiple of Col^- (m odd or
m = 0) or Col^+ (m even >= 2), because exactly one signed product
vanishes there.  good_basis_transform produces a single invertible B
making every F_n B special, by gluing kernel-killing local blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclo_eval import INFINITE, _glue, _residue, _vanishing_columns, rank_at_eps
from .errors import (
    DegenerateColeman,
    InvalidContext,
    NotCoprime,
    NotSpecial,
    PostconditionFailed,
    SingularMatrix,
)
from .lambda_ring import (
    ONE,
    ZERO,
    LambdaMatrix,
    PrimeContext,
    Record,
    _phi_product,
    check_level,
    omega_tower,
)


@dataclass(frozen=True)
class SpecialLevel(Record):
    m: int
    i_m: int
    det_divisible: bool
    ok: bool


@dataclass(frozen=True)
class SpecialReport(Record):
    n: int
    per_level: tuple[SpecialLevel, ...]
    verdict: bool


@dataclass(frozen=True)
class BDFactorization(Record):
    b: LambdaMatrix
    d: LambdaMatrix


@dataclass(frozen=True)
class ColemanData(Record):
    """A pair of 2x2 Coleman matrices.

    Structural invariants (checked by validate): every entry of col_plus
    is divisible by X (the plus image lies in X*Lambda), and both
    determinants are nonzero.
    """

    col_plus: LambdaMatrix
    col_minus: LambdaMatrix

    def validate(self) -> "ColemanData":
        for e in self.col_plus.entries:
            if not e.is_zero and e.coeffs[0] != 0:
                raise DegenerateColeman("col_plus entries must be divisible by X")
        if self.col_plus.det.is_zero:
            raise DegenerateColeman("det col_plus is zero")
        if self.col_minus.det.is_zero:
            raise DegenerateColeman("det col_minus is zero")
        return self

    def transformed(self, b: LambdaMatrix) -> "ColemanData":
        """Right-multiply both matrices by B (a change of basis of the
        source module); preserves X-divisibility of col_plus."""
        return ColemanData(self.col_plus @ b, self.col_minus @ b)


def parity_reference(cd: ColemanData, m: int) -> LambdaMatrix:
    """The Coleman matrix F_n collapses to at eps_m: col_minus for m odd
    or m = 0, col_plus for even m >= 2."""
    return cd.col_minus if (m == 0 or m % 2 == 1) else cd.col_plus


def _column_levels(ctx: PrimeContext, a: LambdaMatrix, n: int) -> list:
    """Per level m <= n: whether Phi_m divides det A, and for each column
    whether it vanishes at eps_m.  SingularMatrix, then a negative level
    or one past the explicit cap, are refused first."""
    if a.det.is_zero:
        raise SingularMatrix("det A = 0: every level divides the determinant")
    check_level(ctx.p, n)
    return [
        (_residue(ctx, m, a.det).is_zero, tuple(_vanishing_columns(ctx, m, a)))
        for m in range(n + 1)
    ]


def is_special(ctx: PrimeContext, a: LambdaMatrix, n: int) -> SpecialReport:
    """Column-divisibility report for every level m <= n."""
    levels = tuple(
        SpecialLevel(m=m, i_m=sum(cols), det_divisible=det_div, ok=not det_div or any(cols))
        for m, (det_div, cols) in enumerate(_column_levels(ctx, a, n))
    )
    return SpecialReport(n=n, per_level=levels, verdict=all(lv.ok for lv in levels))


def _special(ctx: PrimeContext, a: LambdaMatrix, ords: list) -> bool:
    """is_special(ctx, a, n).verdict from ords = [ord_{eps_m}(det A) for
    m <= n]: columns are tested only where Phi_m divides det A, up to the
    first that vanishes."""
    return all(any(_vanishing_columns(ctx, m, a)) for m, o in enumerate(ords) if o == INFINITE)


def factor_bd(ctx: PrimeContext, a: LambdaMatrix, n: int) -> BDFactorization:
    """A = B D with D = diag of the squarefree Phi-products (m <= n-1)
    dividing each column; exact division, no remainder."""
    levels = _column_levels(ctx, a, n)
    bad = [m for m, (det_div, cols) in enumerate(levels) if det_div and not any(cols)]
    if bad:
        raise NotSpecial(f"column divisibility fails at levels {bad}")
    d = [
        _phi_product(ctx.p, tuple(m for m, (_, cols) in enumerate(levels[:n]) if cols[j]))
        for j in (0, 1)
    ]
    b_cols = [tuple(e.exact_div(dj) for e in a.column(j)) for j, dj in enumerate(d)]
    return BDFactorization(b=LambdaMatrix(tuple(zip(*b_cols))), d=LambdaMatrix.diagonal(*d))


def assemble_fn(ctx: PrimeContext, cd: ColemanData, n: int) -> LambdaMatrix:
    """The level-n coupling matrix
    F_n = omega-tilde_n^+ * col_minus + omega-tilde_n^- * col_plus."""
    tower = omega_tower(ctx, n)
    return cd.col_minus.scaled(tower.omega_tilde_plus) + cd.col_plus.scaled(
        tower.omega_tilde_minus
    )


def parity_congruence_check(ctx: PrimeContext, cd: ColemanData, n: int) -> bool:
    """Whether F_n(eps_m) is a nonzero scalar multiple of the parity
    reference matrix at every m <= n: a theorem for every valid pair, so
    after checking its inputs this returns True.  Proof: at eps_m, m >= 1,
    the signed product holding Phi_m vanishes (omega-tilde_n^- for odd m,
    ^+ for even m); the other is a product of Phi_j(eps_m) != 0 (j != m).
    At m = 0 both are powers of Phi_j(0) = p, and X divides col_plus.
    """
    cd.validate()
    check_level(ctx.p, n)
    return True


def _kernel_killer(ctx: PrimeContext, cd: ColemanData, m: int):
    """Where the parity reference has rank one at eps_m (the one
    minor-rank reading over Q_p(zeta_{p^m}), rank_at_eps), a 2x2
    block over Z[X]/Phi_m, invertible there, whose first column spans its
    kernel; None at rank 0 or 2."""
    ref = parity_reference(cd, m)
    if rank_at_eps(ctx, m, ref.columns, 2) != 1:
        return None
    a, c, b, d = (_residue(ctx, m, e) for e in ref.entries)
    x, y = (-c, a) if not (a.is_zero and c.is_zero) else (-d, b)
    if not x.is_zero:
        return LambdaMatrix(((x, ZERO), (y, ONE)))  # det = x
    return LambdaMatrix(((x, ONE), (y, ZERO)))  # det = -y, nonzero since (x, y) != 0


def good_basis_transform(ctx: PrimeContext, cd: ColemanData, n_max: int) -> LambdaMatrix:
    """An integer-polynomial B, invertible at every eps_m (m <= n_max),
    such that F_n B is special relative to n for all n <= n_max.

    Local kernel-killing blocks at the rank-one levels, and the identity
    at the other levels m <= top (top the highest rank-one level), are
    glued by cyclo_eval._glue: a sum of p^top times idempotents, reduced
    mod omega_top and divided by the largest common p-power, so
    B = s * block_m mod Phi_m for one power s of p.  Nothing else is
    needed.  Proof that det B is free of every Phi_m, m <= n_max:
      m <= top: B = s * block_m mod Phi_m, and every block is invertible
        over Q[X]/Phi_m, so det B = s^2 det block_m != 0 there.  In
        particular det B != 0.
      m > top: every entry is reduced mod prod_{j <= top} Phi_j = omega_top,
        of degree p^top, and the division keeps degrees, so
        deg det B <= 2 p^top - 2 < (p - 1) p^top <= deg Phi_m as p >= 3;
        a nonzero polynomial of lower degree is not divisible by Phi_m.

    Specialness is read once, on F_{n_max} B.  By the proof in
    parity_congruence_check, F_n(eps_m) is a nonzero multiple of
    parity_reference(cd, m)(eps_m) for every n >= m, so whether Phi_m
    divides det F_n B, and which columns of F_n B vanish at eps_m, do not
    depend on n: is_special(F_n B, n) is the prefix m <= n of the levels of
    F_{n_max} B, whose det is det F_{n_max} det B.  Level m answers for
    F_{max(m,1)}, in the order of the per-n checks; each lower F_n is still
    assembled, because det F_n = 0 is refused (SingularMatrix) at its own n
    even where det F_{n_max} is not 0.
    """
    cd.validate()
    if n_max < 0:
        raise InvalidContext(f"n_max must be >= 0, got {n_max}")
    check_level(ctx.p, n_max)
    blocks = {m: k for m in range(n_max + 1) if (k := _kernel_killer(ctx, cd, m)) is not None}
    b = _glue(ctx, blocks) if blocks else LambdaMatrix.identity()
    for m in range(n_max + 1):
        if _residue(ctx, m, b.det).is_zero:
            raise PostconditionFailed(f"internal: det B vanishes at eps_{m}")
    fs = [assemble_fn(ctx, cd, n) for n in range(1, n_max + 1)]
    if fs:
        fb, det = fs[-1] @ b, fs[-1].det * b.det
    for n, f in enumerate(fs, 1):
        if f.det.is_zero:
            raise SingularMatrix("det A = 0: every level divides the determinant")
        for m in range(0 if n == 1 else n, n + 1):
            if _residue(ctx, m, det).is_zero and not any(_vanishing_columns(ctx, m, fb)):
                raise PostconditionFailed(f"internal: F_{n} B is not special")
    return b


def rod_check(ctx: PrimeContext, b: LambdaMatrix, n: int, test_level: int) -> bool:
    """Saturation of the span of B against omega_n at a finite level:
    inside Lambda_t^2 (t = test_level > n),

        omega_n Lambda_t^2  intersect  <B>   =   omega_n <B>.

    This holds whenever det B is coprime to omega_n (NotCoprime
    otherwise), so after checking its inputs the function returns True.
    Proof: omega_n <B> lies in both spans.  Conversely take x = B y in
    omega_n Lambda_t^2.  Reducing mod omega_n gives B' y' = 0 in
    Lambda_n^2, where ' marks the image in Lambda_n = Lambda_t / omega_n.
    No Phi_m with m <= n divides det B, so det B' is nonzero in every
    factor of Lambda_n (x) Q = prod_{m <= n} Q_p(zeta_{p^m}) and B' is
    invertible there.  Lambda_n is Z_p-free, so B' is injective on
    Lambda_n^2.  Hence y' = 0, y = omega_n z and x = omega_n B z.
    """
    if test_level <= n:
        raise InvalidContext(f"test_level must exceed n, got {test_level} <= {n}")
    check_level(ctx.p, n)
    for m in range(n + 1):
        if _residue(ctx, m, b.det).is_zero:
            raise NotCoprime(f"Phi_{m} divides det B")
    return True
