"""Finite-quotient linear algebra: Smith normal form over Z/p^N.

Z/p^N is a chain ring, so any matrix is equivalent to
diag(p^{a_1}, ..., p^{a_r}, 0) with a_1 <= ... <= a_r; a zero diagonal
entry is encoded as valuation N.  Lengths of spans and quotients are read
off these valuations.

Truncation discipline: a valuation >= N is indistinguishable from 0, so
every measurement is recomputed at precision N + margin from the exact
integer preimages that SpanPresentation retains, and the two readings
must agree.  Q-ranks are never taken from mod-p^N data; they come from
fraction-free elimination on the exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidContext, NotNested, PrecisionUnstable
from .exactlinalg import bareiss_rank
from .lambda_ring import LambdaElement, PrimeContext, _omega


@dataclass(frozen=True)
class LengthReport:
    """A Z_p-length together with the precision-stability verdict."""

    length: int
    stable: bool

    def to_json_dict(self) -> dict:
        return {"length": self.length, "stable": self.stable}


@dataclass(frozen=True)
class SpanPresentation:
    """A Z_p-span inside Z_p^{ambient_rank}, given by generator columns.

    Columns are exact integers; reductions mod p^N are derived on demand
    so that the same span can be measured at several precisions.
    """

    ambient_rank: int
    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for col in self.columns:
            if len(col) != self.ambient_rank:
                raise InvalidContext(
                    f"column length {len(col)} != ambient rank {self.ambient_rank}"
                )

    def rows_mod(self, modulus: int) -> list[list[int]]:
        return [
            [col[i] % modulus for col in self.columns] for i in range(self.ambient_rank)
        ]

    def rows_exact(self) -> list[list[int]]:
        return [[col[i] for col in self.columns] for i in range(self.ambient_rank)]

    def concat(self, other: "SpanPresentation") -> "SpanPresentation":
        if other.ambient_rank != self.ambient_rank:
            raise InvalidContext("ambient ranks differ")
        return SpanPresentation(self.ambient_rank, self.columns + other.columns)


def _intval(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _snf(rows, p: int, e: int, want_left: bool = False, want_right: bool = False):
    """Diagonalize over Z/p^e by unimodular row/column operations.

    Returns (vals, L, R): vals are the nondecreasing pivot valuations
    padded with e (= zero entries) to min(nrows, ncols); L and R, when
    requested, satisfy L @ input @ R = diag mod p^e.
    """
    pe = p ** e
    m = [[x % pe for x in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    left = [[int(i == j) for j in range(nr)] for i in range(nr)] if want_left else None
    right = [[int(i == j) for j in range(nc)] for i in range(nc)] if want_right else None
    vals: list[int] = []
    mind = min(nr, nc)
    r = 0
    while r < mind:
        # prefer a unit pivot (almost always present early); otherwise
        # fall back to a full minimum-valuation scan
        pi = pj = -1
        for i in range(r, nr):
            row = m[i]
            for j in range(r, nc):
                x = row[j]
                if x and x % p:
                    pi, pj = i, j
                    break
            if pi >= 0:
                break
        if pi < 0:
            best = e
            for i in range(r, nr):
                row = m[i]
                for j in range(r, nc):
                    x = row[j]
                    if x:
                        v = _intval(x, p)
                        if v < best:
                            best, pi, pj = v, i, j
            if pi < 0:
                break  # remaining submatrix is zero
        if pi != r:
            m[r], m[pi] = m[pi], m[r]
            if want_left:
                left[r], left[pi] = left[pi], left[r]
        if pj != r:
            for row in m:
                row[r], row[pj] = row[pj], row[r]
            if want_right:
                for row in right:
                    row[r], row[pj] = row[pj], row[r]
        pivot = m[r][r]
        v = _intval(pivot, p)
        pv = p ** v
        unit = pivot // pv
        if unit != 1:
            inv = pow(unit, -1, pe)
            m[r] = [(x * inv) % pe for x in m[r]]
            if want_left:
                left[r] = [(x * inv) % pe for x in left[r]]
        rowr = m[r]
        for i in range(r + 1, nr):
            t = m[i][r]
            if t:
                q = t // pv
                rowi = m[i]
                for j in range(r, nc):
                    rowi[j] = (rowi[j] - q * rowr[j]) % pe
                if want_left:
                    li, lr = left[i], left[r]
                    for j in range(nr):
                        li[j] = (li[j] - q * lr[j]) % pe
        # the column below the pivot is now zero, so clearing the pivot
        # row is a pure column operation on row r
        for j in range(r + 1, nc):
            t = rowr[j]
            if t:
                q = t // pv
                rowr[j] = 0
                if want_right:
                    for row in right:
                        row[j] = (row[j] - q * row[r]) % pe
        vals.append(v)
        r += 1
    vals.extend([e] * (mind - len(vals)))
    return vals, left, right


def snf_local(ctx: PrimeContext, matrix) -> list[int]:
    """Diagonal valuations of an integer matrix over Z/p^N, nondecreasing;
    valuation N encodes a zero diagonal entry."""
    rows = [list(map(int, row)) for row in matrix]
    if rows and any(len(row) != len(rows[0]) for row in rows):
        raise InvalidContext("ragged matrix")
    vals, _, _ = _snf(rows, ctx.p, ctx.precision)
    return vals


def finite_valuations(span: SpanPresentation, p: int, e: int) -> list[int]:
    """The finite SNF valuations of a span over Z/p^e: those below e,
    nondecreasing, one per elementary divisor that p^e does not kill."""
    vals, _, _ = _snf(span.rows_mod(p**e), p, e)
    return [a for a in vals if a < e]


def _measure(ctx: PrimeContext, span: SpanPresentation):
    """(length at N, stable, finite-divisor count) for a span.

    Stability: the finite valuation multisets at N and N + margin must be
    identical — any true elementary divisor landing in [N, N + margin)
    shows up at the high precision only and flags the reading.
    """
    fin_lo = finite_valuations(span, ctx.p, ctx.precision)
    fin_hi = finite_valuations(span, ctx.p, ctx.high_precision)
    stable = fin_lo == fin_hi
    length = sum(ctx.precision - a for a in fin_lo)
    return length, stable, len(fin_lo)


def span_length(ctx: PrimeContext, span: SpanPresentation) -> LengthReport:
    """Length of the span as a Z/p^N-module (sum of N - a_i over finite
    valuations), with the two-precision stability verdict."""
    length, stable, _ = _measure(ctx, span)
    return LengthReport(length=length, stable=stable)


def quotient_invariants(ctx: PrimeContext, relations: SpanPresentation):
    """(free_rank, torsion length report) of ambient / <relations>.

    free_rank is computed from the exact integer matrix (never from
    truncated data); the torsion length is the sum of the finite SNF
    valuations.  Raises PrecisionUnstable if the torsion readings at N
    and N + margin disagree, or if a finite divisor escaped both.
    """
    fin_lo = finite_valuations(relations, ctx.p, ctx.precision)
    fin_hi = finite_valuations(relations, ctx.p, ctx.high_precision)
    if fin_lo != fin_hi:
        raise PrecisionUnstable(
            f"torsion reading differs between N={ctx.precision} and "
            f"N+margin={ctx.high_precision}: {fin_lo} vs {fin_hi}"
        )
    rank = bareiss_rank(relations.rows_exact())
    if rank != len(fin_lo):
        raise PrecisionUnstable(
            f"exact rank {rank} disagrees with {len(fin_lo)} finite divisors; "
            f"an elementary divisor exceeds precision {ctx.high_precision}"
        )
    free_rank = relations.ambient_rank - rank
    torsion = sum(fin_lo)
    return free_rank, LengthReport(length=torsion, stable=True)


def _membership_ok(ctx: PrimeContext, outer: SpanPresentation, inner: SpanPresentation) -> bool:
    # fast path: every inner column literally among the outer columns
    outer_set = set(tuple(c % ctx.modulus for c in col) for col in outer.columns)
    pending = [
        col
        for col in inner.columns
        if tuple(c % ctx.modulus for c in col) not in outer_set
    ]
    if not pending:
        return True
    pe = ctx.modulus
    vals, left, _ = _snf(outer.rows_mod(pe), ctx.p, ctx.precision, want_left=True)
    nr = outer.ambient_rank
    mind = len(vals)
    for col in pending:
        u = [c % pe for c in col]
        w = [sum(left[i][j] * u[j] for j in range(nr)) % pe for i in range(nr)]
        for i in range(nr):
            need = vals[i] if i < mind else ctx.precision
            if need and w[i] % (ctx.p ** need):
                return False
    return True


def nested_span_quotient_length(
    ctx: PrimeContext, outer: SpanPresentation, inner: SpanPresentation
) -> LengthReport:
    """Length of outer/inner for nested spans (containment is verified;
    NotNested otherwise).

    The report is stable only when both span readings are stable and the
    two spans carry the same number of finite divisors — otherwise the
    quotient is not finite at this precision and the difference of
    lengths would drift with N.
    """
    if inner.ambient_rank != outer.ambient_rank:
        raise InvalidContext("ambient ranks differ")
    if not _membership_ok(ctx, outer, inner):
        raise NotNested("inner span is not contained in outer span")
    len_v, stable_v, count_v = _measure(ctx, outer)
    len_u, stable_u, count_u = _measure(ctx, inner)
    stable = stable_v and stable_u and count_v == count_u
    return LengthReport(length=len_v - len_u, stable=stable)


def intersect_spans_mod(
    p: int, e: int, ambient: int, cols_a, cols_b
) -> list[tuple[int, ...]]:
    """Generators of span(cols_a) & span(cols_b) over Z/p^e.

    A vector lies in both spans iff it is A x with (x, -y) in the kernel
    of [A | B]; kernel generators come from the right transform of the
    SNF of the concatenation.
    """
    pe = p ** e
    ca = len(cols_a)
    cols = list(cols_a) + list(cols_b)
    rows = [[col[i] % pe for col in cols] for i in range(ambient)]
    vals, _, right = _snf(rows, p, e, want_right=True)
    nc = len(cols)
    mind = len(vals)
    kernel_scales = []
    for i in range(nc):
        if i < mind:
            v = vals[i]
            if v == 0:
                continue
            kernel_scales.append((i, p ** (e - v) if v < e else 1))
        else:
            kernel_scales.append((i, 1))
    out = []
    for idx, scale in kernel_scales:
        x = [(right[j][idx] * scale) % pe for j in range(ca)]
        vec = [0] * ambient
        for j, xj in enumerate(x):
            if xj:
                colj = cols_a[j]
                for i in range(ambient):
                    vec[i] = (vec[i] + xj * colj[i]) % pe
        if any(vec):
            out.append(tuple(vec))
    return out


def lambda_column_span(ctx: PrimeContext, gens, level: int) -> SpanPresentation:
    """Exact integer realization of the Lambda_n-span of polynomial
    vectors inside Lambda_n^k = (Z_p[X]/omega_n)^k == Z_p^{k p^n}.

    Each generator g contributes the columns X^i g mod omega_n for
    0 <= i < p^n; coefficients stay exact integers.
    """
    p = ctx.p
    pn = p ** level
    gens = [tuple(g) for g in gens]
    if not gens:
        raise InvalidContext("need at least one generator")
    k = len(gens[0])
    omega = _omega(p, level)
    wc = omega.coeffs
    cols: list[tuple[int, ...]] = []
    for gen in gens:
        if len(gen) != k:
            raise InvalidContext("generators of mixed rank")
        cur = []
        for entry in gen:
            if not isinstance(entry, LambdaElement):
                entry = LambdaElement.const(entry)
            rem = entry.reduced_mod(omega)
            vec = list(rem.coeffs) + [0] * (pn - len(rem.coeffs))
            cur.append(vec)
        for i in range(pn):
            cols.append(tuple(c for vec in cur for c in vec))
            if i < pn - 1:
                nxt_all = []
                for vec in cur:
                    top = vec[-1]
                    nxt = [0] + vec[:-1]
                    if top:
                        for j in range(1, pn):
                            nxt[j] -= top * wc[j]
                    nxt_all.append(nxt)
                cur = nxt_all
    return SpanPresentation(ambient_rank=k * pn, columns=tuple(cols))
