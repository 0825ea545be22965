"""Finite-quotient linear algebra: Smith normal form over Z/p^N.

Z/p^N is a chain ring, so any matrix is equivalent to
diag(p^{a_1}, ..., p^{a_r}, 0) with a_1 <= ... <= a_r; a zero diagonal
entry is encoded as valuation N.  Lengths of spans and quotients are read
off these valuations.

Certificate: a span given by exact integer columns has Z_p elementary
divisors p^{a_i}, one per unit of its Q-rank, and reducing mod p^N reads
each of them as min(a_i, N).  So the reading at N is exact if and only if
the count of finite valuations (those below N) equals the exact Q-rank;
otherwise a divisor reached N and the reading is refused.  Q-ranks are
never taken from mod-p^N data: callers with cyclotomic structure pass
the rank profile, general spans use fraction-free elimination on the
exact integers.
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


def certified_valuations(ctx: PrimeContext, span: SpanPresentation, rank: int) -> list[int]:
    """The finite SNF valuations of a span at precision N, certified
    exact: raises PrecisionUnstable unless there are exactly ``rank`` of
    them, ``rank`` being the exact Q-rank of the span."""
    vals = finite_valuations(span, ctx.p, ctx.precision)
    if len(vals) != rank:
        raise PrecisionUnstable(
            f"{len(vals)} finite elementary divisors at N={ctx.precision}, "
            f"exact rank {rank}: a divisor reaches p^{ctx.precision}"
        )
    return vals


def _reading(ctx: PrimeContext, span: SpanPresentation) -> tuple[list[int], int]:
    """(finite valuations at N, exact Q-rank) of a span without structure."""
    return finite_valuations(span, ctx.p, ctx.precision), bareiss_rank(span.rows_exact())


def span_length(ctx: PrimeContext, span: SpanPresentation) -> LengthReport:
    """Length of the span as a Z/p^N-module (sum of N - a_i over finite
    valuations); stable when the reading is certified exact."""
    vals, rank = _reading(ctx, span)
    return LengthReport(length=sum(ctx.precision - a for a in vals), stable=len(vals) == rank)


def quotient_invariants(ctx: PrimeContext, relations: SpanPresentation):
    """(free_rank, torsion length report) of ambient / <relations>.

    free_rank is the ambient rank minus the exact rank of the relations;
    the torsion length is the sum of the certified finite valuations
    (PrecisionUnstable when the reading is not certified).
    """
    rank = bareiss_rank(relations.rows_exact())
    torsion = sum(certified_valuations(ctx, relations, rank))
    return relations.ambient_rank - rank, LengthReport(length=torsion, stable=True)


def nested_span_quotient_length(
    ctx: PrimeContext, outer: SpanPresentation, inner: SpanPresentation
) -> LengthReport:
    """Length of outer/inner for nested spans (NotNested otherwise).

    Containment is checked mod p^N: outer <= outer + inner are finite
    modules, equal exactly when their SNF valuations agree.  The report
    is stable only when both readings are certified and the two spans
    have the same rank -- otherwise the quotient is not finite and the
    difference of lengths would drift with N.
    """
    vals_v, rank_v = _reading(ctx, outer)
    if finite_valuations(outer.concat(inner), ctx.p, ctx.precision) != vals_v:
        raise NotNested("inner span is not contained in outer span")
    vals_u, rank_u = _reading(ctx, inner)
    n = ctx.precision
    length = sum(n - a for a in vals_v) - sum(n - a for a in vals_u)
    return LengthReport(length=length, stable=len(vals_v) == rank_v == rank_u == len(vals_u))


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
