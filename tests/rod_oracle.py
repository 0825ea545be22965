"""The mod-p^N span intersection that rod_check once computed, kept as a
test oracle for the saturation theorem rod_check now states.

rod_check_by_intersection reads the lengths of

    omega_n Lambda_t^2  intersect  <B>   and   omega_n <B>

over Z/p^N and again at N + margin, and answers only when the two
readings agree (PrecisionUnstable otherwise).  Agreement between two
precisions is a heuristic, so a refusal here is not a failure.
"""

from iwarank.cyclo_eval import INFINITE, ord_eps
from iwarank.errors import InvalidContext, NotCoprime, PrecisionUnstable
from iwarank.lambda_ring import ONE, ZERO, omega_poly, vp
from iwarank.zp_modules import SpanPresentation, finite_valuations, lambda_column_span


def snf_with_transform(rows, p: int, e: int):
    """(vals, R): the SNF valuations over Z/p^e, padded with e to
    min(nrows, ncols), and a unimodular column transform R with
    L @ rows @ R = diag mod p^e for some unimodular L."""
    pe = p ** e
    m = [[x % pe for x in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    right = [[int(i == j) for j in range(nc)] for i in range(nc)]
    vals = []
    mind = min(nr, nc)
    r = 0
    while r < mind:
        # prefer a unit pivot; otherwise a minimum-valuation scan
        pi = pj = -1
        for i in range(r, nr):
            for j in range(r, nc):
                x = m[i][j]
                if x and x % p:
                    pi, pj = i, j
                    break
            if pi >= 0:
                break
        if pi < 0:
            best = e
            for i in range(r, nr):
                for j in range(r, nc):
                    x = m[i][j]
                    if x:
                        v = vp(x, p)
                        if v < best:
                            best, pi, pj = v, i, j
            if pi < 0:
                break  # remaining submatrix is zero
        if pi != r:
            m[r], m[pi] = m[pi], m[r]
        if pj != r:
            for row in m + right:
                row[r], row[pj] = row[pj], row[r]
        pivot = m[r][r]
        v = vp(pivot, p)
        pv = p ** v
        unit = pivot // pv
        if unit != 1:
            inv = pow(unit, -1, pe)
            m[r] = [(x * inv) % pe for x in m[r]]
        rowr = m[r]
        nonzero = [(j, x) for j in range(r, nc) if (x := rowr[j])]
        for i in range(r + 1, nr):
            rowi = m[i]
            t = rowi[r]
            if t:
                q = t // pv
                for j, x in nonzero:
                    rowi[j] = (rowi[j] - q * x) % pe
        # the column below the pivot is now zero, so clearing the pivot
        # row is a pure column operation, recorded only in the transform
        for j, t in nonzero[1:]:
            q = t // pv
            for row in right:
                row[j] = (row[j] - q * row[r]) % pe
        vals.append(v)
        r += 1
    vals.extend([e] * (mind - len(vals)))
    return vals, right


def intersect_spans_mod(p: int, e: int, ambient: int, cols_a, cols_b):
    """Generators of span(cols_a) & span(cols_b) over Z/p^e.

    A vector lies in both spans iff it is A x with (x, -y) in the kernel
    of [A | B]; kernel generators come from the right transform of the
    SNF of the concatenation.
    """
    pe = p ** e
    cols = list(cols_a) + list(cols_b)
    vals, right = snf_with_transform([[col[i] for col in cols] for i in range(ambient)], p, e)
    # transform column i times p^(e - v_i) lies in the kernel; columns
    # past the diagonal count as v_i = e
    vals += [e] * (len(cols) - len(vals))
    out = []
    for idx, v in enumerate(vals):
        if not v:
            continue
        x = [(right[j][idx] * p ** (e - v)) % pe for j in range(len(cols_a))]
        vec = tuple(sum(xj * col[i] for xj, col in zip(x, cols_a)) % pe for i in range(ambient))
        if any(vec):
            out.append(vec)
    return out


def _omega_multiples(ctx, gens, n: int, t: int) -> SpanPresentation:
    """The Lambda_t-span of omega_n g, g in gens: omega_n Lambda_t is
    Z_p-free on X^i omega_n, i < p^t - p^n, so the columns past that
    shift are dropped (column s*len(gens) + j holds X^s omega_n g_j)."""
    omega_n = omega_poly(ctx, n)
    full = lambda_column_span(ctx, [tuple(omega_n * x for x in g) for g in gens], t)
    keep = ctx.p ** t - ctx.p ** n
    cols = tuple(c for i, c in enumerate(full.columns) if i // len(gens) < keep)
    return SpanPresentation(full.ambient_rank, cols)


def rod_check_by_intersection(ctx, b, n: int, test_level: int) -> bool:
    """Whether omega_n Lambda_t^2 & <B> and omega_n <B> have equal
    lengths over Z/p^N, read at N and N + margin."""
    if test_level <= n:
        raise InvalidContext(f"test_level must exceed n, got {test_level} <= {n}")
    for m in range(n + 1):
        if ord_eps(ctx, m, b.det) == INFINITE:
            raise NotCoprime(f"Phi_{m} divides det B")
    p, t = ctx.p, test_level
    ambient = 2 * p ** t
    span_b = lambda_column_span(ctx, b.columns, t)
    span_w = _omega_multiples(ctx, [(ONE, ZERO), (ZERO, ONE)], n, t)
    span_wb = _omega_multiples(ctx, b.columns, n, t)
    readings = []
    for e in (ctx.precision, ctx.precision + ctx.margin):
        inter = intersect_spans_mod(p, e, ambient, span_w.columns, span_b.columns)
        readings.append((
            finite_valuations(SpanPresentation(ambient, tuple(inter)), p, e),
            finite_valuations(span_wb, p, e),
        ))
    if readings[0] != readings[1]:
        raise PrecisionUnstable(
            f"intersection reading differs between N={ctx.precision} and "
            f"N+margin={ctx.precision + ctx.margin}",
            precision=ctx.precision,
        )
    (inter_vals, wb_vals), _ = readings
    return inter_vals == wb_vals
