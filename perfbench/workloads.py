"""The three workloads: seeded inputs, the fixed op list of one pass, and
the check every op's output must pass.

Inputs are drawn before timing starts, from the public
``iwarank.verify.rand_*`` generators or from the generators below, and
each op is a closure over those inputs.  Ops reach the library through
module attributes (``kr.nabla_matrix_tower``, never a name bound at
import), so the trace wrappers installed by ``tracing.py`` see every call.

Checks compare against closed forms computed here without the library
(cyclotomic valuations of ``p^a * prod Phi_m * unit``, the alternating
sums ``s_n``, the signed degrees), against the generator's prediction,
or against structural postconditions (good bases, ``A = B D``).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

from iwarank import cli
from iwarank import cyclo_eval as ce
from iwarank import growth_model as gm
from iwarank import kobayashi_rank as kr
from iwarank import lambda_ring as lr
from iwarank import special_matrices as sm
from iwarank import verify as vf
from iwarank.growth_model import InvariantSet
from iwarank.kobayashi_rank import CyclicTower, MatrixTower, TorsionTower
from iwarank.lambda_ring import ONE, X, LambdaElement, LambdaMatrix, PrimeContext
from iwarank.special_matrices import ColemanData

# Every context uses the library defaults, so "N + margin" is 48 everywhere.
PRECISION = 40
MARGIN = 8

COLEMAN_KINDS = ("generic", "minus_rank1", "minus_rank1_m0", "plus_rank1", "minus_rank0")


@dataclass
class Op:
    """One top-level call.  ``group`` names the instance family whose
    latencies are reported together (the frontier reports each one)."""

    name: str
    group: str
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    name: str
    seed: int
    size: str
    ops: list[Op]


def ctx_for(p: int) -> PrimeContext:
    return PrimeContext(p, precision=PRECISION, margin=MARGIN)


def canon(value):
    """JSON-able form of an op result, for the digest of reported numbers."""
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if isinstance(value, LambdaMatrix):
        return value.to_json_list()
    if isinstance(value, float):
        return ce.ord_json(value)
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    if isinstance(value, dict):
        return {str(k): canon(v) for k, v in value.items()}
    return value


# -- closed forms, computed without the library ------------------------


def phi_deg(p: int, m: int) -> int:
    return 1 if m == 0 else p**m - p ** (m - 1)


def s_closed(p: int, n: int) -> int:
    """s_n = p^n - p^{n-1} + ... -+ p, summed as a geometric series."""
    return p * (p**n - (-1) ** n) // (p + 1)


def ord_closed(p: int, m: int, a: int, levels) -> float | int:
    """ord_{eps_m} of p^a * prod_{l in levels} Phi_l * u with u(0) a unit.

    Phi_l(eps_m) has valuation phi(p^l) for l < m (1 for l = 0) and is p
    times a unit for l > m, so it contributes phi(p^m); u contributes 0."""
    if m in levels:
        return ce.INFINITE
    total = a * phi_deg(p, m)
    for level in levels:
        total += phi_deg(p, level) if level < m else phi_deg(p, m)
    return total


def delta_closed(inv: InvariantSet, n: int) -> int:
    lam, mu = (inv.lambda_minus, inv.mu_minus) if n % 2 else (inv.lambda_plus, inv.mu_plus)
    return 2 * s_closed(inv.p, n - 1) + lam + phi_deg(inv.p, n) * mu - inv.r_inf


def signed_tilde_degree(p: int, n: int, sign: str) -> int:
    start = 2 if sign == "+" else 1
    return sum(phi_deg(p, m) for m in range(start, n + 1, 2))


# -- generators --------------------------------------------------------


def rand_poly(rng, max_deg: int, bound: int = 4) -> LambdaElement:
    while True:
        f = LambdaElement([rng.randint(-bound, bound) for _ in range(max_deg + 1)])
        if not f.is_zero:
            return f


def rand_matrix(rng, max_deg: int, bound: int = 4) -> LambdaMatrix:
    while True:
        m = LambdaMatrix(
            tuple(tuple(rand_poly(rng, max_deg, bound) for _ in range(2)) for _ in range(2))
        )
        if not m.det.is_zero:
            return m


def phi_product(ctx: PrimeContext, levels) -> LambdaElement:
    out = ONE
    for m in levels:
        out = out * lr.cyclotomic_phi(ctx, m)
    return out


def dense_unit_matrix(rng, p: int, deg: int) -> LambdaMatrix:
    """2x2 matrix whose entries have degree deg and no zero coefficient,
    with det(0) a p-adic unit, so det is a unit at every eps_m.  The zero
    pattern of a relation matrix changes how much elimination work a row
    operation skips, so fixing it keeps the cost the same for every seed."""
    while True:
        m = LambdaMatrix(tuple(
            tuple(LambdaElement([rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
                                 for _ in range(deg + 1)]) for _ in range(2))
            for _ in range(2)))
        if m.det.coeffs and m.det.coeffs[0] % p:
            return m


def special_with_levels(ctx: PrimeContext, rng, n: int, levels) -> LambdaMatrix:
    """A = B diag(prod_{levels[0]} Phi_m, prod_{levels[1]} Phi_m) with B a
    dense unit matrix; the levels then fix the kernel of every step."""
    d = LambdaMatrix.diagonal(phi_product(ctx, levels[0]), phi_product(ctx, levels[1]))
    return dense_unit_matrix(rng, ctx.p, 3) @ d


def unit_poly(rng, p: int, max_deg: int) -> LambdaElement:
    """Random polynomial whose constant term is a p-adic unit."""
    c0 = rng.choice([c for c in range(-4, 5) if c % p])
    return LambdaElement([c0] + [rng.randint(-4, 4) for _ in range(max_deg)])


def valuation_poly(ctx: PrimeContext, rng, max_level: int):
    """(f, a, levels) with f = p^a * prod_{m in levels} Phi_m * unit."""
    a = rng.randint(0, 2)
    levels = tuple(m for m in range(max_level + 1) if rng.random() < 0.4)
    f = LambdaElement.const(ctx.p**a) * phi_product(ctx, levels) * unit_poly(rng, ctx.p, 4)
    return f, a, levels


def deep_valuation_poly(ctx: PrimeContext, rng):
    """(f, 1, (0,)) with f = p * X * unit: the shape is fixed because the
    cost of ord_eps at the deep levels grows with p^a and the Phi factors."""
    return LambdaElement.const(ctx.p) * X * unit_poly(rng, ctx.p, 4), 1, (0,)


def torsion_poly(rng):
    """Lemma 3.3 input at p = 3: 3^a * prod_{m in S} Phi_m * g with S in
    {0, 1} and g distinguished, so mu = a and lambda = deg of the rest."""
    ctx = ctx_for(3)
    a = rng.randint(0, 2)
    levels = tuple(m for m in (0, 1) if rng.random() < 0.5)
    g = LambdaElement([3 * rng.randint(-2, 2) for _ in range(rng.randint(0, 2))] + [1])
    f = LambdaElement.const(3**a) * phi_product(ctx, levels) * g
    lam = sum(phi_deg(3, m) for m in levels) + g.degree
    return f, a, lam


def coleman_applicable(ctx: PrimeContext, moved: ColemanData, n: int) -> bool:
    """Whether the signed closed form is attached at step n (the same
    filter as the parity suite)."""
    det_ref = moved.col_minus.det if n % 2 == 1 else moved.col_plus.det
    if ce.ord_eps(ctx, n, det_ref) == ce.INFINITE:
        return False
    return not sm.assemble_fn(ctx, moved, n).det.divisible_by(lr.cyclotomic_phi(ctx, n))


def unit_coleman(ctx: PrimeContext, rng, top: int) -> ColemanData:
    """Generic Coleman data (col_plus = X M) from dense unit matrices, so
    every determinant in the tower is a unit at each eps_m, the good basis
    is the identity and the step kernel is the same for every seed."""
    while True:
        cd = ColemanData(dense_unit_matrix(rng, ctx.p, 3).scaled(X),
                         dense_unit_matrix(rng, ctx.p, 4)).validate()
        if coleman_applicable(ctx, cd, top):
            return cd


def moved_coleman(ctx: PrimeContext, rng, kind: str, top: int):
    """Coleman data of the given rank profile, moved to a good basis for
    levels <= top, redrawn until the closed form applies at step top."""
    while True:
        cd = vf.rand_coleman_data(ctx, rng, kind)
        moved = cd.transformed(sm.good_basis_transform(ctx, cd, top))
        if coleman_applicable(ctx, moved, top):
            return moved


def rand_invariants(rng, primes=(3, 5)) -> InvariantSet:
    return InvariantSet(
        p=rng.choice(primes),
        lambda_plus=rng.randint(0, 6),
        lambda_minus=rng.randint(0, 6),
        mu_plus=rng.randint(0, 2),
        mu_minus=rng.randint(0, 2),
        r_inf=rng.randint(0, 2),
    )


def warm_caches(levels_by_prime: dict) -> None:
    """Fill the Phi_m / omega_n caches the timed ops read."""
    for p, top in levels_by_prime.items():
        ctx = ctx_for(p)
        for m in range(top + 1):
            lr.cyclotomic_phi(ctx, m)
            lr.omega_poly(ctx, m)


# -- checks ------------------------------------------------------------


def nabla_is(expected):
    return lambda res: res.agrees is True and res.closed_form == expected and res.nabla == expected


def is_true(value) -> bool:
    return value is True


def good_basis_ok(ctx: PrimeContext, cd: ColemanData, n_max: int):
    def check(b: LambdaMatrix) -> bool:
        if any(b.det.divisible_by(lr.cyclotomic_phi(ctx, m)) for m in range(n_max + 1)):
            return False
        return all(
            sm.is_special(ctx, sm.assemble_fn(ctx, cd, n) @ b, n).verdict
            for n in range(1, n_max + 1)
        )

    return check


# -- tower-sweep -------------------------------------------------------


# special-matrix ops per level, as in ``suite_thm_app`` (which runs 50 at
# each of p = 3, n = 1..3 and p = 5, n = 1..2)
SPECIAL_PER_LEVEL = 16


def tower_sweep(seed: int, size: str) -> list[Op]:
    """Many small nablas over the four tower kinds: the traffic of
    ``iwarank verify`` and ``scripts/rank_sweep.py``.

    The special matrices are drawn by ``vf.rand_special_matrix`` at equal
    counts per level, as ``iwarank verify`` draws them, so their column
    levels (and with them the step kernels) vary with the seed."""
    rng = random.Random(f"{seed}:tower-sweep")
    tiny = size == "tiny"
    ops: list[Op] = []

    for p, n_top in ((3, 2), (5, 1)) if tiny else ((3, 3), (5, 2)):
        ctx = ctx_for(p)
        for n in range(1, n_top + 1):
            for i in range(2 if tiny else SPECIAL_PER_LEVEL):
                a, _ = vf.rand_special_matrix(ctx, rng, n)
                group = f"special-p{p}n{n}"
                ops.append(Op(f"{group}#{i}", group,
                              lambda ctx=ctx, a=a, n=n: kr.nabla_matrix_tower(ctx, a, n),
                              nabla_is(ce.ord_eps(ctx, n, a.det))))

    ctx3 = ctx_for(3)
    for n, count in ((1, 10), (2, 10), (3, 8)):
        if tiny and n > 1:
            continue
        for i in range(2 if tiny else count):
            f, predicted = vf.rand_cyclic_poly(ctx3, rng, n)
            ops.append(
                Op(f"cyclic-n{n}#{i}", f"cyclic-n{n}",
                   lambda f=f, n=n: kr.nabla_cyclic(ctx3, f, n),
                   nabla_is(predicted))
            )

    for i in range(1 if tiny else 6):
        f, mu, lam = torsion_poly(rng)
        tower = TorsionTower(columns=((f,),))
        for n in (2,) if tiny else (2, 3):
            ops.append(
                Op(f"torsion-n{n}#{i}", f"torsion-n{n}",
                   lambda tower=tower, n=n: kr.nabla_torsion_tower(ctx3, tower, n),
                   nabla_is(lam + phi_deg(3, n) * mu))
            )

    for n, count in ((1, 6), (2, 6)):
        if tiny and n > 1:
            continue
        for i in range(1 if tiny else count):
            left = summand(ctx3, rng, n, i % 3)
            right = summand(ctx3, rng, n, (i + 1) % 3)
            ops.append(
                Op(f"direct-sum-n{n}#{i}", f"direct-sum-n{n}",
                   lambda left=left, right=right, n=n: kr.additivity_check(ctx3, left, right, n),
                   is_true)
            )

    top = 2 if tiny else 3
    for kind in COLEMAN_KINDS[:1] if tiny else COLEMAN_KINDS:
        moved = moved_coleman(ctx3, rng, kind, top)
        for n in range(2, top + 1):
            if n < top and not coleman_applicable(ctx3, moved, n):
                continue  # plus_rank1 never has a closed form at n = 2
            ops.append(
                Op(f"coleman-{kind}-n{n}", f"coleman-n{n}",
                   lambda moved=moved, n=n: kr.nabla_coleman_tower(ctx3, moved, n),
                   lambda res: res.agrees is True)
            )

    warm_caches({3: 3, 5: 2})
    return ops


def summand(ctx: PrimeContext, rng, n: int, kind: int):
    """A cyclic (kind 0), special-matrix (1) or 2x2 torsion (2) tower
    whose step-n kernel is finite."""
    if kind == 0:
        return CyclicTower(f=vf.rand_cyclic_poly(ctx, rng, n)[0])
    if kind == 1:
        return MatrixTower(matrix=vf.rand_special_matrix(ctx, rng, n, max_deg=2)[0])
    while True:
        m = rand_matrix(rng, 2, bound=3)
        if not m.det.divisible_by(lr.cyclotomic_phi(ctx, n)):
            return TorsionTower(columns=m.columns)


# -- frontier ----------------------------------------------------------


def frontier(seed: int, size: str) -> list[Op]:
    """The largest levels in reach: each instance is one dense-SNF-bound
    op, reported on its own."""
    rng = random.Random(f"{seed}:frontier")
    tiny = size == "tiny"
    ops: list[Op] = []
    for p, n in ((3, 2), (5, 1), (7, 1)) if tiny else ((3, 4), (5, 3), (7, 2)):
        ctx = ctx_for(p)
        # column levels fixed per instance: column 0 divisible by X, column 1
        # by Phi_1, so the kernel size does not depend on the seed (the SNF
        # cost still moves with the coefficients, by up to half at p3n4)
        a = special_with_levels(ctx, rng, n, ((0,), (1,) if n > 1 else ()))
        expected = ce.ord_eps(ctx, n, a.det)
        name = f"nabla_matrix_p{p}n{n}"
        ops.append(Op(name, name, lambda ctx=ctx, a=a, n=n: kr.nabla_matrix_tower(ctx, a, n),
                      nabla_is(expected)))

    ctx3 = ctx_for(3)
    n = 2 if tiny else 4
    cd = unit_coleman(ctx3, rng, n)
    name = f"nabla_coleman_p3n{n}"
    ops.append(Op(name, name, lambda n=n: kr.nabla_coleman_tower(ctx3, cd, n),
                  lambda res: res.agrees is True))

    n, t = (1, 2) if tiny else (2, 4)
    b = dense_unit_matrix(rng, 3, 2)
    name = f"rod_check_p3n{n}t{t}"
    ops.append(Op(name, name, lambda n=n, t=t: sm.rod_check(ctx3, b, n, t), is_true))

    warm_caches({3: 4, 5: 3, 7: 2})
    return ops


# -- structure ---------------------------------------------------------


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_result(text: str):
    return json.loads(text)["result"]


def structure(seed: int, size: str) -> list[Op]:
    """Coleman specialization, deep ord_eps, growth bookkeeping and cheap
    CLI calls: no op reaches the SNF engine.

    Group sizes are chosen so that the median op falls inside the 70 CLI
    calls and the 90th percentile inside the 10 parity checks."""
    rng = random.Random(f"{seed}:structure")
    tiny = size == "tiny"
    ops: list[Op] = []
    ctx3 = ctx_for(3)
    n_max = 2 if tiny else 5

    # Coleman specialization; the good basis found by one op feeds the
    # assemble_fn / is_special ops that follow it in the same pass
    for kind in COLEMAN_KINDS[:2] if tiny else COLEMAN_KINDS:
        cd, other = (vf.rand_coleman_data(ctx3, rng, kind) for _ in range(2))
        for i, data in enumerate((cd, other)):
            ops.append(Op(f"parity-{kind}#{i}", "parity_congruence",
                          lambda data=data: sm.parity_congruence_check(ctx3, data, n_max - 1),
                          is_true))
        found = {}

        def good_basis(cd=cd, found=found):
            b = sm.good_basis_transform(ctx3, cd, n_max)
            found["moved"] = cd.transformed(b)
            return b

        ops.append(Op(f"good-basis-{kind}", "good_basis", good_basis,
                      good_basis_ok(ctx3, cd, n_max)))
        for n in range(1, n_max + 1):
            ops.append(Op(f"special-fn-{kind}-n{n}", "assemble_special",
                          lambda n=n, found=found: sm.is_special(
                              ctx3, sm.assemble_fn(ctx3, found["moved"], n), n),
                          lambda rep: rep.verdict is True))

    for p, top in ((3, 2), (5, 1), (7, 1)) if tiny else ((3, 5), (5, 3), (7, 3)):
        ctx = ctx_for(p)
        f, a, levels = deep_valuation_poly(ctx, rng)
        for m in range(top + 1):
            ops.append(Op(f"ord_eps-p{p}m{m}", f"ord_eps-m{m}",
                          lambda ctx=ctx, f=f, m=m: ce.ord_eps(ctx, m, f),
                          lambda v, p=p, m=m, a=a, levels=levels: v == ord_closed(p, m, a, levels)))

    for p in (3, 5, 7):
        ctx = ctx_for(p)
        for n in range(1, 4 if tiny else 9):
            ops.append(Op(f"degrees-p{p}n{n}", "degree_identities",
                          lambda ctx=ctx, n=n: gm.degree_identities(ctx, n),
                          lambda r, p=p, n=n: degrees_ok(r, p, n)))

    zero = InvariantSet(p=3, lambda_plus=0, lambda_minus=0, mu_plus=0, mu_minus=0, r_inf=0)
    growth_inputs = [(zero, 0, 0, 4)]
    for _ in range(2 if tiny else 10):
        n0 = rng.randint(0, 2)
        growth_inputs.append((rand_invariants(rng), n0, rng.randint(0, 9), n0 + 5))
    for i, (inv, n0, e0, n_to) in enumerate(growth_inputs):
        ops.append(Op(f"sha_growth#{i}", "sha_growth",
                      lambda inv=inv, n0=n0, e0=e0, n_to=n_to: gm.sha_growth(
                          inv, range(n0 + 1, n_to + 1), (n0, e0)),
                      lambda t, inv=inv, n0=n0, e0=e0, n_to=n_to: growth_ok(
                          [(r.n, r.s_prev, r.delta_e, r.e_n) for r in t.rows], inv, n0, e0, n_to)))

    ops.extend(cli_ops(rng, tiny))
    warm_caches({3: 5, 5: 3, 7: 3})
    return ops


def degrees_ok(r: dict, p: int, n: int) -> bool:
    return (
        r["odd_ok"] and r["even_ok"]
        and r["s_prev"] == s_closed(p, n - 1)
        and r["deg_tilde_plus"] == signed_tilde_degree(p, n, "+")
        and r["deg_tilde_minus"] == signed_tilde_degree(p, n, "-")
    )


def growth_ok(rows, inv: InvariantSet, n0: int, e0: int, n_to: int) -> bool:
    if [r[0] for r in rows] != list(range(n0 + 1, n_to + 1)):
        return False
    e = e0
    for n, s_prev, delta, e_n in rows:
        e += delta_closed(inv, n)
        if s_prev != s_closed(inv.p, n - 1) or delta != delta_closed(inv, n) or e_n != e:
            return False
    if inv.p == 3 and not any((inv.lambda_plus, inv.lambda_minus, inv.mu_plus, inv.mu_minus, inv.r_inf)):
        return [r[2] for r in rows] == [0, 6, 12, 42]  # frozen regression row
    return True


def poly_json(f: LambdaElement) -> str:
    return json.dumps(f.to_json_dict())


def matrix_json(a: LambdaMatrix) -> str:
    return json.dumps(a.to_json_list())


def cli_ops(rng, tiny: bool) -> list[Op]:
    """Cheap CLI calls through ``iwarank.cli.main``; the precision is
    passed explicitly so IWK_PRECISION in the environment cannot move it."""
    common = ["--precision", str(PRECISION), "--margin", str(MARGIN)]
    ops: list[Op] = []

    def add(name, argv, check):
        ops.append(Op(name, f"cli-{argv[0]}", lambda argv=argv: run_cli(argv),
                      lambda out, check=check: out[0] == 0 and check(out[1])))

    for p in (3,) if tiny else (3, 5, 7):
        for m in range(3 if tiny else 4):
            add(f"cli-phi-p{p}m{m}", ["phi", "-p", str(p), "-m", str(m), *common],
                lambda text, p=p, m=m: phi_ok(cli_result(text)["phi"], p, m))
    for p in (3,) if tiny else (3, 5):
        for n in range(2 if tiny else 3):
            add(f"cli-omega-p{p}n{n}", ["omega", "-p", str(p), "-n", str(n), *common],
                lambda text, p=p, n=n: omega_ok(cli_result(text), p, n))
    for p in (3,) if tiny else (3, 5, 7):
        ctx = ctx_for(p)
        for i in range(1 if tiny else 2):
            f, a, levels = valuation_poly(ctx, rng, 1)
            for m in range(2 if tiny else 3):
                add(f"cli-ord-eps-p{p}m{m}#{i}",
                    ["ord-eps", "-p", str(p), "-m", str(m), "--poly", poly_json(f), *common],
                    lambda text, p=p, m=m, a=a, levels=levels:
                        cli_result(text)["ord"] == ce.ord_json(ord_closed(p, m, a, levels)))
    ctx3 = ctx_for(3)
    for i in range(2 if tiny else 12):
        n = 1 + i % 3
        a, _ = vf.rand_special_matrix(ctx3, rng, n)
        add(f"cli-special-check#{i}",
            ["special-check", "-p", "3", "-n", str(n), "--matrix", matrix_json(a), *common],
            lambda text: cli_result(text)["verdict"] is True)
        add(f"cli-factor-bd#{i}",
            ["factor-bd", "-p", "3", "-n", str(n), "--matrix", matrix_json(a), *common],
            lambda text, a=a: factor_ok(cli_result(text), a))
    for i in range(2 if tiny else 10):
        inv = rand_invariants(rng)
        n0, e0 = rng.randint(0, 2), rng.randint(0, 9)
        argv = ["growth", "-p", str(inv.p),
                "--lambda-plus", str(inv.lambda_plus), "--lambda-minus", str(inv.lambda_minus),
                "--mu-plus", str(inv.mu_plus), "--mu-minus", str(inv.mu_minus),
                "--r-inf", str(inv.r_inf), "--base-n", str(n0), "--base-e", str(e0),
                "--n-to", str(n0 + 5), "--format", "csv", *common]
        ops.append(Op(f"cli-growth#{i}", "cli-growth", lambda argv=argv: run_cli(argv),
                      lambda out, inv=inv, n0=n0, e0=e0: out[0] == 0 and growth_ok(
                          csv_rows(out[1]), inv, n0, e0, n0 + 5)))
    return ops


def poly_from(obj) -> LambdaElement:
    return LambdaElement(int(c) for c in obj["coeffs"])


def phi_ok(obj, p: int, m: int) -> bool:
    """Phi_m = ((1+X)^{p^m} - 1) / ((1+X)^{p^{m-1}} - 1), Phi_0 = X."""
    if m == 0:
        return poly_from(obj) == X
    num = (ONE + X) ** (p**m) - ONE
    den = (ONE + X) ** (p ** (m - 1)) - ONE
    return poly_from(obj) == num.exact_div(den)


def omega_ok(obj, p: int, n: int) -> bool:
    w = poly_from(obj["omega_n"])
    plus, minus = poly_from(obj["omega_plus"]), poly_from(obj["omega_minus"])
    tplus, tminus = poly_from(obj["omega_tilde_plus"]), poly_from(obj["omega_tilde_minus"])
    return (
        w == (ONE + X) ** (p**n) - ONE
        and plus * tminus == w
        and minus * tplus == w
        and tplus.degree == signed_tilde_degree(p, n, "+")
        and tminus.degree == signed_tilde_degree(p, n, "-")
    )


def factor_ok(obj, a: LambdaMatrix) -> bool:
    b = LambdaMatrix.from_json_list(obj["b"])
    d = LambdaMatrix.from_json_list(obj["d"])
    return d.rows[0][1].is_zero and d.rows[1][0].is_zero and b @ d == a


def csv_rows(text: str):
    lines = text.strip().splitlines()
    if not lines or lines[0] != "n,parity,s_prev,delta_e,e_n":
        return []
    rows = []
    for line in lines[1:]:
        n, _, s_prev, delta, e_n = line.split(",")
        rows.append((int(n), int(s_prev), int(delta), int(e_n)))
    return rows


BUILDERS = {"tower-sweep": tower_sweep, "frontier": frontier, "structure": structure}


def build(name: str, seed: int, size: str = "full") -> Workload:
    return Workload(name=name, seed=seed, size=size, ops=BUILDERS[name](seed, size))
