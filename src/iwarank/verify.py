"""Seeded randomized verification sweeps.

Each suite draws reproducible random instances (the RNG is seeded from
the user seed and the suite name), runs the brute-force rank engine
against the matching closed form or structural property, and reports
per-sweep outcomes.  A nonzero failure count anywhere flips the suite
verdict; precision instability raises instead of reporting.

Suites:

  thm-app    special 2x2 matrices: brute nabla == ord_{eps_n}(det), plus
             the rank identity rank A(eps_m) = 2 - i_m
  lemma-3.3  cyclic towers: brute nabla == ord_{eps_n}(f); square torsion
             towers: stabilized nabla == lambda + (p^n - p^{n-1}) mu
  additivity block-diagonal joins and constant finite systems
  parity     Coleman data: parity congruences, good-basis transforms,
             specialness of F_n B, and the signed closed form
  rod        span saturation against omega_n at a higher level, and
             refusal when a Phi_m (m <= n) divides det B
  degrees    reduced signed-product degree identities
  growth     Sha growth tables: frozen regression row and telescoping
  precision  low-precision drill: the engine must raise, never lie
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .cyclo_eval import INFINITE, CyclotomicPoint, matrices_proportional_at_eps, matrix_rank_at_eps, ord_eps
from .errors import InvalidContext, NotCoprime, PhiDivides, PostconditionFailed, PrecisionUnstable
from .growth_model import InvariantSet, degree_identities, delta_e, sha_growth
from .kobayashi_rank import (
    CyclicTower,
    MatrixTower,
    TorsionTower,
    additivity_check,
    nabla_coleman_tower,
    nabla_cyclic,
    nabla_matrix_tower,
    nabla_torsion_tower,
    nabla_tower,
)
from .lambda_ring import (
    ONE,
    X,
    LambdaElement,
    LambdaMatrix,
    PrimeContext,
    Record,
    cyclotomic_phi,
    iwasawa_invariants,
    omega_poly,
)
from .special_matrices import (
    ColemanData,
    assemble_fn,
    good_basis_transform,
    is_special,
    parity_reference,
    rod_check,
)


@dataclass
class CheckOutcome(Record):
    name: str
    ok: bool
    details: dict = field(default_factory=dict)


@dataclass
class SuiteReport(Record):
    suite: str
    seed: int
    checks: list[CheckOutcome]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "ok": self.ok}


def _sweep(name: str, count: int, trial, **details) -> CheckOutcome:
    """Run trial(i) for i < count; each returns the list of its failures
    (JSON-ready dicts), the first of which is reported as the example."""
    failures = [failure for i in range(count) for failure in trial(i)]
    out = {"count": count, **details, "failures": len(failures)}
    if failures:
        out["example"] = failures[0]
    return CheckOutcome(name=name, ok=not failures, details=out)


def _suite_rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _rand_poly(rng, max_deg: int, bound: int = 5, nonzero: bool = True) -> LambdaElement:
    while True:
        f = LambdaElement([rng.randint(-bound, bound) for _ in range(max_deg + 1)])
        if f.is_zero and nonzero:
            continue
        return f


def _rand_unit_poly(rng, p: int, max_deg: int, bound: int = 5) -> LambdaElement:
    """Random polynomial with unit constant term."""
    f = _rand_poly(rng, max_deg, bound, nonzero=False)
    c0 = rng.randint(1, bound)
    while c0 % p == 0:
        c0 = rng.randint(1, bound)
    return f - f.coeffs[0] + c0 if f.coeffs else LambdaElement([c0])


def _rand_matrix(rng, max_deg: int, bound: int = 5) -> LambdaMatrix:
    while True:
        m = LambdaMatrix(
            tuple(tuple(_rand_poly(rng, max_deg, bound, nonzero=False) for _ in range(2)) for _ in range(2))
        )
        if not m.det.is_zero:
            return m


def rand_special_matrix(ctx: PrimeContext, rng, n: int, max_deg: int = 3) -> tuple:
    """A = B D with D diagonal squarefree Phi-products over m <= n-1 and
    det B free of every Phi_m (m <= n); returns (A, per-column levels)."""
    while True:
        b = _rand_matrix(rng, max_deg, bound=4)
        if any(CyclotomicPoint.of(ctx, m, b.det).is_zero for m in range(n + 1)):
            continue
        levels = []
        diag = []
        for _ in (0, 1):
            chosen = sorted(m for m in range(n) if rng.random() < 0.45)
            dj = ONE
            for m in chosen:
                dj = dj * cyclotomic_phi(ctx, m)
            levels.append(tuple(chosen))
            diag.append(dj)
        a = b @ LambdaMatrix.diagonal(diag[0], diag[1])
        return a, tuple(levels)


def rand_cyclic_poly(ctx: PrimeContext, rng, n: int, max_pow: int = 2) -> tuple:
    """f = p^a * (product of Phi_m, m != n) * unit-constant polynomial,
    with the predicted ord_{eps_n} carried along."""
    p = ctx.p
    while True:
        a = rng.randint(0, max_pow)
        ms = [m for m in range(4) if m != n and rng.random() < 0.35]
        u = _rand_unit_poly(rng, p, max_deg=4)
        if any(CyclotomicPoint.of(ctx, m, u).is_zero for m in range(n + 1)):
            continue
        f = LambdaElement.const(p**a)
        for m in ms:
            f = f * cyclotomic_phi(ctx, m)
        f = f * u
        if (o := ord_eps(ctx, n, f)) != INFINITE:
            return f, o


def rand_unit_resultant_matrix(ctx: PrimeContext, rng, n: int, max_deg: int = 2) -> LambdaMatrix:
    """Random 2x2 matrix whose determinant is a unit at eps_m for every
    m <= n."""
    while True:
        b = _rand_matrix(rng, max_deg, bound=3)
        if all(ord_eps(ctx, m, b.det) == 0 for m in range(n + 1)):
            return b


def _rand_unimodular(rng) -> LambdaMatrix:
    c = rng.randint(-2, 2)
    kind = rng.randrange(4)
    if kind == 0:
        return LambdaMatrix(((1, c), (0, 1)))
    if kind == 1:
        return LambdaMatrix(((1, 0), (c, 1)))
    if kind == 2:
        return LambdaMatrix(((0, 1), (-1, 0)))
    return LambdaMatrix(((-1, 0), (0, 1)))


# kind -> the levels where the parity reference drops rank, with the rank
# it drops to; at every other level m <= 3 it has full rank 2
COLEMAN_KINDS = {
    "generic": {},
    "minus_rank1": {1: 1},
    "minus_rank1_m0": {0: 1},
    "plus_rank1": {2: 1},
    "minus_rank0": {1: 0},
}


def rand_coleman_data(ctx: PrimeContext, rng, kind: str = "generic") -> ColemanData:
    """Random Coleman pair with a prescribed rank profile of the parity
    references at eps_0 .. eps_3 (COLEMAN_KINDS; ValueError otherwise):

      generic        every parity reference has full rank at its eps_m
      minus_rank1    col_minus drops to rank one at eps_1
      minus_rank1_m0 col_minus drops to rank one at eps_0
      plus_rank1     col_plus drops to rank one at eps_2 (det = unit * X^2 Phi_2)
      minus_rank0    col_minus vanishes at eps_1 (a full Phi_1 factor)
    """
    if kind not in COLEMAN_KINDS:
        raise ValueError(f"unknown Coleman kind {kind!r}")
    p = ctx.p
    phi1 = cyclotomic_phi(ctx, 1)
    w1 = omega_poly(ctx, 1)
    wanted = {m: 2 for m in range(4)} | COLEMAN_KINDS[kind]
    while True:
        col_plus = _rand_matrix(rng, 3, bound=4).scaled(X)
        col_minus = _rand_matrix(rng, 4, bound=4)
        if kind == "minus_rank1":
            g0 = _rand_poly(rng, 2, bound=3)
            g1 = _rand_poly(rng, 2, bound=3)
            col_minus = LambdaMatrix(
                ((phi1 * g0, col_minus.rows[0][1]), (phi1 * g1, col_minus.rows[1][1]))
            )
        elif kind == "minus_rank1_m0":
            g0 = _rand_poly(rng, 3, bound=3)
            g1 = _rand_poly(rng, 3, bound=3)
            col_minus = LambdaMatrix(
                ((X * g0, col_minus.rows[0][1]), (X * g1, col_minus.rows[1][1]))
            )
        elif kind == "plus_rank1":
            # det = Phi_2, as Phi_2 = sum_{k<p} (1 + omega_1)^k is p mod omega_1
            core = LambdaMatrix((((cyclotomic_phi(ctx, 2) - p).exact_div(w1), -1), (p, w1)))
            inner = _rand_unimodular(rng) @ core @ _rand_unimodular(rng)
            col_plus = inner.scaled(X)
        elif kind == "minus_rank0":
            col_minus = _rand_matrix(rng, 2, bound=3).scaled(phi1)
        if col_plus.det.is_zero or col_minus.det.is_zero:
            continue
        cd = ColemanData(col_plus, col_minus)
        profile = {
            m: matrix_rank_at_eps(ctx, m, parity_reference(cd, m)) for m in range(4)
        }
        if profile == wanted:
            return cd


def _sweep_thm_app(ctx: PrimeContext, rng, count: int, n: int) -> CheckOutcome:
    def trial(_):
        a, levels = rand_special_matrix(ctx, rng, n)
        res = nabla_matrix_tower(ctx, a, n)
        rank_ok = all(
            matrix_rank_at_eps(ctx, m, a) == 2 - sum(1 for js in levels if m in js)
            for m in range(n)
        )
        if res.agrees is True and rank_ok:
            return []
        return [{"matrix": a.to_json_list(), "result": res.to_json_dict()}]

    return _sweep(f"special-p{ctx.p}-n{n}", count, trial)


def suite_thm_app(seed: int, scale: float = 1.0, precision: int = 40) -> SuiteReport:
    rng = _suite_rng(seed, "thm-app")
    checks = []
    for p, n_top, per in ((3, 3, 50), (5, 2, 50)):
        ctx = PrimeContext(p, precision=precision)
        for n in range(1, n_top + 1):
            checks.append(_sweep_thm_app(ctx, rng, _scaled(per, scale), n))
    return SuiteReport(suite="thm-app", seed=seed, checks=checks)


def suite_lemma_33(seed: int, scale: float = 1.0, precision: int = 40) -> SuiteReport:
    rng = _suite_rng(seed, "lemma-3.3")
    ctx = PrimeContext(3, precision=precision)
    checks = []
    for n in (1, 2, 3):
        def cyclic_trial(_):
            f, predicted = rand_cyclic_poly(ctx, rng, n)
            res = nabla_cyclic(ctx, f, n)
            if res.agrees is True and res.closed_form == predicted:
                return []
            return [{"f": f.to_json_dict(), "result": res.to_json_dict()}]

        checks.append(_sweep(f"cyclic-ord-n{n}", _scaled(36, scale), cyclic_trial))

    def torsion_trial(_):
        a = rng.randint(0, 2)
        ms = [m for m in (0, 1) if rng.random() < 0.5]
        g = LambdaElement([3 * rng.randint(-2, 2) for _ in range(rng.randint(0, 2))] + [1])
        f = LambdaElement.const(3**a)
        for m in ms:
            f = f * cyclotomic_phi(ctx, m)
        f = f * g
        inv = iwasawa_invariants(ctx, f)
        tower = TorsionTower(columns=((f,),))
        failures = []
        for n in (2, 3):
            res = nabla_torsion_tower(ctx, tower, n)
            expected = inv.lambda_ + (3**n - 3 ** (n - 1)) * inv.mu
            if not (res.closed_form == expected and res.agrees is True):
                failures.append({"f": f.to_json_dict(), "n": n})
        return failures

    checks.append(_sweep("torsion-stabilized", _scaled(12, scale), torsion_trial, levels=[2, 3]))
    return SuiteReport(suite="lemma-3.3", seed=seed, checks=checks)


def _rand_summand(ctx: PrimeContext, rng, n: int):
    kind = rng.randrange(3)
    if kind == 0:
        f, _ = rand_cyclic_poly(ctx, rng, n)
        return CyclicTower(f=f)
    if kind == 1:
        a, _ = rand_special_matrix(ctx, rng, n, max_deg=2)
        return MatrixTower(matrix=a)
    while True:
        m = _rand_matrix(rng, 2, bound=3)
        if not CyclotomicPoint.of(ctx, n, m.det).is_zero:
            return TorsionTower(columns=m.columns)


def suite_additivity(seed: int, scale: float = 1.0, precision: int = 40) -> SuiteReport:
    rng = _suite_rng(seed, "additivity")
    ctx = PrimeContext(3, precision=precision)

    def trial(i):
        n = 1 + (i % 2)
        left, right = _rand_summand(ctx, rng, n), _rand_summand(ctx, rng, n)
        return [] if additivity_check(ctx, left, right, n) else [{"n": n}]

    finite = TorsionTower(columns=((LambdaElement.const(3),), (X,)))
    zeros = [nabla_tower(ctx, finite, n).nabla for n in (1, 2)]
    checks = [
        _sweep("direct-sums", _scaled(20, scale), trial),
        CheckOutcome(
            name="constant-finite-zero",
            ok=all(v == 0 for v in zeros),
            details={"nabla": zeros},
        ),
    ]
    return SuiteReport(suite="additivity", seed=seed, checks=checks)


_PARITY_DRAWS = (
    ("generic", 8),
    ("minus_rank1", 5),
    ("minus_rank1_m0", 3),
    ("plus_rank1", 4),
    ("minus_rank0", 4),
)


def suite_parity(seed: int, scale: float = 1.0, precision: int = 40) -> SuiteReport:
    rng = _suite_rng(seed, "parity")
    ctx = PrimeContext(3, precision=precision)
    n_max = 3
    congr_fail = 0
    basis_fail = 0
    closed_fail = 0
    closed_applicable = 0
    total = 0
    example = None
    for kind, base in _PARITY_DRAWS:
        for _ in range(_scaled(base, scale)):
            total += 1
            cd = rand_coleman_data(ctx, rng, kind)
            # the library's parity_congruence_check is a theorem; this tests the arithmetic
            f = assemble_fn(ctx, cd, n_max)
            if not all(matrices_proportional_at_eps(ctx, m, f, parity_reference(cd, m)) for m in range(n_max + 1)):
                congr_fail += 1
                continue
            try:
                b = good_basis_transform(ctx, cd, n_max)
                good = all(ord_eps(ctx, m, b.det) != INFINITE for m in range(n_max + 1)) and all(
                    is_special(ctx, assemble_fn(ctx, cd, n) @ b, n).verdict for n in range(1, n_max + 1)
                )
                error = {}
            except PostconditionFailed as exc:  # the transform's own check failed
                good, error = False, {"error": str(exc)}
            if not good:
                basis_fail += 1
                if example is None:
                    example = {"kind": kind, "data": cd.to_json_dict(), **error}
                continue
            moved = cd.transformed(b)
            for n in (2, 3):
                # det F_n(eps_n) is det C_n(eps_n) times a nonzero square
                if ord_eps(ctx, n, parity_reference(moved, n).det) == INFINITE:
                    continue
                closed_applicable += 1
                res = nabla_coleman_tower(ctx, moved, n)
                if res.agrees is not True:
                    closed_fail += 1
                    if example is None:
                        example = {
                            "kind": kind,
                            "n": n,
                            "data": cd.to_json_dict(),
                            "result": res.to_json_dict(),
                        }
    checks = [
        CheckOutcome(
            name="parity-congruence",
            ok=congr_fail == 0,
            details={"count": total, "failures": congr_fail},
        ),
        CheckOutcome(
            name="good-basis-special",
            ok=basis_fail == 0,
            details={"count": total, "failures": basis_fail},
        ),
        CheckOutcome(
            name="signed-closed-form",
            ok=closed_fail == 0 and closed_applicable > 0,
            details={"applicable": closed_applicable, "failures": closed_fail},
        ),
    ]
    if example is not None:
        checks.append(CheckOutcome(name="first-failure", ok=False, details=example))
    return SuiteReport(suite="parity", seed=seed, checks=checks)


def suite_rod(seed: int, scale: float = 1.0, precision: int = 40) -> SuiteReport:
    rng = _suite_rng(seed, "rod")
    ctx = PrimeContext(3, precision=precision)
    checks = []
    for kind in ("saturation", "not-coprime"):
        for n in (1, 2):
            def trial(_):
                b = rand_unit_resultant_matrix(ctx, rng, n)
                if kind == "not-coprime":
                    phi, j = cyclotomic_phi(ctx, rng.randint(0, n)), rng.randrange(2)
                    b = LambdaMatrix(tuple(tuple(e * phi if i == j else e for i, e in enumerate(r)) for r in b.rows))
                try:
                    ok = rod_check(ctx, b, n, n + 1) and kind == "saturation"
                except NotCoprime:
                    ok = kind == "not-coprime"
                return [] if ok else [{"b": b.to_json_list()}]

            checks.append(_sweep(f"{kind}-n{n}", _scaled(10, scale), trial, test_level=n + 1))
    return SuiteReport(suite="rod", seed=seed, checks=checks)


def suite_degrees(seed: int, scale: float = 1.0, precision: int = 40) -> SuiteReport:
    checks = []
    for p in (3, 5, 7):
        ctx = PrimeContext(p, precision=precision)
        rows = [degree_identities(ctx, n) for n in range(1, 9)]
        checks.append(
            CheckOutcome(
                name=f"signed-degrees-p{p}",
                ok=all(r["odd_ok"] and r["even_ok"] for r in rows),
                details={"rows": rows},
            )
        )
    return SuiteReport(suite="degrees", seed=seed, checks=checks)


def suite_growth(seed: int, scale: float = 1.0, precision: int = 40) -> SuiteReport:
    rng = _suite_rng(seed, "growth")
    checks = []
    zero = InvariantSet(p=3, lambda_plus=0, lambda_minus=0, mu_plus=0, mu_minus=0, r_inf=0)
    table = sha_growth(zero, range(1, 5), baseline=(0, 0))
    deltas = tuple(r.delta_e for r in table.rows)
    checks.append(
        CheckOutcome(
            name="frozen-deltas",
            ok=deltas == (0, 6, 12, 42),
            details={"deltas": list(deltas)},
        )
    )

    def trial(_):
        inv = InvariantSet(
            p=rng.choice((3, 5)),
            lambda_plus=rng.randint(0, 6),
            lambda_minus=rng.randint(0, 6),
            mu_plus=rng.randint(0, 2),
            mu_minus=rng.randint(0, 2),
            r_inf=rng.randint(0, 2),
        )
        n0 = rng.randint(0, 2)
        e0 = rng.randint(0, 9)
        table = sha_growth(inv, range(n0 + 1, n0 + 6), baseline=(n0, e0))
        failures = []
        prev = e0
        for row in table.rows:
            if row.e_n - prev != row.delta_e or row.delta_e != delta_e(inv, row.n):
                failures.append({"invariants": inv.to_json_dict(), "n": row.n})
            prev = row.e_n
        return failures

    checks.append(_sweep("telescoping", _scaled(10, scale), trial))
    return SuiteReport(suite="growth", seed=seed, checks=checks)


def suite_precision(seed: int, scale: float = 1.0, precision: int = 40) -> SuiteReport:
    """Drive a special-matrix sweep at a precision far too low for the
    lengths involved (fixed at 3 digits regardless of the requested
    precision): the engine must raise PrecisionUnstable before reporting
    any value that disagrees with the closed form."""
    rng = _suite_rng(seed, "precision")
    low = PrimeContext(3, precision=3)
    candidates = [rand_special_matrix(low, rng, 2, max_deg=3)[0] for _ in range(30)]
    # kernel of this one carries an elementary divisor of valuation 3,
    # invisible at precision 3: guaranteed to trip the stability check
    candidates.append(LambdaMatrix.diagonal(LambdaElement.const(27), ONE))
    raised = False
    lied = False
    completed = 0
    for a in candidates:
        try:
            res = nabla_matrix_tower(low, a, 2)
        except PrecisionUnstable:
            raised = True
            break
        except PhiDivides:
            continue
        completed += 1
        if res.agrees is False:
            lied = True
            break
    checks = [
        CheckOutcome(
            name="low-precision-raises",
            ok=raised and not lied,
            details={"completed_before_raise": completed, "raised": raised, "lied": lied},
        )
    ]
    return SuiteReport(suite="precision", seed=seed, checks=checks)


_SUITES = {
    "thm-app": suite_thm_app,
    "lemma-3.3": suite_lemma_33,
    "additivity": suite_additivity,
    "parity": suite_parity,
    "rod": suite_rod,
    "degrees": suite_degrees,
    "growth": suite_growth,
    "precision": suite_precision,
}
SUITE_NAMES = tuple(_SUITES)


def run_suites(
    names, seed: int = 0, scale: float = 1.0, precision: int = 40
) -> list[SuiteReport]:
    """Run the named suites (or all of them for "all") with a shared
    seed; unknown names raise KeyError, a scale that is not finite
    InvalidContext."""
    if not math.isfinite(scale):
        raise InvalidContext(f"scale must be finite, got {scale}")
    if names == "all" or names == ["all"]:
        names = list(SUITE_NAMES)
    return [_SUITES[name](seed, scale, precision) for name in names]
