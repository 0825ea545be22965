"""Column-divisibility reports, BD factorization, F_n assembly, parity
congruence, the good-basis transform, and span saturation."""

import hashlib
import json
import random

import pytest
from rod_oracle import rod_check_by_intersection

from iwarank import special_matrices
from iwarank.cyclo_eval import (
    INFINITE,
    matrices_proportional_at_eps,
    ord_eps,
    rank_at_eps,
)
from iwarank.errors import (
    DegenerateColeman,
    InvalidContext,
    IwarankError,
    NotCoprime,
    NotSpecial,
    PostconditionFailed,
    PrecisionUnstable,
    SingularMatrix,
)
from iwarank.lambda_ring import (
    MAX_EXPLICIT_LENGTH,
    ONE,
    X,
    ZERO,
    LambdaElement,
    LambdaMatrix,
    PrimeContext,
    cyclotomic_phi,
    euler_phi_pk,
    omega_poly,
    omega_tower,
)
from iwarank.special_matrices import (
    ColemanData,
    _kernel_killer,
    assemble_fn,
    factor_bd,
    good_basis_transform,
    is_special,
    parity_congruence_check,
    parity_reference,
    rod_check,
)
from iwarank.verify import COLEMAN_KINDS, rand_coleman_data


def diag(a, b) -> LambdaMatrix:
    return LambdaMatrix.diagonal(a, b)


@pytest.fixture
def phi1(ctx3):
    return cyclotomic_phi(ctx3, 1)


@pytest.fixture
def cd_unit(ctx3):
    # col_plus = X*I, col_minus = I: every F_n is already special
    return ColemanData(col_plus=diag(X, X), col_minus=LambdaMatrix.identity())


@pytest.fixture
def cd_rank1(ctx3, phi1):
    # det col_minus = Phi_1, so F_n drops to rank 1 at eps_1
    return ColemanData(col_plus=diag(X, X), col_minus=diag(ONE, phi1))


class TestIsSpecial:
    def test_frozen_diag_xx(self, ctx3):
        rep = is_special(ctx3, diag(X, X), 1)
        assert rep.verdict is True
        assert rep.per_level[0].i_m >= 1

    def test_frozen_vacuous(self, ctx3):
        a = LambdaMatrix(((X, ONE), (ONE, X)))
        rep = is_special(ctx3, a, 0)
        assert rep.verdict is True
        assert rep.per_level[0].det_divisible is False

    def test_frozen_failure(self, ctx3):
        a = LambdaMatrix(((ONE, ONE), (X, X + X * X)))
        rep = is_special(ctx3, a, 0)
        assert rep.verdict is False
        assert rep.per_level[0].det_divisible is True
        assert rep.per_level[0].i_m == 0

    def test_levels_cover_range(self, ctx3):
        rep = is_special(ctx3, diag(X, X), 2)
        assert [lvl.m for lvl in rep.per_level] == [0, 1, 2]

    def test_rank_identity_on_factored_input(self, ctx3, phi1):
        # rank(A(eps_m)) = 2 - multiplicity of Phi_m in det D
        b = LambdaMatrix(((ONE, X), (ONE, ONE + X)))  # det = 1
        d = diag(X * phi1, phi1)
        a = b @ d
        fact = factor_bd(ctx3, a, 2)
        for m in (0, 1, 2):
            mult = 0
            det_d = fact.d.det
            phi = cyclotomic_phi(ctx3, m)
            while det_d.divisible_by(phi):
                det_d = det_d.exact_div(phi)
                mult += 1
            assert rank_at_eps(ctx3, m, a.columns, 2) == 2 - mult


class TestFactorBd:
    def test_frozen_diag_xx(self, ctx3):
        fact = factor_bd(ctx3, diag(X, X), 1)
        assert fact.b == LambdaMatrix.identity()
        assert fact.d == diag(X, X)

    def test_frozen_upper_triangular(self, ctx3, phi1):
        a = LambdaMatrix(((phi1, ONE), (ZERO, ONE)))
        fact = factor_bd(ctx3, a, 2)
        assert fact.b == LambdaMatrix(((ONE, ONE), (ZERO, ONE)))
        assert fact.d == diag(phi1, ONE)

    def test_frozen_identity(self, ctx3):
        fact = factor_bd(ctx3, LambdaMatrix.identity(), 3)
        assert fact.b == LambdaMatrix.identity()
        assert fact.d == LambdaMatrix.identity()

    def test_not_special_rejected(self, ctx3):
        a = LambdaMatrix(((ONE, ONE), (X, X + X * X)))
        with pytest.raises(NotSpecial):
            factor_bd(ctx3, a, 1)

    def test_roundtrip_and_extraction(self, ctx3, phi1):
        phi2 = cyclotomic_phi(ctx3, 2)
        b0 = LambdaMatrix(((ONE, ONE + X), (X, ONE)))
        d0 = diag(X * phi2, phi1)
        a = b0 @ d0
        fact = factor_bd(ctx3, a, 3)
        assert fact.b @ fact.d == a
        assert fact.d == d0
        # extracted columns of B are no longer divisible by the pulled factors
        for j in range(2):
            for m in range(0, 3):
                phi = cyclotomic_phi(ctx3, m)
                if fact.d.rows[j][j].divisible_by(phi):
                    col = fact.b.column(j)
                    assert not (col[0].divisible_by(phi) and col[1].divisible_by(phi))


class TestAssembleFn:
    def test_frozen_level1(self, ctx3, cd_unit, phi1):
        f = assemble_fn(ctx3, cd_unit, 1)
        expected = ONE + X * phi1
        assert f == diag(expected, expected)

    def test_frozen_level0(self, ctx3, cd_unit):
        f = assemble_fn(ctx3, cd_unit, 0)
        assert f == diag(ONE + X, ONE + X)

    def test_bilinear_in_transform(self, ctx3, cd_rank1):
        b = LambdaMatrix(((ONE, X), (ONE, ONE + X)))
        for n in (1, 2):
            lhs = assemble_fn(ctx3, cd_rank1.transformed(b), n)
            rhs = assemble_fn(ctx3, cd_rank1, n) @ b
            assert lhs == rhs


class TestColemanDataValidation:
    def test_x_divisibility_enforced(self):
        cd = ColemanData(col_plus=LambdaMatrix.identity(),
                         col_minus=LambdaMatrix.identity())
        with pytest.raises(DegenerateColeman, match="[Xx]"):
            cd.validate()

    def test_nonzero_det_enforced(self):
        cd = ColemanData(col_plus=diag(X, X),
                         col_minus=LambdaMatrix(((ONE, ONE), (ONE, ONE))))
        with pytest.raises(DegenerateColeman, match="det"):
            cd.validate()

    def test_nonzero_det_col_plus_enforced(self):
        cd = ColemanData(col_plus=LambdaMatrix(((X, X), (X, X))), col_minus=LambdaMatrix.identity())
        with pytest.raises(DegenerateColeman, match="det col_plus is zero"):
            cd.validate()

    def test_json_roundtrip(self, cd_rank1):
        obj = cd_rank1.to_json_dict()
        assert ColemanData(*(LambdaMatrix.from_json_list(obj[k]) for k in ("col_plus", "col_minus"))) == cd_rank1


class TestParityCongruence:
    def test_reference_dispatch(self, cd_rank1):
        assert parity_reference(cd_rank1, 0) == cd_rank1.col_minus
        assert parity_reference(cd_rank1, 1) == cd_rank1.col_minus
        assert parity_reference(cd_rank1, 3) == cd_rank1.col_minus
        assert parity_reference(cd_rank1, 2) == cd_rank1.col_plus

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_holds_on_unit_pair(self, ctx3, cd_unit, n):
        assert parity_congruence_check(ctx3, cd_unit, n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_holds_on_rank1_pair(self, ctx3, cd_rank1, n):
        assert parity_congruence_check(ctx3, cd_rank1, n)

    @pytest.mark.parametrize("p,n_max", [(3, 4), (5, 2), (7, 2)])
    def test_agrees_with_assembled_evaluation(self, p, n_max, cd_unit, cd_rank1):
        # the check is a theorem; F_n evaluated at every eps_m must agree
        ctx = PrimeContext(p)
        rng = random.Random(p)
        pairs = [rand_coleman_data(ctx, rng, kind) for kind in COLEMAN_KINDS for _ in range(3)]
        for cd in pairs + [cd_unit, cd_rank1]:
            for n in range(n_max + 1):
                f = assemble_fn(ctx, cd, n)
                assembled = all(
                    matrices_proportional_at_eps(ctx, m, f, parity_reference(cd, m)) for m in range(n + 1)
                )
                assert parity_congruence_check(ctx, cd, n) is assembled is True

    @pytest.mark.parametrize("n", [-1, 0, 2, 10**6])
    def test_degenerate_pair_refused_before_level(self, ctx3, n):
        for cd in (
            ColemanData(col_plus=LambdaMatrix.identity(), col_minus=LambdaMatrix.identity()),
            ColemanData(col_plus=diag(X, X), col_minus=LambdaMatrix(((ONE, ONE), (ONE, ONE)))),
        ):
            with pytest.raises(DegenerateColeman):
                parity_congruence_check(ctx3, cd, n)

    @pytest.mark.parametrize("n", [-1, 10, 10**6])
    def test_level_refusals_match_assembly(self, ctx3, cd_unit, n):
        # same exception and message as assembling F_n (3^10 is past the explicit cap)
        with pytest.raises(InvalidContext) as want:
            assemble_fn(ctx3, cd_unit, n)
        with pytest.raises(InvalidContext) as got:
            parity_congruence_check(ctx3, cd_unit, n)
        assert str(got.value) == str(want.value)

    def test_builds_no_fn(self, ctx3, cd_rank1, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("parity_congruence_check must not assemble F_n")

        monkeypatch.setattr(special_matrices, "assemble_fn", forbidden)
        monkeypatch.setattr(special_matrices, "omega_tower", forbidden)
        monkeypatch.setattr(LambdaElement, "divmod_monic", forbidden)
        assert parity_congruence_check(ctx3, cd_rank1, 4)


class TestLevelwiseReadings:
    """F_n(eps_m) = c P_m(eps_m) for m <= n, P_m = parity_reference(cd, m)
    and c the signed product that survives at eps_m (omega-tilde_n^+ at
    m = 0 or odd, omega-tilde_n^- at even m >= 2), so ords and specialness
    verdicts of F_n are read level by level from Col^+ and Col^-."""

    @pytest.mark.parametrize("p,top", [(3, 4), (5, 3), (7, 2)])
    def test_fn_reads_from_parity_references(self, p, top):
        ctx = PrimeContext(p)
        rng = random.Random(f"levelwise-{p}")
        cases = 0
        for kind in COLEMAN_KINDS:
            cd = rand_coleman_data(ctx, rng, kind)
            b = good_basis_transform(ctx, cd, top)
            for n in range(top + 1):
                fn = assemble_fn(ctx, cd, n)
                report = is_special(ctx, fn @ b, n)
                for m in range(n + 1):
                    ref = parity_reference(cd, m)
                    survivors = range(2, n + 1, 2) if m == 0 or m % 2 else range(1, n + 1, 2)
                    c = 2 * sum(euler_phi_pk(p, min(j, m)) for j in survivors)
                    # both sides infinite together: INFINITE + c is INFINITE
                    assert ord_eps(ctx, m, fn.det) == ord_eps(ctx, m, ref.det) + c, (kind, n, m)
                    assert report.per_level[m] == is_special(ctx, ref @ b, m).per_level[m], (kind, n, m)
                    cases += 1
        assert cases == len(COLEMAN_KINDS) * (top + 1) * (top + 2) // 2


class TestGoodBasis:
    def assert_postconditions(self, ctx, cd, b, n_max):
        det_f_checked = False
        for m in range(0, n_max + 1):
            assert ord_eps(ctx, m, b.det) != INFINITE
        for n in range(1, n_max + 1):
            fn = assemble_fn(ctx, cd, n)
            assert (fn @ b).det == fn.det * b.det
            assert is_special(ctx, fn @ b, n).verdict, f"not special at n={n}"
            det_f_checked = True
        assert det_f_checked

    def test_unit_pair_needs_no_change(self, ctx3, cd_unit):
        b = good_basis_transform(ctx3, cd_unit, 3)
        assert b == LambdaMatrix.identity()
        self.assert_postconditions(ctx3, cd_unit, b, 3)

    def test_rank1_pair(self, ctx3, cd_rank1):
        b = good_basis_transform(ctx3, cd_rank1, 3)
        self.assert_postconditions(ctx3, cd_rank1, b, 3)

    def test_rank1_at_even_level(self, ctx3):
        phi2 = cyclotomic_phi(ctx3, 2)
        cd = ColemanData(col_plus=diag(X, X * phi2), col_minus=LambdaMatrix.identity())
        b = good_basis_transform(ctx3, cd, 3)
        self.assert_postconditions(ctx3, cd, b, 3)

    def test_degenerate_rejected(self, ctx3):
        cd = ColemanData(col_plus=diag(X, X),
                         col_minus=LambdaMatrix(((ONE, ONE), (ONE, ONE))))
        with pytest.raises(DegenerateColeman):
            good_basis_transform(ctx3, cd, 2)

    @pytest.mark.parametrize("p,n_max", [(3, 4), (5, 2), (7, 2)])
    def test_glue_alone_clears_the_higher_levels(self, p, n_max):
        # the degree proof in good_basis_transform's docstring: entries of
        # degree < p^top = deg omega_top keep deg det B below every deg Phi_m,
        # m > top, so no Phi_m divides det B however far up one looks
        ctx = PrimeContext(p)
        rng = random.Random(f"good-basis-degrees-{p}")
        tops = set()
        for kind in COLEMAN_KINDS:
            for _ in range(2):
                cd = rand_coleman_data(ctx, rng, kind)
                b = good_basis_transform(ctx, cd, n_max)
                rank_one = [m for m in range(n_max + 1)
                            if rank_at_eps(ctx, m, parity_reference(cd, m).columns, 2) == 1]
                top = max(rank_one, default=0)
                tops.add(top)
                assert all(e.degree < p**top for e in b.entries), (kind, top)
                for m in range(top + 1, n_max + 3):
                    if p**m <= MAX_EXPLICIT_LENGTH:
                        assert ord_eps(ctx, m, b.det) != INFINITE, (kind, m)
        assert tops == {0, 1, 2}

    def test_outputs_pinned(self):
        # SHA-256 of B on a fixed draw set (p in {3, 5}, every kind,
        # n_max 0..3), computed when the transform still searched for
        # corrections above the glued levels: the glue alone gives the same B
        outputs = []
        for p in (3, 5):
            ctx = PrimeContext(p)
            rng = random.Random(f"good-basis-pin-{p}")
            for kind in COLEMAN_KINDS:
                for _ in range(3):
                    cd = rand_coleman_data(ctx, rng, kind)
                    outputs += [good_basis_transform(ctx, cd, n_max).to_json_list() for n_max in range(4)]
        digest = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()
        assert digest == "3101f2be855db274a61b502dcf8d96670a321f8945a9c5fd0d6f18f5a4a31c2b"

    @pytest.mark.parametrize("n_max", [1, 2, 3])
    def test_singular_lower_fn_refused(self, ctx3, n_max):
        # det F_2 and det F_3 are not 0: the refusal must come from F_1
        # itself, since a reading of F_{n_max} B alone finds every level
        # special and returns I
        cd = _f1_zero_pair(ctx3)
        assert assemble_fn(ctx3, cd, 1) == diag(ZERO, ZERO)
        assert not assemble_fn(ctx3, cd, 2).det.is_zero and not assemble_fn(ctx3, cd, 3).det.is_zero
        with pytest.raises(SingularMatrix) as exc:
            good_basis_transform(ctx3, cd, n_max)
        assert str(exc.value) == "det A = 0: every level divides the determinant"


def _postcondition_by_is_special(ctx, cd, b, n_max):
    """good_basis_transform's second postcondition as first written: one
    is_special(F_n B, n) per level n <= n_max."""
    for n in range(1, n_max + 1):
        f = assemble_fn(ctx, cd, n)
        if not is_special(ctx, f @ b, n).verdict:
            raise PostconditionFailed(f"internal: F_{n} B is not special")
    return b


def _outcome(call):
    try:
        return call().to_json_list()
    except (IwarankError, PostconditionFailed) as exc:
        return type(exc), str(exc)


def _f1_zero_pair(ctx):
    """col_minus = -omega_1 I cancels omega-tilde_1^- col_plus = Phi_1 X I,
    so F_1 = 0."""
    minus_omega1 = -omega_poly(ctx, 1)
    return ColemanData(col_plus=diag(X, X), col_minus=diag(minus_omega1, minus_omega1))


def _order_pair(ctx):
    """A pair with det F_2 = 0 whose F_1 is not special at level 0 in the
    identity basis: F_1(0) = [[1, 1], [0, 0]] has det 0 and no vanishing
    column.  The F_1 verdict is due before the F_2 refusal."""
    k = LambdaMatrix(((ONE, ONE), (ZERO, ONE)))
    phi1, phi2 = cyclotomic_phi(ctx, 1), cyclotomic_phi(ctx, 2)
    return ColemanData(col_plus=diag(X, X * phi2) @ k, col_minus=diag(ONE, -X * phi1) @ k)


# p = 7 stops at n_max = 3: at n_max = 4 each side multiplies
# degree-2100 entries, about 40 s
@pytest.mark.parametrize("p,top", [(3, 4), (5, 4), (7, 3)])
@pytest.mark.parametrize("basis", ["transform", "identity"])
def test_postcondition_matches_is_special_per_level(monkeypatch, p, top, basis):
    # the single reading of F_{n_max} B against the loop it replaced, on the
    # transform's own B and on I (not special at a rank-one level), with
    # every return value, exception type and message equal
    ctx = PrimeContext(p)
    rng = random.Random(f"postcondition-{p}")
    glue = special_matrices._glue if basis == "transform" else lambda ctx, blocks: LambdaMatrix.identity()
    glued = []

    def recording(ctx, blocks):
        glued.append(glue(ctx, blocks))
        return glued[-1]

    monkeypatch.setattr(special_matrices, "_glue", recording)
    pairs = [rand_coleman_data(ctx, rng, kind) for kind in COLEMAN_KINDS]
    if p == 3:
        pairs += [_f1_zero_pair(ctx), _order_pair(ctx)]
    seen = set()
    for cd in pairs:
        for n_max in range(top + 1):
            glued.clear()
            got = _outcome(lambda: good_basis_transform(ctx, cd, n_max))
            b = glued[-1] if glued else LambdaMatrix.identity()
            want = _outcome(lambda: _postcondition_by_is_special(ctx, cd, b, n_max))
            assert got == want, (p, n_max, basis, cd)
            seen.add(got[0] if isinstance(got, tuple) else "returned")
    # I fails at the rank-one levels; only the p = 3 extras are singular
    want = {"returned", SingularMatrix} if p == 3 else {"returned"}
    assert seen == (want | {PostconditionFailed} if basis == "identity" else want)


class TestRodCheck:
    def test_frozen_identity(self, ctx3):
        assert rod_check(ctx3, LambdaMatrix.identity(), 1, 2) is True

    def test_frozen_unit_diag(self, ctx3):
        assert rod_check(ctx3, diag(ONE + X, ONE), 1, 2) is True

    def test_not_coprime(self, ctx3, phi1):
        with pytest.raises(NotCoprime):
            rod_check(ctx3, diag(phi1, ONE), 1, 2)

    def test_test_level_must_exceed_n(self, ctx3):
        with pytest.raises(InvalidContext):
            rod_check(ctx3, LambdaMatrix.identity(), 2, 2)

    def test_nontrivial_matrix(self, ctx3):
        b = LambdaMatrix(((ONE + X, ONE), (ONE, LambdaElement((2,)))))
        assert rod_check(ctx3, b, 1, 2) is True

    def test_precision_drill(self):
        # 27 vanishes mod 3^3, yet saturation is a theorem: no precision is read
        for precision in (3, 1):
            ctx = PrimeContext(3, precision=precision)
            assert rod_check(ctx, diag(LambdaElement((27,)), ONE), 1, 2) is True

    def test_negative_level(self, ctx3):
        with pytest.raises(InvalidContext):
            rod_check(ctx3, LambdaMatrix.identity(), -1, 2)

    def test_agrees_with_intersection_oracle(self):
        """60 seeded B: wherever the mod-p^40 intersection (read again at
        40 + 8) gives an answer it is True, and NotCoprime falls on the
        same inputs.  The oracle's own PrecisionUnstable refusals are
        counted, not failed."""
        rng = random.Random(20261018)
        ctxs = {p: PrimeContext(p) for p in (3, 5)}
        outcomes = {"agree": 0, "not_coprime": 0, "oracle_unstable": 0}
        for _ in range(60):
            p = rng.choice((3, 5))
            ctx = ctxs[p]
            # ambient rank 2 p^t <= 54 keeps the oracle's SNF small
            n = rng.randint(0, 2 if p == 3 else 1)
            t = rng.randint(n + 1, min(n + 2, 3 if p == 3 else 2))

            def entry():
                return LambdaElement(
                    rng.choice((0, 1, -1, 2, p, -p, p * p)) for _ in range(rng.randint(1, 4))
                )

            cols = [[entry(), entry()] for _ in (0, 1)]
            draw = rng.random()
            if draw < 0.2:  # allowed: Phi_m with n < m <= t
                factor = cyclotomic_phi(ctx, rng.randint(n + 1, t))
            elif draw < 0.3:  # refused: Phi_m with m <= n
                factor = cyclotomic_phi(ctx, rng.randint(0, n))
            elif draw < 0.45:
                factor = LambdaElement.const(p ** rng.randint(1, 3))
            else:
                factor = ONE
            j = rng.randint(0, 1)
            cols[j] = [factor * x for x in cols[j]]
            b = LambdaMatrix(((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1])))
            try:
                expected = rod_check_by_intersection(ctx, b, n, t)
            except NotCoprime:
                with pytest.raises(NotCoprime):
                    rod_check(ctx, b, n, t)
                outcomes["not_coprime"] += 1
                continue
            except PrecisionUnstable:
                outcomes["oracle_unstable"] += 1
                expected = True
            else:
                outcomes["agree"] += 1
            assert rod_check(ctx, b, n, t) is expected, (p, n, t, b)
        # the oracle refuses the Phi_m (n < m <= t) draws: <B> then has
        # lower rank, and its mod-p^e intersection drifts with e
        assert outcomes["agree"] >= 30 and outcomes["not_coprime"] >= 3, outcomes


class TestReports:
    def test_special_report_json(self, ctx3):
        rep = is_special(ctx3, diag(X, X), 1)
        d = rep.to_json_dict()
        assert d["verdict"] is True
        assert len(d["per_level"]) == 2

    def test_factorization_json(self, ctx3):
        fact = factor_bd(ctx3, diag(X, X), 1)
        d = fact.to_json_dict()
        assert "b" in d and "d" in d


_CTX3 = PrimeContext(3)
_UNIT_PAIR = ColemanData(col_plus=LambdaMatrix.diagonal(X, X), col_minus=LambdaMatrix.identity())
_BOUND = "exceeds the explicit-construction bound 20000; use degree bookkeeping for large levels"
_LEVEL_CALLS = {
    "cyclotomic_phi": lambda n: cyclotomic_phi(_CTX3, n),
    "omega_poly": lambda n: omega_poly(_CTX3, n),
    "omega_tower": lambda n: omega_tower(_CTX3, n),
    "ord_eps": lambda n: ord_eps(_CTX3, n, X + 1),
    "rank_at_eps": lambda n: rank_at_eps(_CTX3, n, LambdaMatrix.identity().columns, 2),
    "is_special": lambda n: is_special(_CTX3, diag(X, X), n),
    "factor_bd": lambda n: factor_bd(_CTX3, diag(X, X), n),
    "assemble_fn": lambda n: assemble_fn(_CTX3, _UNIT_PAIR, n),
    "parity_congruence_check": lambda n: parity_congruence_check(_CTX3, _UNIT_PAIR, n),
    "rod_check": lambda n: rod_check(_CTX3, LambdaMatrix.identity(), n, n + 1),
    "good_basis_transform": lambda n: good_basis_transform(_CTX3, _UNIT_PAIR, n),
}


@pytest.mark.parametrize("n", [-1, 10, 10**6, 2.0])
@pytest.mark.parametrize("name", list(_LEVEL_CALLS))
def test_level_refusal_messages(name, n):
    # a level that is not an integer, a negative one and one past the
    # explicit cap are refused with the same exception and message
    # everywhere, whichever check raises them; a float level is refused
    # after the integer level equal to it has filled the caches
    if isinstance(n, float):
        _LEVEL_CALLS[name](int(n))
    with pytest.raises(InvalidContext) as exc:
        _LEVEL_CALLS[name](n)
    negative = "n_max" if name == "good_basis_transform" else "level"
    if isinstance(n, float):
        want = f"level must be an integer, got {n}"
    else:
        want = f"{negative} must be >= 0, got {n}" if n < 0 else f"p^n = 3^{n} {_BOUND}"
    assert type(exc.value) is InvalidContext and str(exc.value) == want


@pytest.mark.parametrize("fn", [is_special, factor_bd])
@pytest.mark.parametrize("n", [-1, 10])
def test_singular_refused_before_level(fn, n):
    with pytest.raises(SingularMatrix) as exc:
        fn(_CTX3, LambdaMatrix(((ONE, X), (ONE, X))), n)
    assert str(exc.value) == "det A = 0: every level divides the determinant"


def _kernel_killer_by_division(ctx, cd, m):
    """The kernel-killing block as first written: each entry of the
    parity reference reduced mod Phi_m, and the chosen residues reduced
    again."""
    phi = cyclotomic_phi(ctx, m)
    c = parity_reference(cd, m)
    a = c.rows[0][0].reduced_mod(phi)
    c_ = c.rows[0][1].reduced_mod(phi)
    b = c.rows[1][0].reduced_mod(phi)
    d = c.rows[1][1].reduced_mod(phi)
    if not (a.is_zero and c_.is_zero):
        x, y = (-c_).reduced_mod(phi), a
    else:
        x, y = (-d).reduced_mod(phi), b
    if not x.reduced_mod(phi).is_zero:
        return ((x, ZERO), (y, ONE))
    return ((x, ONE), (y, ZERO))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_kernel_killer_matches_division(p):
    # the block is None exactly where the parity reference does not have
    # rank one at eps_m, and elsewhere it is the block the division oracle
    # builds
    ctx = PrimeContext(p)
    rng = random.Random(f"kernel-killer-{p}")
    ranks = {0: 0, 1: 0, 2: 0}
    for kind in COLEMAN_KINDS:
        for _ in range(2):
            cd = rand_coleman_data(ctx, rng, kind)
            for m in range(4):
                rank = rank_at_eps(ctx, m, parity_reference(cd, m).columns, 2)
                block = _kernel_killer(ctx, cd, m)
                assert (block is None) == (rank != 1), (kind, m)
                if block is not None:
                    assert block.rows == _kernel_killer_by_division(ctx, cd, m), (kind, m)
                ranks[rank] += 1
    assert ranks[1] >= 6 and ranks[0] >= 2 and ranks[2] >= 6, ranks
