"""Randomized-sweep plumbing: generators, reports, determinism."""

import random
from pathlib import Path

import pytest

from iwarank import special_matrices, verify
from iwarank.cyclo_eval import INFINITE, ord_eps, rank_at_eps
from iwarank.errors import PostconditionFailed
from iwarank.kobayashi_rank import nabla_coleman_tower
from iwarank.lambda_ring import LambdaMatrix, PrimeContext, cyclotomic_phi
from iwarank.special_matrices import (
    assemble_fn,
    good_basis_transform,
    is_special,
    parity_reference,
)
from iwarank.verify import (
    COLEMAN_KINDS,
    SUITE_NAMES,
    rand_coleman_data,
    rand_cyclic_poly,
    rand_special_matrix,
    rand_unit_resultant_matrix,
    run_suites,
    suite_growth,
    suite_parity,
    suite_rod,
)


class TestGenerators:
    def test_special_matrix_postconditions(self, ctx3, rng):
        for _ in range(5):
            a, levels = rand_special_matrix(ctx3, rng, 2)
            assert not a.det.is_zero
            assert is_special(ctx3, a, 2).verdict
            assert not a.det.divisible_by(cyclotomic_phi(ctx3, 2))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_cyclic_poly_prediction(self, p, n):
        # the prediction comes from the construction, ord_eps from the ring
        ctx, rng = PrimeContext(p), random.Random(f"cyclic-{p}-{n}")
        for _ in range(8):
            f, expected = rand_cyclic_poly(ctx, rng, n)
            assert ord_eps(ctx, n, f) == expected

    def test_unit_resultant_matrix(self, ctx3, rng):
        for _ in range(5):
            b = rand_unit_resultant_matrix(ctx3, rng)
            for m in range(0, 3):
                assert ord_eps(ctx3, m, b.det) == 0

    @pytest.mark.parametrize(
        "kind", ["generic", "minus_rank1", "minus_rank1_m0", "plus_rank1", "minus_rank0"]
    )
    def test_coleman_kinds_validate(self, ctx3, kind):
        rng = random.Random(11)
        cd = rand_coleman_data(ctx3, rng, kind)
        cd.validate()
        assert not cd.col_plus.det.is_zero
        assert not cd.col_minus.det.is_zero

    @pytest.mark.parametrize("p", [5, 7])
    @pytest.mark.parametrize("kind", sorted(COLEMAN_KINDS))
    def test_coleman_kinds_past_p3(self, p, kind):
        # the rank profile, the good basis and the signed closed form all
        # hold away from p = 3
        ctx = PrimeContext(p)
        cd = rand_coleman_data(ctx, random.Random(5), kind)
        profile = {m: rank_at_eps(ctx, m, parity_reference(cd, m).columns, 2) for m in range(4)}
        assert profile == {m: 2 for m in range(4)} | COLEMAN_KINDS[kind]
        moved = cd.transformed(good_basis_transform(ctx, cd, 2))
        for n in (1, 2):
            assert is_special(ctx, assemble_fn(ctx, moved, n), n).verdict
        if ord_eps(ctx, 2, parity_reference(moved, 2).det) != INFINITE:
            assert nabla_coleman_tower(ctx, moved, 2).agrees is True

    def test_unknown_coleman_kind_raises(self, ctx3):
        with pytest.raises(ValueError):
            rand_coleman_data(ctx3, random.Random(0), "bogus")


class TestBoundedDraws:
    def test_first_accepted_draw_is_returned(self):
        draws = iter(range(10))
        assert verify._draw(lambda: next(draws), lambda v: v == 3, "three") == 3
        assert next(draws) == 4  # no draw past the accepted one

    def test_draw_never_accepted_raises(self, monkeypatch):
        monkeypatch.setattr(verify, "_MAX_DRAWS", 5)
        calls = []
        with pytest.raises(PostconditionFailed, match="^internal: no widget accepted in 5 draws$"):
            verify._draw(lambda: calls.append(None), lambda _: False, "widget")
        assert len(calls) == 5

    def test_every_rejection_loop_is_bounded(self):
        assert "while True" not in Path(verify.__file__).read_text()


class TestReports:
    def test_growth_suite_passes(self):
        report = suite_growth(seed=0)
        assert report.ok
        assert report.suite == "growth"
        assert all(c.ok for c in report.checks)

    def test_deterministic_at_fixed_seed(self):
        a = suite_growth(seed=3).to_json_dict()
        b = suite_growth(seed=3).to_json_dict()
        assert a == b

    def test_run_suites_expands_all(self):
        assert set(SUITE_NAMES) == {
            "thm-app", "lemma-3.3", "additivity", "parity",
            "rod", "degrees", "growth", "precision",
        }

    def test_run_suites_selected(self):
        reports = run_suites(["growth", "degrees"], seed=1)
        assert [r.suite for r in reports] == ["growth", "degrees"]
        assert all(r.ok for r in reports)

    def test_run_suites_takes_one_name_as_str(self):
        assert run_suites("growth", seed=1) == run_suites(["growth"], seed=1)
        assert [r.suite for r in run_suites("all", scale=0.1)] == list(SUITE_NAMES)

    def test_json_shape(self):
        report = suite_growth(seed=0)
        d = report.to_json_dict()
        assert d["suite"] == "growth"
        assert d["seed"] == 0
        assert isinstance(d["checks"], list)
        assert {"name", "ok"} <= set(d["checks"][0])

    def test_failing_rod_sweep_carries_example(self, monkeypatch):
        monkeypatch.setattr(verify, "rod_check", lambda ctx, b, n, t: False)
        check = next(c for c in suite_rod(seed=0, scale=0.2).checks if c.name == "saturation-n1")
        assert not check.ok
        assert check.details["failures"] == check.details["count"] == 2
        assert len(check.details["example"]["b"]) == 2  # the matrix B, as rows

    def test_passing_sweep_has_no_example(self):
        assert all("example" not in c.details for c in suite_rod(seed=0, scale=0.2).checks)

    def test_failing_telescoping_counts_rows(self, monkeypatch):
        monkeypatch.setattr(verify, "delta_e", lambda inv, n: -1)
        check = next(c for c in suite_growth(seed=0, scale=0.2).checks if c.name == "telescoping")
        assert (check.ok, check.details["count"], check.details["failures"]) == (False, 2, 10)
        assert set(check.details["example"]) == {"invariants", "n"}

    @pytest.mark.parametrize("seed", range(4))
    def test_precision_drill_candidates_have_a_finite_step(self, monkeypatch, seed):
        # each drawn candidate is special with det free of Phi_m for m <= 2,
        # and diag(27, 1) has no Phi factor, so no candidate can raise
        # PhiDivides at n = 2
        drawn = []

        def recording(ctx, rng, n, max_deg=3):
            drawn.append((ctx, rand_special_matrix(ctx, rng, n, max_deg)[0]))
            return drawn[-1][1], None

        monkeypatch.setattr(verify, "rand_special_matrix", recording)
        (report,) = run_suites(["precision"], seed=seed)
        assert report.ok
        assert len(drawn) == 30
        for ctx, a in drawn + [(drawn[0][0], LambdaMatrix.diagonal(27, 1))]:
            assert ord_eps(ctx, 2, a.det) != INFINITE

    def test_failed_transform_postcondition_is_a_basis_failure(self, monkeypatch):
        # good_basis_transform checks that F_n B is special; when that
        # check fails, the draw counts as a failure instead of crashing.
        # A column reading that finds no vanishing column fails every draw
        # whose det F_3 B has a Phi_m factor, m <= 3: 4 of the 6, all but
        # the 2 generic ones.  The first to fail is minus_rank1, at level 1
        monkeypatch.setattr(special_matrices, "_vanishing_columns", lambda ctx, m, a: iter((False, False)))
        checks = {c.name: c for c in suite_parity(seed=0, scale=0.2).checks}
        basis = checks["good-basis-special"]
        assert not basis.ok
        assert (basis.details["failures"], basis.details["count"]) == (4, 6)
        example = checks["first-failure"].details
        assert example["kind"] == "minus_rank1"
        assert example["error"] == "internal: F_1 B is not special"
