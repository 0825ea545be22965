"""A verify that can fail: each row edits one line of the library and names
the checks of ``verify --suite all`` that must then fail.

Each edit is written as a wrapper of one library function.  It is patched
into the defining module and into every module of the package that binds
the name with ``from ... import``, so the run sees the edited source line
everywhere, as a real edit would.  Patching only the binding ``verify``
reads would test something else: with ``verify.delta_e`` alone patched,
``telescoping`` fails because ``sha_growth`` still reads the unedited
``delta_e``, which hides that the check cannot see the edit itself.
"""

import dataclasses
import importlib
import pkgutil

import pytest

import iwarank
from iwarank import cli, growth_model, kobayashi_rank, lambda_ring, special_matrices, zp_modules
from iwarank.verify import run_suites

MODULES = [iwarank] + [importlib.import_module(f"iwarank.{m.name}") for m in pkgutil.iter_modules(iwarank.__path__)]


def mutate(monkeypatch, func, make):
    """Replace func with make(func) at every binding of it in the package."""
    mutant = make(func)
    for module in MODULES:
        for name, value in list(vars(module).items()):
            if value is func:
                monkeypatch.setattr(module, name, mutant)


def failed_checks() -> set[str]:
    """The checks of verify --suite all --seed 3 --scale 0.3 that fail, as
    'suite:check'."""
    reports = run_suites("all", seed=3, scale=0.3)
    return {f"{r.suite}:{c.name}" for r in reports for c in r.checks if not c.ok}


def lower_rank_plus_one(brute):
    """lower_rank (and so nabla) one more at every step."""

    def mutant(*args, **kwargs):
        result, ords = brute(*args, **kwargs)
        return dataclasses.replace(result, lower_rank=result.lower_rank + 1, nabla=result.nabla + 1), ords

    return mutant


def unchecked_reading(_):
    """The precision ladder returns its reading at N without checking the
    count of finite divisors against the exact rank."""

    def mutant(ctx, span, rank, level=None):
        read = span if callable(span) else lambda e: span
        return zp_modules.finite_valuations(read(ctx.precision), ctx.p, ctx.precision)

    return mutant


SIGNED_DEGREES = {"degrees:signed-degrees-p3", "degrees:signed-degrees-p5", "degrees:signed-degrees-p7"}
SIGNED_CLOSED_FORM = {"parity:signed-closed-form", "parity:first-failure"}

MUTATIONS = [
    pytest.param(
        growth_model.s_sequence, lambda f: lambda p, n: f(p, n) + (n == 2),
        SIGNED_DEGREES | {"growth:frozen-deltas"}, id="s_sequence+1-at-n2",
    ),
    pytest.param(
        kobayashi_rank._brute_nabla, lower_rank_plus_one,
        {f"thm-app:special-p3-n{n}" for n in (1, 2, 3)} | {f"thm-app:special-p5-n{n}" for n in (1, 2)}
        | {f"lemma-3.3:cyclic-ord-n{n}" for n in (1, 2, 3)} | {"lemma-3.3:torsion-stabilized"}
        | {"additivity:direct-sums", "additivity:constant-finite-zero"} | SIGNED_CLOSED_FORM,
        id="lower_rank+1",
    ),
    pytest.param(
        lambda_ring.signed_degree, lambda f: lambda p, n, sign: f(p, n, sign) + (n == 3),
        {"degrees:signed-degrees-p7"} | SIGNED_CLOSED_FORM, id="signed_degree+1-at-n3",
    ),
    pytest.param(
        special_matrices.rod_check, lambda f: lambda ctx, b, n, test_level: True,
        {"rod:not-coprime-n1", "rod:not-coprime-n2"}, id="rod_check-always-true",
    ),
    pytest.param(
        zp_modules.certified_valuations, unchecked_reading,
        {"precision:low-precision-raises"}, id="certified_valuations-unchecked",
    ),
    pytest.param(
        lambda_ring.euler_phi_pk, lambda f: lambda p, m: f(p, m) + (m == 7),
        SIGNED_DEGREES, id="euler_phi_pk+1-at-m7",
    ),
    pytest.param(
        special_matrices._kernel_killer, lambda f: lambda ctx, cd, m: None,
        {"parity:good-basis-special", "parity:first-failure"}, id="kernel_killer-none",
    ),
]

# ROADMAP item 11: no verify check ties the growth formula to computed
# towers, so these edits pass verify today; when that check lands these
# rows pass and strict turns them into failures until the marker goes
GROWTH_GAP = pytest.mark.xfail(strict=True, reason="verify does not check the growth formula (ROADMAP item 11)")

GAPS = [
    pytest.param(
        growth_model.nabla_x_formula, lambda f: lambda inv, n: f(inv, n) + inv.signed(n)[1],
        id="nabla_x_formula-phi+1-times-mu", marks=GROWTH_GAP,
    ),
    pytest.param(
        growth_model.delta_e, lambda f: lambda inv, n: f(inv, n) + 2 * inv.r_inf,
        id="delta_e-plus-r_inf", marks=GROWTH_GAP,
    ),
]


def test_unmutated_library_fails_no_check():
    assert failed_checks() == set()


@pytest.mark.parametrize("func,make,checks", MUTATIONS)
def test_mutation_fails_its_checks(monkeypatch, func, make, checks):
    mutate(monkeypatch, func, make)
    assert checks <= failed_checks()


@pytest.mark.parametrize("func,make", GAPS)
def test_gap_mutation_fails_verify(monkeypatch, func, make):
    mutate(monkeypatch, func, make)
    assert failed_checks()


def test_parity_reference_fault_ends_verify(monkeypatch, capsys):
    # col_plus vanishes at eps_0, so no Coleman draw reaches its wanted rank
    # profile: the bounded draw raises where an unbounded one never returned
    mutate(monkeypatch, special_matrices.parity_reference, lambda f: lambda cd, m: cd.col_plus if m == 0 else f(cd, m))
    assert cli.main(["verify", "--seed", "3", "--scale", "0.3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: PostconditionFailed: internal: no generic Coleman pair accepted in 1000 draws")
