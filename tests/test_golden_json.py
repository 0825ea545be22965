"""Golden JSON: the serialized form of every result type and the stdout
of one fixed call of every CLI subcommand, pinned byte for byte."""

import contextlib
import hashlib
import io
import json
import types

import pytest

import iwarank
from iwarank import cli
from iwarank.cli import parse_matrix_arg
from iwarank.growth_model import GrowthRow, InvariantSet, sha_growth
from iwarank.kobayashi_rank import NablaResult
from iwarank.lambda_ring import (
    LambdaElement,
    LambdaMatrix,
    PrimeContext,
    iwasawa_invariants,
    omega_tower,
)
from iwarank.special_matrices import ColemanData, SpecialLevel, factor_bd, is_special
from iwarank.verify import CheckOutcome, SuiteReport

CTX = PrimeContext(3)
INV5 = InvariantSet(p=5, lambda_plus=1, lambda_minus=2, mu_plus=0, mu_minus=1, r_inf=1)

RECORDS = {
    "OmegaTower": lambda: omega_tower(CTX, 1),
    "NablaResult": lambda: NablaResult(n=2, ker_length=6, coker_length=0, lower_rank=1, nabla=7),
    "SpecialLevel": lambda: SpecialLevel(m=1, i_m=0, det_divisible=False, ok=True),
    "SpecialReport": lambda: is_special(CTX, parse_matrix_arg("[[X, 1], [X, X+1]]"), 1),
    "BDFactorization": lambda: factor_bd(CTX, parse_matrix_arg("[[X^2+3X+3, X], [0, X]]"), 2),
    "ColemanData": lambda: ColemanData(
        parse_matrix_arg("diag(X, 3X)"), parse_matrix_arg("[[1, X], [3, 1]]")
    ),
    "InvariantSet": lambda: INV5,
    "GrowthRow": lambda: GrowthRow(n=2, parity="even", s_prev=5, delta_e=9, e_n=9),
    "GrowthTable": lambda: sha_growth(INV5, range(2, 4), (1, 0)),
    "CheckOutcome": lambda: CheckOutcome(
        "telescoping", False, {"count": 2, "failures": 1, "example": {"n": 3}}
    ),
    "SuiteReport": lambda: SuiteReport(
        "growth", 3,
        [CheckOutcome("frozen-deltas", True, {"deltas": [0, 6]}), CheckOutcome("telescoping", False)],
    ),
    "IwasawaInvariants": lambda: iwasawa_invariants(CTX, LambdaElement((27, 0, 9))),
}

RECORD_JSON = {
    'OmegaTower': "{\"n\": 1, \"omega_minus\": {\"coeffs\": [\"0\", \"3\", \"3\", \"1\"]}, \"omega_n\": {\"coeffs\": [\"0\", \"3\", \"3\", \"1\"]}, \"omega_plus\": {\"coeffs\": [\"0\", \"1\"]}, \"omega_tilde_minus\": {\"coeffs\": [\"3\", \"3\", \"1\"]}, \"omega_tilde_plus\": {\"coeffs\": [\"1\"]}}",
    'NablaResult': "{\"agrees\": null, \"closed_form\": null, \"coker_length\": 0, \"ker_length\": 6, \"lower_rank\": 1, \"n\": 2, \"nabla\": 7}",
    'SpecialLevel': "{\"det_divisible\": false, \"i_m\": 0, \"m\": 1, \"ok\": true}",
    'SpecialReport': "{\"n\": 1, \"per_level\": [{\"det_divisible\": true, \"i_m\": 1, \"m\": 0, \"ok\": true}, {\"det_divisible\": false, \"i_m\": 0, \"m\": 1, \"ok\": true}], \"verdict\": true}",
    'BDFactorization': "{\"b\": [[{\"coeffs\": [\"1\"]}, {\"coeffs\": [\"1\"]}], [{\"coeffs\": []}, {\"coeffs\": [\"1\"]}]], \"d\": [[{\"coeffs\": [\"3\", \"3\", \"1\"]}, {\"coeffs\": []}], [{\"coeffs\": []}, {\"coeffs\": [\"0\", \"1\"]}]]}",
    'ColemanData': "{\"col_minus\": [[{\"coeffs\": [\"1\"]}, {\"coeffs\": [\"0\", \"1\"]}], [{\"coeffs\": [\"3\"]}, {\"coeffs\": [\"1\"]}]], \"col_plus\": [[{\"coeffs\": [\"0\", \"1\"]}, {\"coeffs\": []}], [{\"coeffs\": []}, {\"coeffs\": [\"0\", \"3\"]}]]}",
    'InvariantSet': "{\"lambda_minus\": 2, \"lambda_plus\": 1, \"mu_minus\": 1, \"mu_plus\": 0, \"p\": 5, \"r_inf\": 1}",
    'GrowthRow': "{\"delta_e\": 9, \"e_n\": 9, \"n\": 2, \"parity\": \"even\", \"s_prev\": 5}",
    'GrowthTable': "{\"base_level\": 1, \"base_value\": 0, \"invariants\": {\"lambda_minus\": 2, \"lambda_plus\": 1, \"mu_minus\": 1, \"mu_plus\": 0, \"p\": 5, \"r_inf\": 1}, \"rows\": [{\"delta_e\": 10, \"e_n\": 10, \"n\": 2, \"parity\": \"even\", \"s_prev\": 5}, {\"delta_e\": 141, \"e_n\": 151, \"n\": 3, \"parity\": \"odd\", \"s_prev\": 20}]}",
    'CheckOutcome': "{\"details\": {\"count\": 2, \"example\": {\"n\": 3}, \"failures\": 1}, \"name\": \"telescoping\", \"ok\": false}",
    'SuiteReport': "{\"checks\": [{\"details\": {\"deltas\": [0, 6]}, \"name\": \"frozen-deltas\", \"ok\": true}, {\"details\": {}, \"name\": \"telescoping\", \"ok\": false}], \"ok\": false, \"seed\": 3, \"suite\": \"growth\"}",
    'IwasawaInvariants': "{\"lambda\": 2, \"mu\": 2}",
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_json(name):
    assert json.dumps(RECORDS[name]().to_json_dict(), sort_keys=True) == RECORD_JSON[name]


# the envelope's context holds the values of the -p, --precision and
# --margin flags its command takes: all three (the six commands the
# benchmark passes --precision and --margin to), -p and --precision (the
# nabla towers, which read N), or -p alone
ENV = '{"command":"%s","context":{"margin":8,"p":%d,"precision":40},"result":%s}\n'
ENV_N = '{"command":"%s","context":{"p":%d,"precision":40},"result":%s}\n'
ENV_P = '{"command":"%s","context":{"p":%d},"result":%s}\n'

CLI_GOLDEN = [
    (["phi", "-p", "3", "-m", "1"],
     ENV % ("phi", 3, '{"m":1,"phi":{"coeffs":["3","3","1"]}}')),
    (["omega", "-p", "3", "-n", "1"],
     ENV % ("omega", 3, '{"n":1,"omega_minus":{"coeffs":["0","3","3","1"]},"omega_n":{"coeffs":["0","3","3","1"]},'
                        '"omega_plus":{"coeffs":["0","1"]},"omega_tilde_minus":{"coeffs":["3","3","1"]},'
                        '"omega_tilde_plus":{"coeffs":["1"]}}')),
    (["invariants", "-p", "3", "--poly", "9X^2+27"],
     ENV_P % ("invariants", 3, '{"lambda":2,"mu":2}')),
    (["ord-eps", "-p", "5", "-m", "1", "--poly", "X^4+5"],
     ENV % ("ord-eps", 5, '{"m":1,"ord":5}')),
    (["nabla-cyclic", "-p", "3", "-n", "2", "--poly", "9X+3"],
     ENV_N % ("nabla-cyclic", 3, '{"agrees":true,"closed_form":6,"coker_length":0,"ker_length":6,"lower_rank":0,"n":2,"nabla":6}')),
    (["nabla-torsion", "-p", "3", "-n", "2", "--matrix", "diag(3, X+3)"],
     ENV_N % ("nabla-torsion", 3, '{"agrees":true,"closed_form":7,"coker_length":0,"ker_length":7,"lower_rank":0,"n":2,"nabla":7}')),
    (["nabla-matrix", "-p", "3", "-n", "1", "--matrix", "diag(X,X)"],
     ENV_N % ("nabla-matrix", 3, '{"agrees":true,"closed_form":2,"coker_length":0,"ker_length":0,"lower_rank":2,"n":1,"nabla":2}')),
    (["nabla-coleman", "-p", "3", "-n", "2", "--col-plus", "diag(X,X)", "--col-minus", "[[1,X],[3,1]]"],
     ENV_N % ("nabla-coleman", 3, '{"agrees":true,"closed_form":6,"coker_length":0,"ker_length":6,"lower_rank":0,"n":2,"nabla":6}')),
    (["special-check", "-p", "3", "-n", "1", "--matrix", "[[X, 1], [X, X+1]]"],
     ENV % ("special-check", 3, '{"n":1,"per_level":[{"det_divisible":true,"i_m":1,"m":0,"ok":true},'
                                '{"det_divisible":false,"i_m":0,"m":1,"ok":true}],"verdict":true}')),
    (["factor-bd", "-p", "3", "-n", "2", "--matrix", "[[X^2+3X+3, 1], [0, 1]]"],
     ENV % ("factor-bd", 3, '{"b":[[{"coeffs":["1"]},{"coeffs":["1"]}],[{"coeffs":[]},{"coeffs":["1"]}]],'
                            '"d":[[{"coeffs":["3","3","1"]},{"coeffs":[]}],[{"coeffs":[]},{"coeffs":["1"]}]]}')),
    (["assemble-fn", "-p", "3", "-n", "1", "--col-plus", "diag(X,X)", "--col-minus", "[[1,1],[0,1]]"],
     ENV_P % ("assemble-fn", 3, '{"fn":[[{"coeffs":["1","3","3","1"]},{"coeffs":["1"]}],'
                              '[{"coeffs":[]},{"coeffs":["1","3","3","1"]}]],"n":1}')),
    (["specialize", "-p", "3", "--n-max", "2", "--col-plus", "diag(X,X)", "--col-minus", "diag(1, X^2+3X+3)"],
     ENV_P % ("specialize", 3, '{"b":[[{"coeffs":["3","3","1"]},{"coeffs":["0","-3","-1"]}],'
                             '[{"coeffs":["0","-3","-1"]},{"coeffs":["3","3","1"]}]],'
                             '"det_ords":{"0":2,"1":4,"2":8},"special":{"1":true,"2":true}}')),
    (["rod-check", "-p", "3", "-n", "1", "--test-level", "2", "--matrix", "diag(1+X, 1)"],
     ENV_P % ("rod-check", 3, '{"n":1,"ok":true,"test_level":2}')),
    (["growth", "-p", "3", "--lambda-minus", "1", "--mu-plus", "1", "--base-n", "0", "--base-e", "2", "--n-to", "3"],
     ENV % ("growth", 3, '{"base_level":0,"base_value":2,"invariants":{"lambda_minus":1,"lambda_plus":0,'
                         '"mu_minus":0,"mu_plus":1,"p":3,"r_inf":0},"rows":['
                         '{"delta_e":1,"e_n":3,"n":1,"parity":"odd","s_prev":0},'
                         '{"delta_e":12,"e_n":15,"n":2,"parity":"even","s_prev":3},'
                         '{"delta_e":13,"e_n":28,"n":3,"parity":"odd","s_prev":6}]}')),
    (["growth", "-p", "5", "--r-inf", "1", "--base-n", "1", "--base-e", "0", "--n-to", "3", "--format", "csv"],
     "n,parity,s_prev,delta_e,e_n\n2,even,5,9,9\n3,odd,20,39,48\n"),
    (["nabla-x", "-p", "3", "-n", "3", "--lambda-minus", "2", "--mu-minus", "1"],
     ENV_P % ("nabla-x", 3, '{"n":3,"nabla_x":32}')),
]


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize(
    "argv,expected", CLI_GOLDEN, ids=[argv[0] for argv, _ in CLI_GOLDEN]
)
def test_cli_stdout(argv, expected):
    assert _stdout(argv) == (0, expected)


# a closed form that disagrees exits 1 and still prints its envelope
CLI_GOLDEN_DISAGREE = [
    (["nabla-torsion", "-p", "3", "-n", "1", "--matrix", "diag(X^2+3,1)"],
     ENV_N % ("nabla-torsion", 3, '{"agrees":false,"closed_form":2,"coker_length":0,"ker_length":3,"lower_rank":0,"n":1,"nabla":3}')),
]


@pytest.mark.parametrize(
    "argv,expected", CLI_GOLDEN_DISAGREE, ids=[argv[0] for argv, _ in CLI_GOLDEN_DISAGREE]
)
def test_cli_stdout_disagreement(argv, expected):
    assert _stdout(argv) == (1, expected)


def test_verify_report_digest():
    code, out = _stdout(["verify", "--suite", "all", "--scale", "0.2"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e6d673de9b43451c86aba5bf5f685beb3dcfcb7e6170fc016b66f4d143bfb53c"
    )


class TestValueTypes:
    """The matrix and Coleman-pair types are immutable values."""

    def test_equal_matrices_hash_equal(self):
        a = parse_matrix_arg("[[X, 1], [3, X+1]]")
        b = LambdaMatrix(((LambdaElement((0, 1)), 1), (3, LambdaElement((1, 1)))))
        before = hash(a)
        assert a.det == b.det  # caches det on both
        assert a == b and hash(a) == hash(b) == before

    def test_equal_coleman_pairs_hash_equal(self):
        def pair():
            return ColemanData(parse_matrix_arg("diag(X, X)"), parse_matrix_arg("[[1, X], [3, 1]]"))

        assert pair() == pair() and hash(pair()) == hash(pair())
        assert pair() != ColemanData(parse_matrix_arg("diag(X, X)"), LambdaMatrix.identity())

    @pytest.mark.parametrize(
        "obj,attr",
        [
            (LambdaMatrix.identity(), "rows"),
            (ColemanData(LambdaMatrix.diagonal(LambdaElement((0, 1)), LambdaElement((0, 1))),
                         LambdaMatrix.identity()), "col_plus"),
        ],
        ids=["LambdaMatrix", "ColemanData"],
    )
    def test_assignment_raises(self, obj, attr):
        with pytest.raises(AttributeError):
            setattr(obj, attr, LambdaMatrix.identity())

    def test_matrix_shape_checked(self):
        with pytest.raises(ValueError):
            LambdaMatrix(((1, 2, 3), (4, 5, 6)))


# The public names of the package (its submodules aside), sorted: adding or
# removing one is a deliberate change to the library API, logged in CHANGES.md.
PUBLIC_NAMES = (
    "BDFactorization", "CheckOutcome", "ColemanData", "CyclicTower",
    "DegenerateColeman", "GrowthRow", "GrowthTable", "INFINITE", "InvalidContext",
    "InvariantSet", "IwarankError", "IwasawaInvariants", "LambdaElement", "LambdaMatrix",
    "MatrixTower", "NablaResult", "NotCoprime", "NotSpecial", "NotTorsion", "ONE", "OmegaTower",
    "PhiDivides", "PostconditionFailed", "PrecisionUnstable", "PrimeContext", "SUITE_NAMES",
    "SingularMatrix", "SpanPresentation", "SpecialLevel", "SpecialReport", "SuiteReport",
    "TorsionTower", "X", "ZERO", "ZeroElement", "additivity_check", "assemble_fn",
    "cyclotomic_phi", "degree_identities", "delta_e", "direct_sum", "euler_phi_pk", "factor_bd",
    "good_basis_transform", "is_special", "iwasawa_invariants", "lambda_column_span",
    "matrices_proportional_at_eps", "nabla_coleman_tower", "nabla_cyclic",
    "nabla_matrix_tower", "nabla_torsion_tower", "nabla_x_formula", "omega_poly",
    "omega_tower", "ord_eps", "parity_congruence_check", "parity_reference", "rod_check",
    "run_suites", "s_sequence", "sha_growth", "signed_degree",
)


def test_public_names():
    names = [n for n in dir(iwarank) if not n.startswith("_") and not isinstance(getattr(iwarank, n), types.ModuleType)]
    assert sorted(names) == list(PUBLIC_NAMES)
