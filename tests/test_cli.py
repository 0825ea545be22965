"""Front-end behavior: flags, payload grammar, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import iwarank.growth_model
from iwarank import cli, special_matrices
from iwarank.lambda_ring import PrimeContext, cyclotomic_phi, omega_poly
from iwarank.special_matrices import assemble_fn

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestEnvelope:
    def test_omega_payload(self, capsys):
        doc = run_json(capsys, "omega", "-p", "3", "-n", "2")
        assert doc["command"] == "omega"
        assert doc["context"] == {"margin": 8, "p": 3, "precision": 40}
        result = doc["result"]
        assert set(result) == {
            "n", "omega_n", "omega_plus", "omega_minus",
            "omega_tilde_plus", "omega_tilde_minus",
        }
        assert result["omega_tilde_minus"]["coeffs"] == ["3", "3", "1"]

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "omega", "-p", "3", "-n", "2")
        _, out2, _ = run(capsys, "omega", "-p", "3", "-n", "2")
        assert out1 == out2

    def test_seed_recorded(self, capsys):
        # the seed is verify's alone, and its report records it per suite
        doc = run_json(capsys, "verify", "--suite", "growth", "--seed", "7")
        assert set(doc) == {"command", "context", "result"}
        assert doc["context"] == {"precision": 40}
        assert [r["seed"] for r in doc["result"]["reports"]] == [7]

    @pytest.mark.parametrize("argv,prog", [
        (["phi", "-p", "3", "-m", "1", "--seed", "5"], "phi"),
        (["nabla-x", "-n", "1", "--lambda-minus", "1", "--r-inf", "7"], "nabla-x"),
        (["verify", "--suite", "degrees", "-p", "5"], "verify"),
        (["specialize", "--col-plus", "diag(X,X)", "--col-minus", "diag(1,X^2+3X+3)", "--n-max", "2",
          "--precision", "40"], "specialize"),
        (["nabla-x", "-n", "1", "--lambda-minus", "1", "--precision", "40"], "nabla-x"),
        (["nabla-matrix", "--matrix", "diag(X,X)", "-n", "1", "--margin", "8"], "nabla-matrix"),
        (["verify", "--suite", "degrees", "--margin", "8"], "verify"),
    ], ids=["phi-seed", "nabla-x-r-inf", "verify-p", "specialize-precision", "nabla-x-precision",
            "nabla-matrix-margin", "verify-margin"])
    def test_flag_that_feeds_nothing_is_refused(self, capsys, argv, prog):
        # reported with the usage of the command, not of the root parser
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: iwarank {prog} [-h]")
        assert err.endswith(f"\niwarank {prog}: error: unrecognized arguments: {' '.join(argv[-2:])}\n")

    def test_precision_feeds_nabla(self, capsys):
        # at N = 8 the divisor 3^8 of diag(6561, 1) cannot be certified
        argv = ["nabla-matrix", "--matrix", "diag(6561, 1)", "-n", "1"]
        assert run_json(capsys, *argv)["result"]["nabla"] == 16
        code, out, err = run(capsys, *argv, "--precision", "8")
        assert (code, out) == (2, "")
        assert err.startswith("error: PrecisionUnstable: ")

    # the six commands the benchmark passes --precision and --margin to
    @pytest.mark.parametrize("argv", [
        ["phi", "-m", "1"],
        ["omega", "-n", "1"],
        ["ord-eps", "-m", "1", "--poly", "X+3"],
        ["special-check", "-n", "1", "--matrix", "diag(X,X)"],
        ["factor-bd", "-n", "1", "--matrix", "diag(X,X)"],
        ["growth", "--base-n", "0", "--base-e", "0", "--n-to", "1"],
    ], ids=lambda argv: argv[0])
    def test_benchmark_commands_keep_their_context(self, capsys, argv):
        doc = run_json(capsys, *argv, "--precision", "40", "--margin", "8")
        assert doc["context"] == {"margin": 8, "p": 3, "precision": 40}

    def test_growth_reads_r_inf(self, capsys):
        def deltas(r_inf):
            doc = run_json(capsys, "growth", "-p", "3", "--lambda-minus", "1", "--mu-plus", "1",
                           "--r-inf", r_inf, "--base-n", "0", "--base-e", "9", "--n-to", "4")
            return [row["delta_e"] for row in doc["result"]["rows"]]

        assert [d - 2 for d in deltas("0")] == deltas("2")


class TestFrozenCommands:
    def test_nabla_matrix_example(self, capsys):
        doc = run_json(
            capsys, "nabla-matrix", "-p", "3", "-n", "1", "--matrix", "diag(X,X)"
        )
        r = doc["result"]
        assert (r["nabla"], r["closed_form"], r["agrees"]) == (2, 2, True)

    def test_phi_rejects_composite_p(self, capsys):
        code, _, err = run(capsys, "phi", "-p", "4", "-m", "1")
        assert code == 2
        assert "odd prime" in err

    def test_huge_prime_answers_promptly(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, "phi", "-p", "1000000000000000003", "-m", "1")
        assert time.perf_counter() - start < 5
        assert code == 2 and err.startswith("error:")

    def test_prime_past_primality_cap_is_exit2(self, capsys):
        code, _, err = run(capsys, "phi", "-p", "3317044064679887385961981", "-m", "1")
        assert code == 2 and err.startswith("error:")

    def test_ord_eps(self, capsys):
        doc = run_json(capsys, "ord-eps", "-p", "3", "-m", "1", "--poly", "3")
        assert doc["result"]["ord"] == 2

    def test_ord_eps_infinite(self, capsys):
        doc = run_json(capsys, "ord-eps", "-p", "3", "-m", "1", "--poly", "X^2+3X+3")
        assert doc["result"]["ord"] == "inf"

    def test_invariants(self, capsys):
        doc = run_json(capsys, "invariants", "-p", "3", "--poly", "9X^2 + 27")
        assert doc["result"] == {"mu": 2, "lambda": 2}

    def test_growth_csv_is_raw(self, capsys):
        code, out, _ = run(
            capsys, "growth", "-p", "3", "--base-n", "0", "--base-e", "0",
            "--n-to", "4", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,parity,s_prev,delta_e,e_n"
        assert [int(line.split(",")[3]) for line in lines[1:]] == [0, 6, 12, 42]

    def test_rod_check(self, capsys):
        doc = run_json(
            capsys, "rod-check", "-p", "3", "-n", "1", "--test-level", "2",
            "--matrix", "diag(1+X, 1)",
        )
        assert doc["result"]["ok"] is True


class TestPayloadGrammar:
    @pytest.mark.parametrize(
        "text,coeffs",
        [
            ("X^2 + 3X + 3", (3, 3, 1)),
            ("(1+X)**3 - 1", (0, 3, 3, 1)),
            ("2", (2,)),
            ("-X", (0, -1)),
            ("3(1+X)", (3, 3)),
            ("2X(X+1) - X**2", (0, 2, 1)),
        ],
    )
    def test_polynomial_forms(self, text, coeffs):
        assert cli.parse_poly_arg(text).coeffs == coeffs

    def test_grammar_reaches_commands(self, capsys):
        doc = run_json(capsys, "invariants", "-p", "3", "--poly", "3(1+X)")
        assert doc["result"] == {"mu": 1, "lambda": 0}

    def test_bracket_matrix(self, capsys):
        doc = run_json(
            capsys, "special-check", "-p", "3", "-n", "0",
            "--matrix", "[[X, 1], [1, X]]",
        )
        assert doc["result"]["verdict"] is True

    def test_json_poly_accepted(self, capsys):
        doc = run_json(
            capsys, "ord-eps", "-p", "3", "-m", "1", "--poly", '{"coeffs": ["3"]}'
        )
        assert doc["result"]["ord"] == 2

    def test_file_payload(self, capsys, tmp_path):
        path = tmp_path / "poly.txt"
        path.write_text("X^2+3X+3")
        doc = run_json(capsys, "invariants", "-p", "3", "--poly", f"@{path}")
        assert doc["result"] == {"mu": 0, "lambda": 2}

    def test_file_payload_nesting_bounded(self, capsys, tmp_path):
        # the bound applies to what the file holds, not to "@path"
        path = tmp_path / "deep.txt"
        depth = cli.MAX_NESTING + 1
        path.write_text("(" * depth + "X" + ")" * depth)
        assert run(capsys, "invariants", "--poly", f"@{path}") == (2, "", "error: input nested too deeply\n")

    def test_missing_file_is_exit2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "invariants", "-p", "3", "--poly", f"@{tmp_path}/absent.txt"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("ord-eps", "-m", "1", "--poly"),
            ("special-check", "-n", "1", "--matrix"),
            ("specialize", "--n-max", "1", "--col-minus", "diag(1,X)", "--col-plus"),
        ],
        ids=["poly", "matrix", "col-plus"],
    )
    def test_non_utf8_file_is_exit2(self, capsys, tmp_path, argv):
        path = tmp_path / "payload.bin"
        path.write_bytes(bytes(range(128, 256)))
        code, _, err = run(capsys, *argv, f"@{path}")
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("bad", ['{"foo": 1}', '{"coeffs": ["x"]}', '{"coeffs": [1e400]}'])
    def test_malformed_json_poly_is_exit2(self, capsys, bad):
        code, _, err = run(capsys, "invariants", "-p", "3", "--poly", bad)
        assert code == 2
        assert err.startswith("error:")

    def test_overflowing_json_matrix_is_exit2(self, capsys):
        code, _, err = run(
            capsys, "special-check", "-p", "3", "-n", "0", "--matrix",
            '[[{"coeffs": [1e400]}, 1], [1, 1]]',
        )
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["ord-eps", "-m", "1", "--poly", '{"coeffs": [2.5, 1]}'],
            ["ord-eps", "-m", "1", "--poly", '{"coeffs": [true, 1]}'],
            ["special-check", "-n", "0", "--matrix",
             '[[{"coeffs":[1.9]},{"coeffs":[0]}],[{"coeffs":[0]},{"coeffs":[1]}]]'],
            ["ord-eps", "-m", "0", "--poly", '{"coeffs": "30"}'],
        ],
        ids=["float", "bool", "float-in-matrix", "string"],
    )
    def test_non_integer_json_coefficient_is_exit2(self, capsys, argv):
        # refused, not truncated to 2 + X, 1 + X or diag(1, 1), nor read
        # digit by digit as 3 + 0 X
        code, out, err = run(capsys, argv[0], "-p", "3", *argv[1:])
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "bad",
        ["X^99999999", "99^9999999", "X^200000*X^200000", "(1+X)^2000", "9" * 5000, "X^" + "9" * 5000,
         "(1+X)" * 2000, "X^10000*X^10001"],
        ids=["degree", "coefficient-bits", "product-of-powers", "dense-power", "long-literal", "long-exponent",
             "dense-product", "product-past-cap"],
    )
    def test_unbounded_power_is_exit2(self, capsys, bad):
        # refused from the size estimate, before the power or product past
        # the cap is computed (a chain computes its products up to that one)
        code, _, err = run(capsys, "ord-eps", "-p", "3", "-m", "1", "--poly", bad)
        assert code == 2
        assert err.startswith("error:")

    def test_result_past_digit_limit_is_exit2(self, capsys):
        # 99^2200 has 4391 digits: within the ^ bound, but too long for str()
        code, out, err = run(
            capsys, "assemble-fn", "-p", "3", "-n", "1",
            "--col-plus", "diag(99^2200, 1)", "--col-minus", "diag(1,1)",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_bounded_power_accepted(self, capsys):
        doc = run_json(capsys, "ord-eps", "-p", "3", "-m", "1", "--poly", "(1+X)^243-1")
        assert doc["result"]["ord"] == "inf"

    @pytest.mark.parametrize("bad", ["X +", "diag(X", "[[X]]", "X & Y", "Y", "X^-1"])
    def test_malformed_payloads(self, capsys, bad):
        code, _, err = run(capsys, "invariants", "-p", "3", "--poly", bad)
        if code == 0:  # matrices are not polynomials; all must fail
            pytest.fail(f"accepted {bad!r}")
        assert code == 2
        assert err

    # payloads nested `depth` brackets deep, each kind on the command that reads it
    NESTED = {
        "parentheses": lambda depth: ["ord-eps", "-m", "1", "--poly=" + "(" * depth + "X" + ")" * depth],
        "unary-minus": lambda depth: ["ord-eps", "-m", "1", "--poly=" + "-(" * depth + "X" + ")" * depth],
        "matrix-brackets": lambda depth: ["special-check", "-n", "1",
                                          "--matrix=diag(" + "(" * (depth - 1) + "X" + ")" * (depth - 1) + ",X)"],
        "json-arrays": lambda depth: ["ord-eps", "-m", "1",
                                      '--poly={"coeffs":' + "[" * (depth - 1) + '"1"' + "]" * (depth - 1) + "}"],
        # a "]" inside a JSON string closes nothing
        "json-string-brackets": lambda depth: ["ord-eps", "-m", "1",
                                               '--poly={"coeffs":' + '["]",' * (depth - 1) + '"1"' + "]" * (depth - 1) + "}"],
        "matrix-json-strings": lambda depth: ["special-check", "-n", "1",
                                              "--matrix=" + '["]",' * depth + '"1"' + "]" * depth],
    }

    @pytest.mark.parametrize("kind", NESTED)
    def test_deep_nesting_is_exit2(self, capsys, kind):
        # refused before any parser runs, whatever the interpreter's recursion limit
        for depth in (cli.MAX_NESTING + 1, 3000, 20000):
            code, out, err = run(capsys, *self.NESTED[kind](depth))
            assert (code, out, err) == (2, "", "error: input nested too deeply\n")

    @pytest.mark.parametrize("kind", NESTED)
    def test_nesting_at_the_bound_is_parsed(self, capsys, kind):
        code, out, err = run(capsys, *self.NESTED[kind](cli.MAX_NESTING))
        if "json" in kind:  # parsed, and refused as no polynomial or matrix
            assert (code, out) == (2, "") and err.startswith("error: cannot parse")
        else:
            assert (code, err) == (0, "")

    def test_sign_runs_parse(self, capsys):
        # a run of signs is a loop, not a nesting: any length parses
        assert cli.parse_poly_arg("-" * 2000 + "X") == cli.X
        assert cli.parse_poly_arg("-" * 2001 + "X") == -cli.X
        assert cli.parse_poly_arg("+-" * 1000 + "-X^2") == -(cli.X ** 2)
        code, out, _ = run(capsys, "ord-eps", "-m", "1", "--poly=" + "-" * 2000 + "X")
        assert code == 0 and json.loads(out)["result"] == {"m": 1, "ord": 1}


# strings of up to 40 characters over the payload grammar's tokens, some
# shaped like a term or a matrix so that not every draw is refused; "^"
# is left out, its size bound has tests of its own
TOKENS = st.lists(st.sampled_from([*"0123456789X+-*()[],{}\":", "diag", "coeffs"]), max_size=40)
TERMS = st.text("0123456789X+-*()", min_size=1, max_size=8)
PAYLOADS = st.one_of(
    TOKENS.map("".join),
    TERMS,
    st.builds("diag({},{})".format, TERMS, TERMS),
    st.builds("[[{},{}],[{},{}]]".format, TERMS, TERMS, TERMS, TERMS),
).map(lambda s: s[:40])


def quiet_main(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


# every subcommand that reads a payload, with the flag the payload goes
# to; the Coleman commands take it on either side of a fixed partner
POLY_COMMANDS = [
    ["invariants", "--poly="],
    ["ord-eps", "-m", "1", "--poly="],
    ["nabla-cyclic", "-n", "1", "--poly="],
]
MATRIX_COMMANDS = [
    [*cmd, "--matrix="]
    for cmd in (
        ["nabla-torsion", "-n", "1"],
        ["nabla-matrix", "-n", "1"],
        ["special-check", "-n", "1"],
        ["factor-bd", "-n", "1"],
        ["rod-check", "-n", "1", "--test-level", "2"],
    )
] + [
    [*cmd, *pair]
    for cmd in (
        ["nabla-coleman", "-n", "1"],
        ["assemble-fn", "-n", "1"],
        ["specialize", "--n-max", "1"],
    )
    for pair in (["--col-minus=diag(1,1)", "--col-plus="], ["--col-plus=diag(X,X)", "--col-minus="])
]


class TestPayloadFuzz:
    """Any payload to any subcommand either answers or is refused as bad
    input: main returns 0 or 2 and raises nothing.  Only nabla-torsion
    may also return 1, as its closed form holds only past stabilization."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(cmd=st.sampled_from(POLY_COMMANDS), s=PAYLOADS)
    @example(cmd=POLY_COMMANDS[1], s="--")  # argparse hands "--poly=--" over as []
    def test_poly_payload(self, cmd, s):
        *head, flag = cmd
        assert quiet_main(*head, flag + s) in (0, 2)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(cmd=st.sampled_from(MATRIX_COMMANDS), s=PAYLOADS)
    @example(cmd=MATRIX_COMMANDS[2], s="--")
    def test_matrix_payload(self, cmd, s):
        *head, flag = cmd
        allowed = (0, 1, 2) if cmd[0] == "nabla-torsion" else (0, 2)
        assert quiet_main(*head, flag + s) in allowed


class TestPrecisionResolution:
    def test_floor_enforced(self, capsys):
        code, _, err = run(capsys, "phi", "-p", "3", "-m", "1", "--precision", "4")
        assert code == 2

    def test_env_override(self, capsys, monkeypatch):
        # IWK_PRECISION overrides nothing: the precision comes from argv alone
        for value in ("12", "lots"):
            monkeypatch.setenv("IWK_PRECISION", value)
            assert run_json(capsys, "phi", "-p", "3", "-m", "1")["context"]["precision"] == 40

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("IWK_PRECISION", "12")
        doc = run_json(capsys, "phi", "-p", "3", "-m", "1", "--precision", "16")
        assert doc["context"]["precision"] == 16


class TestVerifySubcommand:
    def test_clean_suite_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "degrees")
        assert code == 0
        doc = json.loads(out)
        assert all(r["ok"] for r in doc["result"]["reports"])

    def test_every_suite_selectable(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "growth")
        assert code == 0
        assert [r["suite"] for r in json.loads(out)["result"]["reports"]] == ["growth"]

    def test_injected_flip_exits_one(self, capsys, monkeypatch):
        # a single perturbed formula must surface as a failed verification
        true_s = iwarank.growth_model.s_sequence
        monkeypatch.setattr(
            iwarank.growth_model, "s_sequence", lambda p, n: true_s(p, n) + (n == 1)
        )
        code, out, _ = run(capsys, "verify", "--suite", "degrees")
        assert code == 1
        doc = json.loads(out)
        assert any(not r["ok"] for r in doc["result"]["reports"])


# the top level and every command, in the order of the top-level listing
HELP_ARGVS = [
    [], ["phi"], ["omega"], ["invariants"], ["ord-eps"],
    ["nabla-cyclic"], ["nabla-torsion"], ["nabla-matrix"], ["nabla-coleman"],
    ["special-check"], ["factor-bd"], ["assemble-fn"], ["specialize"], ["rod-check"],
    ["growth"], ["nabla-x"], ["verify"],
]


class TestParserSurface:
    def test_help_text_digest(self, monkeypatch):
        # every command name, flag, type, default, choice and help text, as
        # argparse lays them out at 200 columns, where no usage line wraps and
        # CPython 3.10 to 3.13 print the same bytes
        monkeypatch.setenv("COLUMNS", "200")
        texts = []
        for argv in HELP_ARGVS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
                cli.main([*argv, "--help"])
            assert exc.value.code == 0
            texts.append(out.getvalue())
        assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
            "4b2be52a471194375eb614bf8dbe2d08e57adbe1960c099d80b9855f9d52330d"
        )

    def test_flag_attributes_digest(self):
        # what the help text leaves out: each flag's type and default
        def walk(parser, path):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    yield f"{path}: subcommands {action.dest} {action.required}\n"
                    for name, sub in action.choices.items():
                        yield from walk(sub, f"{path} {name}")
                else:
                    kind = getattr(action.type, "__name__", action.type)
                    yield (f"{path}: {action.option_strings} {action.dest} {kind} {action.default!r} "
                           f"{action.required} {action.choices} {action.help}\n")

        rows = "".join(walk(cli.build_parser(), "iwarank"))
        assert hashlib.sha256(rows.encode()).hexdigest() == (
            "1e43d3bb02c454a4a14e021c353602a496a1cc50a2455430fbda635d6df18a24"
        )

    @pytest.mark.parametrize("argv,message", [
        (["nabla", "matrix", "-n", "1", "--matrix", "diag(X,X)"],
         "iwarank: error: argument command: invalid choice: 'nabla'"),
        (["phi", "--prime", "3", "-m", "1"], "iwarank phi: error: unrecognized arguments: --prime 3\n"),
    ], ids=["nabla-group", "prime-long-flag"])
    def test_old_spellings_are_refused(self, capsys, argv, message):
        # one name per command, one spelling per flag: no alias is kept
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and message in err

    def test_parser_built_once(self, capsys):
        cli.build_parser.cache_clear()
        run(capsys, "phi", "-m", "1")
        run(capsys, "omega", "-n", "1")
        assert cli.build_parser.cache_info().misses == 1


class TestExitRule:
    """1 when the result reports agrees false or ok false, else 0."""

    def test_rod_check_false_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "rod_check", lambda *args: False)
        code, out, _ = run(
            capsys, "rod-check", "-n", "1", "--test-level", "2", "--matrix", "diag(1+X, 1)"
        )
        assert code == 1
        assert json.loads(out)["result"]["ok"] is False

    def test_failed_postcondition_exits_one(self, capsys, monkeypatch):
        # good_basis_transform checks its own result; a failure there is
        # not bad input, and prints no traceback.  Phi_1 divides det F_1 B
        # here, so a column reading that finds no vanishing column fails F_1
        monkeypatch.setattr(special_matrices, "_vanishing_columns", lambda ctx, m, a: iter((False, False)))
        code, out, err = run(
            capsys, "specialize", "--n-max", "2",
            "--col-plus", "diag(X,X)", "--col-minus", "diag(1, X^2+3X+3)",
        )
        assert (code, out) == (1, "")
        assert err == "error: PostconditionFailed: internal: F_1 B is not special\n"

    def test_specialize_reads_the_postcondition(self, capsys, monkeypatch):
        # good_basis_transform assembles each F_n, n <= n_max, once and reads
        # every verdict from F_{n_max} B without is_special; specialize
        # reports those verdicts without asking again
        calls = []

        def spy(ctx, cd, n):
            calls.append(n)
            return assemble_fn(ctx, cd, n)

        def forbidden(*args):
            raise AssertionError("specialize must not call is_special")

        for module in (special_matrices, cli):
            monkeypatch.setattr(module, "assemble_fn", spy)
            monkeypatch.setattr(module, "is_special", forbidden)
        for n_max in range(1, 5):
            calls.clear()
            doc = run_json(capsys, "specialize", "--n-max", str(n_max),
                           "--col-plus", "diag(X,X)", "--col-minus", "diag(1, X^2+3X+3)")
            assert calls == list(range(1, n_max + 1))
            assert doc["result"]["special"] == {str(n): True for n in range(1, n_max + 1)}


class TestClosedStdout:
    """A reader that closes stdout early ends the process quietly, with
    the exit status of a process killed by SIGPIPE."""

    @pytest.mark.parametrize("argv", [
        ["phi", "-m", "2"],
        # raw CSV, longer than the stream buffer
        ["growth", "--base-n", "0", "--base-e", "0", "--n-to", "400", "--format", "csv"],
    ], ids=["json", "csv"])
    # buffered, a short output fails only when entrypoint flushes stdout;
    # unbuffered, or past the buffer, the write inside main fails
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_broken_pipe_exits_141(self, argv, unbuffered):
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
                   PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        read, write = os.pipe()
        os.close(read)  # closed before the process starts: every write fails
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "from iwarank.cli import entrypoint; entrypoint()", *argv],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, b"")


def quiet_exit(*argv) -> int:
    try:
        return quiet_main(*argv)
    except SystemExit as exc:  # argparse errors
        return exc.code


LEVELS = st.sampled_from([*range(-2, 4), 12, 10**8, 10**12])
# every subcommand with a numeric level flag; {} marks a drawn level
LEVEL_COMMANDS = [
    "phi -m {}",
    "omega -n {}",
    "ord-eps -m {} --poly X+3",
    "nabla-cyclic -n {} --poly 9X+3",
    "nabla-torsion -n {} --matrix diag(3,X+3)",
    "nabla-matrix -n {} --matrix diag(X,X)",
    "nabla-coleman -n {} --col-plus diag(X,X) --col-minus [[1,X],[3,1]]",
    "special-check -n {} --matrix diag(X,X)",
    "factor-bd -n {} --matrix diag(X,X)",
    "assemble-fn -n {} --col-plus diag(X,X) --col-minus [[1,X],[3,1]]",
    "specialize --n-max {} --col-plus diag(X,X) --col-minus diag(1,X^2+3X+3)",
    "rod-check -n {} --test-level {} --matrix diag(1+X,1)",
    "growth --base-n 0 --base-e 0 --n-to {}",
    "nabla-x -n {} --lambda-minus 1",
]

# each was slow or crashed before its refusal moved ahead of the work
REFUSED_UP_FRONT = [
    "omega -n 100000000",
    "special-check -n 12 --matrix diag(X,X)",
    "specialize --n-max 12 --col-plus diag(X,X) --col-minus diag(1,X^2+3X+3)",
    "growth --base-n 0 --base-e 0 --n-to 100000000",
    "nabla-x -n 60000",
    "verify --suite growth --scale nan",
    "verify --suite growth --scale inf",
]


class TestNumericFlags:
    """Any level on any subcommand answers, disagrees or is refused:
    main returns 0, 1 or 2 and raises nothing."""

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(cmd=st.sampled_from(LEVEL_COMMANDS), levels=st.tuples(LEVELS, LEVELS))
    @example(cmd=LEVEL_COMMANDS[1], levels=(10**8, 0))
    @example(cmd=LEVEL_COMMANDS[7], levels=(12, 0))
    @example(cmd=LEVEL_COMMANDS[10], levels=(12, 0))
    @example(cmd=LEVEL_COMMANDS[12], levels=(10**8, 0))
    @example(cmd=LEVEL_COMMANDS[13], levels=(60000, 0))
    def test_levels(self, cmd, levels):
        assert quiet_exit(*cmd.format(*levels).split(), "-p", "3") in (0, 1, 2)

    @pytest.mark.parametrize("scale", ["nan", "inf", "1e308", "-1", "0", "0.2"])
    def test_verify_scale(self, capsys, scale):
        code, _, err = run(capsys, "verify", "--suite", "growth", "--scale", scale)
        refused = scale in ("nan", "inf", "1e308", "-1", "0")
        assert code == (2 if refused else 0), err
        if refused:
            assert err.startswith("error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("cmd", REFUSED_UP_FRONT)
    def test_refused_before_the_work(self, capsys, cmd):
        start = time.perf_counter()
        code, out, err = run(capsys, *cmd.split())
        assert time.perf_counter() - start < 5
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1


class TestCoefficientDigits:
    """omega_n and Phi_m are refused before they are built when their
    largest coefficient, at least C(N, N // 2) for N = p^n or (p-1) p^(m-1),
    must print past the integer-string digit limit."""

    # each built for one to two and a half minutes, then failed to print
    UNPRINTABLE = [
        ["omega", "-p", "5", "-n", "6"],
        ["omega", "-p", "7", "-n", "5"],
        ["phi", "-p", "7", "-m", "5"],
        ["omega", "-p", "3", "-n", "9"],
    ]

    @pytest.fixture
    def no_build(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("an unprintable level was built")

        monkeypatch.setattr(cli, "omega_tower", forbidden)
        monkeypatch.setattr(cli, "cyclotomic_phi", forbidden)

    @pytest.fixture
    def low_limit(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # the interpreter's least nonzero limit
        yield 640
        sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("argv", UNPRINTABLE, ids=[" ".join(a[::2]) for a in UNPRINTABLE])
    def test_refused_without_building(self, capsys, no_build, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        limit = sys.get_int_max_str_digits()
        assert err == f"error: InvalidContext: level {argv[-1]}: the answer would print over {limit} digits\n"

    @pytest.mark.parametrize("argv", [["omega", "-n", "10"], ["phi", "-m", "10"], ["phi", "-m", "-1"]])
    def test_level_refusals_come_first(self, capsys, argv):
        code, _, err = run(capsys, *argv, "-p", "3")
        assert code == 2 and err.startswith("error: InvalidContext: ")
        assert "print" not in err

    # SHA-256 of the bytes printed before the bound was added, less the
    # envelope's former "seed" key
    PRINTABLE = [
        (["omega", "-p", "5", "-n", "3"], "67a35e089e27a85f97016750cee5ab4ade0a352d0d9e886be0d14cefcfc1568f"),
        (["phi", "-p", "7", "-m", "3"], "838ba9e0ca498ef48bb10ce47806b3b7c35e3b1729bd9d5462adf5415e198c7c"),
        (["omega", "-p", "3", "-n", "6"], "6cf8cf83c7ec74abc7dfa522ea196a8174638dfe14a23052477da4fc02532490"),
        (["phi", "-p", "3", "-m", "7"], "49162270883c2a8ded8fac6d5f8d2fa24c75759095b132166e011b1e9d8cd01d"),
        # the largest printable levels at p = 3, as printed while Phi_m was
        # one math.comb per coefficient and the signed products were multiplied
        (["phi", "-p", "3", "-m", "9"], "1ff89d4d609aaf6468e03085eecb8602d7a1d4ae48eccddef98022a33d3e996e"),
        (["omega", "-p", "3", "-n", "8"], "90b2076cad45b2207789dd2cc9a555e40ba9230b4dc4d5517019ba316fa4967d"),
    ]

    @pytest.mark.parametrize("argv,digest", PRINTABLE, ids=[" ".join(a) for a, _ in PRINTABLE])
    def test_printable_levels_unchanged(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_refusal_only_where_printing_fails(self, capsys, low_limit):
        # every printed level has a largest coefficient of at least
        # C(N, N // 2), and that alone has over 640 digits at the lowest
        # refused level of each tower
        refused = []
        for p, top in ((3, 8), (5, 5), (7, 4)):
            ctx = PrimeContext(p)
            for name, flag, build, exponent in (
                ("omega", "-n", lambda n: omega_poly(ctx, n), lambda n: p**n),
                ("phi", "-m", lambda n: cyclotomic_phi(ctx, n), lambda n: (p - 1) * p ** (n - 1)),
            ):
                for n in range(1, top + 1):
                    big = exponent(n)
                    code, _, err = run(capsys, name, "-p", str(p), flag, str(n))
                    if code == 0:
                        assert max(build(n).coeffs) >= math.comb(big, big // 2)
                        continue
                    assert err.endswith("would print over 640 digits\n"), err
                    assert math.comb(big, big // 2) >= 10**low_limit
                    refused.append((name, p, n))
                    break
        assert refused == [("omega", 3, 7), ("phi", 3, 8), ("omega", 5, 5), ("phi", 5, 5), ("omega", 7, 4)]


class TestColemanPaths:
    """Coleman inputs that reach the tower's rarer exits."""

    # det F_n carries Phi_1 Phi_3 with one column vanishing at each, but
    # Phi_2 divides det F_2: special at n = 3, no step at n = 2
    NOT_SPECIAL_BELOW = ["--col-plus", "[[X^4+3X^3+3X^2+3X, -X], [3X, X^4+3X^3+3X^2]]",
                         "--col-minus", "diag(1,1)"]

    def test_no_closed_form_when_not_special(self, capsys):
        doc = run_json(capsys, "nabla-coleman", "-p", "3", *self.NOT_SPECIAL_BELOW, "-n", "3")
        result = doc["result"]
        assert (result["nabla"], result["closed_form"], result["agrees"]) == (12, None, None)

    def test_phi_divides_below(self, capsys):
        code, out, err = run(capsys, "nabla-coleman", "-p", "3", *self.NOT_SPECIAL_BELOW, "-n", "2")
        assert (code, out) == (2, "")
        assert err == "error: PhiDivides: Phi_2 divides det F_2; step kernel is infinite\n"

    def test_singular_fn(self, capsys):
        # omega-tilde_1^+ col_minus + omega-tilde_1^- col_plus = 0 in the first column
        code, out, err = run(capsys, "nabla-coleman", "-p", "3", "--col-plus", "diag(X,X)",
                             "--col-minus", "diag(-X(X^2+3X+3), 1)", "-n", "1")
        assert (code, out, err) == (2, "", "error: SingularMatrix: det F_1 = 0\n")

    def test_specialize_refuses_a_singular_lower_fn(self, capsys):
        # col_minus = -omega_1 I makes F_1 = 0, though det F_3 is not 0: the
        # good basis refuses the pair instead of reading F_3 B alone
        code, out, err = run(capsys, "specialize", "--col-plus", "diag(X,X)",
                             "--col-minus", "diag(-X^3-3X^2-3X,-X^3-3X^2-3X)", "--n-max", "3")
        assert (code, out) == (2, "")
        assert err == "error: SingularMatrix: det A = 0: every level divides the determinant\n"

    def test_singular_col_plus(self, capsys):
        code, out, err = run(capsys, "nabla-coleman", "-p", "3", "--col-plus", "[[X,X],[X,X]]",
                             "--col-minus", "diag(1,1)", "-n", "1")
        assert (code, out, err) == (2, "", "error: DegenerateColeman: det col_plus is zero\n")
