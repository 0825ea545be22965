"""Command-line interface.

Polynomials are written in a tiny expression grammar over X, e.g.
``X^2+3X+3``, ``(1+X)^3-1``, ``3*(X+1)``; matrices either as
``diag(f, g)`` or ``[[a, c], [b, d]]`` (rows of the 2x2).  JSON payloads
produced by the library are accepted anywhere a polynomial or matrix is,
and an argument of the form ``@path`` reads the file first.

Exit codes: 0 success, 1 a verification failed (a closed form disagreed
with the brute-force rank, a saturation check came back false, or a
verify suite reported failures), 2 invalid input or precondition.

The working precision defaults to 40 p-adic digits; the IWK_PRECISION
environment variable overrides the default and the --precision flag
overrides both.  Every JSON envelope records the context and seed so
runs can be reproduced byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .cyclo_eval import ord_eps, ord_json
from .errors import IwarankError
from .growth_model import InvariantSet, nabla_x_formula, sha_growth
from .kobayashi_rank import (
    TorsionTower,
    nabla_coleman_tower,
    nabla_cyclic,
    nabla_matrix_tower,
    nabla_torsion_tower,
)
from .lambda_ring import (
    MAX_EXPLICIT_LENGTH,
    LambdaElement,
    LambdaMatrix,
    PrimeContext,
    X,
    cyclotomic_phi,
    iwasawa_invariants,
    omega_tower,
)
from .special_matrices import (
    ColemanData,
    assemble_fn,
    factor_bd,
    good_basis_transform,
    is_special,
    rod_check,
)
from .verify import SUITE_NAMES, run_suites

DEFAULT_PRECISION = 40

# Largest total coefficient size, in bits, that one ``^`` may produce.
MAX_POWER_BITS = 1 << 20


class ExpressionError(ValueError):
    """Unparseable polynomial or matrix argument."""


_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z_]+|\*\*|[-+*^(),\[\]])")


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ExpressionError(f"bad character {text[pos]!r} at offset {pos}")
        out.append("^" if m.group(1) == "**" else m.group(1))
        pos = m.end()
    return out


def _int_token(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:  # past the interpreter's integer-string digit limit
        raise ExpressionError(f"integer literal of {len(tok)} digits is too long") from None


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of input")
        if expected is not None and tok != expected:
            raise ExpressionError(f"expected {expected!r}, got {tok!r}")
        self.i += 1
        return tok

    def done(self):
        if self.peek() is not None:
            raise ExpressionError(f"trailing input at {self.peek()!r}")

    def expr(self) -> LambdaElement:
        v = self.term()
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                v = v + self.term()
            else:
                v = v - self.term()
        return v

    def term(self) -> LambdaElement:
        v = self.unary()
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.take()
                v = v * self.unary()
            elif nxt is not None and (nxt.isdigit() or nxt == "X" or nxt == "("):
                v = v * self.unary()
            else:
                return v

    def unary(self) -> LambdaElement:
        if self.peek() == "-":
            self.take()
            return -self.unary()
        if self.peek() == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self) -> LambdaElement:
        base = self.atom()
        if self.peek() != "^":
            return base
        self.take()
        tok = self.take()
        if not tok.isdigit():
            raise ExpressionError(f"exponent must be a nonnegative integer, got {tok!r}")
        e = _int_token(tok)
        # bound the result before computing it: degree deg(base) * e, each
        # coefficient below (sum |c|)^e, so at most e * log2(sum |c|) bits
        degree = max(base.degree, 0) * e
        bits = (degree + 1) * e * max(sum(map(abs, base.coeffs)) - 1, 0).bit_length()
        if degree > MAX_EXPLICIT_LENGTH or bits > MAX_POWER_BITS:
            raise ExpressionError(f"power ^{tok} too large: degree {degree}, about {bits} coefficient bits")
        return base**e

    def atom(self) -> LambdaElement:
        tok = self.peek()
        if tok == "(":
            self.take()
            v = self.expr()
            self.take(")")
            return v
        if tok is None:
            raise ExpressionError("unexpected end of input")
        if tok.isdigit():
            self.take()
            return LambdaElement.const(_int_token(tok))
        if tok == "X":
            self.take()
            return X
        raise ExpressionError(f"unexpected token {tok!r}")

    def matrix(self) -> LambdaMatrix:
        tok = self.peek()
        if tok == "diag":
            self.take()
            self.take("(")
            a = self.expr()
            self.take(",")
            b = self.expr()
            self.take(")")
            return LambdaMatrix.diagonal(a, b)
        if tok == "[":
            self.take()
            r0 = self._row()
            self.take(",")
            r1 = self._row()
            self.take("]")
            return LambdaMatrix((tuple(r0), tuple(r1)))
        raise ExpressionError(f"expected 'diag(...)' or '[[..],[..]]', got {tok!r}")

    def _row(self):
        self.take("[")
        a = self.expr()
        self.take(",")
        b = self.expr()
        self.take("]")
        return (a, b)


def _maybe_file(text: str) -> str:
    if not isinstance(text, str):  # argparse turns "--poly=--" into []
        raise ExpressionError("empty payload")
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return text


def _nesting_bounded(parse):
    @functools.wraps(parse)
    def bounded(text: str):
        try:
            return parse(text)
        except RecursionError:  # nested past the interpreter's limit: bad input, not a crash
            raise ExpressionError("input nested too deeply") from None
    return bounded


@_nesting_bounded
def parse_poly_arg(text: str) -> LambdaElement:
    text = _maybe_file(text).strip()
    if text.startswith("{"):
        obj = json.loads(text)
        try:
            return LambdaElement.from_json_dict(obj)
        except (ValueError, KeyError, TypeError, OverflowError):
            raise ExpressionError(f"cannot parse polynomial argument {text!r}") from None
    parser = _Parser(_tokenize(text))
    value = parser.expr()
    parser.done()
    return value


@_nesting_bounded
def parse_matrix_arg(text: str) -> LambdaMatrix:
    text = _maybe_file(text).strip()
    try:
        parser = _Parser(_tokenize(text))
        value = parser.matrix()
        parser.done()
        return value
    except ExpressionError:
        try:
            return LambdaMatrix.from_json_list(json.loads(text))
        except (ValueError, KeyError, TypeError, OverflowError):
            raise ExpressionError(f"cannot parse matrix argument {text!r}") from None


def _coleman_from_args(args) -> ColemanData:
    return ColemanData(
        parse_matrix_arg(args.col_plus), parse_matrix_arg(args.col_minus)
    )


def _invariants_from_args(args) -> InvariantSet:
    return InvariantSet(
        p=args.prime,
        lambda_plus=args.lambda_plus,
        lambda_minus=args.lambda_minus,
        mu_plus=args.mu_plus,
        mu_minus=args.mu_minus,
        r_inf=args.r_inf,
    )


def _nabla_exit(res) -> int:
    return 1 if res.agrees is False else 0


def _cmd_phi(ctx, args):
    return {"m": args.m, "phi": cyclotomic_phi(ctx, args.m).to_json_dict()}, 0


def _cmd_omega(ctx, args):
    return omega_tower(ctx, args.n).to_json_dict(), 0


def _cmd_invariants(ctx, args):
    inv = iwasawa_invariants(ctx, parse_poly_arg(args.poly))
    return inv.to_json_dict(), 0


def _cmd_ord_eps(ctx, args):
    o = ord_eps(ctx, args.m, parse_poly_arg(args.poly))
    return {"m": args.m, "ord": ord_json(o)}, 0


def _cmd_nabla_cyclic(ctx, args):
    res = nabla_cyclic(ctx, parse_poly_arg(args.poly), args.n)
    return res.to_json_dict(), _nabla_exit(res)


def _cmd_nabla_torsion(ctx, args):
    tower = TorsionTower(columns=parse_matrix_arg(args.matrix).columns)
    res = nabla_torsion_tower(ctx, tower, args.n)
    return res.to_json_dict(), _nabla_exit(res)


def _cmd_nabla_matrix(ctx, args):
    res = nabla_matrix_tower(ctx, parse_matrix_arg(args.matrix), args.n)
    return res.to_json_dict(), _nabla_exit(res)


def _cmd_nabla_coleman(ctx, args):
    res = nabla_coleman_tower(ctx, _coleman_from_args(args), args.n)
    return res.to_json_dict(), _nabla_exit(res)


def _cmd_special_check(ctx, args):
    report = is_special(ctx, parse_matrix_arg(args.matrix), args.n)
    return report.to_json_dict(), 0


def _cmd_factor_bd(ctx, args):
    fact = factor_bd(ctx, parse_matrix_arg(args.matrix), args.n)
    return fact.to_json_dict(), 0


def _cmd_assemble_fn(ctx, args):
    f = assemble_fn(ctx, _coleman_from_args(args), args.n)
    return {"n": args.n, "fn": f.to_json_list()}, 0


def _cmd_specialize(ctx, args):
    cd = _coleman_from_args(args)
    b = good_basis_transform(ctx, cd, args.n_max)
    det_ords = {
        str(m): ord_json(ord_eps(ctx, m, b.det)) for m in range(args.n_max + 1)
    }
    special = {
        str(n): is_special(ctx, assemble_fn(ctx, cd, n) @ b, n).verdict
        for n in range(1, args.n_max + 1)
    }
    return {"b": b.to_json_list(), "det_ords": det_ords, "special": special}, 0


def _cmd_rod_check(ctx, args):
    ok = rod_check(ctx, parse_matrix_arg(args.matrix), args.n, args.test_level)
    return {"n": args.n, "test_level": args.test_level, "ok": ok}, 0


def _cmd_growth(ctx, args):
    inv = _invariants_from_args(args)
    table = sha_growth(inv, range(args.base_n + 1, args.n_to + 1), (args.base_n, args.base_e))
    if args.format == "csv":
        return table.to_csv(), 0
    return table.to_json_dict(), 0


def _cmd_nabla_x(ctx, args):
    inv = _invariants_from_args(args)
    return {"n": args.n, "nabla_x": nabla_x_formula(inv, args.n)}, 0


def _cmd_verify(ctx, args):
    names = "all" if args.suite == "all" else [args.suite]
    reports = run_suites(names, seed=args.seed, scale=args.scale, precision=ctx.precision)
    ok = all(r.ok for r in reports)
    payload = {"ok": ok, "reports": [r.to_json_dict() for r in reports]}
    return payload, 0 if ok else 1


def _add_invariant_flags(sp):
    sp.add_argument("--lambda-plus", type=int, default=0)
    sp.add_argument("--lambda-minus", type=int, default=0)
    sp.add_argument("--mu-plus", type=int, default=0)
    sp.add_argument("--mu-minus", type=int, default=0)
    sp.add_argument("--r-inf", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-p", "--prime", type=int, default=3, help="odd prime p (default 3)")
    common.add_argument(
        "--precision",
        type=int,
        default=None,
        help="p-adic working precision (default 40; IWK_PRECISION env overrides the default)",
    )
    common.add_argument("--margin", type=int, default=8, help="accepted and echoed in the envelope; no computation reads it")
    common.add_argument("--seed", type=int, default=0, help="seed recorded in the output and used by verify")

    parser = argparse.ArgumentParser(prog="iwarank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("phi", parents=[common], help="cyclotomic factor at level m")
    sp.add_argument("-m", type=int, required=True)
    sp.set_defaults(handler=_cmd_phi)

    sp = sub.add_parser("omega", parents=[common], help="omega_n and its signed/reduced products")
    sp.add_argument("-n", type=int, required=True)
    sp.set_defaults(handler=_cmd_omega)

    sp = sub.add_parser("invariants", parents=[common], help="mu and lambda of a polynomial")
    sp.add_argument("--poly", required=True)
    sp.set_defaults(handler=_cmd_invariants)

    sp = sub.add_parser("ord-eps", parents=[common], help="valuation of f at eps_m")
    sp.add_argument("-m", type=int, required=True)
    sp.add_argument("--poly", required=True)
    sp.set_defaults(handler=_cmd_ord_eps)

    nabla = sub.add_parser("nabla", help="brute-force step ranks with closed forms")
    nsub = nabla.add_subparsers(dest="tower", required=True)

    sp = nsub.add_parser("cyclic", parents=[common], help="Lambda/(f)")
    sp.add_argument("--poly", required=True)
    sp.add_argument("-n", type=int, required=True)
    sp.set_defaults(handler=_cmd_nabla_cyclic)

    sp = nsub.add_parser("torsion", parents=[common], help="Lambda^2 modulo the columns of a square relation matrix")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("-n", type=int, required=True)
    sp.set_defaults(handler=_cmd_nabla_torsion)

    sp = nsub.add_parser("matrix", parents=[common], help="Lambda^2 modulo the columns of A, special closed form")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("-n", type=int, required=True)
    sp.set_defaults(handler=_cmd_nabla_matrix)

    sp = nsub.add_parser("coleman", parents=[common], help="level-n module of a Coleman pair")
    sp.add_argument("--col-plus", required=True)
    sp.add_argument("--col-minus", required=True)
    sp.add_argument("-n", type=int, required=True)
    sp.set_defaults(handler=_cmd_nabla_coleman)

    sp = sub.add_parser("special-check", parents=[common], help="column-divisibility report")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("-n", type=int, required=True)
    sp.set_defaults(handler=_cmd_special_check)

    sp = sub.add_parser("factor-bd", parents=[common], help="A = B D factorization of a special matrix")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("-n", type=int, required=True)
    sp.set_defaults(handler=_cmd_factor_bd)

    sp = sub.add_parser("assemble-fn", parents=[common], help="level-n coupling matrix of a Coleman pair")
    sp.add_argument("--col-plus", required=True)
    sp.add_argument("--col-minus", required=True)
    sp.add_argument("-n", type=int, required=True)
    sp.set_defaults(handler=_cmd_assemble_fn)

    sp = sub.add_parser("specialize", parents=[common], help="good-basis transform making every F_n special")
    sp.add_argument("--col-plus", required=True)
    sp.add_argument("--col-minus", required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.set_defaults(handler=_cmd_specialize)

    sp = sub.add_parser("rod-check", parents=[common], help="span saturation against omega_n at a higher level")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("--test-level", type=int, required=True)
    sp.set_defaults(handler=_cmd_rod_check)

    sp = sub.add_parser("growth", parents=[common], help="cumulative Sha growth table")
    _add_invariant_flags(sp)
    sp.add_argument("--base-n", type=int, required=True, help="known level n_0")
    sp.add_argument("--base-e", type=int, required=True, help="known value e_{n_0}")
    sp.add_argument("--n-to", type=int, required=True)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(handler=_cmd_growth)

    sp = sub.add_parser("nabla-x", parents=[common], help="X-side step rank from signed invariants")
    _add_invariant_flags(sp)
    sp.add_argument("-n", type=int, required=True)
    sp.set_defaults(handler=_cmd_nabla_x)

    sp = sub.add_parser("verify", parents=[common], help="seeded randomized verification sweeps")
    sp.add_argument(
        "--suite",
        choices=("all",) + SUITE_NAMES,
        default="all",
    )
    sp.add_argument("--scale", type=float, default=1.0, help="multiply every sweep count")
    sp.set_defaults(handler=_cmd_verify)

    return parser


def _resolve_context(args, parser) -> PrimeContext:
    precision = args.precision
    if precision is None:
        raw = os.environ.get("IWK_PRECISION")
        if raw:
            try:
                precision = int(raw)
            except ValueError:
                parser.error(f"IWK_PRECISION must be an integer, got {raw!r}")
        else:
            precision = DEFAULT_PRECISION
    if precision < 8:
        parser.error(f"precision must be at least 8, got {precision}")
    return PrimeContext(args.prime, precision=precision, margin=args.margin)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        ctx = _resolve_context(args, parser)
        result, code = args.handler(ctx, args)
        if isinstance(result, str):
            sys.stdout.write(result)
            return code
        command = args.command if args.command != "nabla" else f"nabla-{args.tower}"
        envelope = {
            "command": command,
            "context": {"p": ctx.p, "precision": ctx.precision, "margin": ctx.margin},
            "seed": args.seed,
            "result": result,
        }
        text = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
    except (ExpressionError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IwarankError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        if not str(exc).startswith("Exceeds the limit"):  # str() past the int digit limit
            raise
        print(f"error: a result integer has over {sys.get_int_max_str_digits()} digits", file=sys.stderr)
        return 2
    print(text)
    return code


def entrypoint() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
