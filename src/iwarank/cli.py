"""Command-line interface.

Polynomials are written in a tiny expression grammar over X, e.g.
``X^2+3X+3``, ``(1+X)^3-1``, ``3*(X+1)``; matrices either as
``diag(f, g)`` or ``[[a, c], [b, d]]`` (rows of the 2x2).  JSON payloads
produced by the library are accepted anywhere a polynomial or matrix is,
and an argument of the form ``@path`` reads the file first.

Exit codes: 0 success, 1 a verification failed (a closed form disagreed
with the brute-force rank, a saturation check came back false, or a
verify suite reported failures), 2 invalid input or precondition.

The working precision N defaults to 40 p-adic digits and only the
--precision flag changes it, so a run's output depends on its arguments
and the files they name alone.  N is read where a length is certified
from a Smith normal form, so the four nabla towers and verify take
--precision.  phi, omega, ord-eps, special-check, factor-bd and growth
take --precision and --margin, which none of them reads, because the
benchmark passes both.  Every JSON envelope records the command and, as
its context, the values of the -p, --precision and --margin flags that
the command takes; verify's report records its seed, so runs can be
reproduced byte for byte.  A flag that a command does not take exits 2
with that command's usage.

Each subcommand is declared once, as one entry of COMMANDS; build_parser
builds the argparse tree from that table once per process.  One rule
sets the exit code: 2 for refused input, 1 when the result has "agrees"
(nabla) or "ok" (verify, rod-check) false or a computation's check of its
own result fails (PostconditionFailed), 0 otherwise.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

from .cyclo_eval import ord_eps, ord_json
from .errors import InvalidContext, IwarankError, PostconditionFailed
from .growth_model import InvariantSet, nabla_x_formula, sha_growth
from .kobayashi_rank import (
    TorsionTower,
    nabla_coleman_tower,
    nabla_cyclic,
    nabla_matrix_tower,
    nabla_torsion_tower,
)
from .lambda_ring import (
    DEFAULT_PRECISION,
    MAX_EXPLICIT_LENGTH,
    LambdaElement,
    LambdaMatrix,
    PrimeContext,
    X,
    _past_cap,
    cyclotomic_phi,
    iwasawa_invariants,
    json_form,
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

# Largest total coefficient size, in bits, that one ``^`` or product may produce.
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


def _growth_bits(f: LambdaElement) -> int:
    """Bits by which a product with f can grow a coefficient: ceil(log2 of
    sum |c|), since no coefficient of f*g exceeds sum |c| times g's largest."""
    return max(sum(map(abs, f.coeffs)) - 1, 0).bit_length()


def _bound_size(what: str, degree: int, bits_per_coefficient: int) -> None:
    """Refuse a product or power before computing it when its degree or
    its total coefficient size, in bits, is past the cap."""
    bits = (degree + 1) * bits_per_coefficient
    if degree > MAX_EXPLICIT_LENGTH or bits > MAX_POWER_BITS:
        raise ExpressionError(f"{what} too large: degree {degree}, about {bits} coefficient bits")


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
            elif nxt is None or not (nxt.isdigit() or nxt == "X" or nxt == "("):
                return v
            w = self.unary()
            _bound_size("product", max(v.degree, 0) + max(w.degree, 0), _growth_bits(v) + _growth_bits(w))
            v = v * w

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
        _bound_size(f"power ^{tok}", max(base.degree, 0) * e, e * _growth_bits(base))
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
            return LambdaMatrix.diagonal(*self._two(self.expr, "(", ")"))
        if tok == "[":
            return LambdaMatrix(self._two(lambda: self._two(self.expr, "[", "]"), "[", "]"))
        raise ExpressionError(f"expected 'diag(...)' or '[[..],[..]]', got {tok!r}")

    def _two(self, item, opening, closing) -> tuple:
        """``opening item , item closing``"""
        self.take(opening)
        first = item()
        self.take(",")
        second = item()
        self.take(closing)
        return first, second


def _maybe_file(text: str) -> str:
    if not isinstance(text, str):  # argparse turns "--poly=--" into []
        raise ExpressionError("empty payload")
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                return fh.read()
        except UnicodeDecodeError:
            raise ExpressionError(f"payload file {text[1:]!r} is not UTF-8 text") from None
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


def _flag(*names, **options):
    return names, options


def _add_flags(parser, flags):
    for names, options in flags:
        parser.add_argument(*names, **options)
    return parser


# the working precision N, which the nabla towers and verify read
_PRECISION = _flag("--precision", type=int, default=DEFAULT_PRECISION,
                   help=f"p-adic working precision (default {DEFAULT_PRECISION})")
_MARGIN = _flag("--margin", type=int, default=8, help="validated and echoed in the envelope; no computation reads it, "
                "and it is kept only because the benchmark passes it, until ROADMAP item 2")
# phi, omega, ord-eps, special-check, factor-bd and growth take both, though
# none of their computations reads either: perfbench's cli_ops passes them,
# and they stay there only for the benchmark, until ROADMAP item 2
_BENCH = (_PRECISION, _MARGIN)
_P = _flag("-p", "--prime", type=int, default=3, help="odd prime p (default 3)")
_N = _flag("-n", type=int, required=True)
_M = _flag("-m", type=int, required=True)
_POLY = _flag("--poly", required=True)
_MATRIX = _flag("--matrix", required=True)
_PAIR = (_flag("--col-plus", required=True), _flag("--col-minus", required=True))
_SIGNED = tuple(_flag(f"--{s}", type=int, default=0) for s in ("lambda-plus", "lambda-minus", "mu-plus", "mu-minus"))


def _pair(a) -> ColemanData:
    return ColemanData(parse_matrix_arg(a.col_plus), parse_matrix_arg(a.col_minus))


def _invariants(a, r_inf: int = 0) -> InvariantSet:
    return InvariantSet(a.prime, a.lambda_plus, a.lambda_minus, a.mu_plus, a.mu_minus, r_inf)


def _printable_level(n: int, log10_answer: float) -> int:
    """n, refused up front when the answer at level n must print past the
    interpreter's integer-string digit limit; log10_answer bounds the
    log10 of its largest integer from below."""
    limit = sys.get_int_max_str_digits()
    if limit and log10_answer >= limit:
        raise InvalidContext(f"level {n}: the answer would print over {limit} digits")
    return n


def _growth_level(p: int, n: int) -> int:
    """Every growth answer at level n holds or exceeds s_{n-1} >= p^{n-2}."""
    return _printable_level(n, (n - 2) * math.log10(p))


def _binomial_level(p: int, n: int, k: int = 1, shift: int = 0) -> int:
    """n, for an answer holding coefficients at least those of (1+X)^N,
    N = k p^(n + shift): omega_n (k = 1), and
    Phi_m = sum_{j<p} (1+X)^(j p^(m-1)), whose terms are all nonnegative
    (k = p - 1, shift = -1).  The largest is C(N, N // 2) >= 2^N / (N + 1).
    A level check_level refuses is passed on, so that its refusal comes
    first."""
    if n < 0 or _past_cap(p, n):
        return n
    big = k * p ** (n + shift)
    return _printable_level(n, big * math.log10(2) - math.log10(big + 1))


def _specialize(ctx, a):
    # good_basis_transform raises PostconditionFailed unless every F_n B is special
    b = good_basis_transform(ctx, _pair(a), a.n_max)
    return {
        "b": b,
        "det_ords": {str(m): ord_json(ord_eps(ctx, m, b.det)) for m in range(a.n_max + 1)},
        "special": {str(n): True for n in range(1, a.n_max + 1)},
    }


def _growth(ctx, a):
    inv, n_to = _invariants(a, a.r_inf), _growth_level(a.prime, a.n_to)
    table = sha_growth(inv, range(a.base_n + 1, n_to + 1), (a.base_n, a.base_e))
    return table.to_csv() if a.format == "csv" else table


def _verify(ctx, a):
    reports = run_suites([a.suite], seed=a.seed, scale=a.scale, precision=ctx.precision)
    return {"ok": all(r.ok for r in reports), "reports": reports}


# Every subcommand, in listing order: its path in the command tree, help
# text, flags and the call (context, parsed args) -> result.  A path with
# no call is a group; the envelope names a command by its path joined
# with "-".  The result is a record, a dict of JSON-ready values and
# records, or a string printed raw.
COMMANDS = (
    ("phi", "cyclotomic factor at level m", (_P, _M, *_BENCH),
     lambda ctx, a: {"m": a.m,
                     "phi": cyclotomic_phi(ctx, _binomial_level(a.prime, a.m, a.prime - 1, -1))}),
    ("omega", "omega_n and its signed/reduced products", (_P, _N, *_BENCH),
     lambda ctx, a: omega_tower(ctx, _binomial_level(a.prime, a.n))),
    ("invariants", "mu and lambda of a polynomial", (_P, _POLY),
     lambda ctx, a: iwasawa_invariants(ctx, parse_poly_arg(a.poly))),
    ("ord-eps", "valuation of f at eps_m", (_P, _M, _POLY, *_BENCH),
     lambda ctx, a: {"m": a.m, "ord": ord_json(ord_eps(ctx, a.m, parse_poly_arg(a.poly)))}),
    ("nabla", "brute-force step ranks with closed forms", (), None),
    ("nabla cyclic", "Lambda/(f)", (_P, _POLY, _N, _PRECISION),
     lambda ctx, a: nabla_cyclic(ctx, parse_poly_arg(a.poly), a.n)),
    ("nabla torsion", "Lambda^2 modulo the columns of a square relation matrix", (_P, _MATRIX, _N, _PRECISION),
     lambda ctx, a: nabla_torsion_tower(ctx, TorsionTower(columns=parse_matrix_arg(a.matrix).columns), a.n)),
    ("nabla matrix", "Lambda^2 modulo the columns of A, special closed form", (_P, _MATRIX, _N, _PRECISION),
     lambda ctx, a: nabla_matrix_tower(ctx, parse_matrix_arg(a.matrix), a.n)),
    ("nabla coleman", "level-n module of a Coleman pair", (_P, *_PAIR, _N, _PRECISION),
     lambda ctx, a: nabla_coleman_tower(ctx, _pair(a), a.n)),
    ("special-check", "column-divisibility report", (_P, _MATRIX, _N, *_BENCH),
     lambda ctx, a: is_special(ctx, parse_matrix_arg(a.matrix), a.n)),
    ("factor-bd", "A = B D factorization of a special matrix", (_P, _MATRIX, _N, *_BENCH),
     lambda ctx, a: factor_bd(ctx, parse_matrix_arg(a.matrix), a.n)),
    ("assemble-fn", "level-n coupling matrix of a Coleman pair", (_P, *_PAIR, _N),
     lambda ctx, a: {"n": a.n, "fn": assemble_fn(ctx, _pair(a), a.n)}),
    ("specialize", "good-basis transform making every F_n special",
     (_P, *_PAIR, _flag("--n-max", type=int, required=True)), _specialize),
    ("rod-check", "span saturation against omega_n at a higher level",
     (_P, _MATRIX, _N, _flag("--test-level", type=int, required=True)),
     lambda ctx, a: {"n": a.n, "test_level": a.test_level,
                     "ok": rod_check(ctx, parse_matrix_arg(a.matrix), a.n, a.test_level)}),
    ("growth", "cumulative Sha growth table",
     (_P, *_SIGNED, _flag("--r-inf", type=int, default=0),
      _flag("--base-n", type=int, required=True, help="known level n_0"),
      _flag("--base-e", type=int, required=True, help="known value e_{n_0}"),
      _flag("--n-to", type=int, required=True),
      _flag("--format", choices=("json", "csv"), default="json"), *_BENCH),
     _growth),
    ("nabla-x", "X-side step rank from signed invariants", (_P, *_SIGNED, _N),
     lambda ctx, a: {"n": a.n,
                     "nabla_x": nabla_x_formula(_invariants(a), _growth_level(a.prime, a.n))}),
    ("verify", "seeded randomized verification sweeps",
     (_flag("--suite", choices=("all",) + SUITE_NAMES, default="all"),
      _flag("--scale", type=float, default=1.0, help="multiply every sweep count"),
      _flag("--seed", type=int, default=0, help="seed of every sweep's draws"), _PRECISION),
     _verify),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # the help shows the docstring up to its notes on this module's layout
    parser = argparse.ArgumentParser(prog="iwarank", description=__doc__.partition("\n\nEach subcommand")[0])
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for path, help_text, flags, call in COMMANDS:
        group, _, name = path.rpartition(" ")
        sp = groups[group].add_parser(name, help=help_text)
        if call is None:
            groups[path] = sp.add_subparsers(dest="tower", required=True)
        else:
            # the leaf parser reports what argparse leaves over, with its own usage
            _add_flags(sp, flags).set_defaults(command=path.replace(" ", "-"), call=call, parser=sp)
    return parser


# each PrimeContext field and the flag that sets it
_CONTEXT_FLAGS = (("p", "prime"), ("precision", "precision"), ("margin", "margin"))


def _resolve_context(args) -> tuple[dict, PrimeContext]:
    """The envelope's context, the PrimeContext fields that the command
    takes flags for, and the PrimeContext they build."""
    context = {key: getattr(args, dest) for key, dest in _CONTEXT_FLAGS if dest in args}
    if context.get("precision", DEFAULT_PRECISION) < 8:
        args.parser.error(f"precision must be at least 8, got {context['precision']}")
    # verify takes no -p, as each suite sets its own p: there p = 3 only
    # validates the precision
    return context, PrimeContext(**{"p": 3, **context})


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        context, ctx = _resolve_context(args)
        result = args.call(ctx, args)
        if isinstance(result, str):
            sys.stdout.write(result)
            return 0
        result = json_form(result)
        envelope = {"command": args.command, "context": context, "result": result}
        text = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
    except BrokenPipeError:
        raise  # not bad input: entrypoint ends the process quietly
    except (ExpressionError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IwarankError, PostconditionFailed) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, PostconditionFailed) else 2
    except ValueError as exc:
        if not str(exc).startswith("Exceeds the limit"):  # str() past the int digit limit
            raise
        print(f"error: a result integer has over {sys.get_int_max_str_digits()} digits", file=sys.stderr)
        return 2
    print(text)
    return 1 if result.get("agrees") is False or result.get("ok") is False else 0


def entrypoint() -> None:
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: print nothing more, and exit as a
        # process killed by SIGPIPE would (128 + 13); devnull takes the
        # flush at interpreter exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
