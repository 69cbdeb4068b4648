"""Command-line front end.

Subcommands: norm, formula, hunter, oracle, verify.  Exit codes: 0 success,
1 verification suite failure (or, from the ``rvnorms`` entry point, a
reader that closed stdout early, which ends without a traceback), 2 parse
error (bad file, bad string, a number that parses to inf or nan, or bad
$RVNORMS_SEED), 3 precondition violation (odd degree on an analytic path,
missing moments, non-Hermitian input to a Hermitian-only method, result
outside float range, a float norm power that lost its precision (negative,
or zero for a nonzero matrix), verify --trials below 1 or above
VERIFY_MAX_TRIALS of a suite it runs, a seed outside
[0, 2**64), a general-mode formula above degree FORMULA_MAX_DEGREE, a
Hermitian-mode formula or hunter above degree PARTITION_MAX_DEGREE, a norm
above the degree NORM_MAX_DEGREE gives its method, an oracle above degree
ORACLE_MAX_DEGREE or above ORACLE_MAX_SAMPLES samples).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .cumulants import distribution_cumulants, parse_distribution, parse_scalar
from .errors import ParseError, PreconditionError
from .matrixcore import is_hermitian, load_matrix
from .normengine import (
    circle_extension_check,
    general_norm_pow,
    hermitian_norm_pow,
    norm_from_power,
    series_norm_pow,
    word_sum_norm_pow,
    write_formula,
)
from .oracle import ORACLE_MAX_DEGREE, mc_norm
from .sympoly import hunter_poly, hunter_poly_recursive, hunter_terms
from .suites import SUITES, run_suite

CATALOG_HELP = """\
distribution strings take the form family:key=value,key=value; values may be
integers, rationals p/q (kept exact), or floats.  Catalog:
  gamma:alpha=A,beta=B          A>0, B>0
  exponential[:beta=B]          B>0, default 1
  normal:mu=M,sigma=S           S>0
  uniform:a=A,b=B               A<B
  laplace:mu=M,beta=B           B>0
  bernoulli:q=Q                 0<Q<1
  finite_discrete:atoms=A1|A2|...,probs=Q1|Q2|...   distinct atoms, Q>0, sum 1
  rademacher                    no parameters
  poisson:alpha=A               A>0
  pareto:alpha=A                A>0; moments (and degree d) must stay below A
"""


# Largest degree `formula` builds in general mode.  The cost grows 3-5x per
# +2 in degree: `formula exponential -d D --json` takes 0.17-0.24 s at 14,
# 0.23-0.25 s at 16 and 0.46-0.52 s at 18 (64 MB peak) on a 2-vCPU host
# (about 0.15 s of each is interpreter start-up); in process, with the
# limit bypassed, d=20 takes 1.2 s (164 MB).  The limit stays at 18 until
# a cost model sets it.
FORMULA_MAX_DEGREE = 18

# Largest degree for Hermitian-mode `formula` and for `hunter`, which walk
# every partition of d (about 1.4x more per +2 in degree).  On a 2-vCPU
# host Hermitian `formula exponential -d D --json` takes 2.7-3.0 s at 44
# and 3.8 s at 46; `hunter -d D --alpha D --json --at 1,1/2`, which also
# evaluates H at the point exactly, takes 1.2-1.7 s at 44 and 1.6-1.7 s at
# 46.  The Hermitian formula sets the limit: d=44 keeps it well within a
# 10 s budget.
PARTITION_MAX_DEGREE = 44

# Largest degree `norm` evaluates, per --method; above it `norm` exits 3
# before it reads the matrix.  Wall time of one `norm` run on a 2-vCPU
# host, exact 3x3 input with small denominators, against the same 10 s
# budget:
# - partition: non-Hermitian input takes the costlier constant-term route:
#   at d=100 0.3-2.2 s for nine families and 7.5 s for pareto:alpha=1001/2,
#   at d=120 up to 4.5 s (bernoulli) and 17.8 s for that pareto law.
#   Hermitian input takes 0.3 s at d=100.
# - series (Hermitian only): up to 3.9 s at d=300 and 9.1 s at d=400
#   (finite_discrete).
# - words: 0.23-0.35 s at d=14 and 0.16-0.38 s at d=16, five families, two
#   runs each; its table keeps only the partitions whose parts all index
#   nonzero cumulants (at d=16, 35,492 terms for exponential, 5 for normal).
# - auto on non-Hermitian input (words plus circle quadrature): 0.28-0.41 s
#   at d=14, 0.35-0.66 s at d=16.
# words and auto stay at 14, the limit set when d=16 took 9-15 s, until
# they are re-measured on slower hosts.
NORM_MAX_DEGREE = {"partition": 100, "series": 300, "words": 14, "auto": 14}

# Largest --trials `verify` runs, per suite; above it `verify` exits 3
# before any suite starts.  Measured in process on a 2-vCPU host, the
# slower of two seeds: axioms 2.1 ms a trial, schur 1.3, paths 17.8,
# hunter 0.62, khintchine 0.21.  Each cap is about 5 s of its suite at that
# cost, half a 10 s budget for slower hosts, and is at least the suite's
# default trial count.  Since paths evaluates each route in one call per
# degree, its 250 trials take 0.29 s on a 2-vCPU Xeon host (1.2 ms a trial,
# 4.2 ms at one trial); the cap stays until it is re-measured on slower hosts.
VERIFY_MAX_TRIALS = {"axioms": 2400, "schur": 4000, "paths": 250, "hunter": 8000, "khintchine": 20000}

# Largest --samples `oracle` takes; above it, or above ORACLE_MAX_DEGREE,
# `oracle` exits 3 before it reads the matrix.  One thread draws 2*10**7
# samples of a Hermitian float 8x8 at d=6 in 3.1-10.8 s on a 2-vCPU host
# (pareto fastest, poisson slowest), and the cost grows with n: 10**7 keeps
# each law near 5 s there.
ORACLE_MAX_SAMPLES = 10**7


def _default_seed() -> int:
    text = os.environ.get("RVNORMS_SEED", "20240901")
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"RVNORMS_SEED must be an integer, got {text!r}") from None


def _fmt_value(v) -> str:
    if isinstance(v, (int, Fraction)):
        return str(Fraction(v))
    return repr(float(v))


def _json_value(v):
    if isinstance(v, (int, Fraction)):
        f = Fraction(v)
        return [f.numerator, f.denominator]
    return float(v)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rvnorms",
        description="Matrix norms induced by random vectors.",
        epilog=CATALOG_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser(
        "norm",
        help="evaluate the norm of a matrix from a JSON file",
        epilog=CATALOG_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_norm.add_argument("matrix", help="path to a matrix JSON file {n, re, im}")
    p_norm.add_argument("dist", help="distribution string")
    p_norm.add_argument(
        "-d", "--degree", type=int, required=True,
        help="even degree; at most "
        + ", ".join(f"{d} for {m}" for m, d in NORM_MAX_DEGREE.items()),
    )
    p_norm.add_argument(
        "--method",
        choices=("partition", "series", "words", "auto"),
        default="partition",
        help="partition: cumulant sum (its constant-term form on non-Hermitian "
        "input); series: truncated-series extraction (Hermitian only); words: "
        "trace-word sum, the independent oracle; auto: run partition and series "
        "and report their discrepancy (words plus circle quadrature on "
        "non-Hermitian input)",
    )
    p_norm.add_argument("--json", action="store_true")

    p_formula = sub.add_parser("formula", help="print the symbolic trace-polynomial form")
    p_formula.add_argument("dist", help="distribution string (rational parameters stay exact)")
    p_formula.add_argument(
        "-d", "--degree", type=int, required=True,
        help=f"even degree; at most {FORMULA_MAX_DEGREE} in general mode and "
        f"{PARTITION_MAX_DEGREE} in hermitian mode",
    )
    p_formula.add_argument("--mode", choices=("hermitian", "general"), default="general")
    p_formula.add_argument("--json", action="store_true")

    p_hunter = sub.add_parser("hunter", help="positive-definite CHS combinations H_{d,alpha}")
    p_hunter.add_argument(
        "-d", "--degree", type=int, required=True, help=f"at most {PARTITION_MAX_DEGREE}"
    )
    p_hunter.add_argument("--alpha", type=int, required=True)
    p_hunter.add_argument("--at", help="comma-separated point to evaluate at, e.g. 1,1/2,-2")
    p_hunter.add_argument("--json", action="store_true")

    p_oracle = sub.add_parser("oracle", help="Monte Carlo estimate for a Hermitian matrix")
    p_oracle.add_argument("matrix")
    p_oracle.add_argument("dist")
    p_oracle.add_argument(
        "-d", "--degree", type=int, required=True, help=f"at most {ORACLE_MAX_DEGREE}"
    )
    p_oracle.add_argument(
        "--samples", type=int, default=10**6, help=f"at most {ORACLE_MAX_SAMPLES}"
    )
    p_oracle.add_argument("--seed", type=int, default=None, help="default $RVNORMS_SEED")
    p_oracle.add_argument("--threads", type=int, default=1, help="cap on sampling workers")
    p_oracle.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="run the randomized property suites")
    p_verify.add_argument(
        "--suite", choices=tuple(SUITES) + ("all",), default="all"
    )
    p_verify.add_argument(
        "--trials", type=int, default=None,
        help="override per-suite default; at most "
        + ", ".join(f"{t} for {name}" for name, t in VERIFY_MAX_TRIALS.items()),
    )
    p_verify.add_argument("--seed", type=int, default=None, help="default $RVNORMS_SEED")
    p_verify.add_argument("--json", action="store_true")

    return parser


def _cmd_norm(args) -> int:
    limit = NORM_MAX_DEGREE[args.method]
    if args.degree > limit:
        raise PreconditionError(
            f"norm --method {args.method} is limited to degree {limit}, got {args.degree}"
        )
    Z = load_matrix(args.matrix)
    spec = parse_distribution(args.dist)
    d = args.degree
    hermitian = is_hermitian(Z)
    discrepancy = None
    method = args.method
    if method == "partition":
        value = hermitian_norm_pow(Z, spec, d) if hermitian else general_norm_pow(Z, spec, d)
        used = "partition" if hermitian else "partition(words)"
    elif method == "series":
        value = series_norm_pow(Z, spec, d)
        used = "series"
    elif method == "words":
        value = word_sum_norm_pow(Z, spec, d)
        used = "words"
    else:  # auto
        if hermitian:
            value = hermitian_norm_pow(Z, spec, d)
            if spec.has_mgf:
                other = series_norm_pow(Z, spec, d)
                discrepancy = float(abs(value - other))
            used = "auto(partition,series)"
        else:
            quad, value = circle_extension_check(Z, spec, d)
            discrepancy = abs(quad - float(value))
            used = "auto(words,circle)"
    norm_value = norm_from_power(Z, value, d)
    if args.json:
        out = {
            "matrix": args.matrix,
            "n": Z.n,
            "hermitian": hermitian,
            "distribution": spec.label(),
            "degree": d,
            "method": used,
            "norm_pow": _json_value(value),
            "norm": norm_value,
        }
        if discrepancy is not None:
            out["discrepancy"] = discrepancy
        print(json.dumps(out))
    else:
        print(f"matrix: {args.matrix} (n={Z.n}, {'hermitian' if hermitian else 'general'})")
        print(f"distribution: {spec.label()}")
        print(f"degree: {d}")
        print(f"method: {used}")
        print(f"norm^{d} = {_fmt_value(value)}")
        print(f"norm = {norm_value!r}")
        if discrepancy is not None:
            print(f"path discrepancy: {discrepancy!r}")
    return 0


def _require_partition_degree(command: str, d: int) -> None:
    if d > PARTITION_MAX_DEGREE:
        raise PreconditionError(
            f"{command} is limited to degree {PARTITION_MAX_DEGREE} "
            f"(it walks every partition of the degree), got {d}"
        )


def _cmd_formula(args) -> int:
    d = args.degree
    if args.mode == "general" and d > FORMULA_MAX_DEGREE:
        raise PreconditionError(
            f"formula in general mode is limited to degree {FORMULA_MAX_DEGREE} "
            f"(its cost triples with every +2 in degree), got {d}"
        )
    if args.mode == "hermitian":
        _require_partition_degree("formula in hermitian mode", d)
    spec = parse_distribution(args.dist)
    kappas = distribution_cumulants(spec, d)
    write_formula(
        sys.stdout.write, kappas, d, args.mode == "hermitian", args.json,
        {"distribution": spec.label()},
    )
    return 0


def _cmd_hunter(args) -> int:
    d, alpha = args.degree, args.alpha
    if d < 0 or alpha < 1:
        raise PreconditionError("hunter needs degree >= 0 and alpha >= 1")
    _require_partition_degree("hunter", d)
    value = rec = point = None
    if args.at is not None:
        point = [parse_scalar(item) for item in args.at.split(",")]
    terms = hunter_terms(d, alpha)
    if point is not None:
        value = hunter_poly(d, alpha, point, terms)
        rec = hunter_poly_recursive(d, alpha, point)
        for v in (x for x in (value, rec) if isinstance(x, float)):
            # refused as `norm` refuses a float norm power: inf, nan, a
            # subnormal, or any value where every monomial of degree d underflows
            top = max(abs(float(x)) for x in point)
            lost = top and d * math.log2(top) < math.log2(sys.float_info.min)
            if lost or not (v == 0 or sys.float_info.min <= abs(v) < math.inf):
                raise PreconditionError(f"H_{{{d},{alpha}}} is outside float range: {v!r}")
    if args.json:
        out = {
            "degree": d,
            "alpha": alpha,
            "terms": [{"coeff": c, "parts": list(p.parts)} for p, c in terms],
        }
        if point is not None:
            out["at"] = [_json_value(v) for v in point]
            out["value"] = _json_value(value)
            out["value_recursive"] = _json_value(rec)
        print(json.dumps(out))
    else:
        pieces = []
        for p, c in terms:
            factors = " ".join(
                f"h{i}" + (f"^{m}" if m > 1 else "")
                for i, m in sorted(p.multiplicities.items())
            )
            pieces.append(f"{c} {factors}")
        print(f"H_{{{d},{alpha}}} = {' + '.join(pieces) or '0'}")
        if point is not None:
            print(f"value at {args.at}: {_fmt_value(value)}")
            print(f"recursive form:  {_fmt_value(rec)}")
    return 0


def _cmd_oracle(args) -> int:
    if args.degree > ORACLE_MAX_DEGREE or args.samples > ORACLE_MAX_SAMPLES:
        raise PreconditionError(
            f"oracle is limited to degree {ORACLE_MAX_DEGREE} and {ORACLE_MAX_SAMPLES} samples, "
            f"got degree {args.degree} and {args.samples} samples"
        )
    A = load_matrix(args.matrix)
    spec = parse_distribution(args.dist)
    seed = args.seed if args.seed is not None else _default_seed()
    est = mc_norm(A, spec, args.degree, args.samples, seed, threads=max(1, args.threads))
    if args.json:
        print(
            json.dumps(
                {
                    "matrix": args.matrix,
                    "distribution": spec.label(),
                    "degree": args.degree,
                    "value": est.value,
                    "stderr": est.stderr,
                    "samples": est.samples,
                    "seed": est.seed,
                }
            )
        )
    else:
        print(f"distribution: {spec.label()}")
        print(f"degree: {args.degree}")
        print(f"norm ~ {est.value!r} +/- {est.stderr!r} (samples={est.samples}, seed={est.seed})")
    return 0


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    if args.trials is not None:
        if args.trials < 1:
            raise PreconditionError(f"verify needs --trials >= 1, got {args.trials}")
        for name in names:
            if args.trials > VERIFY_MAX_TRIALS[name]:
                raise PreconditionError(
                    f"verify --suite {name} is limited to {VERIFY_MAX_TRIALS[name]} trials, "
                    f"got {args.trials}"
                )
    seed = args.seed if args.seed is not None else _default_seed()
    reports = [run_suite(name, trials=args.trials, seed=seed) for name in names]
    failed = any(not r.passed for r in reports)
    if args.json:
        payload = [r.to_json() for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else {"suites": payload}))
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(f"suite {r.suite}: {status} ({r.checks} checks, trials={r.trials})")
            for msg in r.failures[:10]:
                print(f"  failure: {msg}")
            if len(r.failures) > 10:
                print(f"  ... and {len(r.failures) - 10} more")
    return 1 if failed else 0


_DISPATCH = {
    "norm": _cmd_norm,
    "formula": _cmd_formula,
    "hunter": _cmd_hunter,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
}


# Built once: constructing the five subparsers costs more than a small
# `norm` evaluation, and parse_args leaves the parser unchanged.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    # An exact value prints in full, however many digits it has.  0 means no
    # limit, as on interpreters before 3.10.7, which have no such setting.
    int_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if int_digits:
        sys.set_int_max_str_digits(0)
    try:
        return _DISPATCH[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:  # e.g. an exact entry too large for a float tolerance
        print(f"error: value outside float range: {exc}", file=sys.stderr)
        return 3
    finally:
        if int_digits:
            sys.set_int_max_str_digits(int_digits)


def main_entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (e.g. `rvnorms formula ... | head -1`).
        # Point stdout at devnull so the interpreter's final flush cannot
        # fail again and print to stderr.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
