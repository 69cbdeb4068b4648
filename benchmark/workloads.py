"""The four benchmark workloads: seeded inputs, one operation list each, and
the check applied to every output.

An operation is one ``rvnorms`` command line.  All operations of a
workload share one subcommand and degree; only seeded entries,
distribution parameters and seeds vary between them.  ``build`` writes the
input files and returns one pass; the harness runs whole passes.  Checks
compare against :mod:`reference`, never against saved output.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import reference


@dataclass
class Op:
    """One command line plus what its check needs."""

    argv: list
    data: dict = field(default_factory=dict)
    ref: object = None  # reference value, computed at the first check


def _fmt(v) -> str:
    if isinstance(v, tuple):
        return "|".join(_fmt(x) for x in v)
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


@dataclass(frozen=True)
class Dist:
    """A distribution with exact parameters, in the order the CLI names them."""

    family: str
    params: tuple  # ((name, value), ...)

    def cli(self) -> str:
        if not self.params:
            return self.family
        return self.family + ":" + ",".join(f"{k}={_fmt(v)}" for k, v in self.params)

    def kappas(self, d: int) -> list:
        return reference.cumulants(self.family, dict(self.params), d)


def _frac(rng, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(int(rng.integers(lo, hi + 1)), int(rng.integers(1, den + 1)))


# Families whose cumulants are all nonzero for generic parameters, so every
# partition of d contributes and every operation does the same work.
GENERIC_FAMILIES = ("gamma", "exponential", "poisson", "bernoulli", "finite_discrete", "pareto")


def generic_dist(family: str, rng, d: int) -> Dist:
    """Seeded parameters for ``family``, redrawn until kappa_1..kappa_d != 0."""
    while True:
        if family == "gamma":
            params = (("alpha", _frac(rng, 1, 9, 4)), ("beta", _frac(rng, 1, 4, 4)))
        elif family == "exponential":
            params = (("beta", _frac(rng, 1, 4, 4)),)
        elif family == "poisson":
            params = (("alpha", _frac(rng, 1, 9, 4)),)
        elif family == "bernoulli":
            m = int(rng.integers(3, 10))
            params = (("q", Fraction(int(rng.integers(1, m)), m)),)
        elif family == "finite_discrete":
            atoms = tuple(Fraction(int(a)) for a in rng.choice(np.arange(-3, 4), 3, replace=False))
            weights = [int(w) for w in rng.integers(1, 6, size=3)]
            probs = tuple(Fraction(w, sum(weights)) for w in weights)
            params = (("atoms", atoms), ("probs", probs))
        elif family == "pareto":
            params = (("alpha", d + _frac(rng, 1, 12, 3)),)
        else:
            raise ValueError(f"no generic parameters for {family!r}")
        dist = Dist(family, params)
        if all(k != 0 for k in dist.kappas(d)):
            return dist


def _write_matrix(path: Path, re, im=None) -> str:
    doc = {"n": len(re), "re": re}
    if im is not None:
        doc["im"] = im
    path.write_text(json.dumps(doc))
    return str(path)


def _is_reduced_pair(v) -> bool:
    return (
        isinstance(v, list)
        and len(v) == 2
        and all(isinstance(x, int) and not isinstance(x, bool) for x in v)
        and v[1] > 0
        and math.gcd(v[0], v[1]) == 1
    )


def _close(value: float, ref: float, rtol: float = 1e-9) -> bool:
    return reference.relative_error(value, ref) <= rtol


class Workload:
    name = ""
    cold = False  # empty the program's caches before every operation
    samples = 0  # Monte Carlo samples per operation, for samples_per_s
    calibration = ("python",)  # hostspeed kernels that match the work

    def build(self, seed: int, workdir: Path) -> list:
        raise NotImplementedError

    def check(self, op: Op, out: dict) -> str | None:
        """None when the parsed output is right, else what is wrong."""
        raise NotImplementedError

    def recheck(self, ops: list, stdouts: list, call) -> list:
        """Checks that rerun commands; returns one message per wrong operation."""
        return []


class NormGeneral(Workload):
    """``norm --json`` at d=8 on non-Hermitian matrices: complex float 8x8
    and real exact 3x3 with ``p/q`` entries, which cost about the same."""

    name = "norm-general"
    degree = 8
    float_n = 8
    exact_n = 3

    def build(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        ops = []
        for i, family in enumerate(GENERIC_FAMILIES * 2):
            dist = generic_dist(family, rng, self.degree)
            if i % 2 == 0:
                n = self.float_n
                Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                path = _write_matrix(workdir / f"z{i}.json", Z.real.tolist(), Z.imag.tolist())
            else:
                n = self.exact_n
                while True:
                    num = rng.integers(-9, 10, size=(n, n))
                    den = rng.integers(1, 10, size=(n, n))
                    if num.any() and not (num * den.T == num.T * den).all():
                        break  # nonzero and not symmetric
                re = [[f"{num[r, c]}/{den[r, c]}" for c in range(n)] for r in range(n)]
                Z = num / den
                path = _write_matrix(workdir / f"z{i}.json", re)
            argv = ["norm", path, dist.cli(), "-d", str(self.degree), "--json"]
            ops.append(Op(argv, {"Z": Z, "dist": dist, "exact": i % 2 == 1}))
        return ops

    def check(self, op, out):
        d = self.degree
        if op.ref is None:
            op.ref = reference.general_value(op.data["Z"], op.data["dist"].kappas(d), d)
        if out.get("hermitian") is not False or out.get("method") != "partition(words)":
            return f"expected the trace-word route, got {out.get('method')!r}"
        pw = out.get("norm_pow")
        if op.data["exact"]:
            if not _is_reduced_pair(pw):
                return f"exact input gave norm_pow {pw!r}, not a reduced [p, q] pair"
            value = float(Fraction(pw[0], pw[1]))
        elif isinstance(pw, float):
            value = pw
        else:
            return f"float input gave norm_pow {pw!r}"
        if not _close(value, op.ref):
            return f"norm_pow {value!r} vs reference {op.ref!r}"
        if not _close(out.get("norm", math.nan), op.ref ** (1.0 / d)):
            return f"norm {out.get('norm')!r} vs reference {op.ref ** (1.0 / d)!r}"
        return None


class VerifySuites(Workload):
    """``verify --suite S --trials k --seed s --json`` over all five suites,
    trial counts set so that every operation costs about the same."""

    name = "verify-suites"
    trials = {"axioms": 1, "paths": 1, "schur": 4, "hunter": 11, "khintchine": 15}
    # Checks recorded per trial, from the suites' default grids:
    # axioms 10 families x 2 degrees x 6 checks; paths 9 MGF families x 3
    # degrees x 2 route comparisons; schur 10 x 2 x 1; hunter 3 degrees x 4
    # alphas x 2; khintchine 3 values of p x 2 kinds, plus 2 at p=2.
    checks_per_trial = {"axioms": 120, "paths": 54, "schur": 20, "hunter": 24, "khintchine": 8}

    def build(self, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        ops = []
        for _ in range(2):
            for suite, k in self.trials.items():
                s = int(rng.integers(0, 2**31))
                argv = ["verify", "--suite", suite, "--trials", str(k), "--seed", str(s), "--json"]
                ops.append(Op(argv, {"suite": suite, "trials": k}))
        return ops

    def check(self, op, out):
        suite, k = op.data["suite"], op.data["trials"]
        want = k * self.checks_per_trial[suite]
        if out.get("suite") != suite or out.get("trials") != k:
            return f"report is for {out.get('suite')!r} x {out.get('trials')!r}"
        if out.get("failures"):
            return f"suite {suite} FAIL: {out['failures'][:2]}"
        if out.get("checks") != want:
            return f"suite {suite} ran {out.get('checks')!r} checks, {k} trials imply {want}"
        return None


class FormulaCold(Workload):
    """``formula DIST -d 10 --json`` in general mode, each operation with the
    program's caches emptied first, as a fresh CLI process has them."""

    name = "formula-cold"
    cold = True
    degree = 10
    eval_n = 3

    def build(self, seed, workdir):
        rng = np.random.default_rng([seed, 3])
        ops = []
        for family in GENERIC_FAMILIES:
            dist = generic_dist(family, rng, self.degree)
            n = self.eval_n
            Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            argv = ["formula", dist.cli(), "-d", str(self.degree), "--json"]
            ops.append(Op(argv, {"dist": dist, "Z": Z}))
        return ops

    def check(self, op, out):
        d = self.degree
        if op.ref is None:
            op.ref = reference.general_value(op.data["Z"], op.data["dist"].kappas(d), d)
        if out.get("degree") != d or out.get("mode") != "general":
            return f"formula header {out.get('degree')!r}/{out.get('mode')!r}"
        terms = out.get("terms") or []
        for term in terms:
            if not _is_reduced_pair(term.get("coeff")) or term["coeff"][0] == 0:
                return f"coefficient {term.get('coeff')!r} is not a reduced nonzero pair"
            if sum(len(w) for w in term.get("factors", ())) != d:
                return f"term {term!r} does not have degree {d}"
        value = reference.formula_value(terms, op.data["Z"])
        if abs(value.imag) > 1e-9 * max(1.0, abs(value)) or not _close(value.real, op.ref):
            return f"formula at the seeded matrix gives {value!r}, reference {op.ref!r}"
        return None


class OracleMc(Workload):
    """``oracle --json`` on Hermitian float 8x8 matrices at d=6 with 2^18
    samples of a seeded normal law and one sampling thread; outputs are
    rerun with two threads (at most nproc) after the timed passes and must
    be identical.  One family only: the samplers of the others cost from
    0.7 (rademacher) to 1.4 (laplace, depending on its parameters) times
    as much, which would make the tail a matter of the seed."""

    name = "oracle-mc"
    degree = 6
    n = 8
    samples = 1 << 18
    calibration = ("python", "numpy")

    def build(self, seed, workdir):
        rng = np.random.default_rng([seed, 4])
        ops = []
        for i in range(6):
            params = (("mu", _frac(rng, -3, 3, 3)), ("sigma", _frac(rng, 1, 4, 3)))
            dist = Dist("normal", params)
            g = rng.normal(size=(self.n, self.n)) + 1j * rng.normal(size=(self.n, self.n))
            A = (g + g.conj().T) / 2.0
            path = _write_matrix(workdir / f"a{i}.json", A.real.tolist(), A.imag.tolist())
            s = int(rng.integers(0, 2**31))
            argv = [
                "oracle", path, dist.cli(), "-d", str(self.degree),
                "--samples", str(self.samples), "--seed", str(s), "--threads", "1", "--json",
            ]
            ops.append(Op(argv, {"A": A, "dist": dist, "seed": s}))
        return ops

    def check(self, op, out):
        d = self.degree
        if op.ref is None:
            op.ref = reference.hermitian_value(op.data["A"], op.data["dist"].kappas(d), d) ** (1.0 / d)
        if out.get("samples") != self.samples or out.get("seed") != op.data["seed"]:
            return f"echoed samples/seed {out.get('samples')!r}/{out.get('seed')!r}"
        value, stderr = out.get("value"), out.get("stderr")
        if not isinstance(value, float) or not isinstance(stderr, float) or not stderr > 0:
            return f"estimate {value!r} +/- {stderr!r}"
        if abs(value - op.ref) > 5.0 * stderr:
            return f"estimate {value!r} +/- {stderr!r} is over 5 stderr from {op.ref!r}"
        return None

    def recheck(self, ops, stdouts, call):
        threads = str(min(2, os.cpu_count() or 1))
        bad = []
        for op, stdout in zip(ops, stdouts):
            argv = op.argv[:-2] + [threads, "--json"]
            rc, other = call(argv)
            if rc != 0 or other != stdout:
                bad.append(f"{' '.join(op.argv[1:3])}: --threads {threads} output differs")
        return bad


WORKLOADS = {w.name: w for w in (NormGeneral(), VerifySuites(), FormulaCold(), OracleMc())}
