"""Monte Carlo oracle: seeded samplers for the distribution catalog and
estimation of E|<X, lambda>|^d / d!.

Random streams are counter-based Philox generators.  A run is split into
fixed-size blocks of samples; block b draws from the generator keyed by the
seed with its counter advanced to block b's private range, so blocks are
independent of each other and of how much any sampler consumes.  Block
results are combined in block order, which makes every estimate bit-identical
for a fixed (seed, samples) pair regardless of the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import factorial

import numpy as np

from .cumulants import DistributionSpec
from .errors import NonHermitianError, PreconditionError
from .matrixcore import Matrix, frobenius_norm, hermitian_eigenvalues, is_hermitian
from .normengine import general_norm_pow, hermitian_norm_pow

BLOCK_SAMPLES = 1 << 16


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its standard error."""

    value: float
    stderr: float
    samples: int
    seed: int

    def within(self, target: float, sigmas: float = 4.0) -> bool:
        return abs(self.value - target) <= sigmas * self.stderr


def check_seed(seed: int) -> int:
    if not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise PreconditionError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return seed


def block_stream(seed: int, block: int = 0) -> np.random.Generator:
    """The deterministic substream for one block: Philox keyed by the seed,
    counter advanced to the block's disjoint range."""
    check_seed(seed)
    return np.random.Generator(np.random.Philox(key=seed, counter=block << 128))


def sample_block(spec: DistributionSpec, rng: np.random.Generator, size) -> np.ndarray:
    """Draw an array of variates from the named law."""
    p = spec.params
    fam = spec.family
    if fam == "gamma":
        return rng.gamma(shape=float(p["alpha"]), scale=float(p["beta"]), size=size)
    if fam == "exponential":
        return rng.exponential(scale=float(p["beta"]), size=size)
    if fam == "normal":
        return rng.normal(loc=float(p["mu"]), scale=float(p["sigma"]), size=size)
    if fam == "uniform":
        return rng.uniform(low=float(p["a"]), high=float(p["b"]), size=size)
    if fam == "laplace":
        return rng.laplace(loc=float(p["mu"]), scale=float(p["beta"]), size=size)
    if fam == "bernoulli":
        return (rng.random(size) < float(p["q"])).astype(np.float64)
    if fam == "finite_discrete":
        atoms = np.array([float(a) for a in p["atoms"]])
        cum = np.cumsum([float(q) for q in p["probs"]])
        cum[-1] = 1.0
        idx = np.searchsorted(cum, rng.random(size), side="right")
        return atoms[idx]
    if fam == "rademacher":
        return rng.integers(0, 2, size=size).astype(np.float64) * 2.0 - 1.0
    if fam == "poisson":
        return rng.poisson(lam=float(p["alpha"]), size=size).astype(np.float64)
    if fam == "pareto":
        # Inversion: X = U^(-1/alpha) with U uniform on (0, 1].
        u = 1.0 - rng.random(size)
        return u ** (-1.0 / float(p["alpha"]))
    raise PreconditionError(f"no sampler for family {fam!r}")


def sample(spec: DistributionSpec, stream: np.random.Generator) -> float:
    """One variate from the named law."""
    return float(sample_block(spec, stream, 1)[0])


def _block_ranges(samples: int):
    out = []
    start = 0
    b = 0
    while start < samples:
        stop = min(start + BLOCK_SAMPLES, samples)
        out.append((b, stop - start))
        start = stop
        b += 1
    return out


def mc_norm_pow(
    lambdas,
    spec: DistributionSpec,
    d: int,
    samples: int,
    seed: int,
    threads: int = 1,
) -> McEstimate:
    """Estimate E|sum_i lambda_i X_i|^d / d! with a sample standard error.

    Accepts any integer d >= 2 (odd included).  Deterministic for a fixed
    (seed, samples); the worker count never changes the result.
    """
    if not isinstance(d, int) or d < 2:
        raise PreconditionError(f"d must be an integer >= 2, got {d!r}")
    spec.require_moments(d)
    if samples < 10**4:
        raise PreconditionError(f"at least 10^4 samples required, got {samples}")
    check_seed(seed)
    lam = np.array([float(v) for v in lambdas], dtype=np.float64)
    if lam.size == 0:
        raise PreconditionError("lambdas must be nonempty")
    n = lam.size

    def run_block(args):
        block, count = args
        rng = block_stream(seed, block)
        draws = sample_block(spec, rng, (count, n))
        y = np.abs(draws @ lam) ** d
        return float(np.sum(y)), float(np.sum(y * y))

    ranges = _block_ranges(samples)
    if threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_block, ranges))
    else:
        results = [run_block(r) for r in ranges]

    s1 = 0.0
    s2 = 0.0
    for a, b in results:  # block order, deterministic reduction
        s1 += a
        s2 += b
    mean = s1 / samples
    var = max(0.0, (s2 - samples * mean * mean) / (samples - 1))
    stderr = math.sqrt(var / samples)
    scale = factorial(d)
    return McEstimate(mean / scale, stderr / scale, samples, seed)


def mc_norm(
    A: Matrix,
    spec: DistributionSpec,
    d: int,
    samples: int,
    seed: int,
    threads: int = 1,
) -> McEstimate:
    """Estimate the norm itself for Hermitian A: eigenvalues by LAPACK's
    ``eigvalsh`` (see :func:`hermitian_eigenvalues`), then the d-th root of
    :func:`mc_norm_pow` with first-order error propagation.

    The matrix is divided by the power of two ``s`` at or just below its
    largest entry (at least the smallest normal power of two), which is
    exact; the largest eigenvalue magnitude is then in [1, 2n), so the
    sampled powers |<X, lambda>|^d do not leave the float range at any
    scale.  The root is taken before multiplying ``s`` back.
    """
    if not is_hermitian(A):
        raise NonHermitianError(
            "the sampling oracle handles Hermitian matrices only; "
            "general Z is covered analytically by the circle-average check"
        )
    exponent = max(math.frexp(A.max_abs())[1] - 1, -1022)
    lams = hermitian_eigenvalues(A * math.ldexp(1.0, -exponent))
    scale = math.ldexp(1.0, exponent)
    est = mc_norm_pow(lams, spec, d, samples, seed, threads=threads)
    if est.value <= 0.0:
        return McEstimate(0.0, 0.0, samples, seed)
    value = est.value ** (1.0 / d)
    stderr = est.stderr * value / (d * est.value)
    return McEstimate(scale * value, scale * stderr, samples, seed)


# -- Khintchine bounds -------------------------------------------------------


def khintchine_constant(p: int) -> float:
    """Optimal upper constant a_p for Rademacher sums: a_2 = 1, and for p > 2
    the p-th moment of a standard normal, sqrt(2) pi^(-1/(2p)) Gamma((p+1)/2)^(1/p)."""
    if p < 2:
        raise PreconditionError("p must be >= 2")
    if p == 2:
        return 1.0
    return math.sqrt(2.0) * math.pi ** (-1.0 / (2 * p)) * math.gamma((p + 1) / 2) ** (1.0 / p)


def khintchine_check(A: Matrix, p: int) -> tuple[float, float, float]:
    """(lower, middle, upper) = (||A||_F, Gamma(p+1)^{1/p} * norm, a_p ||A||_F)
    for Rademacher entries; the chain lower <= middle <= upper is enforced.

    Even p only: the analytic paths do not cover odd p (the norm itself is
    still defined there, via the sampling oracle).
    """
    if not isinstance(p, int) or p < 2 or p % 2:
        raise PreconditionError(f"khintchine check needs even integer p >= 2, got {p!r}")
    spec = DistributionSpec.rademacher()
    lower = frobenius_norm(A)
    if is_hermitian(A):
        pw = float(hermitian_norm_pow(A, spec, p))
    else:
        pw = float(general_norm_pow(A, spec, p))
    middle = (factorial(p) * pw) ** (1.0 / p)
    upper = khintchine_constant(p) * lower
    tol = 1e-9 * max(1.0, upper)
    if not (lower <= middle + tol and middle <= upper + tol):
        raise ArithmeticError(
            f"Khintchine chain violated: {lower!r} <= {middle!r} <= {upper!r} failed"
        )
    return lower, middle, upper
