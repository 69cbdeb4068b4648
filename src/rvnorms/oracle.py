"""Monte Carlo oracle: seeded samplers for the distribution catalog and
estimation of E|<X, lambda>|^d / d!.

Random streams are counter-based Philox generators.  A run is split into
blocks of 2^16 samples (``BLOCK_SAMPLES``); block b draws from the generator
keyed by the seed with its counter advanced to block b's private range, so
blocks are independent of each other and of how much any sampler consumes.
Each block is drawn in chunks of at most 2^15 variates (``CHUNK_ENTRIES``),
so the memory of a sampling worker does not grow with n.  A block's powers
are scaled by the power of two that puts the largest in [1/2, 1), so that
their squares cannot overflow, and the block sums are combined in block
order at a common power of two.  That makes every estimate bit-identical
for a fixed (seed, samples) pair regardless of the worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import factorial

import numpy as np

from .cumulants import DistributionSpec
from .errors import NonHermitianError, PreconditionError
from .matrixcore import (
    Matrix,
    hermitian_eigenvalues,
    is_hermitian,
    scale_exponent,
)
from .normengine import general_norm_pow_stack

BLOCK_SAMPLES = 1 << 16

# Most variates a block draws at once (256 kB of floats, as
# words.TRACE_BLOCK): CHUNK_ENTRIES // n rows of n entries, at least one.
# A generator fills arrays in order, so the chunks are the block's
# variates exactly.  Each chunk is projected onto lambda by einsum, whose
# dot product has one order per row whatever the number of rows, and not
# by a BLAS matrix-vector product, which groups rows by its kernel and
# thread split.  So the estimate does not depend on the chunk size, the
# BLAS library or its thread count.
CHUNK_ENTRIES = 1 << 15

# Largest degree the estimate takes: it divides by d!, which leaves the
# float range from d=171.
ORACLE_MAX_DEGREE = 170


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its standard error."""

    value: float
    stderr: float
    samples: int
    seed: int

    def within(self, target: float) -> bool:
        """True iff the estimate lies within 4 standard errors of ``target``."""
        return abs(self.value - target) <= 4.0 * self.stderr


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


def _chunk_rows(n: int) -> int:
    """Rows of n variates in one chunk (see CHUNK_ENTRIES)."""
    return max(1, CHUNK_ENTRIES // n)


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

    Accepts any integer d from 2 to ORACLE_MAX_DEGREE (odd included),
    checked before any sample is drawn.  Deterministic for a fixed (seed,
    samples); the worker count, min(threads, blocks, CPUs), never changes
    the result.  Each block returns the exponent k of its largest power
    with the sums of its powers and their squares scaled by 2^-k, and the
    blocks are added at the largest k: scaling by a power of two is exact,
    so the estimate is the one the unscaled sums give wherever those and
    the estimate are normal floats (a subnormal estimate may differ by one
    step of the subnormal grid), and the squares cannot overflow where the
    powers do not.  The estimate is inf where the powers overflow.
    """
    if not isinstance(d, int) or not 2 <= d <= ORACLE_MAX_DEGREE:
        raise PreconditionError(f"d must be an integer from 2 to {ORACLE_MAX_DEGREE}, got {d!r}")
    spec.require_moments(d)
    if samples < 10**4:
        raise PreconditionError(f"at least 10^4 samples required, got {samples}")
    check_seed(seed)
    lam = np.array([float(v) for v in lambdas], dtype=np.float64)
    if lam.size == 0:
        raise PreconditionError("lambdas must be nonempty")
    n = lam.size
    rows = _chunk_rows(n)

    def run_block(args):
        block, count = args
        rng = block_stream(seed, block)
        y = np.empty(count)
        for lo in range(0, count, rows):
            hi = min(lo + rows, count)
            np.einsum("ij,j->i", sample_block(spec, rng, (hi - lo, n)), lam, out=y[lo:hi])
        # a power that leaves the float range is refused by mc_norm, silently here
        with np.errstate(over="ignore", under="ignore"):
            np.abs(y, out=y)
            y **= d
            # 2**-k itself is no float when the largest power is below 2**-1022
            k = math.frexp(y.max())[1]
            np.ldexp(y, -k, out=y)
            return k, float(np.sum(y)), float(np.sum(y * y))

    ranges = _block_ranges(samples)
    workers = min(threads, len(ranges), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_block, ranges))
    else:
        results = [run_block(r) for r in ranges]

    # block order, deterministic reduction, at the scale 2**-top of the
    # largest block (a block of zeros has no scale)
    top = max((k for k, a, _ in results if a), default=0)
    s1 = 0.0
    s2 = 0.0
    for k, a, b in results:
        s1 += math.ldexp(a, k - top)
        s2 += math.ldexp(b, 2 * (k - top))
    mean = s1 / samples
    var = (s2 - samples * mean * mean) / (samples - 1)
    # nan where the powers overflowed (inf - inf), kept as nan
    stderr = math.nan if math.isnan(var) else math.sqrt(max(0.0, var) / samples)
    # d! = f 2**g: dividing by f and scaling by 2**(top - g) rounds once, as
    # dividing the unscaled sums by d! would; neither leaves the float range
    # unless the powers did (the mean is below the largest, and d! >= 2)
    f, g = math.frexp(factorial(d))
    return McEstimate(math.ldexp(mean / f, top - g), math.ldexp(stderr / f, top - g), samples, seed)


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

    The matrix is scaled as the analytic float routes scale it: multiplied
    by the power of two 2^-e that puts its largest entry in [1/2, 1)
    (:func:`~rvnorms.matrixcore.scale_exponent`), which is exact.  The
    largest eigenvalue magnitude is then below n, so the sampled powers
    |<X, lambda>|^d do not leave the float range at any scale.  The root is
    taken before 2^e is multiplied back in by ``ldexp``.  An estimate that
    is not a value is refused, as :func:`~rvnorms.normengine.norm_from_power`
    refuses a float norm power: a non-finite mean or standard error (the
    sampled powers overflowed), or a mean of 0.0 for a nonzero matrix (they
    underflowed).  The zero matrix's estimate is 0.0 +/- 0.0.
    """
    if not is_hermitian(A):
        raise NonHermitianError(
            "the sampling oracle handles Hermitian matrices only; "
            "general Z is covered analytically by the circle-average check"
        )
    e = scale_exponent(A)
    lams = hermitian_eigenvalues(Matrix(A.to_numpy() * 2.0**-e))
    est = mc_norm_pow(lams, spec, d, samples, seed, threads=threads)
    if est.value == 0.0 and not A.array.any():
        return McEstimate(0.0, 0.0, samples, seed)
    if not (0.0 < est.value < math.inf and math.isfinite(est.stderr)):
        raise PreconditionError(
            f"Monte Carlo estimate {est.value!r} +/- {est.stderr!r} of the norm power "
            "is not a value: the sampled powers left the float range"
        )
    value = est.value ** (1.0 / d)
    # scaled by 2**-k, exactly, so that stderr * value cannot leave the
    # float range before the division brings it back
    k = math.frexp(est.value)[1]
    stderr = math.ldexp(est.stderr, -k) * value / (d * math.ldexp(est.value, -k))
    return McEstimate(math.ldexp(value, e), math.ldexp(stderr, e), samples, seed)


# -- Khintchine bounds -------------------------------------------------------


def khintchine_constant(p: int) -> float:
    """Optimal upper constant a_p for Rademacher sums: a_2 = 1, and for p > 2
    the p-th moment of a standard normal, sqrt(2) pi^(-1/(2p)) Gamma((p+1)/2)^(1/p)."""
    if p < 2:
        raise PreconditionError("p must be >= 2")
    if p == 2:
        return 1.0
    return math.sqrt(2.0) * math.pi ** (-1.0 / (2 * p)) * math.gamma((p + 1) / 2) ** (1.0 / p)


def khintchine_bounds(Z, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lower, middle, upper) = (||Z||_F, Gamma(p+1)^{1/p} * norm, a_p ||Z||_F)
    for Rademacher entries, as arrays over a stack (N, n, n) of float
    matrices; the chain lower <= middle <= upper is enforced on every one,
    and the first that breaks it raises ArithmeticError.

    The stack takes the constant-term route in one call, which gives each
    matrix that equals its adjoint its Hermitian value.
    Even p only: the analytic paths do not cover odd p (the norm itself is
    still defined there, via the sampling oracle).
    """
    if not isinstance(p, int) or p < 2 or p % 2:
        raise PreconditionError(f"khintchine check needs even integer p >= 2, got {p!r}")
    spec = DistributionSpec.rademacher()
    Z = np.asarray(Z, dtype=complex)
    lower = np.linalg.norm(Z, axis=(1, 2))
    middle = (factorial(p) * general_norm_pow_stack(Z, spec, p)) ** (1.0 / p)
    upper = khintchine_constant(p) * lower
    tol = 1e-9 * np.maximum(1.0, upper)
    broken = ~((lower <= middle + tol) & (middle <= upper + tol))
    if broken.any():
        i = int(np.argmax(broken))
        raise ArithmeticError(
            f"Khintchine chain violated: {float(lower[i])!r} <= {float(middle[i])!r} "
            f"<= {float(upper[i])!r} failed"
        )
    return lower, middle, upper


def khintchine_check(A: Matrix, p: int) -> tuple[float, float, float]:
    """:func:`khintchine_bounds` for one matrix, as three floats."""
    return tuple(float(v[0]) for v in khintchine_bounds(A.to_numpy()[None], p))
