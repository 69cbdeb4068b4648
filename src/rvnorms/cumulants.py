"""Moments and cumulants for the distribution catalog.

Closed-form cumulants are used where they exist (gamma, exponential,
normal, uniform, laplace, poisson); the remaining families (bernoulli,
finite_discrete, rademacher, pareto) are represented moments-first and
their cumulants come out of the binomial recursion

    mu_r = sum_{l=0}^{r-1} C(r-1, l) * mu_l * kappa_{r-l},   mu_0 = 1.

Parameters given as int or Fraction propagate exact rationals through
every formula; float parameters degrade to ordinary floating point.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, isfinite, lcm, prod

from .errors import MomentExistenceError, ParseError, PreconditionError
from .scalars import is_exact

FAMILIES = (
    "gamma",
    "exponential",
    "normal",
    "uniform",
    "laplace",
    "bernoulli",
    "finite_discrete",
    "rademacher",
    "poisson",
    "pareto",
)


@lru_cache(maxsize=None)
def bernoulli_number(r: int) -> Fraction:
    """The r-th Bernoulli number (B_1 = -1/2 convention), exact.

    Computed by the convolution recurrence
    ``sum_{k=0}^{m} C(m+1, k) B_k = 0``; only small ``r`` is ever needed.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0:
        return Fraction(1)
    if r > 1 and r % 2 == 1:
        return Fraction(0)
    acc = sum(comb(r + 1, k) * bernoulli_number(k) for k in range(r))
    return Fraction(-1, r + 1) * acc


def _is_number(v) -> bool:
    return isinstance(v, (int, float, Fraction))


def _positive(name, v):
    if not _is_number(v) or v <= 0:
        raise PreconditionError(f"{name} must be a positive real, got {v!r}")
    return v


def _real(name, v):
    if not _is_number(v):
        raise PreconditionError(f"{name} must be a real number, got {v!r}")
    return v


class DistributionSpec:
    """A named distribution with validated parameters.

    Build through the per-family constructors (``DistributionSpec.gamma(2, 1)``)
    or :func:`parse_distribution` for the CLI string form
    ``family:key=value,key=value``.
    """

    __slots__ = ("family", "params")

    def __init__(self, family: str, params: dict):
        if family not in FAMILIES:
            raise PreconditionError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
        self.family = family
        self.params = params

    # -- constructors -------------------------------------------------

    @classmethod
    def gamma(cls, alpha, beta):
        return cls("gamma", {"alpha": _positive("alpha", alpha), "beta": _positive("beta", beta)})

    @classmethod
    def exponential(cls, beta=1):
        return cls("exponential", {"beta": _positive("beta", beta)})

    @classmethod
    def normal(cls, mu, sigma):
        return cls("normal", {"mu": _real("mu", mu), "sigma": _positive("sigma", sigma)})

    @classmethod
    def uniform(cls, a, b):
        _real("a", a)
        _real("b", b)
        if not a < b:
            raise PreconditionError(f"uniform requires a < b, got a={a!r}, b={b!r}")
        return cls("uniform", {"a": a, "b": b})

    @classmethod
    def laplace(cls, mu, beta):
        return cls("laplace", {"mu": _real("mu", mu), "beta": _positive("beta", beta)})

    @classmethod
    def bernoulli(cls, q):
        _real("q", q)
        if not 0 < q < 1:
            raise PreconditionError(f"bernoulli requires 0 < q < 1, got {q!r}")
        return cls("bernoulli", {"q": q})

    @classmethod
    def finite_discrete(cls, atoms, probs):
        sizes = "finite_discrete needs >= 2 atoms with matching probabilities"
        try:
            atoms, probs = tuple(atoms), tuple(probs)
        except TypeError:  # a single number
            raise TypeError(sizes) from None
        if len(atoms) != len(probs) or len(atoms) < 2:
            raise PreconditionError(sizes)
        if len(set(atoms)) != len(atoms):
            raise PreconditionError("finite_discrete atoms must be distinct (nondegeneracy)")
        for a in atoms:
            _real("atom", a)
        for q in probs:
            if not _is_number(q) or q <= 0:
                raise PreconditionError(f"probabilities must be positive, got {q!r}")
        total = sum(probs)
        if all(isinstance(q, (int, Fraction)) for q in probs):
            if total != 1:
                raise PreconditionError(f"probabilities must sum to 1 exactly, got {total!r}")
        elif abs(float(total) - 1.0) > 1e-12:
            raise PreconditionError(f"probabilities must sum to 1, got {float(total)!r}")
        return cls("finite_discrete", {"atoms": atoms, "probs": probs})

    @classmethod
    def rademacher(cls):
        return cls("rademacher", {})

    @classmethod
    def poisson(cls, alpha):
        return cls("poisson", {"alpha": _positive("alpha", alpha)})

    @classmethod
    def pareto(cls, alpha):
        return cls("pareto", {"alpha": _positive("alpha", alpha)})

    # -- behavior ------------------------------------------------------

    @property
    def has_mgf(self) -> bool:
        return self.family != "pareto"

    def require_moments(self, d: int) -> None:
        """Fail if the d-th moment does not exist (pareto needs d < alpha)."""
        if self.family == "pareto" and d >= self.params["alpha"]:
            raise MomentExistenceError(
                f"pareto(alpha={self.params['alpha']}) has moments only below alpha; "
                f"degree {d} requested"
            )

    def label(self) -> str:
        if not self.params:
            return self.family
        inner = ",".join(f"{k}={_fmt_param(v)}" for k, v in self.params.items())
        return f"{self.family}:{inner}"

    def __repr__(self) -> str:
        return f"DistributionSpec({self.label()!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, DistributionSpec):
            return NotImplemented
        return self.family == other.family and self.params == other.params


def _fmt_param(v) -> str:
    if isinstance(v, tuple):
        return "|".join(_fmt_param(x) for x in v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
    return repr(v) if isinstance(v, float) else str(v)


_CONSTRUCTORS = {
    "gamma": (DistributionSpec.gamma, ("alpha", "beta")),
    "exponential": (DistributionSpec.exponential, ("beta",)),
    "normal": (DistributionSpec.normal, ("mu", "sigma")),
    "uniform": (DistributionSpec.uniform, ("a", "b")),
    "laplace": (DistributionSpec.laplace, ("mu", "beta")),
    "bernoulli": (DistributionSpec.bernoulli, ("q",)),
    "finite_discrete": (DistributionSpec.finite_discrete, ("atoms", "probs")),
    "rademacher": (DistributionSpec.rademacher, ()),
    "poisson": (DistributionSpec.poisson, ("alpha",)),
    "pareto": (DistributionSpec.pareto, ("alpha",)),
}


def parse_scalar(text: str):
    """Parse one number: ``p/q`` as an exact Fraction, then int, then float.

    A float that parses to inf or nan (``inf``, ``nan``, ``1e400``) is a
    ParseError: no law parameter or evaluation point can take it.
    """
    text = text.strip()
    if "/" in text:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {text!r}: {exc}") from None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"cannot parse number {text!r}") from None
    if not isfinite(value):
        raise ParseError(f"number {text!r} is not finite")
    return value


def parse_distribution(text: str) -> DistributionSpec:
    """Parse ``family:key=value,key=value``.

    Values may be integers, ``p/q`` rationals (kept exact), or floats.
    List-valued keys (finite_discrete atoms/probs) separate entries with
    ``|``, e.g. ``finite_discrete:atoms=-1|1,probs=1/2|1/2``.  An unknown
    or missing parameter, or a value the family's constructor refuses with
    a TypeError (one atom), is a ParseError.
    """
    text = text.strip()
    family, _, rest = text.partition(":")
    family = family.strip()
    if family not in _CONSTRUCTORS:
        raise ParseError(f"unknown distribution family {family!r}")
    ctor, keys = _CONSTRUCTORS[family]
    kwargs = {}
    if rest.strip():
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or not key:
                raise ParseError(f"expected key=value, got {item!r}")
            if key not in keys:
                raise ParseError(f"{family} does not take parameter {key!r} (takes {keys})")
            if "|" in value:
                kwargs[key] = tuple(parse_scalar(v) for v in value.split("|"))
            else:
                kwargs[key] = parse_scalar(value)
    try:
        return ctor(**kwargs)
    except TypeError as exc:
        params = inspect.signature(ctor).parameters.values()
        if any(p.default is p.empty and p.name not in kwargs for p in params):
            raise ParseError(f"{family} requires parameters {keys}, got {sorted(kwargs)}") from None
        raise ParseError(str(exc)) from None


@dataclass(frozen=True)
class CumulantVector:
    """Cumulants kappa_1..kappa_d, exact rationals when the source admits them.

    Nondegenerate distributions always produce kappa_2 > 0; vectors built
    from raw moment sequences are not checked, that is the caller's job.
    """

    kappas: tuple

    @property
    def degree(self) -> int:
        return len(self.kappas)

    def kappa(self, r: int):
        if not 1 <= r <= self.degree:
            raise PreconditionError(f"kappa_{r} not available, degree is {self.degree}")
        return self.kappas[r - 1]

    @cached_property
    def normalized(self) -> tuple:
        """The floats kappa_k / k! for k = 1..d, each formed exactly and
        rounded once: the cumulant factors of the float Bell recurrence.
        Formed once per vector, and so once per law and degree for the
        vectors of :func:`distribution_cumulants`.  A float cumulant that
        is inf or nan, or an exact one whose factor is past the float range,
        raises PreconditionError naming it."""
        out = []
        for k, kappa in enumerate(self.kappas, 1):
            try:
                out.append(float(Fraction(kappa) / factorial(k)))
            except (OverflowError, ValueError):  # inf, nan, or too large for a float
                if isinstance(kappa, float):
                    what = f"the float cumulant kappa_{k} is {kappa!r}"
                else:
                    what = f"the cumulant factor kappa_{k} / {k}! is past the float range"
                raise PreconditionError(f"{what}: its cumulants overflow") from None
        return tuple(out)


def moments_to_cumulants(mu) -> CumulantVector:
    """Invert the binomial recursion: moments mu_1..mu_d to kappa_1..kappa_d.

    Exact moments with a Fraction among them run the recursion in ints
    (:func:`_scaled_cumulants`); all-int and float moments run it as given.
    """
    mu = list(mu)
    if all(is_exact(m) for m in mu) and any(isinstance(m, Fraction) for m in mu):
        return CumulantVector(_scaled_cumulants(mu))
    kappas: list = []
    for r in range(1, len(mu) + 1):
        acc = mu[r - 1]
        for ell in range(1, r):
            acc = acc - comb(r - 1, ell) * mu[ell - 1] * kappas[r - ell - 1]
        kappas.append(acc)
    return CumulantVector(tuple(kappas))


def _scaled_cumulants(mu: list) -> tuple:
    """The cumulants of exact moments ``mu`` with a Fraction among them, by
    the recursion of :func:`moments_to_cumulants` in ints: with L the lcm
    of the moments' denominators, K_r = kappa_r L^r follows the same
    recursion from the ints M_r = mu_r L^r, and kappa_r = K_r / L^r is
    formed once.  It is an int below the first Fraction moment and a
    Fraction from there on, as the Fraction recursion gives it."""
    L = lcm(*(m.denominator for m in mu))
    first = next(r for r, m in enumerate(mu, 1) if isinstance(m, Fraction))
    M: list[int] = []
    K: list[int] = []
    kappas: list = []
    power = 1  # L^r
    for r, m in enumerate(mu, 1):
        power *= L
        M.append(m.numerator * (power // m.denominator))
        acc = M[-1]
        for ell in range(1, r):
            acc -= comb(r - 1, ell) * M[ell - 1] * K[r - ell - 1]
        K.append(acc)
        kappas.append(acc // power if r < first else Fraction(acc, power))
    return tuple(kappas)


def cumulants_to_moments(k: CumulantVector) -> list:
    """Run the binomial recursion forward: kappa_1..kappa_d to mu_1..mu_d."""
    mu: list = []
    for r in range(1, k.degree + 1):
        acc = k.kappas[r - 1]  # ell = 0 term, mu_0 = 1
        for ell in range(1, r):
            acc = acc + comb(r - 1, ell) * mu[ell - 1] * k.kappas[r - ell - 1]
        mu.append(acc)
    return mu


def _chs_two(k: int, a, b):
    """h_k(a, b) = sum_{j=0}^k a^j b^(k-j), used by the uniform moments."""
    return sum(a**j * b ** (k - j) for j in range(k + 1))


def distribution_moments(spec: DistributionSpec, d: int) -> list:
    """Raw moments mu_1..mu_d in closed form."""
    if d < 1:
        raise PreconditionError("d must be >= 1")
    spec.require_moments(d)
    p = spec.params
    fam = spec.family
    if fam == "gamma":
        a, b = p["alpha"], p["beta"]
        return [b**k * prod(a + j for j in range(k)) for k in range(1, d + 1)]
    if fam == "exponential":
        b = p["beta"]
        return [b**k * factorial(k) for k in range(1, d + 1)]
    if fam == "uniform":
        return [Fraction(1, k + 1) * _chs_two(k, p["a"], p["b"]) for k in range(1, d + 1)]
    if fam == "bernoulli":
        return [p["q"]] * d
    if fam == "finite_discrete":
        atoms, probs = p["atoms"], p["probs"]
        return [sum(a**k * q for a, q in zip(atoms, probs)) for k in range(1, d + 1)]
    if fam == "rademacher":
        return [1 - k % 2 for k in range(1, d + 1)]
    if fam == "pareto":
        a = p["alpha"]
        if isinstance(a, (int, Fraction)):
            return [Fraction(a) / (a - k) for k in range(1, d + 1)]
        return [a / (a - k) for k in range(1, d + 1)]
    # normal, laplace, poisson: cleanest through their cumulants
    return cumulants_to_moments(distribution_cumulants(spec, d))


def _types(v):
    return tuple(type(x) for x in v) if isinstance(v, tuple) else type(v)


def _law_key(spec: DistributionSpec, d: int) -> tuple:
    """(family, params, d), the cache key of a law and degree, once the law
    is known to have moments up to d.  It carries the type of every
    parameter next to its value: 1, 1.0 and Fraction(1) compare and hash
    equal, and a float law must not get the exact cumulants of its
    rational twin."""
    if d < 1:
        raise PreconditionError("d must be >= 1")
    spec.require_moments(d)
    return spec.family, tuple((k, v, _types(v)) for k, v in spec.params.items()), d


def distribution_cumulants(spec: DistributionSpec, d: int) -> CumulantVector:
    """Cumulants kappa_1..kappa_d for the named distribution, computed once
    per law and degree.  A float parameter whose power up to d (Python's
    float ``**``, here or in :func:`distribution_moments`) is past the float
    range raises PreconditionError naming the law."""
    key = _law_key(spec, d)
    try:
        return _cumulants(*key)
    except OverflowError:
        raise PreconditionError(
            f"{spec.label()}: a float moment or cumulant up to degree {d} is past "
            "the float range: its cumulants overflow"
        ) from None


@lru_cache(maxsize=256)
def _cumulants(fam: str, params: tuple, d: int) -> CumulantVector:
    spec = DistributionSpec(fam, {k: v for k, v, _ in params})
    p = spec.params
    if fam == "gamma":
        a, b = p["alpha"], p["beta"]
        return CumulantVector(tuple(a * b**r * factorial(r - 1) for r in range(1, d + 1)))
    if fam == "exponential":
        b = p["beta"]
        return CumulantVector(tuple(b**r * factorial(r - 1) for r in range(1, d + 1)))
    if fam == "normal":
        mu, sigma = p["mu"], p["sigma"]
        ks = [mu, sigma * sigma] + [0] * (d - 2)
        return CumulantVector(tuple(ks[:d]))
    if fam == "uniform":
        a, b = p["a"], p["b"]
        width = b - a
        ks: list = []
        for r in range(1, d + 1):
            if r == 1:
                ks.append(_half(a + b))
            elif r % 2 == 0:
                ks.append(bernoulli_number(r) * width**r / r)
            else:
                ks.append(0)
        return CumulantVector(tuple(ks))
    if fam == "laplace":
        mu, beta = p["mu"], p["beta"]
        ks = [mu]
        for r in range(2, d + 1):
            ks.append(2 * beta**r * factorial(r - 1) if r % 2 == 0 else 0)
        return CumulantVector(tuple(ks))
    if fam == "poisson":
        return CumulantVector((p["alpha"],) * d)
    # moments-first families
    return moments_to_cumulants(distribution_moments(spec, d))


def _half(v):
    if isinstance(v, (int, Fraction)):
        return Fraction(v, 2) if isinstance(v, int) else v / 2
    return v / 2
