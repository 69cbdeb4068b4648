import random
from fractions import Fraction
from math import factorial

import pytest

from rvnorms.cumulants import (
    CumulantVector,
    DistributionSpec,
    bernoulli_number,
    cumulants_to_moments,
    distribution_cumulants,
    distribution_moments,
    kappa_product,
    moments_to_cumulants,
    parse_distribution,
    parse_scalar,
)
from rvnorms.errors import MomentExistenceError, ParseError, PreconditionError
from rvnorms.partitions import Partition

ALL_SPECS = [
    DistributionSpec.gamma(2, Fraction(1, 2)),
    DistributionSpec.exponential(),
    DistributionSpec.normal(Fraction(1, 2), 1),
    DistributionSpec.uniform(-1, Fraction(3, 2)),
    DistributionSpec.laplace(Fraction(1, 3), 1),
    DistributionSpec.bernoulli(Fraction(1, 3)),
    DistributionSpec.finite_discrete((-1, Fraction(1, 2), 2), (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))),
    DistributionSpec.rademacher(),
    DistributionSpec.poisson(Fraction(3, 2)),
    DistributionSpec.pareto(Fraction(25, 2)),
]


def test_bernoulli_numbers():
    expected = [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 6),
        Fraction(0),
        Fraction(-1, 30),
        Fraction(0),
        Fraction(1, 42),
        Fraction(0),
        Fraction(-1, 30),
        Fraction(0),
        Fraction(5, 66),
    ]
    assert [bernoulli_number(r) for r in range(11)] == expected


def test_moments_to_cumulants_low_order():
    k = moments_to_cumulants([Fraction(3), Fraction(10)])
    assert k.kappas == (Fraction(3), Fraction(1))  # mu2 - mu1^2


def test_moments_to_cumulants_exponential():
    mu = [factorial(k) for k in range(1, 7)]
    k = moments_to_cumulants(mu)
    assert k.kappas == tuple(factorial(r - 1) for r in range(1, 7))


def test_moments_to_cumulants_standard_normal():
    k = moments_to_cumulants([0, 1, 0, 3])
    assert k.kappas == (0, 1, 0, 0)


def test_cumulants_to_moments_fixtures():
    assert cumulants_to_moments(CumulantVector((Fraction(5),))) == [Fraction(5)]
    k = CumulantVector(tuple(factorial(r - 1) for r in range(1, 5)))
    assert cumulants_to_moments(k) == [1, 2, 6, 24]
    assert cumulants_to_moments(CumulantVector((0, Fraction(4)))) == [0, Fraction(4)]


def test_round_trip_exact():
    rnd = random.Random(7)
    for _ in range(50):
        d = rnd.randint(1, 12)
        mu = [Fraction(rnd.randint(-20, 20), rnd.randint(1, 7)) for _ in range(d)]
        assert cumulants_to_moments(moments_to_cumulants(mu)) == mu


def test_round_trip_float():
    rnd = random.Random(8)
    for _ in range(50):
        d = rnd.randint(1, 12)
        mu = [rnd.uniform(-2, 2) for _ in range(d)]
        k = moments_to_cumulants(mu)
        back = cumulants_to_moments(k)
        # Relative to the recursion's own scale: intermediate cumulants grow
        # combinatorially with the length.
        scale = max(1.0, max(abs(v) for v in k.kappas))
        for a, b in zip(mu, back):
            assert abs(a - b) <= 1e-12 * scale


def test_gamma_cumulants_closed_form():
    spec = DistributionSpec.gamma(Fraction(3, 2), Fraction(2))
    k = distribution_cumulants(spec, 3)
    a, b = Fraction(3, 2), Fraction(2)
    assert k.kappas == (a * b, a * b**2, 2 * a * b**3)


def test_uniform_symmetric_cumulants():
    spec = DistributionSpec.uniform(-1, 1)
    k = distribution_cumulants(spec, 4)
    assert tuple(Fraction(v) for v in k.kappas) == (
        Fraction(0),
        Fraction(1, 3),
        Fraction(0),
        Fraction(-2, 15),
    )


def test_uniform_cumulants_match_moment_recursion():
    spec = DistributionSpec.uniform(-1, 1)
    # mu_k = h_k(-1,1)/(k+1): 0 for odd k, 1/(k+1) for even k
    mu = [Fraction(1, k + 1) if k % 2 == 0 else Fraction(0) for k in range(1, 9)]
    assert moments_to_cumulants(mu).kappas == tuple(
        Fraction(v) for v in distribution_cumulants(spec, 8).kappas
    )


def test_poisson_cumulants():
    spec = DistributionSpec.poisson(Fraction(5, 3))
    assert distribution_cumulants(spec, 5).kappas == (Fraction(5, 3),) * 5


def test_bernoulli_cumulants_first_four():
    q = Fraction(1, 4)
    spec = DistributionSpec.bernoulli(q)
    k = distribution_cumulants(spec, 4)
    assert k.kappas == (
        q,
        q - q**2,
        2 * q**3 - 3 * q**2 + q,
        -6 * q**4 + 12 * q**3 - 7 * q**2 + q,
    )


def test_laplace_cumulants():
    spec = DistributionSpec.laplace(Fraction(1), Fraction(1, 2))
    k = distribution_cumulants(spec, 6)
    b = Fraction(1, 2)
    assert k.kappas == (1, 2 * b**2, 0, 2 * b**4 * 6, 0, 2 * b**6 * 120)


@pytest.mark.parametrize("spec", [s for s in ALL_SPECS if s.has_mgf], ids=lambda s: s.family)
def test_closed_cumulants_match_moment_recursion(spec):
    d = 10
    mu = distribution_moments(spec, d)
    derived = moments_to_cumulants(mu)
    closed = distribution_cumulants(spec, d)
    for a, b in zip(derived.kappas, closed.kappas):
        if isinstance(a, Fraction) or isinstance(a, int):
            assert Fraction(a) == Fraction(b)
        else:
            assert abs(a - b) <= 1e-11 * max(1.0, abs(a))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_variance_positive(spec):
    k = distribution_cumulants(spec, 2)
    assert k.kappa(2) > 0


def test_uniform_symmetric_odd_cumulants_vanish():
    spec = DistributionSpec.uniform(-Fraction(5, 4), Fraction(5, 4))
    k = distribution_cumulants(spec, 9)
    for r in range(3, 10, 2):
        assert k.kappa(r) == 0


def test_kappa_product():
    k = CumulantVector(tuple(Fraction(r) for r in range(1, 5)))
    assert kappa_product(Partition((2, 2)), k) == 4
    assert kappa_product(Partition((1,)), k) == 1
    assert kappa_product(Partition((4, 4, 2, 1, 1, 1)), k) == Fraction(4) ** 2 * 2 * 1
    spec = DistributionSpec.gamma(1, 1)
    kg = distribution_cumulants(spec, 2)
    assert kappa_product(Partition((2, 2)), kg) == 1


def test_kappa_product_degree_check():
    k = CumulantVector((1, 2))
    with pytest.raises(PreconditionError):
        kappa_product(Partition((3,)), k)


def test_pareto_moment_existence():
    spec = DistributionSpec.pareto(3)
    with pytest.raises(MomentExistenceError):
        distribution_cumulants(spec, 4)
    with pytest.raises(MomentExistenceError):
        distribution_cumulants(spec, 3)  # k < alpha strictly
    assert distribution_moments(spec, 2) == [Fraction(3, 2), Fraction(3)]


def test_parse_distribution():
    spec = parse_distribution("gamma:alpha=1,beta=1")
    assert spec == DistributionSpec.gamma(1, 1)
    spec = parse_distribution("uniform:a=-1,b=1")
    assert spec == DistributionSpec.uniform(-1, 1)
    spec = parse_distribution("bernoulli:q=1/3")
    assert spec.params["q"] == Fraction(1, 3)
    spec = parse_distribution("rademacher")
    assert spec.family == "rademacher"
    spec = parse_distribution("finite_discrete:atoms=-1|1,probs=1/2|1/2")
    assert spec.params["atoms"] == (-1, 1)
    spec = parse_distribution("normal:mu=0.5,sigma=2")
    assert spec.params["mu"] == 0.5


def test_parse_distribution_errors():
    with pytest.raises(ParseError):
        parse_distribution("cauchy:x=1")
    with pytest.raises(ParseError):
        parse_distribution("gamma:alpha=1")  # missing beta
    with pytest.raises(ParseError):
        parse_distribution("gamma:alpha=1,gamma=2")
    with pytest.raises(ParseError):
        parse_distribution("gamma:alpha=abc,beta=1")


def test_spec_validation_errors():
    with pytest.raises(PreconditionError):
        DistributionSpec.gamma(0, 1)
    with pytest.raises(PreconditionError):
        DistributionSpec.uniform(1, 1)
    with pytest.raises(PreconditionError):
        DistributionSpec.bernoulli(1)
    with pytest.raises(PreconditionError):
        DistributionSpec.finite_discrete((1, 1), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(PreconditionError):
        DistributionSpec.finite_discrete((0, 1), (Fraction(1, 3), Fraction(1, 3)))


def test_parse_scalar_types():
    assert parse_scalar(" 3 ") == 3 and type(parse_scalar("3")) is int
    assert parse_scalar("-2/6") == Fraction(-1, 3)
    assert parse_scalar("0.5") == 0.5


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e400", "-1e400"])
def test_parse_scalar_rejects_non_finite(text):
    with pytest.raises(ParseError):
        parse_scalar(text)
    with pytest.raises(ParseError):
        parse_distribution(f"normal:mu={text},sigma=1")


def test_cumulant_cache_keeps_exact_and_float_laws_apart():
    # 1, 1.0 and Fraction(1) compare and hash equal; each law keeps its type.
    for sigma in (1, 1.0, Fraction(1), 1.0, 1):
        k = distribution_cumulants(DistributionSpec.normal(0, sigma), 4)
        assert type(k.kappas[1]) is type(sigma)
    for atoms in ((-1, 1), (-1.0, 1.0), (-1, 1)):
        spec = DistributionSpec.finite_discrete(atoms, (Fraction(1, 2), Fraction(1, 2)))
        k = distribution_cumulants(spec, 4)
        assert {type(v) for v in k.kappas} <= ({float} if isinstance(atoms[0], float) else {int, Fraction})
