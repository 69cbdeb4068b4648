"""Matrix norms induced by random vectors.

A family of norms on n-by-n complex matrices, one for each iid random
vector with enough moments and each even degree d: on Hermitian matrices
the d-th power of the norm is a cumulant-weighted symmetric polynomial in
the eigenvalues, and the same partition sum over trace words extends it to
all square matrices.  The package evaluates these norms by one Bell
recurrence on trace powers, on three routes (Hermitian, series, constant
term; the series route's exponential is the same recurrence, and on float
input only its rounding differs), plus a trace-word sum kept as an
independent oracle, emits their symbolic trace-polynomial form,
implements the positive-definite CHS combinations H_{d,alpha}, and
verifies everything against a seeded Monte Carlo oracle.
"""

from .cumulants import (
    CumulantVector,
    DistributionSpec,
    bernoulli_number,
    cumulants_to_moments,
    distribution_cumulants,
    distribution_moments,
    moments_to_cumulants,
    parse_distribution,
)
from .errors import MomentExistenceError, NonHermitianError, ParseError, PreconditionError
from .matrixcore import (
    Matrix,
    hermitian_eigenvalues,
    is_hermitian,
    is_majorized,
    load_matrix,
    matrix_from_json,
)
from .normengine import (
    TracePolynomial,
    circle_extension_check,
    general_norm_pow,
    general_norm_pow_stack,
    hermitian_norm_pow,
    hermitian_norm_pow_stack,
    norm,
    series_norm_pow,
    series_norm_pow_stack,
    symbolic_formula,
    word_sum_norm_pow,
    word_sum_norm_pow_stack,
)
from .oracle import (
    McEstimate,
    khintchine_bounds,
    khintchine_check,
    khintchine_constant,
    mc_norm,
    mc_norm_pow,
    sample,
)
from .partitions import Partition, enumerate_partitions, hunter_coefficient, y_of
from .sympoly import (
    chs,
    hunter_poly,
    hunter_poly_recursive,
)

__version__ = "0.1.0"

__all__ = [
    "CumulantVector",
    "DistributionSpec",
    "Matrix",
    "McEstimate",
    "MomentExistenceError",
    "NonHermitianError",
    "ParseError",
    "Partition",
    "PreconditionError",
    "TracePolynomial",
    "bernoulli_number",
    "chs",
    "circle_extension_check",
    "cumulants_to_moments",
    "distribution_cumulants",
    "distribution_moments",
    "enumerate_partitions",
    "general_norm_pow",
    "general_norm_pow_stack",
    "hermitian_eigenvalues",
    "hermitian_norm_pow",
    "hermitian_norm_pow_stack",
    "hunter_coefficient",
    "hunter_poly",
    "hunter_poly_recursive",
    "is_hermitian",
    "is_majorized",
    "khintchine_bounds",
    "khintchine_check",
    "khintchine_constant",
    "load_matrix",
    "matrix_from_json",
    "mc_norm",
    "mc_norm_pow",
    "moments_to_cumulants",
    "norm",
    "parse_distribution",
    "sample",
    "series_norm_pow",
    "series_norm_pow_stack",
    "symbolic_formula",
    "word_sum_norm_pow",
    "word_sum_norm_pow_stack",
    "y_of",
]
