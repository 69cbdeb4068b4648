import json
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from rvnorms import cli, matrixcore
from rvnorms.errors import NonHermitianError, ParseError
from rvnorms.matrixcore import (
    Matrix,
    hermitian_eigenvalues,
    is_hermitian,
    is_majorized,
    load_matrix,
    matrix_from_json,
)
from rvnorms.suites import stream

from oracles import (
    frobenius_norm,
    matrix_to_json,
    random_hermitian,
    random_unitary,
    trace_powers,
    zeros,
)

I = 1j


def test_is_hermitian_fixtures():
    assert is_hermitian(Matrix.identity(3))
    assert not is_hermitian(Matrix([[0, I], [0, 0]]))
    assert is_hermitian(Matrix([[1, 2 + I], [2 - I, 3]]))
    assert not is_hermitian(Matrix([[1, 2 + I], [2 + I, 3]]))


def test_is_hermitian_exact_matrices_compared_exactly():
    # 1e-14 is far below the float tolerance, but an exact matrix with it
    # off the diagonal is not Hermitian.
    tiny = Fraction(1, 10**14)
    assert not is_hermitian(Matrix([[1, tiny], [0, 1]]))
    assert is_hermitian(Matrix([[1, tiny], [tiny, 1]]))
    # float matrices are compared within 1e-12 of their largest entry
    assert is_hermitian(Matrix([[1.0, 1e-14], [0.0, 1.0]]))
    assert not is_hermitian(Matrix([[1.0, 1e-11], [0.0, 1.0]]))


def test_matrix_validation():
    with pytest.raises(ValueError):
        Matrix([[1, 2]])
    with pytest.raises(ValueError):
        Matrix([[float("nan")]])
    with pytest.raises(ValueError):
        Matrix([[complex(float("inf"), 0)]])
    with pytest.raises(ValueError):
        Matrix([])


def test_trace_powers_fixtures():
    assert trace_powers(Matrix.diagonal([1, 2]), 3) == [3, 5, 9]
    assert trace_powers(zeros(3), 4) == [0, 0, 0, 0]
    assert trace_powers(Matrix([[0, 1], [1, 0]]), 4) == [0, 2, 0, 2]


def test_trace_powers_exact_fractions():
    A = Matrix.diagonal([Fraction(1, 3), Fraction(1, 2)])
    tp = trace_powers(A, 3)
    assert tp == [Fraction(5, 6), Fraction(13, 36), Fraction(35, 216)]
    assert all(isinstance(v, Fraction) for v in tp)


def test_trace_powers_similarity_invariance():
    rng = stream(11)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        A = random_hermitian(rng, n)
        U = random_unitary(rng, n)
        B = U @ A @ U.adjoint()
        ta = trace_powers(A, 5)
        tb = trace_powers(B, 5)
        for a, b in zip(ta, tb):
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_unitary_really_unitary():
    rng = stream(12)
    U = random_unitary(rng, 4)
    P = U @ U.adjoint()
    E = P - Matrix.identity(4)
    assert E.max_abs() < 1e-12


def test_eigenvalues_sorted_diag():
    assert hermitian_eigenvalues(Matrix.diagonal([3, 1, 2])) == [3.0, 2.0, 1.0]


def test_eigenvalues_pauli_x():
    lams = hermitian_eigenvalues(Matrix([[0, 1], [1, 0]]))
    assert lams == pytest.approx([1.0, -1.0], abs=1e-12)


def test_eigenvalues_complex_2x2():
    lams = hermitian_eigenvalues(Matrix([[2, 1 + I], [1 - I, 3]]))
    assert lams == pytest.approx([4.0, 1.0], abs=1e-10)


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(NonHermitianError):
        hermitian_eigenvalues(Matrix([[0, 1], [0, 0]]))


def test_eigenvalue_trace_consistency():
    rng = stream(13)
    for _ in range(12):
        n = int(rng.integers(2, 9))
        A = random_hermitian(rng, n)
        lams = hermitian_eigenvalues(A)
        assert sorted(lams, reverse=True) == lams
        assert abs(sum(lams) - trace_powers(A, 1)[0].real) <= 1e-10 * max(
            1.0, abs(sum(lams))
        )
        tp = trace_powers(A, 8)
        for k in range(1, 9):
            pk = sum(v**k for v in lams)
            assert abs(pk - tp[k - 1].real) <= 1e-9 * max(1.0, abs(pk))


def test_eigenvalues_zero_matrix():
    assert hermitian_eigenvalues(zeros(3)) == [0.0, 0.0, 0.0]


def test_majorization_fixtures():
    assert is_majorized([1, 1], [2, 0])
    assert not is_majorized([2, 0], [1, 1])
    assert is_majorized([1, 1, 1], [3, 0, 0])


def test_majorization_reflexive_and_exact():
    assert is_majorized([Fraction(1, 3), Fraction(2, 3)], [Fraction(2, 3), Fraction(1, 3)])
    assert not is_majorized([Fraction(1, 3), Fraction(2, 3)], [Fraction(2, 3), Fraction(1, 2)])


def test_majorization_transitive_on_chains():
    rnd = random.Random(5)
    for _ in range(50):
        n = rnd.randint(2, 6)
        z = [Fraction(rnd.randint(-9, 9)) for _ in range(n)]
        # Robin Hood transfers produce a descending chain z > y > x.
        def transfer(v):
            w = list(v)
            i, j = rnd.sample(range(n), 2)
            if w[i] == w[j]:
                return w
            if w[i] < w[j]:
                i, j = j, i
            t = (w[i] - w[j]) * Fraction(rnd.randint(1, 4), 8)
            w[i] -= t
            w[j] += t
            return w

        y = transfer(z)
        x = transfer(y)
        assert is_majorized(y, z) and is_majorized(x, y)
        assert is_majorized(x, z)


def test_majorization_length_mismatch():
    with pytest.raises(ValueError):
        is_majorized([1], [1, 0])


def test_majorization_requires_equal_totals():
    assert not is_majorized([1, 0], [2, 0])


def test_frobenius_norm():
    assert frobenius_norm(Matrix([[3, 0], [0, 4]])) == 5.0
    assert frobenius_norm(Matrix([[0, 1 + I], [0, 0]])) == pytest.approx(math.sqrt(2))


def test_json_round_trip(tmp_path):
    Z = Matrix([[1, 2 + I], [2 - I, Fraction(1, 3)]])
    doc = matrix_to_json(Z)
    back = matrix_from_json(doc)
    assert back.n == 2
    assert back[0, 1] == 2 + I
    assert back[1, 1] == Fraction(1, 3)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert load_matrix(path) == back


def test_json_rejects_bad_documents():
    with pytest.raises(ParseError):
        matrix_from_json({"n": 2, "re": [[1, 2]]})
    with pytest.raises(ParseError):
        matrix_from_json({"n": 2, "re": [[1, 2], [3, 4]], "im": [[0, 0]]})
    with pytest.raises(ParseError):
        matrix_from_json({"n": 0, "re": []})
    with pytest.raises(ParseError):
        matrix_from_json({"re": [[1]]})
    with pytest.raises(ParseError):
        matrix_from_json({"n": 1, "re": [[float("inf")]]})
    with pytest.raises(ParseError):
        matrix_from_json({"n": 1, "re": [["x/y"]]})
    with pytest.raises(ParseError):
        matrix_from_json([1, 2])


def test_load_matrix_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ParseError):
        load_matrix(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_matrix(bad)


def _per_entry(monkeypatch, doc):
    """matrix_from_json(doc) with the all-float one-pass read switched off."""
    with monkeypatch.context() as m:
        m.setattr(matrixcore, "_complex_array", lambda re, im: None)
        return matrix_from_json(doc)


def _float_doc(rng, n, with_im):
    special = [0.0, -0.0, 1.0, -3.0, 5e-324, -1e-310, 2.0**-1022, 1e308, -1e308]

    def entry():
        if rng.random() < 0.4:
            return special[rng.integers(len(special))]
        return float(rng.normal() * 10.0 ** rng.integers(-300, 300))

    doc = {"n": n, "re": [[entry() for _ in range(n)] for _ in range(n)]}
    if with_im:
        doc["im"] = [[entry() for _ in range(n)] for _ in range(n)]
    return doc


def test_all_float_documents_read_in_one_pass_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(20)
    for trial in range(64):
        doc = _float_doc(rng, trial % 8 + 1, with_im=trial % 4 != 0)
        fast, slow = matrix_from_json(doc).array, _per_entry(monkeypatch, doc).array
        assert fast.dtype == slow.dtype == complex
        for part in (np.real, np.imag):
            assert np.array_equal(part(fast), part(slow))
            assert np.array_equal(np.signbit(part(fast)), np.signbit(part(slow)))
    M = matrix_from_json({"n": 2, "re": [[-0.0, 1.0], [2.0, 3.0]], "im": [[-0.0, 0.0], [-1.5, -0.0]]})
    assert np.signbit(M.array.real).tolist() == [[True, False], [False, False]]
    assert np.signbit(M.array.imag).tolist() == [[False, False], [True, False]]


@pytest.mark.parametrize(
    "re, im, bad",
    [
        ([[1.0, float("nan")], [0.0, 1.0]], None, "nan"),
        ([[1.0, 0.0], [0.0, float("inf")]], [[0.0, float("-inf")], [0.0, 1.0]], "-inf"),
        ([[1.0, float("-inf")], [0.0, 1.0]], [[0.0, float("nan")], [0.0, 1.0]], "-inf"),
        ([[1.0, 2.0], [float("nan"), 1.0]], [[0.0, float("inf")], [0.0, 1.0]], "inf"),
    ],
    ids=["re-nan", "im-before-later-re", "re-before-im", "row-order"],
)
def test_non_finite_float_entries_name_the_first_in_row_order(tmp_path, capsys, re, im, bad):
    doc = {"n": 2, "re": re} | ({"im": im} if im is not None else {})
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))  # writes NaN, Infinity, -Infinity
    with pytest.raises(ParseError, match=f"^non-finite matrix entry {bad}$"):
        load_matrix(path)
    assert cli.main(["norm", str(path), "exponential", "-d", "2"]) == 2
    assert capsys.readouterr() == ("", f"error: non-finite matrix entry {bad}\n")


@pytest.mark.parametrize(
    "doc, kinds",
    [
        ({"n": 2, "re": [[1, 0], [0, -2]]}, {int}),
        ({"n": 2, "re": [["1/2", 3], [0, "-2/3"]], "im": [[0, 0], [0, 0]]}, {int, Fraction}),
        ({"n": 2, "re": [[1.5, 2], [0.5, 1.0]]}, {int, complex}),
        ({"n": 2, "re": [[1.5, "1/3"], [0.5, 1.0]]}, {Fraction, complex}),
        ({"n": 2, "re": [[1.5, 2.0], [0.5, 1.0]], "im": [[0, 1], [-1, 0]]}, {complex}),
        ({"n": 2, "re": [[1, 2], [3, 4]], "im": [[0.0, 0.5], [-0.5, 0.0]]}, {int, complex}),
    ],
    ids=["ints", "rationals", "float-and-int", "float-and-rational", "int-im", "float-im"],
)
def test_other_documents_keep_the_per_entry_read(monkeypatch, doc, kinds):
    M = matrix_from_json(doc)
    assert {type(M[i, j]) for i in range(2) for j in range(2)} == kinds
    assert M.is_exact() == (kinds <= {int, Fraction})
    assert M.array.dtype == _per_entry(monkeypatch, doc).array.dtype
    assert M == _per_entry(monkeypatch, doc)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"n": 2, "re": [[1.0, True], [0.0, 1.0]]}, "bad matrix entry True"),
        ({"n": 1, "re": [[1.0]], "im": [[False]]}, "bad matrix entry False"),
        ({"n": 2, "re": [[1.0, "1/0"], [0.0, 1.0]]}, "bad rational matrix entry '1/0'"),
        ({"n": 2, "re": [[1.0, None], [0.0, 1.0]]}, "bad matrix entry None"),
        ({"n": 2, "re": [[1.0, 2.0], [0.0, 1.0]], "im": [[0.0, [1.0]], [0.0, 0.0]]}, "bad matrix entry [1.0]"),
        ({"n": 2, "re": ["ab", "cd"]}, "bad rational matrix entry 'a'"),
    ],
)
def test_other_documents_keep_their_errors(doc, message):
    with pytest.raises(ParseError) as exc:
        matrix_from_json(doc)
    assert str(exc.value) == message


def test_int_entries_stay_exact_through_json():
    doc = {"n": 2, "re": [[1, 0], [0, 1]]}
    M = matrix_from_json(doc)
    assert isinstance(M[0, 0], int)


def test_jacobi_matches_numpy_eigh():
    # U diag(lam) U* with U unitary has the spectrum lam by construction.
    rng = stream(14)
    for _ in range(8):
        n = int(rng.integers(2, 9))
        lam = rng.uniform(-3.0, 3.0, size=n)
        U = random_unitary(rng, n).to_numpy()
        A = Matrix(U @ np.diag(lam) @ U.conj().T)
        assert hermitian_eigenvalues(A) == pytest.approx(sorted(lam, reverse=True), abs=1e-9)


def test_eigenvalues_at_float_limit():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hermitian_eigenvalues(Matrix.diagonal([1e308, 1e308])) == [1e308, 1e308]


@pytest.mark.parametrize(
    "rows, kinds",
    [
        ([[1, Fraction(1, 2)], [3, 10**40]], (int, Fraction)),
        ([[1, 0.5], [Fraction(1, 3), 2 + I]], (int, Fraction, complex)),
        ([[1.0, 0.5], [0.25, 2 + I]], (complex,)),
        (np.array([[1.0, 0.5], [0.25, 2.0]]), (complex,)),
    ],
    ids=["exact", "mixed", "float", "ndarray"],
)
def test_entries_and_traces_are_python_scalars(rows, kinds):
    Z = Matrix(rows)
    entries = [Z[i, j] for i in range(2) for j in range(2)]
    assert all(type(v) in kinds for v in entries)
    assert type(Z.trace()) in kinds
    assert type((Z @ Z.adjoint()).trace()) in kinds
    assert Z.is_exact() == (kinds == (int, Fraction))


def test_exact_entries_do_not_overflow():
    big = 10**40
    Z = Matrix([[big, 1], [Fraction(1, 3), 2]])
    assert (Z @ Z)[0, 0] == big * big + Fraction(1, 3)
    assert trace_powers(Z, 3)[2] == sum(
        Z[i, j] * Z[j, k] * Z[k, i] for i in range(2) for j in range(2) for k in range(2)
    )


@pytest.mark.parametrize(
    "rows",
    [
        [["x"]],
        [[1, float("nan")], [0, 1]],
        [[Fraction(1, 2), complex(0, float("inf"))], [0, 1]],
        np.array([[np.nan]]),
        np.array([["1"]]),
    ],
)
def test_matrix_rejects_bad_entries(rows):
    with pytest.raises(ValueError):
        Matrix(rows)
