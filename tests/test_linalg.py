from fractions import Fraction

import pytest

from starcayley import linalg


@pytest.mark.parametrize(
    "matrix,expected",
    [
        pytest.param([[2, 1], [1, 2]], True, id="definite"),
        pytest.param([[Fraction(1, 2)]], True, id="one-by-one"),
        pytest.param([[2, 0], [0, -2]], False, id="negative-pivot"),
        pytest.param([[1, 2], [2, 1]], False, id="positive-diagonal-indefinite"),
        pytest.param([[1, 1], [1, 1]], False, id="zero-second-pivot"),
        pytest.param([[0, 0], [0, 1]], False, id="zero-first-pivot"),
        pytest.param([[4, 2, 2], [2, 5, 3], [2, 3, 6]], True, id="three-by-three"),
        pytest.param([[4, 2, 2], [2, 1, 3], [2, 3, 6]], False, id="zero-pivot-mid"),
    ],
)
def test_positive_definite_from_pivots(matrix, expected):
    assert linalg.positive_definite(matrix) is expected
    # Sylvester's criterion on the leading minors, as an independent oracle
    minors = [_det([row[: k + 1] for row in matrix[: k + 1]]) for k in range(len(matrix))]
    assert all(d > 0 for d in minors) is expected


def _det(m):
    """Cofactor expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )
