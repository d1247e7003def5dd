from fractions import Fraction
from itertools import combinations, permutations
from operator import mul

from hypothesis import given, settings
from hypothesis import strategies as st

from kinterdict.linalg import _laplace_plan, cofactor_rows, solve_square_system

from conftest import cramer_solve


def prefix_minors(rows, width):
    """The k x k minors of each k-row prefix of the rows, one Laplace step
    (``cofactor_rows``) per row, as solve_square_system and the vertex walk
    of dual take them; minors over column subsets in the order of
    ``_laplace_plan(width, k)``."""
    minors = [1]
    out = []
    for k, row in enumerate(rows, 1):
        minors = [
            sum(map(mul, row, cofactors))
            for cofactors in cofactor_rows(_laplace_plan(width, k), minors, width)
        ]
        out.append(minors)
    return out


def minors_solve(A, b):
    """(det(A), Cramer numerators) of A x = b read from the minors of the
    rows (A_i..., b_i), as solve_square_system reads them; None when A is
    singular."""
    m = len(A)
    minors = ([1], *prefix_minors([[*row, b_i] for row, b_i in zip(A, b)], m + 1))[-1]
    if minors[m]:
        return minors[m], [(-1) ** (m - 1 - j) * minors[j] for j in range(m)]
    return None


def fraction_gauss_jordan(A, b):
    """Reference: Gauss-Jordan over Fractions, first nonzero pivot."""
    m = len(A)
    M = [[Fraction(v) for v in row] + [Fraction(b[i])] for i, row in enumerate(A)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if M[r][col] != 0), None)
        if pivot is None:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        pv = M[col][col]
        M[col] = [v / pv for v in M[col]]
        for r in range(m):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * c for a, c in zip(M[r], M[col])]
    return [M[i][m] for i in range(m)]


# Small entries make zero pivots and singular systems common; the wide range
# goes beyond 64 bits.
ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))


@st.composite
def square_systems(draw):
    m = draw(st.integers(1, 4))
    A = [[draw(ENTRIES) for _ in range(m)] for _ in range(m)]
    b = [draw(ENTRIES) for _ in range(m)]
    shape = draw(st.sampled_from(("any", "zero_pivot", "singular")))
    if shape == "zero_pivot":
        A[0][0] = 0
    elif shape == "singular" and m > 1:
        src, dst = draw(st.permutations(range(m)))[:2]
        k = draw(ENTRIES)
        A[dst] = [k * v for v in A[src]]
    return A, b


@settings(max_examples=600, deadline=None)
@given(square_systems())
def test_solve_square_system_matches_fraction_reference(system):
    A, b = system
    assert solve_square_system(A, b) == fraction_gauss_jordan(A, b)


def test_solve_square_system_swaps_rows_on_zero_pivot():
    assert solve_square_system([[0, 1], [1, 0]], [2, 3]) == [3, 2]
    # the first two pivots are zero only after the first elimination step
    A = [[1, 1, 0], [1, 1, 1], [0, 2, 1]]
    assert solve_square_system(A, [1, 2, 3]) == fraction_gauss_jordan(A, [1, 2, 3])


def test_solve_square_system_singular_and_empty():
    assert solve_square_system([[1, 2], [2, 4]], [1, 2]) is None
    assert solve_square_system([[0, 0], [0, 0]], [0, 0]) is None
    assert solve_square_system([[0]], [5]) is None
    assert solve_square_system([], []) == []


def test_solve_square_system_beyond_64_bits():
    big = 2**64 + 13
    A = [[big, 1, 0], [0, big, 1], [1, 0, big]]
    b = [big**2, 7, 2**100]
    sol = solve_square_system(A, b)
    assert sol == fraction_gauss_jordan(A, b)
    assert all(sum(a * x for a, x in zip(row, sol)) == r for row, r in zip(A, b))


def leibniz_det(A):
    """Reference determinant: the signed sum over all permutations."""
    total = 0
    for perm in permutations(range(len(A))):
        inversions = sum(
            1 for a in range(len(perm)) for b in range(a) if perm[b] > perm[a]
        )
        term = -1 if inversions % 2 else 1
        for row, col in enumerate(perm):
            term *= A[row][col]
        total += term
    return total


@settings(max_examples=300, deadline=None)
@given(square_systems())
def test_cramer_solve_gives_det_and_cramer_numerators(system):
    A, b = system
    det = leibniz_det(A)
    # the minors solve_square_system reads, and the elimination reference
    for solved in (minors_solve(A, b), cramer_solve(A, b)):
        if det == 0:
            assert solved is None
            continue
        # numerator i is det(A) with column i replaced by b
        replaced = [
            leibniz_det([row[:i] + [b[r]] + row[i + 1:] for r, row in enumerate(A)])
            for i in range(len(A))
        ]
        assert solved == (det, replaced)


def test_cramer_solve_negative_determinant():
    for solve in (minors_solve, cramer_solve):
        # one row swap: det = -1, and x = (3, 2) = (-3 / -1, -2 / -1)
        assert solve([[0, 1], [1, 0]], [2, 3]) == (-1, [-3, -2])
        A = [[2, 1], [7, 3]]  # det = 6 - 7 = -1 with no swap
        assert solve(A, [1, 2]) == (-1, [1, -3])
        assert solve([[0]], [5]) is None
        assert solve([], []) == (1, [])
    assert solve_square_system([[0, 1], [1, 0]], [2, 3]) == [3, 2]
    assert solve_square_system(A, [1, 2]) == [-1, 3]


@st.composite
def row_lists(draw):
    """m and up to 6 rows of width m + 1, optionally with a row that is a
    multiple of another (a dependent prefix), one that is the sum of two
    others (dependent only at the full subset) and an all-zero row."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(0, 6))
    rows = [[draw(ENTRIES) for _ in range(m + 1)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(n)))[:2]
        k = draw(ENTRIES)
        rows[dst] = [k * v for v in rows[src]]
    if n >= 3 and draw(st.booleans()):
        a, b, dst = draw(st.permutations(range(n)))[:3]
        rows[dst] = [u + v for u, v in zip(rows[a], rows[b])]
    if n >= 1 and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [0] * (m + 1)
    return rows, m


@settings(max_examples=300, deadline=None)
@given(row_lists())
def test_laplace_minors_match_leibniz_determinants(case):
    rows, m = case
    width = m + 1
    walked = prefix_minors(rows[:width], width)
    for k, minors in enumerate(walked, 1):
        chosen = rows[:k]
        # every k x k minor, column subsets in reverse lexicographic order
        assert minors == [
            leibniz_det([[row[c] for c in cols] for row in chosen])
            for cols in reversed(list(combinations(range(width), k)))
        ]
        # a prefix whose minors all vanish has dependent rows, and so has
        # every prefix that extends it
        if not any(minors):
            assert not any(walked[-1])
    # the minors of m rows are det(A) and the signed Cramer numerators of
    # A x = b, and solve_square_system solves that system from them
    if len(rows) >= m:
        A = [row[:m] for row in rows[:m]]
        b = [row[m] for row in rows[:m]]
        minors = walked[m - 1]
        numerators = [(-1) ** (m - 1 - j) * minors[j] for j in range(m)]
        expected = None if minors[m] == 0 else (minors[m], numerators)
        assert cramer_solve(A, b) == expected
        assert solve_square_system(A, b) == (
            None if expected is None else [Fraction(v, minors[m]) for v in numerators]
        )


def test_laplace_minors_small_cases():
    # rows 0 and 1 are dependent: their 2 x 2 minors vanish, those of
    # every third row added to them too, and the system is singular
    rows = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1], [1, 0, 0, 2]]
    walked = prefix_minors(rows[:3], 4)
    assert not any(walked[1]) and not any(walked[2])
    assert solve_square_system([r[:3] for r in rows[:3]], [r[3] for r in rows[:3]]) is None
    # without row 1 the system is regular
    A = [r[:3] for r in (rows[0], rows[2], rows[3])]
    b = [r[3] for r in (rows[0], rows[2], rows[3])]
    assert solve_square_system(A, b) == fraction_gauss_jordan(A, b)
    # one row: its 1 x 1 minors, columns (2,), (1,), (0,)
    assert prefix_minors([[1, 2, 3]], 3) == [[3, 2, 1]]
    assert prefix_minors([[0, 0]], 2) == [[0, 0]]
    assert prefix_minors([[3, 5]], 2) == [[5, 3]]
    assert solve_square_system([[3]], [5]) == [Fraction(5, 3)]
    assert prefix_minors([], 1) == []
