"""Exact rank: the sparse elimination against dense Gaussian elimination."""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from wreathfock.linalg import matrix_rank


def dense_rank(rows):
    """Dense Gaussian elimination over Q with full row reduction: the
    reference for the sparse `matrix_rank`.  Entries are made Fractions
    first, so an integer matrix is reduced exactly too."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0),
                     None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


# mostly zeros, as the coproduct matrices are
entries = st.one_of(
    st.just(Fraction(0)), st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)))

# integer entries, some past 2**53, where float division loses digits
int_entries = st.one_of(
    st.just(0), st.just(0), st.integers(-3, 3),
    st.integers(2**53, 2**62), st.integers(-2**62, -2**53))


@st.composite
def matrices(draw, entries=entries):
    """A rows x cols matrix, or (half the time) a product of a rows x k and
    a k x cols matrix with k below both, so rank-deficient; rows or cols
    may be 0."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    if draw(st.booleans()):
        return [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    k = draw(st.integers(0, max(0, min(rows, cols) - 1)))
    left = [[draw(entries) for _ in range(k)] for _ in range(rows)]
    right = [[draw(entries) for _ in range(cols)] for _ in range(k)]
    return [[sum(left[i][t] * right[t][j] for t in range(k))
             for j in range(cols)] for i in range(rows)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(matrices(), matrices(int_entries)))
def test_sparse_rank_matches_dense(rows):
    before = [list(r) for r in rows]
    rank = dense_rank(rows)
    assert matrix_rank(rows) == rank
    assert rows == before
    # the same rows given as dicts from column to entry
    assert matrix_rank([dict(enumerate(r)) for r in rows]) == rank


def test_fixed_ranks():
    f = Fraction
    assert matrix_rank([]) == 0
    assert matrix_rank([[], []]) == 0
    assert matrix_rank([[f(0), f(0)], [f(0), f(0)]]) == 0
    assert matrix_rank([[f(1), f(2)], [f(2), f(4)]]) == 1
    assert matrix_rank([[f(0), f(1)], [f(1), f(0)], [f(1), f(1)]]) == 2
    # as floats these rows are equal
    assert matrix_rank([[1, 2**60], [1, 2**60 + 1]]) == 2
    assert matrix_rank([{0: 3, 5: 2**60}, {5: 1}, {0: 6}]) == 2
