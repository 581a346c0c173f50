import numpy as np
import pytest

from mvfuse.linalg import (
    GRAM_COND_LIMIT,
    NumericalError,
    gram_inverse,
    neg_part,
    pinv,
    pos_part,
    procrustes_max,
    svd,
)


def test_svd_identity():
    u, s, vt = svd(np.eye(4))
    assert np.allclose(s, np.ones(4))
    assert np.allclose(u @ np.diag(s) @ vt, np.eye(4))


def test_svd_diag_rectangular():
    a = np.zeros((2, 3))
    a[0, 0], a[1, 1] = 3.0, 2.0
    u, s, vt = svd(a)
    assert s.shape == (2,)
    assert np.allclose(s, [3.0, 2.0])
    assert np.allclose(u @ np.diag(s) @ vt, a)


@pytest.mark.parametrize("shape", [(5, 3), (3, 5), (7, 7), (20, 4)])
def test_svd_reconstruction_and_orthonormality(shape):
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.standard_normal(shape)
        u, s, vt = svd(a)
        rebuilt = (u * s) @ vt
        assert np.linalg.norm(rebuilt - a) <= 1e-8 * max(1.0, np.linalg.norm(a))
        m = min(shape)
        assert np.allclose(u.T @ u, np.eye(m), atol=1e-12)
        assert np.allclose(vt @ vt.T, np.eye(m), atol=1e-12)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)


def test_svd_rejects_bad_input():
    # LAPACK raises on NaN, but on an infinite entry of a 3 x 3 or larger
    # matrix it does not return, so svd must not hand such a matrix on
    for shape in [(2, 2), (3, 3), (3, 300)]:
        for value in (np.nan, np.inf, -np.inf):
            a = np.ones(shape)
            a[-1, 1] = value
            with pytest.raises(NumericalError, match="non-finite"):
                svd(a)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("solve", [pinv, procrustes_max], ids=["pinv", "procrustes_max"])
def test_svd_callers_raise_on_non_finite_input(solve, value):
    u = np.random.default_rng(3).standard_normal((12, 4))
    u[5, 2] = value
    with pytest.raises(NumericalError):
        solve(u)


def test_pinv_identity():
    assert np.allclose(pinv(np.eye(3)), np.eye(3), atol=1e-14)


def test_pinv_singular_diag():
    a = np.diag([2.0, 0.0])
    expect = np.diag([0.5, 0.0])
    assert np.allclose(pinv(a), expect, atol=1e-14)


@pytest.mark.parametrize("shape", [(5, 3), (3, 5), (6, 6)])
def test_pinv_penrose_conditions(shape):
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = rng.standard_normal(shape)
        p = pinv(a)
        tol = 1e-8
        assert np.linalg.norm(a @ p @ a - a) <= tol
        assert np.linalg.norm(p @ a @ p - p) <= tol
        assert np.linalg.norm((a @ p).T - a @ p) <= tol
        assert np.linalg.norm((p @ a).T - p @ a) <= tol


def test_pinv_rank_deficient_penrose():
    rng = np.random.default_rng(29)
    b = rng.standard_normal((6, 2))
    c = rng.standard_normal((2, 4))
    a = b @ c  # rank 2
    p = pinv(a)
    assert np.linalg.norm(a @ p @ a - a) <= 1e-8
    assert np.linalg.norm(p @ a @ p - p) <= 1e-8


def test_gram_inverse_gives_pinv_of_a_full_row_rank_matrix():
    rng = np.random.default_rng(47)
    for shape in [(1, 9), (4, 30), (12, 12)]:
        a = rng.uniform(0.0, 1.0, size=shape)
        inv = gram_inverse(a)
        assert np.allclose(inv, inv.T, rtol=0, atol=1e-12 * np.abs(inv).max())
        expect = pinv(a)
        assert np.linalg.norm(a.T @ inv - expect) <= 1e-12 * np.linalg.norm(expect)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gram_inverse_declines_singular_and_non_finite_grams():
    rng = np.random.default_rng(53)
    a = rng.uniform(0.1, 1.0, size=(4, 20))
    zero_row, repeated = a.copy(), a.copy()
    zero_row[2] = 0.0
    repeated[3] = repeated[1]
    for bad in (zero_row, repeated, np.zeros((4, 20)), np.ones((4, 20))):
        assert gram_inverse(bad) is None
    for value in (np.nan, np.inf, -np.inf):
        broken = a.copy()
        broken[1, 5] = value
        assert gram_inverse(broken) is None  # no LinAlgError from the eigensolver
    assert gram_inverse(np.full((2, 3), 1e200)) is None  # the Gram overflows


@pytest.mark.parametrize("margin, accepted", [(1.01, True), (0.99, False)])
def test_gram_inverse_condition_limit(margin, accepted):
    # rows with norms 1 and s over orthonormal directions: the Gram is
    # diag(1, s^2) up to rounding, with condition number 1 / s^2
    q, _ = np.linalg.qr(np.random.default_rng(59).standard_normal((30, 2)))
    s = np.sqrt(margin / GRAM_COND_LIMIT)
    a = np.diag([1.0, s]) @ q.T
    inv = gram_inverse(a)
    assert (inv is not None) == accepted
    if accepted:
        assert np.allclose(np.diag(inv), [1.0, 1.0 / s**2], rtol=1e-5)


def test_pos_neg_part_split():
    a = np.array([[1.0, -2.0, 1e308, -1e308, -0.0, 0.0]])
    with np.errstate(all="raise"):  # no overflow at the ends of the float range
        p, n = pos_part(a), neg_part(a)
    assert np.array_equal(p, [[1.0, 0.0, 1e308, 0.0, 0.0, 0.0]])
    assert np.array_equal(n, [[0.0, 2.0, 0.0, 1e308, 0.0, 0.0]])
    assert not np.signbit(p).any() and not np.signbit(n).any()  # no -0.0 from -0.0 or 0.0


def test_pos_neg_part_identities():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((8, 5)) * 10
    p, n = pos_part(a), neg_part(a)
    assert np.array_equal(p - n, a)          # exact split
    assert np.array_equal(p + n, np.abs(a))  # exact magnitude
    assert np.all(p >= 0) and np.all(n >= 0)
    z = np.zeros((3, 3))
    assert np.array_equal(pos_part(z), z) and np.array_equal(neg_part(z), z)
    b = np.abs(a)
    assert np.array_equal(pos_part(b), b)
    assert np.array_equal(neg_part(b), np.zeros_like(b))


def _random_row_orthonormal(rng, count, n, k):
    g = rng.standard_normal((count, n, k))
    q, _ = np.linalg.qr(g)
    return np.transpose(q, (0, 2, 1))  # count x k x n, each with orthonormal rows


def test_procrustes_identity():
    h, degenerate = procrustes_max(np.eye(3))
    assert np.allclose(h, np.eye(3), atol=1e-12)
    assert not degenerate


def test_procrustes_scaled_identity():
    h, degenerate = procrustes_max(5.0 * np.eye(3))
    assert np.allclose(h, np.eye(3), atol=1e-12)
    assert not degenerate


def test_procrustes_orthonormal_rows_and_trace_value():
    rng = np.random.default_rng(37)
    for _ in range(20):
        n, k = 12, 4
        u = rng.standard_normal((n, k))
        h, degenerate = procrustes_max(u)
        assert not degenerate
        assert np.linalg.norm(h @ h.T - np.eye(k)) <= 1e-10
        s = np.linalg.svd(u, compute_uv=False)
        assert abs(np.trace(h @ u) - s.sum()) <= 1e-9


def test_procrustes_beats_random_orthonormal_candidates():
    # Monte-Carlo optimality oracle: no random row-orthonormal matrix may
    # attain a larger trace than the closed-form maximizer.
    rng = np.random.default_rng(41)
    n, k = 6, 3
    for _ in range(5):
        u = rng.standard_normal((n, k))
        h, _ = procrustes_max(u)
        solver_value = np.trace(h @ u)
        candidates = _random_row_orthonormal(rng, 100_000, n, k)
        values = np.einsum("ckn,nk->c", candidates, u)
        assert solver_value >= values.max() - 1e-9


def test_procrustes_degenerate_flag():
    h, degenerate = procrustes_max(np.zeros((4, 2)))
    assert degenerate
    assert np.allclose(h @ h.T, np.eye(2), atol=1e-10)  # still a valid candidate

    rng = np.random.default_rng(43)
    col = rng.standard_normal((5, 1))
    u = np.hstack([col, 2 * col, 3 * col])  # rank 1
    h, degenerate = procrustes_max(u)
    assert degenerate
    assert np.allclose(h @ h.T, np.eye(3), atol=1e-10)

    full, degenerate = procrustes_max(rng.standard_normal((5, 3)))
    assert not degenerate
