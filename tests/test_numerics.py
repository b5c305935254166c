import numpy as np
import pytest

from modelspace._numerics import det_small, inv_small, solve_small


def _well_conditioned(rng, n, stack=(40, 7)):
    """Seeded (..., n, n) stacks, diagonally dominant: condition numbers of a few."""
    return n * np.eye(n) + rng.standard_normal(stack + (n, n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_small_kernels_match_lapack(n):
    rng = np.random.default_rng(n)
    m = _well_conditioned(rng, n)
    b = rng.standard_normal(m.shape[:-1] + (3,))
    ref_det = np.linalg.det(m)
    assert np.max(np.abs(det_small(m) - ref_det) / np.abs(ref_det)) <= 1e-14
    if n != 2:
        # the inverse and the solve are Cramer's rule, forward stable for 2x2 only
        for op in (lambda: inv_small(m), lambda: solve_small(m, b)):
            with pytest.raises(ValueError, match="2x2"):
                op()
        return
    for got, ref in ((inv_small(m), np.linalg.inv(m)), (solve_small(m, b), np.linalg.solve(m, b))):
        assert got.shape == ref.shape
        scale = np.max(np.abs(ref), axis=(-2, -1), keepdims=True)
        assert np.max(np.abs(got - ref) / scale) <= 1e-14


def test_small_kernels_broadcast_and_take_single_matrices():
    rng = np.random.default_rng(7)
    m = _well_conditioned(rng, 2, stack=(5,))
    b = rng.standard_normal((3, 1, 2, 4))
    assert solve_small(m, b).shape == np.linalg.solve(m, b).shape == (3, 5, 2, 4)
    one = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert det_small(one) == 5.0
    assert np.array_equal(inv_small(one) * 5.0, [[3.0, -1.0], [-1.0, 2.0]])
    assert np.array_equal(solve_small(one, np.eye(2)), inv_small(one))


@pytest.mark.parametrize("op", [inv_small, lambda m: solve_small(m, np.eye(2))],
                         ids=["inv_small", "solve_small"])
def test_zero_determinant_raises_as_lapack_does(op):
    m = np.stack([np.eye(2), [[1.0, 2.0], [2.0, 4.0]]])
    with pytest.raises(np.linalg.LinAlgError) as ours:
        op(m)
    with pytest.raises(np.linalg.LinAlgError) as lapack:
        np.linalg.inv(m)
    # LinAlgError is a ValueError: the CLI's exit-2 path sees the same class and text
    assert isinstance(ours.value, ValueError)
    assert str(ours.value) == str(lapack.value)
    assert det_small(m)[1] == 0.0
