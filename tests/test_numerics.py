import numpy as np
import pytest

from modelspace._numerics import central_jet, det_small, inv_small, solve_small


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


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("p", [None, 2], ids=["scalar", "vector"])
def test_central_jet_is_exact_on_quadratics(k, p):
    rng = np.random.default_rng(k)
    c, b, a = (rng.standard_normal((p or 1,) + (k,) * n) for n in range(3))
    a = a + np.swapaxes(a, -1, -2)

    def f(x):
        out = c + np.einsum("...i,pi->...p", x, b) + 0.5 * np.einsum("...i,pij,...j->...p", x, a, x)
        return out if p else out[..., 0]

    x0 = rng.standard_normal((5, k))
    f0, grad, hess = central_jet(f, x0, [0.25, 0.125])
    assert np.array_equal(f0, f(x0))
    exact_grad = b + np.einsum("pij,nj->npi", a, x0)
    exact_hess = np.broadcast_to(a, (5,) + a.shape)
    if p is None:
        exact_grad, exact_hess = exact_grad[:, 0], exact_hess[:, 0]
    assert grad.shape == exact_grad.shape and hess.shape == exact_hess.shape
    assert np.max(np.abs(grad - exact_grad)) < 1e-12
    assert np.max(np.abs(hess - exact_hess)) < 1e-12


def test_central_jet_richardson_gains_on_a_quartic():
    f = lambda x: x[..., 0] ** 4 + x[..., 0] ** 2 * x[..., 1] ** 2 + x[..., 1] ** 3 * x[..., 2]
    x0 = np.array([[0.7, -0.4, 1.3], [-0.2, 0.9, 0.5]])
    x, y, z = x0.T
    exact = np.stack([np.stack([12 * x**2 + 2 * y**2, 4 * x * y, 0 * x], -1),
                      np.stack([4 * x * y, 2 * x**2 + 6 * y * z, 3 * y**2], -1),
                      np.stack([0 * x, 3 * y**2, 0 * x], -1)], -2)
    one = np.max(np.abs(central_jet(f, x0, [1e-2])[2] - exact))
    two = np.max(np.abs(central_jet(f, x0, [2e-2, 1e-2])[2] - exact))
    assert one > 1e-6 and two < one / 10


@pytest.mark.parametrize("k", [1, 2, 3])
def test_central_jet_calls_f_once_per_offset(k):
    shapes = []

    def f(x):
        shapes.append(x.shape)
        return np.sin(x).sum(-1)

    central_jet(f, np.zeros((4, k)), [2e-3, 1e-3])
    assert len(shapes) == 1 + 2 * k + 2 * k * (k - 1)
    assert shapes[0] == (4, k) and set(shapes[1:]) == {(2, 4, k)}
