import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from modelspace import forms
from modelspace.projective import model_space


def test_eval_examples():
    b30 = forms.bpq(3, 0)
    b21 = forms.bpq(2, 1)
    b11 = forms.bpq(1, 1)
    assert forms.evaluate(b30, [1, 0, 0], [0, 1, 0]) == 0.0
    assert forms.evaluate(b21, [0, 0, 1], [0, 0, 1]) == -1.0
    # x1 y1 - x2 y2 = 1*1 - 1*(-1)
    assert forms.evaluate(b11, [1, 1], [1, -1]) == 2.0


def test_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        forms.evaluate(forms.bpq(2, 1), [1.0, 0.0], [0.0, 1.0, 0.0])


def test_bpq_is_one_shared_read_only_form():
    b21 = forms.bpq(2, 1)
    assert forms.bpq(2, 1) is b21
    assert forms.co_minkowski_form(3) is forms.bpq(2, 1, 1)
    with pytest.raises(ValueError, match="read-only"):
        b21.matrix[0, 0] = 5.0
    assert b21.matrix[0, 0] == 1.0


def test_classify_examples():
    b21 = forms.bpq(2, 1)
    assert forms.classify_vector(b21, [1, 0, 0]) == "spacelike"
    assert forms.classify_vector(b21, [1, 0, 1]) == "lightlike"
    assert forms.classify_vector(b21, [0.1, 0.1, 1]) == "timelike"
    with pytest.raises(ValueError):
        forms.classify_vector(b21, [0, 0, 0])


def test_classify_scale_invariant_near_cone():
    b21 = forms.bpq(2, 1)
    x = 1e6 * np.array([1.0, 0.0, 1.0])
    assert forms.classify_vector(b21, x) == "lightlike"


def test_restrict_examples():
    b21 = forms.bpq(2, 1)
    assert forms.restrict(b21, [[1, 0, 0], [0, 1, 0]]).signature == (2, 0, 0)
    assert forms.restrict(b21, [[1, 0, 0], [0, 0, 1]]).signature == (1, 1, 0)
    # restriction to a light ray is identically zero
    assert forms.restrict(b21, [[1, 0, 1]]).signature == (0, 0, 1)
    with pytest.raises(ValueError):
        forms.restrict(b21, [[1, 0, 0], [2, 0, 0]])


def test_degenerate_forms_signatures():
    assert forms.co_euclidean_form(3).signature == (3, 0, 1)
    assert forms.co_minkowski_form(3).signature == (2, 1, 1)
    assert forms.affine_chart_form(3).signature == (1, 0, 3)
    assert forms.co_euclidean_form(3).degenerate


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 3), st.integers(0, 2), st.integers(min_value=0, max_value=10**6))
def test_bilinearity(p, q, seed):
    if p + q < 1:
        return
    rng = np.random.default_rng(seed)
    b = forms.bpq(p, q)
    x, y, z = rng.standard_normal((3, p + q))
    alpha, beta = rng.standard_normal(2)
    lhs = forms.evaluate(b, alpha * x + beta * y, z)
    rhs = alpha * forms.evaluate(b, x, z) + beta * forms.evaluate(b, y, z)
    assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))


def test_restricted_plane_normal_forms():
    # random rotated 2-planes in Min^3: the restriction is elliptic,
    # hyperbolic or degenerate and nothing else
    rng = np.random.default_rng(0)
    b21 = forms.bpq(2, 1)
    seen = set()
    for _ in range(200):
        basis = rng.standard_normal((2, 3))
        sig = forms.restrict(b21, basis).signature
        seen.add(sig)
        assert sig in {(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert (2, 0, 0) in seen and (1, 1, 0) in seen


def test_signature_congruence_invariance():
    rng = np.random.default_rng(1)
    for sig in [(3, 1, 0), (2, 2, 0), (2, 1, 1), (3, 0, 1)]:
        b = forms.bpq(*sig)
        for _ in range(20):
            m = rng.standard_normal((b.dim, b.dim))
            while abs(np.linalg.det(m)) < 1e-3:
                m = rng.standard_normal((b.dim, b.dim))
            assert forms.BilinearForm(m.T @ b.matrix @ m).signature == sig


def _eigvalsh_signature(matrix):
    eig = np.linalg.eigvalsh(matrix)
    radius = np.max(np.abs(eig)) if matrix.size else 0.0
    tol = forms.SIGNATURE_ZERO_RTOL * radius if radius > 0 else forms.SIGNATURE_ZERO_RTOL
    return (int(np.sum(eig > tol)), int(np.sum(eig < -tol)), int(np.sum(np.abs(eig) <= tol)))


def test_diagonal_signatures_match_eigvalsh():
    rng = np.random.default_rng(3)
    rtol = forms.SIGNATURE_ZERO_RTOL
    # zeros, tiny entries and entries just either side of the zero threshold
    special = [0.0, 1e-300, 1e-12, rtol * 0.999, rtol * 1.001, 1.0]
    for _ in range(300):
        dim = int(rng.integers(0, 6))
        scale = 10.0 ** rng.uniform(-6, 6)
        entries = np.where(rng.random(dim) < 0.5, rng.choice(special, dim),
                           rng.uniform(0.1, 2.0, dim)) * rng.choice([-1.0, 1.0], dim) * scale
        diagonal = np.diag(entries)
        mixed = rng.standard_normal((dim, dim))
        for matrix in (diagonal, mixed @ diagonal @ mixed.T):
            assert forms._signature(matrix) == _eigvalsh_signature(matrix)
    assert forms.bpq(2, 1, 1).signature == (2, 1, 1)


def test_random_isometry_preserves_form():
    rng = np.random.default_rng(2)
    for b in (forms.bpq(3, 1), forms.bpq(2, 2), forms.co_euclidean_form(3),
              forms.co_minkowski_form(3)):
        for _ in range(5):
            g = forms.random_isometry(b, rng)
            assert np.max(np.abs(g.T @ b.matrix @ g - b.matrix)) < 1e-10


def _so_draws(b, rng, k=40, scale=0.5):
    """k generators in so(b), stacked; one solve for an invertible form."""
    if not b.degenerate:
        return forms.antisymmetric_from_draw(b.matrix, rng.standard_normal((k, b.dim, b.dim)), scale)
    return np.array([forms.random_antisymmetric(b, rng, scale=scale) for _ in range(k)])


# co_euclidean_form(3) and co_minkowski_form(3) are the forms of coEuc3 and coMin3
CAYLEY_SPACES = [f"{name}{n}" for n in (2, 3, 4) for name in ("Ell", "Hyp", "dS", "AdS")]
CAYLEY_SPACES += ["coEuc3", "coMin3"]


@pytest.mark.parametrize("name", CAYLEY_SPACES)
def test_cayley_of_so_b_preserves_the_form(name):
    b = model_space(name).form
    h = forms.cayley(_so_draws(b, np.random.default_rng(zlib.crc32(name.encode()))))
    assert h.shape == (40, b.dim, b.dim)
    assert np.max(np.abs(np.swapaxes(h, -1, -2) @ b.matrix @ h - b.matrix)) < 1e-13


@pytest.mark.parametrize("name", CAYLEY_SPACES)
def test_cayley_agrees_with_expm_to_second_order(name):
    # cay(x) - exp(x) = -x^3/12 + O(x^4): the same value and derivative at 0
    b, t = model_space(name).form, 1e-2
    for a in _so_draws(b, np.random.default_rng(zlib.crc32(name.encode()) + 1), k=10, scale=1.0):
        gap = np.max(np.abs(forms.cayley(t * a) - expm(t * a)))
        assert gap <= (t * np.linalg.norm(a, 2)) ** 3


def test_cayley_raises_where_i_minus_a_half_is_singular():
    boost = np.array([[0.0, 2.0], [2.0, 0.0]])  # rapidity 2 in so(1, 1)
    assert np.array_equal(boost.T @ forms.bpq(1, 1).matrix, -forms.bpq(1, 1).matrix @ boost)
    for a in (boost, np.stack([0.5 * boost, boost])):
        with pytest.raises(ValueError, match="singular"):
            forms.cayley(a)


def test_json_round_trip():
    b = forms.bpq(2, 1)
    again = forms.BilinearForm.from_dict(b.to_dict())
    assert again == b
    assert b.to_dict()["dim"] == 3
