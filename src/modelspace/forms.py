"""Symmetric bilinear forms of arbitrary signature on R^d.

A form is stored as a full symmetric matrix even when it is diagonal, so
that restrictions to subspaces (which are rarely diagonal) go through the
same code path.  Vectors are plain numpy arrays.

Signatures are triples (p, q, z): the number of positive, negative and
zero eigenvalues, with a zero threshold relative to the spectral radius.
Degenerate forms (z >= 1) are first-class citizens here; they describe
the co-Euclidean and co-Minkowski ambient geometries.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "BilinearForm",
    "bpq",
    "co_euclidean_form",
    "co_minkowski_form",
    "affine_chart_form",
    "evaluate",
    "classify_vector",
    "restrict",
    "antisymmetric_from_draw",
    "cayley",
    "random_antisymmetric",
    "random_isometry",
]

# Relative eigenvalue threshold used when counting signature zeros.
SIGNATURE_ZERO_RTOL = 1e-9
# Relative threshold for light-likeness of a vector: |b(x,x)| <= tau * |x|^2.
LIGHT_RTOL = 1e-9
SYMMETRY_RTOL = 1e-12


class BilinearForm:
    """A symmetric bilinear form, with its signature precomputed."""

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("form matrix must be square")
        scale = np.max(np.abs(matrix))
        if scale > 0 and np.max(np.abs(matrix - matrix.T)) > SYMMETRY_RTOL * scale:
            raise ValueError("form matrix must be symmetric")
        self.matrix = 0.5 * (matrix + matrix.T)
        self.dim = matrix.shape[0]
        self.signature = _signature(self.matrix)

    @property
    def degenerate(self):
        return self.signature[2] > 0

    def __call__(self, x, y):
        return evaluate(self, x, y)

    def quad(self, x):
        """b(x, x), broadcasting over leading axes of ``x``."""
        x = np.asarray(x, dtype=float)
        return (x @ self.matrix * x).sum(-1)

    def __repr__(self):
        p, q, z = self.signature
        return f"BilinearForm(dim={self.dim}, signature=({p},{q},{z}))"

    def __eq__(self, other):
        if not isinstance(other, BilinearForm):
            return NotImplemented
        return self.dim == other.dim and np.allclose(self.matrix, other.matrix)

    def to_dict(self):
        return {"dim": self.dim, "matrix": self.matrix.tolist()}

    @classmethod
    def from_dict(cls, data):
        mat = np.asarray(data["matrix"], dtype=float)
        if "dim" in data and int(data["dim"]) != mat.shape[0]:
            raise ValueError("dim field disagrees with matrix shape")
        return cls(mat)


def _signature(matrix):
    diag = np.diagonal(matrix)
    # a diagonal matrix's eigenvalues are its diagonal entries
    eigvals = diag if np.array_equal(matrix, np.diag(diag)) else np.linalg.eigvalsh(matrix)
    radius = np.max(np.abs(eigvals)) if matrix.size else 0.0
    tol = SIGNATURE_ZERO_RTOL * radius if radius > 0 else SIGNATURE_ZERO_RTOL
    p = int(np.sum(eigvals > tol))
    q = int(np.sum(eigvals < -tol))
    z = matrix.shape[0] - p - q
    return (p, q, z)


@functools.lru_cache(maxsize=None)
def bpq(p, q, z=0):
    """Standard diagonal form: p entries +1, then q entries -1, then z zeros.

    Memoized: every call with the same arguments returns one shared form,
    whose matrix is read-only so that no caller can change it for another.
    """
    form = BilinearForm(np.diag([1.0] * p + [-1.0] * q + [0.0] * z))
    form.matrix.setflags(write=False)
    return form


def co_euclidean_form(n):
    """Degenerate form x1*y1 + ... + xn*yn on R^{n+1}; last slot degenerate."""
    return bpq(n, 0, 1)


def co_minkowski_form(n):
    """Degenerate form x1*y1 + ... - xn*yn on R^{n+1}; last slot degenerate.

    The timelike slot is the n-th coordinate, the degenerate one the last,
    so the pseudo-sphere b = -1 is H^{n-1} x R with a uniform (base, fiber)
    coordinate split shared with the co-Euclidean case.
    """
    return bpq(n - 1, 1, 1)


def affine_chart_form(n):
    """Rank-one form x_{n+1}*y_{n+1} whose pseudo-sphere is an affine chart."""
    return BilinearForm(np.diag([0.0] * n + [1.0]))


def evaluate(form, x, y):
    """b(x, y).  Raises on dimension mismatch; symmetric in x and y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != form.dim or y.shape[-1] != form.dim:
        raise ValueError(
            f"vector length does not match form dimension {form.dim}"
        )
    return (x @ form.matrix * y).sum(-1)


def classify_vector(form, x):
    """'spacelike', 'timelike' or 'lightlike', with a scale-invariant threshold."""
    x = np.asarray(x, dtype=float)
    norm2 = float(np.dot(x, x))
    if norm2 == 0.0:
        raise ValueError("cannot classify the zero vector")
    value = float(evaluate(form, x, x))
    if abs(value) <= LIGHT_RTOL * norm2:
        return "lightlike"
    return "spacelike" if value > 0 else "timelike"


def restrict(form, basis):
    """Gram matrix of the form on the span of ``basis`` (rows or list of vectors).

    The basis must be linearly independent; the result carries the recomputed
    signature of the restriction.
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    if basis.shape[1] != form.dim:
        raise ValueError("basis vectors have wrong length")
    if np.linalg.matrix_rank(basis, tol=1e-10 * max(1.0, np.max(np.abs(basis)))) < basis.shape[0]:
        raise ValueError("basis vectors are linearly dependent")
    gram = basis @ form.matrix @ basis.T
    return BilinearForm(gram)


def antisymmetric_from_draw(g, s, scale=1.0):
    """G^{-1} scale (s - s^T)/2 in so(b) for invertible G, stacked over ``s``."""
    return np.linalg.solve(g, scale * (s - np.swapaxes(s, -1, -2)) / 2.0)


def cayley(a):
    """The Cayley map (I - A/2)^{-1} (I + A/2), stacked over the leading axes of ``a``.

    For A in so(b) the result lies in O(b) in exact arithmetic, for a
    degenerate b too, and has no eigenvalue -1.  It is rational in A, and
    t -> cayley(tA) has value I and derivative A at t = 0, as exp(tA) does.
    Raises ValueError when I - A/2 is singular.
    """
    a = np.asarray(a, dtype=float)
    eye = np.eye(a.shape[-1])
    try:
        return np.linalg.solve(eye - a / 2, eye + a / 2)
    except np.linalg.LinAlgError as exc:
        raise ValueError("I - A/2 is singular: A has the eigenvalue 2") from exc


def random_antisymmetric(form, rng, scale=1.0):
    """Random generator A with A^T G + G A = 0, i.e. an element of so(b).

    For degenerate forms this produces generators of the isometries of the
    form; ``cayley(A)`` then preserves b to rounding.
    """
    d = form.dim
    s = rng.standard_normal((d, d))
    # Solve A = G^{-1} * skew when G is invertible; otherwise build A from
    # the block structure (works for the diagonal degenerate forms here).
    g = form.matrix
    if not form.degenerate:
        return antisymmetric_from_draw(g, s, scale)
    # Degenerate diagonal case: zero rows of G leave the corresponding rows
    # of A free; pick them at random, constrain the rest.
    diag = np.diag(g)
    mask = np.abs(diag) > 1e-12
    a = np.zeros((d, d))
    block = np.ix_(mask, mask)
    a[block] = antisymmetric_from_draw(g[block], s[block], scale)
    free = ~mask
    a[np.ix_(free, mask)] = scale * rng.standard_normal((int(free.sum()), int(mask.sum())))
    # Columns hitting the kernel must keep G A antisymmetric: (GA)[i, free]=0
    # forces A[mask, free] = 0; the free-free block is unconstrained but we
    # keep it zero so cayley(A) fixes the degenerate fiber scale.
    return a


def random_isometry(form, rng):
    """A random element of O(b), without the eigenvalue -1: the Cayley image
    of ``random_antisymmetric`` at its default scale."""
    return cayley(random_antisymmetric(form, rng))
