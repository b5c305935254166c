"""The registry of model spaces and the relations derived from it."""

import numpy as np
import pytest

from modelspace import projective as pj
from modelspace import surfaces as sf
from modelspace import transition as tr


def test_dual_of_dual_is_identity():
    for base in pj.SPACES:
        assert pj.related(pj.related(f"{base}3", "dual"), "dual") == f"{base}3"
    assert pj.related("Hyp3", "dual") == "dS3"
    assert pj.related("Euc2", "dual") == "coEuc2"
    with pytest.raises(ValueError):
        pj.related("coEuc3", "point_limit")
    with pytest.raises(ValueError):
        pj.space_family("Sol3")


def test_transition_lists_keep_their_order():
    assert pj.transitions("point", 3) == [
        ("Ell3", "Euc3"), ("Hyp3", "Euc3"), ("dS3", "Min3"), ("AdS3", "Min3")]
    assert pj.transitions("plane", 3) == [
        ("Ell3", "coEuc3"), ("dS3", "coEuc3"), ("Hyp3", "coMin3"), ("AdS3", "coMin3")]


# the n = 3 families as they were written out by hand before the registry:
# the blown-up axis and the slot order (None for the identity)
OLD_FAMILIES = {
    ("Ell3", "point"): (3, None),
    ("Hyp3", "point"): (3, None),
    ("AdS3", "point"): (3, None),
    ("dS3", "point"): (0, [1, 2, 3, 0]),
    ("Ell3", "plane"): (3, None),
    ("dS3", "plane"): (3, None),
    ("AdS3", "plane"): (3, None),
    ("Hyp3", "plane"): (2, [0, 1, 3, 2]),
}


@pytest.mark.parametrize("name,kind", sorted(OLD_FAMILIES))
def test_three_dimensional_families_unchanged(name, kind):
    axis, order = OLD_FAMILIES[(name, kind)]
    for n in (2, 3, 4):
        d = n + 1
        # the old axis in d slots: slot 0 stays, the others count from the end
        a = axis if axis == 0 else axis - 4 + d
        slots = [i for i in range(d) if i != a] + [a]
        if n == 3:
            assert slots == (order or [0, 1, 2, 3])
        fam = tr.transition_family(f"{name[:-1]}{n}", kind)
        assert (fam.kind, fam.axis) == (kind, a)
        perm = np.zeros((d, d))
        perm[np.arange(d), slots] = 1.0
        for t in (1.0, 0.3, 0.125):
            stretch = np.where((np.arange(d) == a) == (kind == "plane"), 1.0 / t, 1.0)
            assert np.array_equal(fam.matrix(t), perm @ np.diag(stretch))
            assert np.array_equal(fam.inverse(t), np.diag(1.0 / stretch) @ perm.T)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_families_land_in_limit_groups_in_every_dimension(n):
    rng = np.random.default_rng(n)
    for kind in ("point", "plane"):
        for name, target in pj.transitions(kind, n):
            space = pj.model_space(name)
            fam = tr.transition_family(name, kind)
            h = tr.random_isometry_path(space, fam, rng, size=4)
            limits, _ = tr.conjugate_limit(h, fam)
            assert np.all(tr.limit_group_membership(limits, target, tol=1e-6)), (name, kind)


def test_limit_groups_by_space_or_group_name():
    # limit groups are named by their registry space only
    bad = np.eye(4)
    bad[3, 1] = 0.3
    assert tr.limit_group_membership(bad, "coEuc3") and not tr.limit_group_membership(bad, "Euc3")
    assert tr.limit_group_membership(bad, "coEuc") and tr.limit_group_membership(bad, "coMin3")
    for target in ("IsomEuc", "IsomCoEuc", "IsomEll", "Ell3", "euc3"):
        with pytest.raises(ValueError):
            tr.limit_group_membership(np.eye(4), target)
    with pytest.raises(ValueError):
        tr.transition_family("Euc3", "point")


# K_I = offset + factor * det B, as tabulated by hand before the registry
OLD_GAUSS_RELATION = {
    "Euc3": (0.0, 1.0),
    "Min3": (0.0, -1.0),
    "Ell3": (1.0, 1.0),
    "Hyp3": (-1.0, 1.0),
    "dS3": (1.0, -1.0),
    "AdS3": (-1.0, -1.0),
    "coEuc3": (1.0, 0.0),
    "coMin3": (-1.0, 0.0),
}


def test_gauss_relation_derived_from_registry():
    for name, relation in OLD_GAUSS_RELATION.items():
        assert sf._gauss_relation(name) == relation
