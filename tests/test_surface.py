from fractions import Fraction as F

import pytest

from locvol.surface import (
    DualGraph,
    InvalidLattice,
    InvalidModel,
    NotNegativeDefinite,
    SurfaceLattice,
    divisor_local_volume,
    lattice_zariski,
    log_canonical_intersections,
    projective_volume,
    singularity_volume,
    symmetric_inertia,
    zariski_decompose,
)

from _identities import permuted


def chain(*self_ints, genus=0):
    verts = [(s, genus) for s in self_ints]
    edges = [(i, i + 1, 1) for i in range(len(self_ints) - 1)]
    return DualGraph(verts, edges)


def star(center, leaves):
    verts = [center] + list(leaves)
    edges = [(0, i + 1, 1) for i in range(len(leaves))]
    return DualGraph(verts, edges)


def one_vertex(self_int, genus):
    return DualGraph([(self_int, genus)])


E8_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)]


def e8():
    return DualGraph([(-2, 0)] * 8, [(i, j, 1) for i, j in E8_EDGES])


# -- graph validity -----------------------------------------------------------

def test_negative_definiteness_enforced():
    with pytest.raises(NotNegativeDefinite):
        DualGraph([(-2, 0)] * 2, [(0, 1, 2)])  # determinant 0
    with pytest.raises(NotNegativeDefinite):
        star((-2, 0), [(-2, 0)] * 4)  # affine D4-tilde, semidefinite
    chain(-2, -2, -2)  # fine


def test_inertia():
    assert symmetric_inertia([[0, 1], [1, 0]]) == (1, 1, 0)
    assert symmetric_inertia([[2, 3], [3, 2]]) == (1, 1, 0)
    assert symmetric_inertia([[-2, 1], [1, -2]]) == (0, 2, 0)
    assert symmetric_inertia([[1, 0], [0, 0]]) == (1, 0, 1)
    # no diagonal pivot left: the congruence e_i -> e_i + e_j makes one
    assert symmetric_inertia([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) == (1, 1, 1)
    assert symmetric_inertia([[1, 1, 1], [1, 1, 0], [1, 0, 0]]) == (2, 1, 0)
    assert symmetric_inertia([[0, 1, 0, 0], [1, 0, 0, 0],
                              [0, 0, 0, -3], [0, 0, -3, 0]]) == (2, 2, 0)
    # rational entries are scaled by one positive lcm
    assert symmetric_inertia([[F(1, 2), F(1, 3)], [F(1, 3), F(1, 5)]]) == (1, 1, 0)
    assert symmetric_inertia([[F(-1, 2), F(1, 3)], [F(1, 3), F(-1, 4)]]) == (0, 2, 0)


# -- adjunction vector --------------------------------------------------------

def test_log_canonical_intersections():
    assert log_canonical_intersections(one_vertex(-2, 0)) == (F(-2),)
    assert log_canonical_intersections(one_vertex(-4, 3)) == (F(4),)
    assert log_canonical_intersections(chain(-2, -3)) == (F(-1), F(-1))


# -- Zariski decomposition ----------------------------------------------------

def test_a1_log_canonical_fully_negative():
    g = one_vertex(-2, 0)
    parts = zariski_decompose(g, (-2,))
    assert parts.nef == (F(0),) and parts.negative == (F(1),)


def test_quartic_cone_nef():
    g = one_vertex(-4, 3)
    parts = zariski_decompose(g, (4,))
    assert parts.nef == (F(-1),) and parts.negative == (F(0),)


def test_zero_class():
    parts = zariski_decompose(chain(-2, -3), (0, 0))
    assert parts.nef == (F(0), F(0)) and parts.negative == (F(0), F(0))


def test_a1_divisor_volume():
    assert divisor_local_volume(one_vertex(-2, 0), (2,)) == 2


def test_nef_input_volume_is_quadratic_form():
    g = chain(-2, -3)
    d = (3, 3)
    parts = zariski_decompose(g, d)
    assert parts.negative == (F(0), F(0))
    assert divisor_local_volume(g, d) == -sum(
        z * x for z, x in zip(parts.nef, d)
    )


def test_effective_class_has_zero_volume():
    g = chain(-2, -3, -2)
    m = g.matrix
    eff = (1, 2, 1)
    d = tuple(sum(m[i][j] * eff[j] for j in range(3)) for i in range(3))
    assert divisor_local_volume(g, d) == 0


def test_monotonicity_adding_effective():
    g = chain(-2, -3)
    d = (-1, 2)
    base = divisor_local_volume(g, d)
    m = g.matrix
    for eff in ((1, 0), (0, 1), (2, 3)):
        shift = tuple(
            di + sum(m[i][j] * eff[j] for j in range(2))
            for i, di in enumerate(d)
        )
        assert divisor_local_volume(g, shift) <= base


# -- singularity volumes ------------------------------------------------------

def test_ade_volumes_vanish():
    for g in (
        one_vertex(-2, 0),
        chain(-2, -2),
        chain(-2, -2, -2),
        chain(-2, -2, -2, -2),
        chain(-2, -2, -2, -2, -2),
        star((-2, 0), [(-2, 0)] * 3),  # D4
        e8(),
    ):
        assert singularity_volume(g) == 0


def test_cone_over_curve_closed_form():
    for genus in (2, 3, 4):
        for d in range(1, 6):
            g = one_vertex(-d, genus)
            assert singularity_volume(g) == F((2 * genus - 2) ** 2, d)


def test_quasi_homogeneous_cross_check():
    # cone over a plane quartic: weights (1/4, 1/4, 1/4) give (1-3/4)^2/(1/4)^3
    w = F(1, 4)
    expected = (1 - 3 * w) ** 2 / w ** 3
    assert singularity_volume(one_vertex(-4, 3)) == expected == 4


def test_permutation_invariance():
    g = DualGraph([(-2, 0), (-3, 1), (-2, 0)], [(0, 1, 1), (1, 2, 1)])
    d = log_canonical_intersections(g)
    parts = zariski_decompose(g, d)
    perm = [2, 0, 1]
    gp = permuted(g, perm)
    parts_p = zariski_decompose(gp, [d[old] for old in perm])
    assert parts_p.nef == tuple(parts.nef[old] for old in perm)
    assert parts_p.negative == tuple(parts.negative[old] for old in perm)
    assert singularity_volume(g) == singularity_volume(gp)


# -- projective lattice models ------------------------------------------------

def p1_x_genus2():
    return SurfaceLattice(
        gram=[[0, 1], [1, 0]], canonical=(2, -2), ample=(1, 1),
        psef_generators=((1, 0), (0, 1)),
    )


def blown_up_plane():
    return SurfaceLattice(
        gram=[[1, 0], [0, -1]], canonical=(-3, 1), ample=(2, -1),
        negative_curves=((0, 1),), psef_generators=((0, 1), (1, -1)),
    )


def test_lattice_validation():
    with pytest.raises(InvalidLattice):
        SurfaceLattice([[-2, 1], [1, -2]], (0, 0), (1, 0))  # wrong signature
    with pytest.raises(InvalidLattice):
        SurfaceLattice([[1, 0], [0, -1]], (0, 0), (0, 1))  # ample squares to -1
    with pytest.raises(InvalidLattice):
        SurfaceLattice([[1, 0], [0, -1]], (0, 0), (2, -1),
                       negative_curves=((1, 0),))


def test_psef_generators_must_span_a_surface_cone():
    # F_1 on (line, exceptional curve E): the cone of E and L - E is accepted
    gram, ample, curves = [[1, 0], [0, -1]], (3, -1), ((0, 1),)
    assert SurfaceLattice(gram, (0, 0), ample, curves, ((0, 1), (1, -1))).psef_normals
    # the cone of E and 2L - E misses L - E, of square 0 and L.A > 0
    with pytest.raises(InvalidLattice, match="positive square"):
        SurfaceLattice(gram, (0, 0), ample, curves, ((0, 1), (2, -1)))
    # L - 2E has square -3 and meets A positively, but lies outside the cone
    with pytest.raises(InvalidLattice, match=r"\(1, -2\) is not pseudo-effective"):
        SurfaceLattice(gram, (0, 0), ample, curves + ((1, -2),), ((0, 1), (1, -1)))
    # E spans an extreme ray of square -1, so it must be declared
    with pytest.raises(InvalidLattice, match="no declared curve"):
        SurfaceLattice(gram, (0, 0), ample, (), ((0, 1), (1, -1)))


def test_round_model_volumes():
    lat = SurfaceLattice([[2, 3], [3, 2]], (0, 0), (1, 1))
    assert projective_volume(lat, (1, 1)) == 10  # ample class: self-intersection
    assert projective_volume(lat, (1, 0)) == 2
    assert projective_volume(lat, (1, -1)) == 0  # (1,-1).(1,-1) = -2: not psef


def test_product_model_membership():
    lat = p1_x_genus2()
    assert projective_volume(lat, (2, -2)) == 0  # not psef componentwise
    assert projective_volume(lat, (3, 1)) == 6
    assert projective_volume(lat, (0, 1)) == 0  # boundary class


def test_blowup_zariski_chamber():
    lat = blown_up_plane()
    # 2H + E: negative part E, nef part 2H
    nef, coeffs = lattice_zariski(lat, (2, 1))
    assert nef == (F(2), F(0)) and coeffs == {0: F(1)}
    assert projective_volume(lat, (2, 1)) == 4
    # nef class untouched
    assert projective_volume(lat, (3, -1)) == 8
    assert projective_volume(lat, (-1, 0)) == 0  # anti-ample


def test_orthogonality_on_lattice():
    lat = blown_up_plane()
    nef, coeffs = lattice_zariski(lat, (2, 1))
    for i, v in coeffs.items():
        assert lat.pair(nef, lat.negative_curves[i]) == 0


def test_singular_support_is_an_invalid_model():
    # the two curves' Gram block [[-1, 1], [1, -1]] is singular
    lat = SurfaceLattice([[1, 0, 0], [0, -1, 0], [0, 0, -1]], (0, 0, 0), (3, -1, 0),
                         negative_curves=((0, 1, 0), (1, -1, 1)))
    with pytest.raises(InvalidModel):
        lattice_zariski(lat, (-3, 1, 0))


def test_zariski_guard_raises_surface_error(monkeypatch):
    import locvol.surface as surface

    def bad_iteration(gram, target):
        return {}, (F(-1),)

    monkeypatch.setattr(surface, "_support_iteration", bad_iteration)
    with pytest.raises(surface.SurfaceError):
        surface.zariski_decompose(surface.DualGraph([(-2, 0)]), (F(1),))
