import math

import numpy as np
import pytest

from robinsphere.capbody import (
    area,
    cap_fixture,
    contains,
    corpus_bodies,
    corpus_body,
    octant_fixture,
    perimeter,
)
from robinsphere.errors import GeometryError
from robinsphere.fem import (
    _assemble,
    calibrated_ball_error,
    mesh_body,
    solve_body,
)
from robinsphere.radial import RobinBallProblem, first_eigenvalue


def test_mesh_level_bounds(octant):
    with pytest.raises(GeometryError):
        mesh_body(octant, 7)
    with pytest.raises(GeometryError):
        mesh_body(octant, -1)


def test_ball_level0_has_enough_boundary_points():
    mesh = mesh_body(cap_fixture(1.0), 0)
    boundary_vertices = set(mesh.boundary_edges.ravel().tolist())
    assert len(boundary_vertices) >= 16


def test_octant_corners_preserved(octant):
    for level in (1, 2):
        mesh = mesh_body(octant, level)
        for corner in np.eye(3):
            d = np.min(np.linalg.norm(mesh.vertices - corner, axis=1))
            assert d <= 1e-12


def test_mesh_vertices_inside_body(octant):
    for body in (octant, cap_fixture(0.8)):
        mesh = mesh_body(body, 2)
        assert all(contains(body, v, tol=1e-9) for v in mesh.vertices)


ORIENTATION_BODIES = {
    "octant": octant_fixture(),
    **{f"cap-{r:.4g}": cap_fixture(r) for r in (0.3, 1.0, math.pi / 2)},
    **dict(corpus_body(seed) for seed in range(1, 13)),
}


@pytest.mark.parametrize("name", list(ORIENTATION_BODIES))
def test_mesh_orientation_positive(name):
    # the fan follows the counterclockwise boundary and subdivision keeps
    # each parent's orientation, so no triangle needs flipping
    body = ORIENTATION_BODIES[name]
    for level in range(5):
        mesh = mesh_body(body, level)
        p0, p1, p2 = (mesh.vertices[mesh.triangles[:, i]] for i in range(3))
        dets = np.einsum("ij,ij->i", p0, np.cross(p1, p2))
        assert np.all(dets > 0), level


def test_boundary_mass_equals_perimeter(octant):
    # boundary edges carry exact arc lengths, so the total is exact
    for body in (octant, cap_fixture(0.9)):
        mesh = mesh_body(body, 3)
        total = mesh.boundary_lengths.sum()
        assert total == pytest.approx(perimeter(body), rel=1e-12)


def test_total_mass_approximates_area(octant):
    _, M, _ = _assemble(mesh_body(octant, 3))
    assert float(M.sum()) == pytest.approx(area(octant), rel=0.01)
    # refinement improves the flat-facet deficit
    _, M4, _ = _assemble(mesh_body(octant, 4))
    err3 = abs(float(M.sum()) - area(octant))
    err4 = abs(float(M4.sum()) - area(octant))
    assert err4 < err3


def test_neumann_discrete_zero(octant):
    res = solve_body(octant, 0.0, 2)
    assert abs(res.lambda_h) <= 1e-10
    assert res.residual <= 1e-9


def test_cosine_family_convergence():
    # beta = tan(R) has the continuum eigenvalue n = 2
    body = cap_fixture(1.0)
    errs = [abs(solve_body(body, math.tan(1.0), lev).lambda_h - 2.0) for lev in (2, 3)]
    assert errs[1] < errs[0]
    assert errs[1] < 0.02


def test_ball_error_two_percent_and_monotone():
    pair = first_eigenvalue(RobinBallProblem(2, 1.0, -1.0))
    errs = []
    for level in (2, 3, 4):
        res = solve_body(cap_fixture(1.0), -1.0, level)
        errs.append(abs(res.lambda_h - pair.lam) / abs(pair.lam))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 0.02


def test_monotone_refinement_differences(octant):
    lams = [solve_body(octant, -1.0, lev).lambda_h for lev in (2, 3, 4)]
    assert abs(lams[2] - lams[1]) < abs(lams[1] - lams[0])


def test_sandwich_on_corpus(small_corpus):
    from robinsphere.parallel import perimeter_profile, transplant_rayleigh

    e3 = calibrated_ball_error(3)
    for name, body in small_corpus:
        rq = transplant_rayleigh(body, -1.0, perimeter_profile(body, 1024)).rq
        res = solve_body(body, -1.0, 3)
        eps = 2.0 * e3 * abs(res.lambda_h)
        assert res.lambda_h - eps <= rq, name


def test_strongly_negative_beta_targets_ground_state(octant):
    # the corner modes sit well below -beta^2; the solver must find them
    res = solve_body(octant, -5.0, 3)
    assert res.lambda_h < -25.0  # below the flat-corner bound -2 beta^2 would be -50
    # crude upper bound: corner sector mode at interior angle pi/2
    assert res.lambda_h > -2.2 * 25.0


def test_algebraic_residual_invariant(octant):
    res = solve_body(octant, -1.0, 3)
    assert res.residual <= 1e-10


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_mesh_topology(level, octant):
    bodies = [octant, cap_fixture(0.9), cap_fixture(math.pi / 2)]
    bodies += [body for _, body in corpus_bodies(6)]
    for body in bodies:
        mesh = mesh_body(body, level)
        n = len(mesh.vertices)
        tri_edges = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        keys, uses = np.unique(tri_edges[:, 0] * n + tri_edges[:, 1], return_counts=True)
        bnd = np.sort(mesh.boundary_edges, axis=1)
        bkeys = bnd[:, 0] * n + bnd[:, 1]
        # boundary edges lie on one triangle, every other edge on exactly two
        assert len(np.unique(bkeys)) == len(bkeys)
        on_boundary = np.isin(keys, bkeys)
        assert on_boundary.sum() == len(bkeys)
        assert np.all(uses[on_boundary] == 1) and np.all(uses[~on_boundary] == 2)
        # one closed boundary cycle: every boundary vertex starts one edge and
        # ends one (degree 2), and walking the edges visits all of them
        starts, ends = (sorted(col) for col in mesh.boundary_edges.T.tolist())
        assert starts == ends == sorted(set(starts))
        nxt = dict(mesh.boundary_edges.tolist())
        first = v = int(mesh.boundary_edges[0, 0])
        steps = 0
        while steps == 0 or v != first:
            v, steps = nxt[v], steps + 1
        assert steps == len(mesh.boundary_edges)
        # a triangulated disk: V - E + F = 1
        assert n - len(keys) + len(mesh.triangles) == 1
        assert abs(mesh.boundary_lengths.sum() - perimeter(body)) <= 1e-12
        assert mesh.level == level


def test_corner_sine_is_exact(octant):
    assert abs(mesh_body(octant, 0).corner_sine - math.cos(math.pi / 4)) <= 1e-15
    assert mesh_body(cap_fixture(1.0), 1).corner_sine == 1.0
