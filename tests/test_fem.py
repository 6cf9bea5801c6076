import math
import time

import numpy as np
import pytest
from fem_oracle import coo_assemble
from scipy.linalg import eigh

from robinsphere.capbody import (
    area,
    cap_fixture,
    contains,
    corpus_bodies,
    corpus_body,
    octant_fixture,
    perimeter,
)
from robinsphere.errors import GeometryError, SolverError
from robinsphere.fem import (
    _assemble,
    _max_row_sum,
    _pencil,
    _shifted_iteration,
    _solve_level,
    assemble_and_solve,
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


CERTIFICATE_BODIES = {
    "octant": octant_fixture(),
    **{f"cap-{r:.4g}": cap_fixture(r) for r in (0.3, 1.0, 1.4)},
    **dict(corpus_body(seed) for seed in range(1, 7)),
}


def _dense_spectrum(mesh, beta, count):
    """The smallest eigenvalues of the oracle-assembled pencil, dense."""
    K, M, B = coo_assemble(mesh)
    return eigh((K + beta * B).toarray(), M.toarray(), subset_by_index=[0, count - 1])[0]


@pytest.mark.parametrize("name", list(CERTIFICATE_BODIES))
def test_lambda_matches_dense_reference(name):
    # nested iteration against LAPACK on the same mesh, assembled by the
    # oracle; at beta = 0 (lambda = 0) the error is measured against 1
    body = CERTIFICATE_BODIES[name]
    for level in range(4):
        mesh = mesh_body(body, level)
        for beta in (0.0, -0.5, -1.0, -5.0, math.tan(1.0)):
            res = assemble_and_solve(mesh, beta)
            ref = _dense_spectrum(mesh, beta, 1)[0]
            assert abs(res.lambda_h - ref) <= 1e-10 * max(1.0, abs(ref)), (level, beta)
            assert res.certified and res.residual <= 1e-10
            assert res.refinement_level == level
            if level >= 2:
                # one sparse level (2 or 3), factored at least once
                assert res.shift is not None
                assert res.factorisations >= 1 and res.iterations >= 1
            else:
                assert res.factorisations == res.iterations == 0 and res.shift is None


def test_shift_inside_the_spectrum_is_refused():
    # corpus body 3 has no symmetry, so the constant start vector carries
    # every eigenvector
    mesh = mesh_body(corpus_body(3)[1], 2)
    beta = -1.0
    lam1, lam2, lam3 = _dense_spectrum(mesh, beta, 3)
    gap = lam2 - lam1
    a, m = _pencil(mesh, beta)
    norms = _max_row_sum(a), _max_row_sum(m)
    ones = np.ones(a.shape[0])

    # two eigenvalues below the shift: refused by the count, no step runs
    above = lam2 + 0.5 * (lam3 - lam2)
    nu, lam, _, steps, _ = _shifted_iteration(a, m, above, *norms, ones)
    assert nu == 2 and steps == 0 and math.isnan(lam)
    # one eigenvalue below, but the iteration converges to lambda_2 above it
    near_second = lam2 - 0.1 * gap
    nu, lam, resid, steps, _ = _shifted_iteration(a, m, near_second, *norms, ones)
    assert nu == 1 and resid <= 1e-10
    assert lam == pytest.approx(lam2, rel=1e-10) and lam > near_second

    # each refusal multiplies the drop by 4 and refactors; the next shift is
    # certified
    for first, low in ((above, lam1 - 0.1 * gap), (near_second, lam1 + 0.3 * gap)):
        drop = (first - low) / 3.0
        lam, _, _, factorisations, sigma, _ = _solve_level(mesh, beta, first + drop, drop, ones)
        assert factorisations == 2 and sigma == pytest.approx(low, abs=1e-12)
        assert lam == pytest.approx(lam1, rel=1e-10)


@pytest.mark.parametrize("name", list(ORIENTATION_BODIES))
def test_carried_edges_match_the_triangles(name):
    body = ORIENTATION_BODIES[name]
    mesh = mesh_body(body, 5)
    for level in range(5, -1, -1):
        assert mesh.level == level
        n = len(mesh.vertices)
        sides = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        keys = np.unique(sides[:, 0] * n + sides[:, 1])
        edges = np.sort(mesh.edges, axis=1)
        assert np.array_equal(np.sort(edges[:, 0] * n + edges[:, 1]), keys)
        # side s of triangle k is edge triangle_edges[k, s]
        carried = np.sort(mesh.edges[mesh.triangle_edges], axis=2).reshape(-1, 2)
        assert np.array_equal(carried, sides)
        assert np.array_equal(mesh.edges[mesh.boundary_edge_ids], mesh.boundary_edges)
        coarser = mesh.coarser
        if coarser is not None:
            assert np.array_equal(mesh.vertices[: len(coarser.vertices)], coarser.vertices)
        mesh = coarser
    assert mesh is None


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_pattern_assembly_matches_coo_oracle(level):
    for body in CERTIFICATE_BODIES.values():
        mesh = mesh_body(body, level)
        for new, old in zip(_assemble(mesh), coo_assemble(mesh)):
            scale = abs(old).max()
            assert abs(new - old).max() <= 1e-14 * scale


STRONG_BETA_BODIES = {
    "octant": octant_fixture(),
    **{f"cap-{r:.4g}": cap_fixture(r) for r in (0.3, 1.0, 1.4)},
    **dict(corpus_body(seed) for seed in range(1, 31)),
}


def test_strong_beta_is_certified_or_a_solver_error():
    # at beta = -20 near-degenerate corner modes can stall the single-vector
    # iteration; each solve must still end quickly in a certified value or a
    # SolverError that names where it stopped
    for name, body in STRONG_BETA_BODIES.items():
        start = time.perf_counter()
        try:
            res = solve_body(body, -20.0, 2)
        except SolverError as exc:
            message = str(exc)
            assert "level 2" in message and "beta -20.0" in message, message
            assert "shift" in message and "nu" in message and "residual" in message
        else:
            assert res.certified and res.residual <= 1e-10, name
            assert res.shift is not None and math.isfinite(res.lambda_h)
        assert time.perf_counter() - start <= 5.0, name
