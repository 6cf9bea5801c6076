"""COO assembly oracle for ``robinsphere.fem._assemble``.

Builds the flat-facet stiffness, the consistent mass and the boundary mass
of a mesh from the triangles and boundary edges alone: one 3 x 3 element
block per triangle and one 2 x 2 block per boundary edge, summed by scipy's
COO-to-CSC conversion. It knows nothing of the mesh's edge numbering or of
the shared sparsity pattern that production fills with bincounts.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix


def coo_assemble(mesh):
    """(K, M, B) as CSC matrices, one conversion each."""
    v = mesh.vertices
    t = mesh.triangles
    n = len(v)

    p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    e0 = p2 - p1  # opposite vertex 0
    e1 = p0 - p2
    e2 = p1 - p0
    normal = np.cross(e2, -e1)
    area = 0.5 * np.linalg.norm(normal, axis=1)

    # K_ij = <e_i, e_j> / (4 A) with e_i the edge opposite vertex i
    es = [e0, e1, e2]
    rows, cols, kvals, mvals = [], [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(t[:, i])
            cols.append(t[:, j])
            kvals.append(np.einsum("ij,ij->i", es[i], es[j]) / (4.0 * area))
            mvals.append(area / (6.0 if i == j else 12.0))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    K = coo_matrix((np.concatenate(kvals), (rows, cols)), shape=(n, n)).tocsc()
    M = coo_matrix((np.concatenate(mvals), (rows, cols)), shape=(n, n)).tocsc()

    a, b = mesh.boundary_edges.T
    ell = mesh.boundary_lengths
    bvals = np.concatenate([ell / 3.0, ell / 3.0, ell / 6.0, ell / 6.0])
    bidx = (np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a]))
    B = coo_matrix((bvals, bidx), shape=(n, n)).tocsc()
    return K, M, B
