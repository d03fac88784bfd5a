"""Structured 8-node hexahedral meshes on box domains.

Nodes are laid out on a regular (nx+1) x (ny+1) x (nz+1) lattice with the x
index running fastest; each node carries 3 displacement DOFs numbered
3*node + component.  Elements are trilinear bricks integrated with a 2x2x2
Gauss rule; the strain-displacement operator rows are tabulated per Gauss
point at construction (engineering-shear Voigt convention, matching
``tensors``).

Supports: the beam rests on two supports, one per end face.  The default
``support="line"`` prescribes all three displacement components along the
horizontal mid-height node line of each end face (x = 0 and x = d1,
z = d3/2, every y) — the end section stays free to rotate about the support
line, which is what gives the measured 1:4:9 vertical bending frequency
series.  ``support="face"`` instead blocks the whole end faces (clamped).
"""

import numpy as np

# vertex signs of the reference brick [-1,1]^3, VTK hexahedron ordering
_VERTS = np.array([[-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
                   [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1]], dtype=float)
_G1 = np.array([-1.0, 1.0]) / np.sqrt(3.0)
# 2x2x2 Gauss points, z fastest (any fixed order works; weights are all 1)
_GP = np.array([[x, y, z] for x in _G1 for y in _G1 for z in _G1])


def _shape(xi):
    """Trilinear shape values (n_pts, 8) at reference coordinates xi (n_pts, 3)."""
    xi = np.atleast_2d(xi)
    return 0.125 * ((1.0 + xi[:, None, 0] * _VERTS[None, :, 0])
                    * (1.0 + xi[:, None, 1] * _VERTS[None, :, 1])
                    * (1.0 + xi[:, None, 2] * _VERTS[None, :, 2]))


def _shape_grad(xi):
    """Reference gradients dN_a/dxi_i, shape (n_pts, 8, 3)."""
    xi = np.atleast_2d(xi)
    f = 1.0 + xi[:, None, :] * _VERTS[None, :, :]  # (n_pts, 8, 3)
    g = np.empty_like(f)
    g[:, :, 0] = _VERTS[None, :, 0] * f[:, :, 1] * f[:, :, 2]
    g[:, :, 1] = _VERTS[None, :, 1] * f[:, :, 0] * f[:, :, 2]
    g[:, :, 2] = _VERTS[None, :, 2] * f[:, :, 0] * f[:, :, 1]
    return 0.125 * g


class Mesh:
    """Hexahedral box mesh with tabulated quadrature and support sets."""

    def __init__(self, nodes, conn, prescribed_nodes):
        self.nodes = nodes
        self.conn = conn
        self.n_nodes = nodes.shape[0]
        self.n_elements = conn.shape[0]
        self.n_dofs = 3 * self.n_nodes
        prescribed_nodes = np.asarray(prescribed_nodes, dtype=int)
        if prescribed_nodes.size and (prescribed_nodes.min() < 0
                                      or prescribed_nodes.max() >= self.n_nodes):
            raise ValueError("prescribed node outside the mesh")
        self.prescribed_nodes = np.sort(prescribed_nodes)
        # all three directions are prescribed on the support nodes
        self.prescribed_dofs = (3 * self.prescribed_nodes[:, None]
                                + np.arange(3)[None, :]).ravel()
        mask = np.ones(self.n_dofs, dtype=bool)
        mask[self.prescribed_dofs] = False
        self.free_dofs = np.nonzero(mask)[0]
        # element DOF map (n_el, 24): 3 components per node, node-major
        self.edofs = (3 * conn[:, :, None] + np.arange(3)[None, None, :]).reshape(
            self.n_elements, 24)
        self._tabulate()

    def _tabulate(self):
        """Jacobians, Gauss weights and B operators at every Gauss point."""
        X = self.nodes[self.conn]                       # (n_el, 8, 3)
        dNr = _shape_grad(_GP)                          # (8gp, 8, 3)
        # J[e,g,i,j] = d x_j / d xi_i
        J = np.einsum("gai,eaj->egij", dNr, X)
        detJ = np.linalg.det(J)
        if np.any(detJ <= 0.0):
            raise ValueError("non-positive Jacobian determinant in element %d"
                             % int(np.argwhere(detJ <= 0.0)[0, 0]))
        invJ = np.linalg.inv(J)
        dNx = np.einsum("egji,gai->egaj", invJ, dNr)    # (n_el, 8gp, 8, 3)
        n_el, n_gpe = detJ.shape
        B = np.zeros((n_el, n_gpe, 6, 8, 3))
        B[:, :, 0, :, 0] = dNx[..., 0]
        B[:, :, 1, :, 1] = dNx[..., 1]
        B[:, :, 2, :, 2] = dNx[..., 2]
        B[:, :, 3, :, 1] = dNx[..., 2]                  # gamma_yz
        B[:, :, 3, :, 2] = dNx[..., 1]
        B[:, :, 4, :, 0] = dNx[..., 2]                  # gamma_xz
        B[:, :, 4, :, 2] = dNx[..., 0]
        B[:, :, 5, :, 0] = dNx[..., 1]                  # gamma_xy
        B[:, :, 5, :, 1] = dNx[..., 0]
        self.B = B.reshape(n_el, n_gpe, 6, 24)
        self.gp_weights = detJ                          # reference weights are 1
        self.n_gauss_per_element = n_gpe
        self.n_gauss = n_el * n_gpe


def generate_box_mesh(d1, d2, d3, nx, ny, nz, support="line"):
    """Mesh the box [0,d1] x [0,d2] x [0,d3] into nx*ny*nz hexahedra."""
    if min(d1, d2, d3) <= 0.0:
        raise ValueError("box dimensions must be positive")
    if min(nx, ny, nz) < 1:
        raise ValueError("element counts must be at least 1")
    xs = np.linspace(0.0, d1, nx + 1)
    ys = np.linspace(0.0, d2, ny + 1)
    zs = np.linspace(0.0, d3, nz + 1)
    Z, Y, X = np.meshgrid(zs, ys, xs, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])

    def nid(ix, iy, iz):
        return ix + (nx + 1) * (iy + (ny + 1) * iz)

    ix, iy, iz = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz),
                             indexing="ij")
    ix, iy, iz = ix.ravel(), iy.ravel(), iz.ravel()
    conn = np.column_stack([
        nid(ix, iy, iz), nid(ix + 1, iy, iz),
        nid(ix + 1, iy + 1, iz), nid(ix, iy + 1, iz),
        nid(ix, iy, iz + 1), nid(ix + 1, iy, iz + 1),
        nid(ix + 1, iy + 1, iz + 1), nid(ix, iy + 1, iz + 1)])

    end = np.isclose(nodes[:, 0], 0.0) | np.isclose(nodes[:, 0], d1)
    if support == "line":
        if nz % 2 != 0:
            raise ValueError("support='line' needs an even nz so a node row "
                             "sits at mid-height z = d3/2")
        sel = end & np.isclose(nodes[:, 2], 0.5 * d3)
    elif support == "face":
        sel = end
    else:
        raise ValueError("support must be 'line' or 'face', got %r" % (support,))
    return Mesh(nodes, conn, np.nonzero(sel)[0])


def write_vtk(mesh, path, point_data=None, cell_data=None):
    """Dump the mesh as a legacy ASCII VTK unstructured grid (cell type 12).

    point_data / cell_data: dicts mapping names to scalar arrays (n_nodes,) /
    (n_elements,) or vector arrays (n_nodes, 3).
    """
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 2.0\n")
        fh.write("hexahedral box mesh\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write("POINTS %d double\n" % mesh.n_nodes)
        for p in mesh.nodes:
            fh.write("%.17g %.17g %.17g\n" % tuple(p))
        fh.write("CELLS %d %d\n" % (mesh.n_elements, 9 * mesh.n_elements))
        for c in mesh.conn:
            fh.write("8 " + " ".join(str(int(i)) for i in c) + "\n")
        fh.write("CELL_TYPES %d\n" % mesh.n_elements)
        for _ in range(mesh.n_elements):
            fh.write("12\n")
        for tag, n, data in (("POINT_DATA", mesh.n_nodes, point_data),
                             ("CELL_DATA", mesh.n_elements, cell_data)):
            if not data:
                continue
            fh.write("%s %d\n" % (tag, n))
            for name, arr in data.items():
                arr = np.asarray(arr, dtype=float)
                if arr.ndim == 2 and arr.shape == (n, 3):
                    fh.write("VECTORS %s double\n" % name)
                    for v in arr:
                        fh.write("%.17g %.17g %.17g\n" % tuple(v))
                elif arr.shape == (n,):
                    fh.write("SCALARS %s double 1\n" % name)
                    fh.write("LOOKUP_TABLE default\n")
                    for v in arr:
                        fh.write("%.17g\n" % v)
                else:
                    raise ValueError("field %r has shape %s, expected (%d,) "
                                     "or (%d, 3)" % (name, arr.shape, n, n))
