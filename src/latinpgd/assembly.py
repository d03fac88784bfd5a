"""Mass/stiffness assembly, strain and internal-force operators, modal analysis.

All operators share the mesh's tabulated B matrices, so internal_force is the
exact quadrature adjoint of strain_at_gauss and
internal_force(C : strain_at_gauss(u)) == K u holds to round-off.
"""

import collections

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh

from .mesh import _shape, _GP

_SOLVE_CACHE_SIZE = 8


def _scatter(mesh, values):
    """Assemble per-element dense blocks (n_el, 24, 24) into a sparse matrix.

    Duplicates are summed with a stable lexicographic sort, so entries (i, j)
    and (j, i) accumulate identical value sequences in identical order:
    exactly symmetric blocks give an exactly symmetric matrix, bit for bit,
    independent of scipy's internal summation order.
    """
    rows = np.repeat(mesh.edofs[:, :, None], 24, axis=2).ravel()
    cols = np.repeat(mesh.edofs[:, None, :], 24, axis=1).ravel()
    order = np.lexsort((cols, rows))
    r, c, v = rows[order], cols[order], values.ravel()[order]
    new = np.empty(r.size, dtype=bool)
    new[0] = True
    new[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    starts = np.nonzero(new)[0]
    vals = np.add.reduceat(v, starts)
    A = sp.coo_matrix((vals, (r[starts], c[starts])),
                      shape=(mesh.n_dofs, mesh.n_dofs))
    return A.tocsr()


def assemble_mass(mesh, rho):
    """Consistent mass matrix (kg): rho * int N_a N_b dV on each component."""
    Nv = _shape(_GP)                                    # (8gp, 8)
    # factored form G^T G keeps the element blocks exactly symmetric
    G = np.sqrt(mesh.gp_weights * rho)[:, :, None] * Nv[None, :, :]
    me_scalar = np.einsum("ega,egb->eab", G, G)
    blocks = np.zeros((mesh.n_elements, 8, 3, 8, 3))
    for i in range(3):
        blocks[:, :, i, :, i] = me_scalar
    return _scatter(mesh, blocks.reshape(mesh.n_elements, 24, 24))


def assemble_stiffness(mesh, hooke):
    """Elastic stiffness (N/m): int B^T D B dV with the engineering-Voigt D.

    D is split as L L^T (Cholesky), so each element block is an exact Gram
    matrix and the assembly is exactly symmetric.
    """
    L = np.linalg.cholesky(hooke.matrix)
    G = np.sqrt(mesh.gp_weights)[:, :, None, None] * np.einsum(
        "ar,egai->egri", L, mesh.B)
    ke = np.einsum("egri,egrj->eij", G, G, optimize=True)
    return _scatter(mesh, ke)


def strain_at_gauss(mesh, u):
    """Engineering-strain Voigt samples (n_gauss, 6) of a nodal field u."""
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.n_dofs,):
        raise ValueError("u has shape %s, expected (%d,)" % (u.shape, mesh.n_dofs))
    eps = np.einsum("egai,ei->ega", mesh.B, u[mesh.edofs])
    return eps.reshape(mesh.n_gauss, 6)


def internal_force(mesh, sig):
    """Nodal force vector (N) equivalent to a stress-Voigt field (n_gauss, 6).

    Quadrature adjoint of strain_at_gauss: f . u = int sig : eps(u) for all u.
    """
    sig = np.asarray(sig, dtype=float)
    if sig.shape != (mesh.n_gauss, 6):
        raise ValueError("sig has shape %s, expected (%d, 6)"
                         % (sig.shape, mesh.n_gauss))
    s = sig.reshape(mesh.n_elements, mesh.n_gauss_per_element, 6)
    fe = np.einsum("eg,egai,ega->ei", mesh.gp_weights, mesh.B, s)
    f = np.zeros(mesh.n_dofs)
    np.add.at(f, mesh.edofs, fe)
    return f


_DENSE_EIG_LIMIT = 5000


def modal_analysis(M, K, n):
    """First n natural frequencies (Hz) and mass-normalized mode shapes.

    M, K are the symmetric matrices of the constrained system (free DOFs).
    Solved densely up to 5000 DOFs, by shift-invert Lanczos with a fixed
    start vector beyond that, so results are deterministic either way.
    """
    size = M.shape[0]
    if not 1 <= n <= size:
        raise ValueError("cannot extract %d modes from %d DOFs" % (n, size))
    if size <= _DENSE_EIG_LIMIT:
        Kd = K.toarray() if sp.issparse(K) else np.asarray(K)
        Md = M.toarray() if sp.issparse(M) else np.asarray(M)
        w, V = eigh(Kd, Md, subset_by_index=(0, n - 1))
    else:
        w, V = spla.eigsh(K.tocsc(), k=n, M=M.tocsc(), sigma=0.0, which="LM",
                          v0=np.ones(size))
        order = np.argsort(w)
        w, V = w[order], V[:, order]
        mnorm = np.einsum("in,in->n", V, M @ V)
        V = V / np.sqrt(mnorm)[None, :]
    freqs = np.sqrt(np.maximum(w, 0.0)) / (2.0 * np.pi)
    return freqs, V


def rayleigh_coeffs(xi, f_a, f_b):
    """Rayleigh damping C = alpha M + beta K with ratio xi exactly at f_a, f_b."""
    if not 0.0 <= xi < 1.0:
        raise ValueError("damping ratio must lie in [0, 1)")
    if xi == 0.0:
        return 0.0, 0.0
    if f_a <= 0.0 or f_b <= 0.0 or f_a >= f_b:
        raise ValueError("need 0 < f_a < f_b")
    wa, wb = 2.0 * np.pi * f_a, 2.0 * np.pi * f_b
    alpha = 2.0 * xi * wa * wb / (wa + wb)
    beta = 2.0 * xi / (wa + wb)
    return alpha, beta


class SpatialSystem:
    """Assembled matrices plus the free/prescribed DOF partition.

    Sub-blocks are precomputed: `Aff` acts on free DOFs, `Afp` couples the
    prescribed (support-motion) DOFs into the free equations.  Factorizations
    of ca*M + cc*C + ck*K on the free DOFs are cached by coefficient triple;
    `n_factorizations` counts actual numeric factorizations for the solver
    reuse assertions.
    """

    def __init__(self, mesh, M, K, C=None):
        self.mesh = mesh
        self.M, self.K, self.C = M, K, C
        self.free = mesh.free_dofs
        self.prescribed = mesh.prescribed_dofs
        self.n_free = self.free.size
        self.Mff, self.Mfp = self._blocks(M)
        self.Kff, self.Kfp = self._blocks(K)
        if C is not None:
            self.Cff, self.Cfp = self._blocks(C)
        else:
            self.Cff = self.Cfp = None
        self._solves = collections.OrderedDict()
        self.n_factorizations = 0

    def _blocks(self, A):
        A = A.tocsr()
        return (A[self.free][:, self.free].tocsc(),
                A[self.free][:, self.prescribed].tocsc())

    def operator(self, ca, cc, ck):
        """ca*M + cc*C + ck*K restricted to the free DOFs (csc)."""
        A = ca * self.Mff + ck * self.Kff
        if cc != 0.0:
            if self.Cff is None:
                raise ValueError("system has no damping matrix")
            A = A + cc * self.Cff
        return A

    def solve_free(self, ca, cc, ck, rhs):
        """Direct solve of (ca*M + cc*C + ck*K) x = rhs on the free DOFs.

        The sparse LU factorization is computed once per coefficient triple
        and reused (rhs may be a vector or a stack of columns).  The cache
        keeps the most recently used factorizations only: time marching hits
        a single triple throughout, while enrichment sweeps ever-changing
        triples and must not accumulate one factorization per solve.
        """
        key = (float(ca), float(cc), float(ck))
        solve = self._solves.get(key)
        if solve is None:
            solve = spla.factorized(self.operator(ca, cc, ck))
            self._solves[key] = solve
            self.n_factorizations += 1
            while len(self._solves) > _SOLVE_CACHE_SIZE:
                self._solves.popitem(last=False)
        else:
            self._solves.move_to_end(key)
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim == 1:
            return solve(rhs)
        return np.column_stack([solve(rhs[:, j]) for j in range(rhs.shape[1])])
