"""Mass/stiffness assembly, strain and internal-force operators, modal analysis.

All operators share the mesh's tabulated B matrices, so internal_force is the
exact quadrature adjoint of strain_at_gauss and

    internal_force(mesh, E : strain_at_gauss(mesh, u)) == K u

holds to round-off.  The Newmark march relies on this identity: it takes the
elastic part of every internal force from the assembled K and integrates at
Gauss points only the damage correction sigma - E : eps.

`SpatialSystem.solve_free` serves two kinds of operator ca*M + cc*C + ck*K
on the free DOFs.  A triple with ca >= 0, cc >= 0 and ck > 0 is symmetric
positive definite by construction (M and K_ff are SPD, C = alpha M + beta K
is PSD): every Newmark K_eff and the static solve are such triples, and they
get a banded Cholesky factorization (LAPACK dpbtrf/dpbtrs) in a reverse
Cuthill-McKee order of the free-DOF pattern.  On the 32x4x4 beam (2445 free
DOFs, bandwidth 182) one of its solves took 0.30 ms against 0.66 ms for the
sparse LU, on the 16x2x2 beam (441 DOFs, bandwidth 63) 0.033 against
0.049 ms, and its band holds 183 x 2445 entries against 512,732 in the LU's
L + U.  Any other triple keeps the sparse LU with pivoting: the
enrichment's space operator is indefinite when <lam'' lam> < 0.
"""

import mmap

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .mesh import _shape, _GP
from .timegrid import spatial_blocks


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
    """Engineering-strain Voigt samples of a nodal field or history.

    u (n_dofs,) gives (n_gauss, 6); a history u (n_dofs, n_t) gives
    (n_gauss, n_t, 6), written block by block of elements, so no
    temporary is larger than a block.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim not in (1, 2) or u.shape[0] != mesh.n_dofs:
        raise ValueError("u has shape %s, expected (%d,) or (%d, n_t)"
                         % (u.shape, mesh.n_dofs, mesh.n_dofs))
    B = mesh.B.reshape(mesh.n_elements, -1, 24)          # (e, gp * 6, 24)
    if u.ndim == 1:
        return (B @ u[mesh.edofs][:, :, None]).reshape(-1, 6)
    n_t = u.shape[1]
    out = np.empty((mesh.n_gauss, n_t, 6))
    per_element = out.reshape(mesh.n_elements, -1, n_t, 6)  # (e, gp, n_t, 6)
    for s in spatial_blocks(per_element):
        eps = B[s] @ u[mesh.edofs[s]]                    # (e, gp * 6, n_t)
        per_element[s] = eps.reshape(eps.shape[0], -1, 6, n_t).transpose(0, 1, 3, 2)
    return out


def internal_force(mesh, sig):
    """Nodal force vector (N) equivalent to a stress-Voigt field (n_gauss, 6).

    Quadrature adjoint of strain_at_gauss: f . u = int sig : eps(u) for all u.
    """
    sig = np.asarray(sig, dtype=float)
    w = mesh.gp_weights
    if sig.shape != (w.size, 6):
        raise ValueError("sig has shape %s, expected (%d, 6)" % (sig.shape, w.size))
    B = mesh.B.reshape(mesh.n_elements, -1, 24)
    sw = sig.reshape(w.shape + (6,)) * w[:, :, None]
    fe = sw.reshape(w.shape[0], 1, -1) @ B               # (e, 1, 24)
    return np.bincount(mesh.edofs.ravel(), fe.ravel(), minlength=mesh.n_dofs)


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
    prescribed (support-motion) DOFs into the free equations.  A system
    built without damping (C = None) stores C as a sparse matrix with no
    entries, so its damping terms are exact zeros that cost no real work.
    The last factorization of ca*M + cc*C + ck*K on the free DOFs is kept
    (see `solve_free`); `n_factorizations` counts actual numeric
    factorizations for the solver reuse assertions.  A triple with
    ca >= 0, cc >= 0 and ck > 0 is factorized by banded Cholesky, any other
    by sparse LU (module docstring); the band's ordering is computed at the
    first Cholesky factorization, so building a system orders nothing.
    """

    def __init__(self, mesh, M, K, C=None):
        C = C if C is not None else sp.csr_matrix(M.shape)
        self.mesh = mesh
        self.M, self.K, self.C = M, K, C
        self.free = mesh.free_dofs
        self.prescribed = mesh.prescribed_dofs
        self.n_free = self.free.size
        self.Mff, self.Mfp = self._blocks(M)
        self.Kff, self.Kfp = self._blocks(K)
        self.Cff, self.Cfp = self._blocks(C)
        self._solve = (None, None)   # (coefficient triple, factorized solve)
        self._band_order = None      # (permutation, its inverse, bandwidth)
        self.n_factorizations = 0

    def _blocks(self, A):
        A = A.tocsr()
        return (A[self.free][:, self.free].tocsc(),
                A[self.free][:, self.prescribed].tocsc())

    def operator(self, ca, cc, ck):
        """ca*M + cc*C + ck*K restricted to the free DOFs (csc)."""
        return ca * self.Mff + ck * self.Kff + cc * self.Cff

    def solve_free(self, ca, cc, ck, rhs):
        """Direct solve of (ca*M + cc*C + ck*K) x = rhs on the free DOFs, rhs 1-D.

        A triple with ca >= 0, cc >= 0 and ck > 0 gives a symmetric positive
        definite operator: it is factorized by banded Cholesky
        (`_banded_cholesky`), and a factorization that meets a non-positive
        pivot (a singular K_ff) raises RuntimeError naming the triple.  Any
        other triple is factorized by sparse LU with a fill-reducing
        minimum-degree ordering of A^T + A and a symmetric-mode pivot
        preference: the operator is symmetric, so diagonal pivots keep the
        fill of the ordering.  Pivoting stays on, because the enrichment's
        space operator can be indefinite (<lam'' lam> < 0).  A singular
        operator raises RuntimeError there too.  The module docstring gives
        the measured cost of both.

        Only the last factorization is kept: a call with the coefficient
        triple of the previous call reuses it, any other triple refactorizes.
        That is all the callers need: a Newmark march solves with one triple
        at every step, and an enrichment sweep moves to a new triple and
        never comes back to an older one (on the ``mono_sine`` preset held
        to 3 modes, 814 LATIN solves over 15 triples, none of them repeated
        after another triple came in between).
        """
        key = (float(ca), float(cc), float(ck))
        cached, solve = self._solve
        if key != cached:
            if key[0] >= 0.0 and key[1] >= 0.0 and key[2] > 0.0:
                solve = self._banded_cholesky(*key)
            else:
                solve = spla.splu(self.operator(*key).tocsc(),
                                  permc_spec="MMD_AT_PLUS_A",
                                  options=dict(SymmetricMode=True)).solve
            self._solve = (key, solve)
            self.n_factorizations += 1
        return solve(np.asarray(rhs, dtype=float))

    def _banded_cholesky(self, ca, cc, ck):
        """Solve function of the SPD operator of a triple, by banded Cholesky.

        The free DOFs are renumbered in the reverse Cuthill-McKee order of
        the pattern of M + C + K, computed once.  The lower band is filled
        straight from the operator's coordinate entries through the inverse
        permutation, in the Fortran layout LAPACK factorizes in place.

        The band lives in its own anonymous memory map, outside the malloc
        heap: the cache keeps it as long as the system, and on the heap it
        would pin whatever was allocated below it, such as the history
        arrays of the march that factorized it, after they are freed (peak
        RSS of the 32x4x4 elastic benchmark run: +13 MB on the heap, +4 MB
        mapped, against the sparse LU).
        """
        if self._band_order is None:
            pattern = abs(self.Mff) + abs(self.Cff) + abs(self.Kff)
            perm = reverse_cuthill_mckee(pattern.tocsr(), symmetric_mode=True)
            inv = np.empty_like(perm)
            inv[perm] = np.arange(perm.size, dtype=perm.dtype)
            coo = pattern.tocoo()
            width = int(np.abs(inv[coo.row] - inv[coo.col]).max(initial=0))
            self._band_order = (perm, inv, width)
        perm, inv, width = self._band_order
        A = self.operator(ca, cc, ck).tocoo()
        row, col = inv[A.row], inv[A.col]
        lower = row >= col
        band = np.ndarray((width + 1, self.n_free), order="F",
                          buffer=mmap.mmap(-1, 8 * (width + 1) * self.n_free))
        band[row[lower] - col[lower], col[lower]] = A.data[lower]
        factor, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if info != 0:
            raise RuntimeError(
                "operator %g*M + %g*C + %g*K on the free DOFs is not positive "
                "definite: banded Cholesky stopped at pivot %d"
                % (ca, cc, ck, info))

        def solve(rhs):
            return dpbtrs(factor, rhs[perm], lower=1, overwrite_b=1)[0][inv]

        return solve
