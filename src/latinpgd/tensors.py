"""Symmetric second-order tensors in Voigt notation and isotropic elasticity.

Conventions
-----------
Voigt component order: (xx, yy, zz, yz, xz, xy).

Two flavors of Voigt vectors are used:

* ``'strain'`` — engineering shear components, v[3:] = 2*eps_ij.  With this
  convention the work pairing is a plain dot product, sigma_v . eps_v =
  sigma : eps, and the 6x6 Hooke matrix maps strain vectors to stress vectors.
* ``'stress'`` — plain tensor components, v[3:] = sig_ij.
"""

import math

import numpy as np

# Tensor contractions of Voigt vectors as weighted sums of squares:
# sig : sig for stress-Voigt (shear components counted twice) and
# eps : eps for engineering strain-Voigt (engineering shears halved twice).
STRESS_CONTRACTION = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
STRAIN_CONTRACTION = np.array([1.0, 1.0, 1.0, 0.5, 0.5, 0.5])


def voigt_to_matrix(v):
    """Strain-Voigt 6-vector(s) -> symmetric 3x3 matrix(es).  v may be (..., 6)."""
    v = np.asarray(v, dtype=float)
    t = np.empty(v.shape[:-1] + (3, 3))
    t[..., 0, 0] = v[..., 0]
    t[..., 1, 1] = v[..., 1]
    t[..., 2, 2] = v[..., 2]
    t[..., 1, 2] = t[..., 2, 1] = 0.5 * v[..., 3]
    t[..., 0, 2] = t[..., 2, 0] = 0.5 * v[..., 4]
    t[..., 0, 1] = t[..., 1, 0] = 0.5 * v[..., 5]
    return t


class HookeTensor:
    """Isotropic Hooke tensor: 6x6 matrix on strain-Voigt vectors and its inverse.

    matrix @ eps_v(strain flavor) = sig_v(stress flavor).
    """

    __slots__ = ("E", "nu", "lam", "mu", "matrix", "inverse")

    def __init__(self, E, nu):
        if not 0.0 < E < math.inf:
            raise ValueError("Young modulus must be finite and positive, got %g" % E)
        if not -1.0 < nu < 0.5:
            raise ValueError("Poisson ratio must lie in (-1, 0.5), got %g" % nu)
        self.E = float(E)
        self.nu = float(nu)
        self.lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
        self.mu = E / (2.0 * (1.0 + nu))
        C = np.zeros((6, 6))
        C[:3, :3] = self.lam
        C[0, 0] = C[1, 1] = C[2, 2] = self.lam + 2.0 * self.mu
        C[3, 3] = C[4, 4] = C[5, 5] = self.mu
        self.matrix = C
        S = np.zeros((6, 6))
        S[:3, :3] = -nu / E
        S[0, 0] = S[1, 1] = S[2, 2] = 1.0 / E
        S[3, 3] = S[4, 4] = S[5, 5] = 1.0 / self.mu
        self.inverse = S

    def apply(self, eps_v, out=None):
        """E : eps for engineering-strain Voigt field(s) (..., 6) -> stress Voigt.

        out : array to write the stress into; a new array by default.
        """
        return np.matmul(np.asarray(eps_v, dtype=float), self.matrix.T, out=out)

    def apply_inverse(self, sig_v):
        """E^-1 : sig for stress Voigt field(s) -> engineering-strain Voigt."""
        return np.asarray(sig_v, dtype=float) @ self.inverse.T
