"""Tensor kernel checks: Voigt algebra, Hooke tensor, released-energy kernel."""

import numpy as np
import pytest

from latinpgd.material import released_energy
from latinpgd.tensors import HookeTensor, voigt_to_matrix


def matrix_to_voigt(t, flavor):
    """Symmetric 3x3 matrix(es) -> Voigt 6-vector(s), t (..., 3, 3).

    The inverse of `voigt_to_matrix`: engineering shears (doubled) for the
    strain flavor, plain components for stresses.
    """
    t = np.asarray(t, dtype=float)
    shear = 2.0 if flavor == "strain" else 1.0
    return np.stack([t[..., 0, 0], t[..., 1, 1], t[..., 2, 2], shear * t[..., 1, 2],
                     shear * t[..., 0, 2], shear * t[..., 0, 1]], axis=-1)


def random_sym(rng, scale=1.0):
    m = rng.normal(size=(3, 3)) * scale
    return 0.5 * (m + m.T)


def full_hooke(C):
    """The 3x3x3x3 stiffness C_ijkl = lam d_ij d_kl + mu (d_ik d_jl + d_il d_jk)."""
    d = np.eye(3)
    return (C.lam * np.einsum("ij,kl->ijkl", d, d)
            + C.mu * (np.einsum("ik,jl->ijkl", d, d)
                      + np.einsum("il,jk->ijkl", d, d)))


class TestHooke:
    def test_unit_modulus_zero_poisson(self):
        C = HookeTensor(1.0, 0.0).matrix
        assert np.allclose(C, np.diag([1.0, 1.0, 1.0, 0.5, 0.5, 0.5]), atol=1e-15)

    def test_concrete_c1111(self):
        C = HookeTensor(37.9e9, 0.2)
        assert C.matrix[0, 0] == pytest.approx(42.111111111e9, rel=1e-9)

    @pytest.mark.parametrize("nu", [0.5, 0.6, -1.0])
    def test_invalid_poisson_rejected(self, nu):
        with pytest.raises(ValueError):
            HookeTensor(30e9, nu)

    def test_negative_modulus_rejected(self):
        with pytest.raises(ValueError):
            HookeTensor(-1.0, 0.2)

    @pytest.mark.parametrize("E", [np.nan, np.inf])
    def test_non_finite_modulus_rejected(self, E):
        with pytest.raises(ValueError, match="Young modulus"):
            HookeTensor(E, 0.2)

    def test_spd_and_inverse(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            E = rng.uniform(1.0, 100e9)
            nu = rng.uniform(-0.9, 0.49)
            C = HookeTensor(E, nu)
            w = np.linalg.eigvalsh(C.matrix)
            assert w.min() > 0.0
            assert np.allclose(C.matrix @ C.inverse, np.eye(6), atol=1e-12)

    def test_voigt_contraction_matches_fourth_order_tensor(self):
        """a : C : b computed in Voigt equals the full 3^4 contraction."""
        rng = np.random.default_rng(7)
        C = HookeTensor(37.9e9, 0.2)
        C4 = full_hooke(C)
        for _ in range(100):
            a = random_sym(rng, 1e-4)
            b = random_sym(rng, 1e-4)
            av = matrix_to_voigt(a, "strain")
            bv = matrix_to_voigt(b, "strain")
            full = np.einsum("ij,ijkl,kl->", a, C4, b)
            assert av @ C.apply(bv) == pytest.approx(full, rel=1e-12)

    def test_apply_roundtrip(self):
        rng = np.random.default_rng(11)
        C = HookeTensor(37.9e9, 0.2)
        eps = matrix_to_voigt(random_sym(rng, 1e-4), "strain")
        sig = C.apply(eps)
        assert np.allclose(C.apply_inverse(sig), eps, rtol=1e-12)


class TestVoigt:
    def test_flavor_shear_convention(self):
        m = np.array([[1.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 3.0]])
        eps = matrix_to_voigt(m, "strain")
        sig = matrix_to_voigt(m, "stress")
        assert eps[5] == pytest.approx(1.0)   # engineering shear = 2*eps_xy
        assert sig[5] == pytest.approx(0.5)
        assert np.allclose(voigt_to_matrix(eps), m)


def _random_strains():
    rng = np.random.default_rng(12)
    return np.stack([random_sym(rng, s) for s in np.logspace(-8, -2, 100)])


# Released-energy inputs: generic tensors over six decades, then the cases
# where eigensolvers are fragile (zero, triple and double eigenvalues) and
# the pure-compression case where nothing may be released.
STRAINS = {
    "random": _random_strains(),
    "zero": np.zeros((1, 3, 3)),
    "isotropic_tension": 1e-4 * np.eye(3)[None],
    "uniaxial": np.diag([8.44e-5, 0.0, 0.0])[None],
    "compression": -1e-4 * np.eye(3)[None],
}


class TestReleasedEnergyKernel:
    @pytest.mark.parametrize("case", list(STRAINS))
    def test_matches_macaulay_route(self, case):
        """Y equals the explicit route: <eps>+ from eigh, then 1/2 <eps>+ : C : <eps>+ in 3^4."""
        C = HookeTensor(37.9e9, 0.2)
        eps = STRAINS[case]
        w, v = np.linalg.eigh(eps)
        pos = np.einsum("nik,nk,njk->nij", v, np.maximum(w, 0.0), v)
        want = 0.5 * np.einsum("nij,ijkl,nkl->n", pos, full_hooke(C), pos)
        got = released_energy(matrix_to_voigt(eps, "strain"), C)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_uniaxial_tension_value(self):
        """diag(e,0,0) with the concrete parameters: Y = 1/2 C1111 e^2."""
        C = HookeTensor(37.9e9, 0.2)
        e = 8.44e-5
        eps_v = np.array([e, 0.0, 0.0, 0.0, 0.0, 0.0])
        Y = released_energy(eps_v[None], C)[0]
        assert Y == pytest.approx(0.5 * 42.111111111e9 * e ** 2, rel=1e-9)
