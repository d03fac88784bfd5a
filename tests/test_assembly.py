"""Assembly checks: mass, stiffness, strain/force operators, modes, damping."""

import numpy as np
import pytest

from latinpgd.assembly import (SpatialSystem, assemble_mass, assemble_stiffness,
                               internal_force, modal_analysis, rayleigh_coeffs,
                               strain_at_gauss)
from latinpgd.mesh import Mesh, generate_box_mesh
from latinpgd.tensors import HookeTensor

from test_tensors import matrix_to_voigt

CONCRETE = HookeTensor(37.9e9, 0.2)


def beam_mesh(divs=(16, 2, 2)):
    return generate_box_mesh(8.0, 0.3, 0.3, *divs)


class TestMass:
    def test_unit_cube_unit_density(self):
        mesh = generate_box_mesh(1.0, 1.0, 1.0, 2, 2, 2)
        M = assemble_mass(mesh, 1.0)
        one = np.ones(mesh.n_dofs)
        for comp in range(3):
            e = np.zeros(mesh.n_dofs)
            e[comp::3] = 1.0
            assert e @ (M @ e) == pytest.approx(1.0, rel=1e-12)
        assert one @ (M @ one) == pytest.approx(3.0, rel=1e-12)

    def test_desk_beam_total_mass(self):
        M = assemble_mass(beam_mesh(), 2550.0)
        ex = np.zeros(M.shape[0])
        ex[0::3] = 1.0
        assert ex @ (M @ ex) == pytest.approx(1836.0, rel=1e-10)

    def test_exact_symmetry(self):
        M = assemble_mass(beam_mesh((4, 2, 2)), 2550.0)
        assert (M - M.T).count_nonzero() == 0

    def test_quadrature_exact_for_trilinear_products(self):
        # two stretched 2 x 3 x 0.5 elements stacked in z: 2x2x2 Gauss vs the
        # analytic 8-node mass blocks, summed on the shared face
        mesh = generate_box_mesh(2.0, 3.0, 1.0, 1, 1, 2)
        M = assemble_mass(mesh, 7.0).toarray()
        # analytic: int N_a N_b over a box = V/216 * prod over dirs of (2 or 1)
        V = 3.0
        ref = np.zeros((mesh.n_nodes, mesh.n_nodes))
        for conn in mesh.conn:
            verts = mesh.nodes[conn]
            for a in range(8):
                for b in range(8):
                    f = 1.0
                    for k in range(3):
                        f *= 2.0 if verts[a, k] == verts[b, k] else 1.0
                    ref[conn[a], conn[b]] += f * V / 27.0 / 8.0
        got = M[0::3, 0::3] / 7.0
        assert np.allclose(got, ref, rtol=1e-12)


class TestStiffness:
    def test_exact_symmetry(self):
        K = assemble_stiffness(beam_mesh((4, 2, 2)), CONCRETE)
        assert (K - K.T).count_nonzero() == 0

    def test_six_rigid_body_modes(self):
        mesh = generate_box_mesh(1.0, 0.8, 0.6, 2, 2, 2)
        K = assemble_stiffness(mesh, CONCRETE)
        x = mesh.nodes
        modes = []
        for comp in range(3):
            u = np.zeros(mesh.n_dofs)
            u[comp::3] = 1.0
            modes.append(u)
        for axis in range(3):
            w = np.zeros(3)
            w[axis] = 1.0
            modes.append(np.cross(np.broadcast_to(w, (mesh.n_nodes, 3)), x).ravel())
        kn = abs(K).max()
        for u in modes:
            assert np.abs(K @ u).max() <= 1e-9 * kn * max(1.0, np.abs(u).max())
        # and exactly six: seventh smallest eigenvalue is clearly nonzero
        w = np.linalg.eigvalsh(K.toarray())
        assert w[5] < 1e-8 * w[-1] and w[6] > 1e-6 * w[-1]

    def test_patch_constant_strain(self):
        mesh = generate_box_mesh(1.3, 0.7, 0.9, 3, 2, 2)
        A = np.array([[1.0, 0.2, -0.1], [0.2, -0.5, 0.3], [-0.1, 0.3, 0.25]]) * 1e-4
        u = (mesh.nodes @ A.T).ravel()
        eps = strain_at_gauss(mesh, u)
        expect = matrix_to_voigt(A, "strain")
        assert np.allclose(eps, expect[None, :], rtol=1e-11, atol=1e-18)


class TestStrainForce:
    def test_zero_fields(self):
        mesh = beam_mesh((4, 2, 2))
        assert not strain_at_gauss(mesh, np.zeros(mesh.n_dofs)).any()
        assert not internal_force(mesh, np.zeros((mesh.n_gauss, 6))).any()

    def test_linearity(self):
        mesh = beam_mesh((4, 2, 2))
        rng = np.random.default_rng(2)
        u = rng.normal(size=mesh.n_dofs)
        assert np.allclose(strain_at_gauss(mesh, 3.5 * u),
                           3.5 * strain_at_gauss(mesh, u), rtol=1e-13)

    def test_size_mismatch_rejected(self):
        mesh = beam_mesh((4, 2, 2))
        with pytest.raises(ValueError):
            strain_at_gauss(mesh, np.zeros(10))
        with pytest.raises(ValueError):
            internal_force(mesh, np.zeros((5, 6)))

    def test_adjointness_on_random_fields(self):
        mesh = beam_mesh((4, 2, 2))
        rng = np.random.default_rng(4)
        for _ in range(5):
            u = rng.normal(size=mesh.n_dofs)
            sig = rng.normal(size=(mesh.n_gauss, 6))
            eps = strain_at_gauss(mesh, u)
            work_gauss = (np.einsum("gi,gi->g", sig, eps)
                          * mesh.gp_weights.ravel()).sum()
            f = internal_force(mesh, sig)
            assert f @ u == pytest.approx(work_gauss, rel=1e-10)

    def test_history_matches_full_snapshots(self):
        mesh = beam_mesh((4, 2, 2))
        rng = np.random.default_rng(8)
        U = rng.normal(size=(mesh.n_dofs, 5))
        hist = strain_at_gauss(mesh, U)
        assert hist.shape == (mesh.n_gauss, 5, 6) and hist.flags.c_contiguous
        for k in range(5):
            np.testing.assert_allclose(hist[:, k], strain_at_gauss(mesh, U[:, k]),
                                       rtol=0.0, atol=1e-13 * np.abs(hist).max())

    def test_consistency_with_stiffness(self):
        mesh = beam_mesh((4, 2, 2))
        K = assemble_stiffness(mesh, CONCRETE)
        rng = np.random.default_rng(6)
        u = rng.normal(size=mesh.n_dofs) * 1e-3
        f = internal_force(mesh, CONCRETE.apply(strain_at_gauss(mesh, u)))
        ref = K @ u
        assert np.allclose(f, ref, rtol=0.0, atol=1e-10 * np.abs(ref).max())


class TestModal:
    def test_definition_and_orthonormality(self):
        mesh = beam_mesh()
        sysm = SpatialSystem(mesh, assemble_mass(mesh, 2550.0),
                             assemble_stiffness(mesh, CONCRETE))
        f, V = modal_analysis(sysm.Mff, sysm.Kff, 5)
        assert np.all(np.diff(f) >= 0.0)
        G = V.T @ (sysm.Mff @ V)
        assert np.allclose(G, np.eye(5), atol=1e-8)
        for k in range(5):
            w2 = (2.0 * np.pi * f[k]) ** 2
            r = sysm.Kff @ V[:, k] - w2 * (sysm.Mff @ V[:, k])
            assert np.linalg.norm(r) <= 1e-6 * w2 * np.linalg.norm(sysm.Mff @ V[:, k])

    def test_too_many_modes_rejected(self):
        mesh = generate_box_mesh(1.0, 1.0, 1.0, 1, 1, 2)
        sysm = SpatialSystem(mesh, assemble_mass(mesh, 1.0),
                             assemble_stiffness(mesh, HookeTensor(1.0, 0.2)))
        with pytest.raises(ValueError):
            modal_analysis(sysm.Mff, sysm.Kff, sysm.n_free + 1)

    def test_sparse_path_matches_dense(self):
        mesh = beam_mesh((8, 2, 2))
        M = assemble_mass(mesh, 2550.0)
        K = assemble_stiffness(mesh, CONCRETE)
        sysm = SpatialSystem(mesh, M, K)
        fd, _ = modal_analysis(sysm.Mff, sysm.Kff, 4)
        import latinpgd.assembly as asm
        old = asm._DENSE_EIG_LIMIT
        asm._DENSE_EIG_LIMIT = 1
        try:
            fs, Vs = modal_analysis(sysm.Mff, sysm.Kff, 4)
        finally:
            asm._DENSE_EIG_LIMIT = old
        assert np.allclose(fs, fd, rtol=1e-8)
        G = Vs.T @ (sysm.Mff @ Vs)
        assert np.allclose(G, np.eye(4), atol=1e-8)

    def test_first_bending_frequency_of_refined_beam(self):
        # slow-ish (~2 s): dense generalized eigensolve on 2445 DOFs
        mesh = beam_mesh((32, 4, 4))
        sysm = SpatialSystem(mesh, assemble_mass(mesh, 2550.0),
                             assemble_stiffness(mesh, CONCRETE))
        f, _ = modal_analysis(sysm.Mff, sysm.Kff, 1)
        assert abs(f[0] - 8.99) <= 0.15 * 8.99
        # simply-supported closed form (pi/2) sqrt(EI/(rho A L^4)) = 8.19 Hz
        euler = 0.5 * np.pi * np.sqrt(37.9e9 * 0.3 * 0.3 ** 3 / 12.0
                                      / (2550.0 * 0.09 * 8.0 ** 4))
        assert euler == pytest.approx(8.19, abs=0.01)


class TestRayleigh:
    def test_zero_ratio(self):
        assert rayleigh_coeffs(0.0, 8.99, 45.8) == (0.0, 0.0)

    def test_exact_at_calibration_frequencies(self):
        alpha, beta = rayleigh_coeffs(0.02, 8.99, 45.8)
        for f in (8.99, 45.8):
            w = 2.0 * np.pi * f
            assert 0.5 * (alpha / w + beta * w) == pytest.approx(0.02, rel=1e-12)

    def test_curve_stays_near_target_inside_band(self):
        alpha, beta = rayleigh_coeffs(0.02, 8.99, 45.8)
        f = np.linspace(8.99, 45.8, 200)
        w = 2.0 * np.pi * f
        xi = 0.5 * (alpha / w + beta * w)
        assert xi.min() >= 0.02 * 0.5
        assert xi.max() <= 0.02 * (1.0 + 1e-12)

    @pytest.mark.parametrize("args", [(0.02, 45.8, 8.99), (0.02, 8.99, 8.99),
                                      (-0.1, 1.0, 2.0), (1.0, 1.0, 2.0)])
    def test_degenerate_inputs_rejected(self, args):
        with pytest.raises(ValueError):
            rayleigh_coeffs(*args)


class TestSpatialSystem:
    def test_factorization_cache_counts(self):
        mesh = beam_mesh((4, 2, 2))
        sysm = SpatialSystem(mesh, assemble_mass(mesh, 2550.0),
                             assemble_stiffness(mesh, CONCRETE))
        rng = np.random.default_rng(8)
        r = rng.normal(size=sysm.n_free)
        x1 = sysm.solve_free(1.0, 0.0, 2.0, r)
        x2 = sysm.solve_free(1.0, 0.0, 2.0, 2.0 * r)
        assert sysm.n_factorizations == 1
        assert np.allclose(x2, 2.0 * x1, rtol=1e-10)
        sysm.solve_free(2.0, 0.0, 1.0, r)
        assert sysm.n_factorizations == 2
        # one slot: going back to the first triple refactorizes
        x3 = sysm.solve_free(1.0, 0.0, 2.0, r)
        assert sysm.n_factorizations == 3
        assert np.array_equal(x3, x1)
        A = (sysm.Mff + 2.0 * sysm.Kff).toarray()
        assert np.allclose(A @ x1, r, rtol=0.0, atol=1e-8 * np.abs(r).max())

    def test_indefinite_operator_solves(self):
        # The enrichment's space operator <lam'' lam> M + <lam lam> K has
        # ca < 0 and can be indefinite; the symmetric-mode LU keeps pivoting.
        mesh = beam_mesh((4, 2, 2))
        sysm = SpatialSystem(mesh, assemble_mass(mesh, 2550.0),
                             assemble_stiffness(mesh, CONCRETE))
        freqs, _ = modal_analysis(sysm.Mff, sysm.Kff, 2)
        shift = np.mean((2.0 * np.pi * freqs) ** 2)   # between the first two
        A = sysm.operator(-shift, 0.0, 1.0).toarray()
        w = np.linalg.eigvalsh(A)
        assert w.min() < 0.0 < w.max()
        r = np.random.default_rng(9).normal(size=sysm.n_free)
        x = sysm.solve_free(-shift, 0.0, 1.0, r)
        assert np.linalg.norm(A @ x - r) <= 1e-10 * np.linalg.norm(r)

    @pytest.mark.parametrize("divs", [(16, 2, 2), (32, 4, 4)])
    def test_spd_triples_match_a_dense_solve(self, divs):
        # ca, cc >= 0 and ck > 0: the banded Cholesky path; a Newmark K_eff
        # of the damped beam (dt = 2.5 ms) and the static operator K_ff
        mesh = beam_mesh(divs)
        M = assemble_mass(mesh, 2550.0)
        K = assemble_stiffness(mesh, CONCRETE)
        alpha, beta = rayleigh_coeffs(0.02, 8.99, 45.8)
        sysm = SpatialSystem(mesh, M, K, C=alpha * M + beta * K)
        r = np.random.default_rng(10).normal(size=sysm.n_free)
        for triple in ((6.4e5, 800.0, 1.0), (0.0, 0.0, 1.0)):
            x = sysm.solve_free(*triple, r)
            ref = np.linalg.solve(sysm.operator(*triple).toarray(), r)
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_singular_spd_triple_raises(self):
        # without supports K_ff keeps its six rigid-body modes
        box = beam_mesh((4, 2, 2))
        mesh = Mesh(box.nodes, box.conn, [])
        sysm = SpatialSystem(mesh, assemble_mass(mesh, 2550.0),
                             assemble_stiffness(mesh, CONCRETE))
        assert sysm.n_free == mesh.n_dofs
        with pytest.raises(RuntimeError, match=r"0\*M \+ 0\*C \+ 1\*K"):
            sysm.solve_free(0.0, 0.0, 1.0, np.ones(sysm.n_free))

    def test_stiffness_spd_on_free_dofs(self):
        mesh = beam_mesh((4, 2, 2))
        sysm = SpatialSystem(mesh, assemble_mass(mesh, 2550.0),
                             assemble_stiffness(mesh, CONCRETE))
        w = np.linalg.eigvalsh(sysm.Kff.toarray())
        assert w.min() > 0.0
        wm = np.linalg.eigvalsh(sysm.Mff.toarray())
        assert wm.min() > 0.0

    def test_damping_term_of_the_operator(self):
        mesh = beam_mesh((4, 2, 2))
        M = assemble_mass(mesh, 2550.0)
        K = assemble_stiffness(mesh, CONCRETE)
        # an undamped system stores no damping entries: cc changes nothing
        sysm = SpatialSystem(mesh, M, K)
        assert sysm.C.nnz == sysm.Cff.nnz == sysm.Cfp.nnz == 0
        ref = 3.0 * sysm.Mff + 2.0 * sysm.Kff
        for cc in (0.0, 1.0, -7.5e3):
            A = sysm.operator(3.0, cc, 2.0)
            assert (A != ref).nnz == 0
        alpha, beta = rayleigh_coeffs(0.02, 8.99, 45.8)
        damped = SpatialSystem(mesh, M, K, C=(alpha * M + beta * K).tocsr())
        A = damped.operator(0.0, 1.0, 0.0)
        ref = alpha * damped.Mff + beta * damped.Kff
        assert abs((A - ref)).max() <= 1e-12 * abs(ref).max()
