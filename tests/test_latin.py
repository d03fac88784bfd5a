"""LATIN driver checks: manifold distance, its norms, and argument validation."""

import numpy as np
import pytest

from latinpgd.latin import _st_norm2, elastic_solution, latin_error, run_latin
from latinpgd.material import reference_concrete
from latinpgd.mesh import generate_box_mesh
from latinpgd.newmark import (LoadCase, newmark_quasi_newton,
                              resample_fields_to_gauss)
from latinpgd.timegrid import TimeGrid, quad_resample_to_gauss

from test_newmark import desk_system


@pytest.fixture(scope="module")
def setup():
    mesh = generate_box_mesh(2.0, 1.0, 0.5, 2, 1, 2)
    grid = TimeGrid(0.5, 3)
    return mesh, grid


def random_field(setup, seed):
    mesh, grid = setup
    rng = np.random.default_rng(seed)
    return rng.normal(size=(mesh.n_gauss, grid.n_gauss, 6))


def test_st_norm2_of_constant_field_is_contraction_times_measure(setup):
    mesh, grid = setup
    v = np.array([1.0, -2.0, 3.0, 0.5, -1.0, 2.0])
    field = np.broadcast_to(v, (mesh.n_gauss, grid.n_gauss, 6))
    measure = 1.0 * 0.5            # box volume 1.0 m^3 times horizon 0.5 s
    normal = 1.0 + 4.0 + 9.0
    shear = 0.25 + 1.0 + 4.0
    assert _st_norm2(mesh, grid, field, "stress") == pytest.approx(
        (normal + 2.0 * shear) * measure, rel=1e-12)
    assert _st_norm2(mesh, grid, field, "strain") == pytest.approx(
        (normal + 0.5 * shear) * measure, rel=1e-12)


def test_st_norm2_rejects_unknown_flavor(setup):
    mesh, grid = setup
    with pytest.raises(ValueError, match="flavor"):
        _st_norm2(mesh, grid, random_field(setup, 0), "displacement")


def test_latin_error_is_zero_for_identical_pairs(setup):
    mesh, grid = setup
    sig, eps = random_field(setup, 1), random_field(setup, 2)
    assert latin_error(sig, sig.copy(), eps, eps.copy(), mesh, grid) == 0.0


def test_latin_error_adds_relative_gaps_in_quadrature(setup):
    mesh, grid = setup
    sig, eps = random_field(setup, 3), random_field(setup, 4)
    xi = latin_error(sig, 0.9 * sig, eps, 1.2 * eps, mesh, grid)
    assert xi == pytest.approx(np.hypot(0.1, 0.2), rel=1e-12)


@pytest.mark.parametrize("vanishing", ["sig", "eps"])
def test_latin_error_rejects_vanishing_global_fields(setup, vanishing):
    mesh, grid = setup
    fields = {"sig": random_field(setup, 5), "eps": random_field(setup, 6)}
    fields[vanishing] = np.zeros_like(fields[vanishing])
    sig, eps = fields["sig"], fields["eps"]
    with pytest.raises(ValueError, match="vanishes"):
        latin_error(sig, sig + 1.0, eps, eps + 1.0, mesh, grid)


@pytest.mark.parametrize("zeta_stop", [0.0, -1e-3])
def test_run_latin_rejects_nonpositive_threshold(zeta_stop):
    with pytest.raises(ValueError, match="zeta_stop"):
        run_latin(None, None, None, None, zeta_stop=zeta_stop)


def test_elastic_start_is_the_resampled_elastic_march():
    # Damped desk beam, short window, load far below the damage threshold.
    system = desk_system()
    params = reference_concrete()
    grid = TimeGrid(0.1, 10)
    load = LoadCase(np.array([2e-3]), np.array([3.0]))
    el = elastic_solution(system, params, load, grid)
    res = newmark_quasi_newton(system, params, load,
                               np.linspace(0.0, grid.T, 2 * grid.n_elements + 1),
                               damage=False)
    assert np.array_equal(el["u"], quad_resample_to_gauss(grid, res["u"]))
    # strain of the resampled displacement == resampled strain of the march
    eps_ref = resample_fields_to_gauss(grid, res)[0]
    assert el["eps"].shape == eps_ref.shape
    np.testing.assert_allclose(el["eps"], eps_ref, rtol=1e-12,
                               atol=1e-12 * np.abs(eps_ref).max())
    assert np.array_equal(el["sig"], params.hooke().apply(el["eps"]))
    # so the local stage returns the elastic stress bit for bit
    state = run_latin(system, params, load, grid)
    assert state.converged and state.n_modes == 0 and state.xi == 0.0
    assert not state.damage.any()
    assert state.elastic_seconds > 0.0
