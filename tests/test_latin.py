"""LATIN driver checks: manifold distance, its norms, and argument validation."""

import numpy as np
import pytest

from latinpgd.latin import _st_norm2, latin_error, run_latin
from latinpgd.mesh import generate_box_mesh
from latinpgd.timegrid import TimeGrid


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
