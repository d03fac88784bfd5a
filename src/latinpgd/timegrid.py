"""Time-discontinuous Galerkin discretization of the temporal problems.

The time interval [0, T] is split into N_T uniform elements.  On each element
a scalar function is a degree-3 Lagrange polynomial on 4 equispaced nodes
(local coordinates 0, 1/3, 2/3, 1), so a function carries 4*N_T nodal values
and may jump across element boundaries.  Continuity is only enforced weakly:
the value is transferred between elements through penalty operators

    L^[k] : single entry [0, 0] = 1.1 * max(Q^[k])
    R^[k] : single entry [0, 3] = 1.1 * max(Q^[k])

and each element problem is marched forward with one factorized 4x4
operator for every element (by superposition: see `tdgm_march`).  The
initial value lam(0) = lam_init is imposed through the first element's L
operator with a transfer from a virtual previous element ending at
lam_init.

For a second-order equation a*lam'' + c*lam' + b*lam = f the value-transfer
row alone leaves the element problems over-determined in the wrong direction:
the start-of-element velocity is unconstrained, every element restarts the
oscillation with an arbitrary phase, and the march does not converge under
refinement (the relative error on a resolved forced oscillator stays O(1)
however fine the grid).  The march therefore carries the velocity across
interfaces as well, through an upwind flux row a*lam'(t_k+) = a*lam'(t_k-),
and closes the element system by collocating the strong residual at the
right-biased points tau = 2/3 and tau = 1.  That combination reproduces
cubics exactly, converges at second order (measured rel L2 error 3.7e-3 at
40 elements per period on a forced oscillator), and its element transfer map
has spectral radius <= 1 for every b = a*omega^2 (radius 1/2 in the stiff
limit), so temporal modes far above the grid resolution are damped instead
of amplified.

Quadrature is 4-point Gauss-Legendre per element (exact through degree 7),
the same points at which all space-time fields are sampled.
"""

import numpy as np
from scipy.linalg import lu_factor, lu_solve

# 4-point Gauss-Legendre on [0, 1]
_GX = 0.5 * (1.0 + np.array([-0.8611363115940526, -0.3399810435848563,
                             0.3399810435848563, 0.8611363115940526]))
_GW = 0.5 * np.array([0.3478548451374538, 0.6521451548625461,
                      0.6521451548625461, 0.3478548451374538])

_NODES = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
# Lagrange basis coefficients: N_i(tau) = sum_p _COEF[p, i] tau^p
_COEF = np.linalg.inv(np.vander(_NODES, 4, increasing=True).T).T


# A block of the leading (spatial) axis of a field holds about this many
# bytes, so a block and the temporaries formed from it stay in cache while
# it is reduced or updated.
_BLOCK_BYTES = 1 << 19


def spatial_blocks(field):
    """Slices of the leading (spatial) axis of a field, about _BLOCK_BYTES each."""
    rows = max(1, _BLOCK_BYTES // max(field[0].nbytes, 1))
    return [slice(i, i + rows) for i in range(0, len(field), rows)]


def _basis(tau, deriv=0):
    """Values of the 4 cubic Lagrange basis functions (or derivatives in tau)."""
    tau = np.asarray(tau, dtype=float)
    powers = np.arange(4)
    if deriv == 0:
        V = tau[..., None] ** powers
        C = _COEF
    elif deriv == 1:
        V = np.concatenate([np.zeros(tau.shape + (1,)),
                            (powers[1:] * tau[..., None] ** (powers[1:] - 1))], axis=-1)
        C = _COEF
        return V @ C
    elif deriv == 2:
        out = np.zeros(tau.shape + (4,))
        out += 2.0 * _COEF[2][None]
        out += 6.0 * tau[..., None] * _COEF[3][None]
        return out
    else:
        raise ValueError("deriv must be 0, 1 or 2")
    return V @ C


class TimeGrid:
    """Uniform time-DG grid: element boundaries, nodes, Gauss tables."""

    def __init__(self, T, n_elements):
        if T <= 0.0 or n_elements < 1:
            raise ValueError("need T > 0 and n_elements >= 1")
        self.T = float(T)
        self.n_elements = int(n_elements)
        self.h = self.T / self.n_elements
        self.t_bounds = np.linspace(0.0, self.T, self.n_elements + 1)
        self.node_times = self.t_bounds[:-1, None] + self.h * _NODES[None, :]
        self.gauss_local = _GX
        self.gauss_weights_local = _GW
        self.gauss_times = self.t_bounds[:-1, None] + self.h * _GX[None, :]
        # flattened views over all elements
        self.all_gauss_times = self.gauss_times.ravel()
        self.all_gauss_weights = np.tile(_GW * self.h, self.n_elements)
        self.n_gauss = self.all_gauss_times.size
        # shape tables at the Gauss points: value, d/dt, d2/dt2
        self.N = _basis(_GX, 0)
        self.dN = _basis(_GX, 1) / self.h
        self.d2N = _basis(_GX, 2) / self.h ** 2
        self._N_inv = np.linalg.inv(self.N)

    def inner(self, a, b):
        """Time integral of a*b over [0, T] from Gauss samples (..., n_gauss)."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return (a * b) @ self.all_gauss_weights


class TimeFunction:
    """Piecewise-cubic function on a TimeGrid, stored by nodal values (n_el, 4)."""

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid, coeffs=None):
        self.grid = grid
        if coeffs is None:
            coeffs = np.zeros((grid.n_elements, 4))
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (grid.n_elements, 4):
            raise ValueError("coeffs must have shape (n_elements, 4)")
        self.coeffs = coeffs

    def values_at_gauss(self, deriv=0):
        """Samples at all Gauss points, flattened to (n_gauss,)."""
        table = (self.grid.N, self.grid.dN, self.grid.d2N)[deriv]
        return (self.coeffs @ table.T).ravel()

    def eval(self, t, deriv=0):
        """Evaluate at arbitrary times (element-local polynomial evaluation).

        At element boundaries the left element's value is returned (except at
        t=0).  Mainly a diagnostic; solver inner products use Gauss samples.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        g = self.grid
        k = np.clip(np.ceil(t / g.h).astype(int) - 1, 0, g.n_elements - 1)
        tau = (t - g.t_bounds[k]) / g.h
        table = _basis(tau, deriv) / g.h ** deriv
        return np.einsum("ti,ti->t", self.coeffs[k], table)

    def jumps(self, init=0.0):
        """Jump diagnostics: [lam(0+) - init, interior jumps across boundaries]."""
        inner = self.coeffs[1:, 0] - self.coeffs[:-1, 3]
        first = self.coeffs[0, 0] - init
        return np.concatenate([[first], inner])

    def scale(self, c):
        return TimeFunction(self.grid, self.coeffs * float(c))


def l2_fit(grid, samples):
    """Per-element least-squares cubic fit of Gauss samples -> TimeFunction.

    With 4 samples and 4 nodal values per element the fit is an exact solve;
    cubic data is reproduced to round-off.
    """
    s = np.asarray(samples, dtype=float).reshape(grid.n_elements, 4)
    return TimeFunction(grid, s @ grid._N_inv.T)


def element_operator(grid, a, c, b):
    """Q^[k] = int over the element of (a N (x) N'' + c N (x) N' + b N (x) N) dt.

    Uniform elements make Q identical for every element.  Integrands are of
    degree <= 6, so the 4-point rule is exact.
    """
    g = grid
    w = g.gauss_weights_local * g.h
    Q = np.zeros((4, 4))
    Q += a * np.einsum("g,gi,gj->ij", w, g.N, g.d2N)
    if c != 0.0:
        Q += c * np.einsum("g,gi,gj->ij", w, g.N, g.dN)
    Q += b * np.einsum("g,gi,gj->ij", w, g.N, g.N)
    return Q


# collocation abscissae for the residual rows (right-biased; see module docstring)
_TAU_COLLOCATION = np.array([2.0 / 3.0, 1.0])


def tdgm_march(grid, a, c, b, f_samples, lam_init=0.0, vel_init=0.0):
    """March the element problems a*lam'' + c*lam' + b*lam = f forward in time.

    The element operator couples a penalty value-transfer row (factor
    1.1*max(Q), which also imposes lam(0) = lam_init on the first element),
    an upwind velocity-flux row and right-biased collocation rows for the
    residual.  The equation must be of second order: a > 0.

    The march runs by superposition.  Element k solves A c_k = r_k with one
    4x4 operator A, and r_k is linear in the pair carried from element
    k - 1, its end value e and end velocity v:

        c_k = p_k + (penalty e_{k-1}) A^-1 e_0 + (a v_{k-1}) A^-1 e_1,

    where p_k solves the element with the forcing rows alone.  All p_k come
    from one multi-right-hand-side solve; only the pair (e, v) goes through
    a scalar two-term recurrence, and the coefficients are then formed for
    every element at once.

    Parameters
    ----------
    f_samples : TimeFunction, or forcing sampled at the Gauss points with
        shape (n_gauss,) or (n_elements, 4).
    lam_init : initial value, imposed through the first element's L operator.
    vel_init : initial velocity, carried by the flux row of the first element.

    Returns
    -------
    lam : TimeFunction
    info : dict with 'penalty' (the factor 1.1*max(Q)), 'factorizations'
        (always 1: a single 4x4 factorization serves every element) and
        'max_jump' (largest inter-element value jump, a weak-continuity
        diagnostic).

    Raises ValueError naming the first element whose coefficients are not
    finite.
    """
    if not a > 0.0:
        raise ValueError("time march needs a positive mass coefficient a, got %g" % a)
    g = grid
    if isinstance(f_samples, TimeFunction):
        f_samples = f_samples.values_at_gauss()
    f = np.asarray(f_samples, dtype=float).reshape(g.n_elements, 4)

    Q = element_operator(g, a, c, b)
    penalty = 1.1 * float(Q.max())
    if penalty <= 0.0:
        raise ValueError("element operator has no positive entry; cannot build penalty")

    taus = _TAU_COLLOCATION
    A = np.zeros((4, 4))
    A[0, 0] = penalty
    A[1, :] = a * _basis(np.array([0.0]), 1)[0] / g.h          # velocity flux
    A[2:, :] = (a * _basis(taus, 2) / g.h ** 2                 # collocated residual
                + c * _basis(taus, 1) / g.h
                + b * _basis(taus, 0))
    lu = lu_factor(A)
    if not np.all(np.isfinite(lu[0])) or np.abs(np.diag(lu[0])).min() == 0.0:
        raise ValueError("singular element operator in time march (element 0)")
    f_collo = _basis(taus, 0) @ g._N_inv  # forcing interpolated at the abscissae
    dN1 = _basis(np.array([1.0]), 1)[0] / g.h

    # Forced part of every element, then the responses to a unit carried
    # value (column 0) and a unit carried velocity (column 1).
    rhs = np.zeros((4, g.n_elements))
    rhs[2:] = f_collo @ f.T
    # Non-finite forcing is reported below, by element.
    coeffs = lu_solve(lu, rhs, check_finite=False).T
    unit = lu_solve(lu, np.eye(4)[:, :2] * [penalty, a])
    # Carried pair: end value (row 3) and end velocity (dN1) of each element.
    forced_end = coeffs[:, 3].tolist()
    forced_vel = (coeffs @ dN1).tolist()
    (t_ee, t_ev), (t_ve, t_vv) = unit[3], dN1 @ unit
    prev_end = np.empty(g.n_elements)
    prev_vel = np.empty(g.n_elements)
    end, vel = float(lam_init), float(vel_init)
    for k in range(g.n_elements):
        prev_end[k] = end
        prev_vel[k] = vel
        end, vel = (forced_end[k] + t_ee * end + t_ev * vel,
                    forced_vel[k] + t_ve * end + t_vv * vel)
    coeffs += np.outer(prev_end, unit[:, 0]) + np.outer(prev_vel, unit[:, 1])
    bad = np.flatnonzero(~np.isfinite(coeffs).all(axis=1))
    if bad.size:
        raise ValueError("time march produced non-finite values in element %d"
                         % bad[0])
    lam = TimeFunction(g, coeffs)
    jump = float(np.abs(lam.jumps(init=lam_init)).max())
    return lam, {"penalty": penalty, "factorizations": 1, "max_jump": jump}


def quad_resample_blocks(grid, values):
    """Resample step histories (B, 2*N_T+1, C) onto the Gauss points (B, n_gauss, C).

    Each time element covers two steps (three samples); the quadratic through
    them is evaluated at the element's 4 Gauss points.  With P the (4, 3)
    quadratic Lagrange table, element k of a history maps as

        out[:, 4k:4k+4, :] = sum_j P[:, j] values[:, 2k+j, :],

    done as two matrix products against kron(P, I_C)^T: the samples
    (2k, 2k+1) of every element are one contiguous row of values[:, :-1]
    viewed as (B, N_T, 2C), and the samples 2k+2 are values[:, 2::2].  The
    products run block by block over B, written straight into the result.
    Both the (n_gauss, n_t, 6) field layout and (via
    `quad_resample_to_gauss`) time-last histories go through this kernel.
    """
    v = np.asarray(values, dtype=float)
    n_el = grid.n_elements
    if v.ndim != 3 or v.shape[1] != 2 * n_el + 1:
        raise ValueError("expected %d time samples, got shape %s"
                         % (2 * n_el + 1, v.shape))
    n_b, _, n_c = v.shape
    # quadratic Lagrange basis on local nodes {0, 1/2, 1} at the Gauss points
    x = grid.gauss_local
    P = np.stack([2.0 * (x - 0.5) * (x - 1.0),
                  -4.0 * x * (x - 1.0),
                  2.0 * x * (x - 0.5)], axis=1)  # (4, 3)
    W = np.kron(P, np.eye(n_c)).T                 # (3C, 4C)
    pairs = v[:, :-1].reshape(n_b, n_el, 2 * n_c)
    out = np.empty((n_b, n_el, 4 * n_c))
    for s in spatial_blocks(out):   # the second product's temporary stays a block
        np.matmul(pairs[s], W[:2 * n_c], out=out[s])
        out[s] += v[s, 2::2] @ W[2 * n_c:]
    return out.reshape(n_b, grid.n_gauss, n_c)


def quad_resample_to_gauss(grid, values):
    """Resample a history on the 2*N_T+1 uniform step grid onto the Gauss points.

    `values` has the time axis last: (..., 2*N_T+1) -> (..., n_gauss).  It is
    the `quad_resample_blocks` kernel with one component per history.
    """
    v = np.asarray(values, dtype=float)
    out = quad_resample_blocks(grid, v.reshape(-1, v.shape[-1], 1))
    return out.reshape(v.shape[:-1] + (grid.n_gauss,))
