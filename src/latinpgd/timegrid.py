"""Time-discontinuous Galerkin discretization of the temporal problems.

The time interval [0, T] is split into N_T uniform elements.  On each element
a scalar function is a degree-3 Lagrange polynomial on 4 equispaced nodes
(local coordinates 0, 1/3, 2/3, 1), so a function carries 4*N_T nodal values
and may jump across element boundaries.

A second-order equation a*lam'' + c*lam' + b*lam = f is marched in the
single-field time-discontinuous Galerkin form of Hughes & Hulbert (Comput.
Methods Appl. Mech. Eng. 66:339, 1988).  On element k = [t_k, t_k+1], for
every cubic test function w,

    int w' (a lam'' + c lam' + b lam - f) dt
        + a w'(t_k+) [lam'(t_k)] + b w(t_k+) [lam(t_k)] = 0,

with [.] the jump across t_k and the initial conditions taking the place of
the values left of t_0 = 0.  The test function w = 1 gives b [lam] = 0,
imposed exactly as lam(t_k+) = lam(t_k-); w = tau, tau^2, tau^3 give the
residual tested against the quadratics, the first with the velocity jump.
Value continuity is exact, the velocity jumps weakly.

The march reproduces cubics to round-off and converges at fourth order in
L2 and fifth order at the element ends (measured relative L2 errors
5.95e-5, 3.63e-6, 2.25e-7 at 10, 20 and 40 elements per forcing period of a
forced oscillator).  The spectral radius of its free transfer map is at
most 1 + 6e-15 for every omega*h from 1e-2 to 1e6 without damping (0.65 at
omega*h = 10, tending to 1 in the stiff limit) and below 1 with damping
ratios of 1 and 6.5, so no temporal mode is amplified.

The march reads its forcing as element rows, shape (n_elements, 3): row k
holds int_0^1 w' f dtau of element k for w = tau, tau^2, tau^3.
`TimeGrid.rows` forms them from Gauss samples of f; a source that is not a
sampled field, such as a velocity jump on the w = tau row, adds to them.

Quadrature is 4-point Gauss-Legendre per element (exact through degree 7),
the same points at which all space-time fields are sampled.
"""

import functools
import math

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
# d^k/dtau^k tau^p = _FALLING[k, p] tau^(p-k): the falling factorial
# p!/(p-k)!, which is 0 for p < k.
_FALLING = np.array([[np.prod(p - np.arange(k)) for p in range(4)]
                     for k in range(3)], dtype=float)
# Row p - 1 is the Gauss rule for int_0^1 w' g dtau with w = tau^p,
# w' = p tau^(p-1), p = 1, 2, 3: the test rows of the march.
_TEST = _GW * np.arange(1, 4)[:, None] * _GX ** np.arange(3)[:, None]


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
    if deriv not in (0, 1, 2):
        raise ValueError("deriv must be 0, 1 or 2")
    tau = np.asarray(tau, dtype=float)
    p = np.arange(4)
    return (_FALLING[deriv] * tau[..., None] ** np.maximum(p - deriv, 0)) @ _COEF


class TimeGrid:
    """Uniform time-DG grid: element boundaries, nodes, Gauss tables."""

    def __init__(self, T, n_elements):
        if not 0.0 < T < math.inf:
            raise ValueError("T must be finite and positive, got %g" % T)
        if not 1 <= n_elements < math.inf:
            raise ValueError("n_elements must be a finite count of at least 1, got %g"
                             % n_elements)
        self.T = float(T)
        self.n_elements = int(n_elements)
        self.h = self.T / self.n_elements
        self.t_bounds = np.linspace(0.0, self.T, self.n_elements + 1)
        # Uniform step nodes of an incremental march over the same horizon,
        # two steps per element: the axis the Newmark reference runs on and
        # `quad_resample_blocks` reads.
        self.step_times = np.linspace(0.0, self.T, 2 * self.n_elements + 1)
        self.node_times = self.t_bounds[:-1, None] + self.h * _NODES[None, :]
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

    def rows(self, samples):
        """Element rows (n_elements, 3) of a forcing from its Gauss samples.

        Row k holds the Gauss rule of int_0^1 w' f dtau on element k for
        w = tau, tau^2, tau^3, exact for forcings cubic in time.
        """
        return (_TEST @ np.reshape(samples, (self.n_elements, 4)).T).T

    def inner(self, a, b):
        """Time integral of a*b over [0, T] from Gauss samples (..., n_gauss)."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return (a * b) @ self.all_gauss_weights


class TimeFunction:
    """Piecewise-cubic function on a TimeGrid, stored by nodal values (n_el, 4)."""

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid, coeffs):
        self.grid = grid
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (grid.n_elements, 4):
            raise ValueError("coeffs must have shape (n_elements, 4)")
        self.coeffs = coeffs

    def values_at_gauss(self, deriv=0):
        """Samples at all Gauss points, flattened to (n_gauss,)."""
        table = (self.grid.N, self.grid.dN, self.grid.d2N)[deriv]
        return (self.coeffs @ table.T).ravel()

    def scale(self, c):
        return TimeFunction(self.grid, self.coeffs * float(c))


def l2_fit(grid, samples):
    """Per-element least-squares cubic fit of Gauss samples -> TimeFunction.

    With 4 samples and 4 nodal values per element the fit is an exact solve;
    cubic data is reproduced to round-off.
    """
    s = np.asarray(samples, dtype=float).reshape(grid.n_elements, 4)
    return TimeFunction(grid, s @ grid._N_inv.T)


def tdgm_march(grid, a, c, b, rows, lam_init=0.0, vel_init=0.0):
    """March a*lam'' + c*lam' + b*lam = f forward in time, element by element.

    Each element solves the form of the module docstring.  The row of
    w = 1, lam(t_k+) = lam(t_k-), holds exactly: on element k the function
    is the carried value e plus an increment x that vanishes at t_k+,

        lam = e + x_1 N_1 + x_2 N_2 + x_3 N_3,

    and the rows of w = tau, tau^2, tau^3 solve for x (lam(0-) = lam_init,
    lam'(0-) = vel_init).  The derivative tables act on x alone: their row
    sums vanish only to round-off, which nodal unknowns would turn into a
    stiffness error of order eps / (omega h)^2 (at omega h = 0.03 they drift
    2e-11 from an extended-precision march over 400 elements, the
    increments 4e-13).  The forcing enters as element rows, the forced
    right-hand sides of w = tau, tau^2, tau^3 (`TimeGrid.rows`).  The
    equation must be of second order: a > 0.

    The march runs by superposition.  Element k solves A x_k = r_k with one
    3x3 operator A, and r_k is linear in the pair carried from element
    k - 1, its end value e and end velocity v:

        x_k = p_k + e_{k-1} A^-1 (-b, -b, -b) + v_{k-1} A^-1 (a / h, 0, 0),

    where p_k solves the element with the forcing alone; int w' b e dtau is
    b e on every row, and a / h is the velocity jump's weight w'(t_k+).  All
    p_k come from one multi-right-hand-side solve; only the pair (e, v)
    goes through a scalar two-term recurrence, and the coefficients are
    then formed for every element at once.

    Parameters
    ----------
    rows : the forcing's element rows, shape (n_elements, 3).
    lam_init : initial value.
    vel_init : initial velocity.

    Returns the TimeFunction lam.  Raises ValueError naming the first
    element whose coefficients are not finite.
    """
    if not a > 0.0:
        raise ValueError("time march needs a positive mass coefficient a, got %g" % a)
    g = grid
    if np.shape(rows) != (g.n_elements, 3):
        raise ValueError("rows must have shape (n_elements, 3), got %s" % (np.shape(rows),))

    dN0, dN1 = _basis(np.array([0.0, 1.0]), 1)[:, 1:] / g.h
    A = (_TEST @ (a * g.d2N + c * g.dN + b * g.N))[:, 1:]
    A[0] += a / g.h * dN0
    lu = lu_factor(A)
    if not np.all(np.isfinite(lu[0])) or np.abs(np.diag(lu[0])).min() == 0.0:
        raise ValueError("singular element operator in time march (element 0)")

    # Forced increments of every element, then the responses to a unit
    # carried value (column 0) and a unit carried velocity (column 1).
    # Non-finite forcing is reported below, by element.
    x = lu_solve(lu, np.transpose(rows), check_finite=False).T
    unit = lu_solve(lu, [[-b, a / g.h], [-b, 0.0], [-b, 0.0]])
    # Carried pair: end value and end velocity of each element.
    forced_end = x[:, 2].tolist()
    forced_vel = (x @ dN1).tolist()
    (t_ee, t_ev), (t_ve, t_vv) = unit[2] + [1.0, 0.0], dN1 @ unit
    prev_end = np.empty(g.n_elements)
    prev_vel = np.empty(g.n_elements)
    end, vel = float(lam_init), float(vel_init)
    for k in range(g.n_elements):
        prev_end[k] = end
        prev_vel[k] = vel
        end, vel = (forced_end[k] + t_ee * end + t_ev * vel,
                    forced_vel[k] + t_ve * end + t_vv * vel)
    x += np.outer(prev_end, unit[:, 0]) + np.outer(prev_vel, unit[:, 1])
    coeffs = np.column_stack([prev_end, x + prev_end[:, None]])
    bad = np.flatnonzero(~np.isfinite(coeffs).all(axis=1))
    if bad.size:
        raise ValueError("time march produced non-finite values in element %d"
                         % bad[0])
    return TimeFunction(g, coeffs)


# Quadratic Lagrange basis on the local nodes {0, 1/2, 1} of an element's
# two steps, at its Gauss points: (4, 3).
_QUAD = np.stack([2.0 * (_GX - 0.5) * (_GX - 1.0),
                  -4.0 * _GX * (_GX - 1.0),
                  2.0 * _GX * (_GX - 0.5)], axis=1)


@functools.lru_cache(maxsize=None)
def _quad_kron(n_c):
    """kron(_QUAD, I_C)^T (3C, 4C), built once per component count C."""
    W = np.kron(_QUAD, np.eye(n_c)).T
    W.flags.writeable = False
    return W


def quad_resample_blocks(grid, values):
    """Resample step histories (B, n_steps, C) onto the Gauss points (B, n_gauss, C).

    Each time element covers two steps (three samples); the quadratic through
    them is evaluated at the element's 4 Gauss points.  With P the (4, 3)
    quadratic Lagrange table (`_QUAD`), element k of a history maps as

        out[:, 4k:4k+4, :] = sum_j P[:, j] values[:, 2k+j, :],

    done as two matrix products against kron(P, I_C)^T, which is built once
    per component count and shared by every call: the samples
    (2k, 2k+1) of every element are one contiguous row of values[:, :-1]
    viewed as (B, N_T, 2C), and the samples 2k+2 are values[:, 2::2].  The
    products run block by block over B, written straight into the result.
    Both the (n_gauss, n_t, 6) field layout and a time-last history
    (n_dofs, n_steps), given a trailing unit axis, go through this kernel.
    """
    v = np.asarray(values, dtype=float)
    n_el = grid.n_elements
    if v.ndim != 3 or v.shape[1] != grid.step_times.size:
        raise ValueError("expected %d time samples, got shape %s"
                         % (grid.step_times.size, v.shape))
    n_b, _, n_c = v.shape
    W = _quad_kron(n_c)
    pairs = v[:, :-1].reshape(n_b, n_el, 2 * n_c)
    out = np.empty((n_b, n_el, 4 * n_c))
    for s in spatial_blocks(out):   # the second product's temporary stays a block
        np.matmul(pairs[s], W[:2 * n_c], out=out[s])
        out[s] += v[s, 2::2] @ W[2 * n_c:]
    return out.reshape(n_b, grid.n_gauss, n_c)
