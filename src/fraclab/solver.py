"""Monotone sub/super-solution iteration on discretized fractional problems.

The operator is collocated on the hat basis in the symmetric-difference
form: beyond s = h/2 the sphere means of the basis against s^{-1-2s},
an exact exterior tail, and a quadratic second-difference model on
(0, h/2).  Off-diagonal entries are nonpositive and rows act nonnegatively
on the exterior-extended constant: the discrete maximum principle and the
monotone Picard scheme hold.

On an interval the matrix is Toeplitz, filled from one column of the hat
means in closed form (:func:`_hat_means`, Huang & Oberman 2014).  Each
annulus row integrates its sphere means on one row of
:func:`geometry.panel_rows`, graded where the sphere meets lo or hi, and
:func:`_hat_scatter` puts each radius on its two live hats.  The matrix
and its inverse, computed once on first use, are read-only; a solve of
``solve_linear`` or ``monotone_iterate`` is one mat-vec.  The interval's
inverse comes from its Toeplitz column in O(N^2)
(:func:`_toeplitz_inverse`); the annulus, which is not Toeplitz, keeps
the LAPACK inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import constants, geometry
from .params import Params

Array = np.ndarray


class ResolutionError(ValueError):
    """Raised when a grid is too coarse for the requested domain."""


class MonotonicityError(RuntimeError):
    """Raised when an iterate decreases: the discretization has lost the
    maximum-principle structure."""


@dataclass
class FractionalDirichletProblem:
    """Dense collocation discretization with zero exterior data."""

    params: Params
    domain: Tuple[float, float]       # interval endpoints or annulus radii
    dimension: int                    # 1 (interval) or 2 (radial annulus)
    grid: Array                       # interior collocation nodes
    h: float
    operator_matrix: Array
    rhs_map: Optional[Callable[[Array, Array], Array]] = None

    @cached_property
    def inverse(self) -> Array:
        """Inverse of the operator matrix, computed once and read-only: in
        O(N^2) from the Toeplitz column on an interval, LAPACK's otherwise."""
        a = self.operator_matrix
        return geometry.frozen(_toeplitz_inverse(a[:, 0]) if self.dimension == 1
                               else np.linalg.inv(a))[0]

    def row_sum_check(self) -> Tuple[bool, float]:
        """Maximum-principle structure: A 1 >= 0, diag > 0, off-diag <= 0."""
        a = np.ascontiguousarray(self.operator_matrix)
        n = a.shape[0]
        # the entries between consecutive diagonal ones, as a view
        diag, off = np.diag(a), a.ravel()[1:].reshape(n - 1, n + 1)[:, :n]
        rows = a @ np.ones(n)
        ok = bool(np.all(diag > 0.0)
                  and np.max(off, initial=-np.inf) <= 1e-12 * np.max(diag)
                  and np.all(rows >= -1e-10))
        return ok, float(np.min(rows))


@dataclass
class IterationTrace:
    iterates: List[Array] = field(default_factory=list)
    residuals: List[float] = field(default_factory=list)
    monotone_flags: List[bool] = field(default_factory=list)
    converged: bool = False


def _hat_scatter(r: Array, w: Array, lo: float, hi: float, h: float,
                 nodes: int) -> Array:
    """sum_k w_k phi_j(r_k) for every node j of the hat basis on (lo, hi).

    A radius r in (lo, hi) lies in the cell [x_{m-1}, x_m], with
    u = (r - lo) / h, m = floor(u) and x_j = lo + (j + 1) h, so only the
    hats of nodes m - 1 and m are live there, at 1 - (u - m) and u - m;
    m - 1 = -1 and m = nodes are the boundary and drop out.
    """
    inside = (r > lo) & (r < hi)
    u, w = (r[inside] - lo) / h, w[inside]
    m = np.floor(u).astype(np.intp)
    up = w * (u - m)
    return (np.bincount(m, up, minlength=nodes + 1)[:nodes]
            + np.bincount(m, w - up, minlength=nodes + 1)[1:])


#: Geometric panels a decade per row of the annulus, and the terms of the
#: series of the interval's hat means in 1/k^2 <= 1/4.
PER_DECADE = 6
HAT_TERMS = 32

#: Picard steps of :func:`monotone_iterate`, and the sup-norm step below
#: which it has converged.
MAX_ITERS = 200
STEP_TOL = 1e-10


def _toeplitz_inverse(col: Array) -> Array:
    """Inverse of the symmetric positive definite Toeplitz matrix with first
    column ``col`` in O(N^2), with O(N) temporaries (Golub & Van Loan,
    Matrix Computations, 4.7).  Durbin's recursion on r = col[1:] / col[0]
    gives x, the first column of the inverse B; the Gohberg-Semencul formula
    gives B[i, j] = B[i-1, j-1] + (x_i x_j - xt_i xt_j) / x_0, with
    xt = (0, x_{N-1}, ..., x_1), a row and its column at a time, so that B
    is exactly symmetric."""
    n = col.size
    r, y = col[1:] / col[0], np.empty(n - 1)
    y[0] = alpha = -r[0]
    beta = 1.0
    for k in range(1, n - 1):
        beta *= 1.0 - alpha * alpha
        alpha = -(r[k] + r[k - 1::-1] @ y[:k]) / beta
        y[:k] += alpha * y[k - 1::-1]
        y[k] = alpha
    x = np.concatenate([[1.0], y]) / (col[0] * (1.0 + r @ y))
    xt = np.concatenate([[0.0], x[:0:-1]])
    b = np.empty((n, n))
    b[0] = b[:, 0] = x
    for i in range(1, n):
        b[i, i:] = b[i - 1, i - 1:-1] + (x[i] * x[i:] - xt[i] * xt[i:]) / x[0]
        b[i:, i] = b[i, i:]
    return b


def _hat_means(p: float, nodes: int) -> Array:
    """t_k = 1/2 int_{1/2}^inf [phi(u - k) + phi(u + k)] u^{-1-p} du, k < nodes,
    phi the unit hat (1 - |v|)_+.  t_0 and t_1 sum powers u^{a-1} over (1/2, 1)
    and (1, 2): lo^a expm1(a ln 2) / a.  For k >= 2, t_k is half the second
    difference of G, G'' = u^{-1-p}; the binomial series of (1 +- 1/k)^{1-p}
    give k^{1-p} / p sum_{m>=1} c_m k^{-2m}, c_m = prod_{i<2m} (i - 1 + p) / (2m)!:
    positive terms, continuous through p = 1 (G = -log u)."""
    e0, e1 = (np.expm1(a * np.log(2.0)) / a if a else np.log(2.0) for a in (-p, 1.0 - p))
    q, i, k = 2.0 ** (p - 1.0), np.arange(1.0, 2.0 * HAT_TERMS), np.arange(2.0, nodes)
    series = np.polyval(np.cumprod((i - 1.0 + p) / (i + 1.0))[::-2], k ** -2.0)
    return np.concatenate([[q * (2.0 * e0 - e1), e0 + 0.5 * (q - 1.0) * e1],
                           k ** (-1.0 - p) * series / p])


def build_problem(domain: Tuple[float, float], params: Params, nodes: int = 128,
                  dimension: int = 1) -> FractionalDirichletProblem:
    """Assemble the dense collocation matrix on an interval or radial annulus.

    ``domain`` is (lo, hi): an interval for dimension 1 (use lo = -hi for a
    symmetric one) or annulus radii 0 < lo < hi for dimension 2.
    """
    lo, hi = domain
    if not hi > lo:
        raise ValueError("domain endpoints must be increasing")
    if dimension not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    if dimension == 2 and lo <= 0.0:
        raise ValueError("annulus inner radius must be positive")
    if nodes < 64:
        raise ResolutionError("need >= 64 nodes")
    if params.n != dimension:
        raise ValueError("params.n must equal the spatial dimension")
    p = 2.0 * params.sigma
    cset = constants.constant_set(params)
    front = cset.c_frac * cset.sphere_area
    h = (hi - lo) / (nodes + 1)
    grid = lo + h * np.arange(1, nodes + 1)
    scale = front * h ** -p
    # column of lags: the interval's hat means (the annulus adds its own
    # below), the exact tail beyond h/2 and the near-field model
    near_coef = scale * 2.0 ** (p - 2.0) / ((2.0 - p) * 2.0 * dimension)
    col = -scale * _hat_means(p, nodes) if dimension == 1 else np.zeros(nodes)
    col[0] += scale * 2.0 ** p / p + 2.0 * near_coef
    col[1] -= near_coef
    a = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([col[:0:-1], col]), nodes)[::-1].copy()
    if dimension == 2:
        # the basis means lose smoothness where the sphere about d meets lo
        # or hi, and vanish past s = hi + d, where it misses the annulus
        rows = geometry.panel_rows(0.5 * h, np.full(nodes, 0.5 * h), grid + hi,
                                   PER_DECADE, geometry.kink_edges((lo, hi), grid))
        for i, (d, row) in enumerate(zip(grid, rows)):
            s_nodes, s_weights, _ = geometry.panel_nodes(row, 8)
            # sphere means about d, unsplit: the basis has a kink at every node
            radii, wts, which = geometry.radial_mean_rule(
                2, np.full_like(s_nodes, d), s_nodes, ())
            a[i] -= front * _hat_scatter(
                radii.ravel(), ((s_weights * s_nodes ** (-1.0 - p))[which, None]
                                * wts).ravel(), lo, hi, h, nodes)
    return FractionalDirichletProblem(params=params, domain=(lo, hi),
                                      dimension=dimension, grid=grid, h=h,
                                      operator_matrix=geometry.frozen(a)[0])


def getoor_profile(x: Array, params: Params) -> Array:
    """Closed-form solution of the unit-source problem on the unit ball.

    (1 - |x|^2)_+^s scaled so the operator output is exactly 1; the scale
    is a ratio of gamma functions and is oracle-checked against the
    quadrature operator in the tests.
    """
    n, s = params.n, params.sigma
    g = constants.gamma_fn
    scale = g(n / 2.0) / (2.0 ** (2 * s) * g((n + 2 * s) / 2.0) * g(1.0 + s))
    return scale * np.clip(1.0 - np.asarray(x, dtype=float) ** 2, 0.0, None) ** s


def monotone_iterate(prob: FractionalDirichletProblem,
                     supersolution: Array) -> IterationTrace:
    """Picard iteration y_{k+1} = A^{-1} rhs(x, y_k) from y_0 = 0.

    Requires rhs_map >= 0 and non-decreasing in v on [0, supersolution],
    and A supersolution >= rhs(x, supersolution); then the iterates
    increase and stay below the supersolution.  rhs_map is called once at
    the supersolution, once at y_0 and once a step, at y_{k+1}: that value
    gives the step's residual and the next step's right-hand side.
    """
    if prob.rhs_map is None:
        raise ValueError("problem has no rhs_map")
    vbar = np.asarray(supersolution, dtype=float)
    if vbar.shape != prob.grid.shape:
        raise ValueError(f"supersolution has shape {vbar.shape}, the problem "
                         f"needs {prob.grid.shape}")
    rhs_bar = prob.rhs_map(prob.grid, vbar)
    if np.any(np.asarray(rhs_bar) < -1e-12):
        raise ValueError("rhs_map must be nonnegative")
    if np.any(prob.operator_matrix @ vbar < rhs_bar - 1e-8 * (1 + np.abs(rhs_bar))):
        raise ValueError("supersolution fails its discrete inequality")
    trace = IterationTrace()
    y = np.zeros(len(prob.grid))
    trace.iterates.append(y.copy())
    rhs = prob.rhs_map(prob.grid, y)
    for _ in range(MAX_ITERS):
        y_next = prob.inverse @ np.broadcast_to(np.asarray(rhs, dtype=float),
                                                y.shape)
        flag = bool(np.all(y_next >= y - 1e-12))
        trace.monotone_flags.append(flag)
        if not flag:
            raise MonotonicityError("iterate decreased: maximum-principle "
                                    "structure lost")
        if np.any(y_next > vbar + 1e-8 * (1.0 + np.abs(vbar))):
            raise MonotonicityError("iterate escaped the supersolution")
        diff = float(np.max(np.abs(y_next - y)))
        rhs = prob.rhs_map(prob.grid, y_next)  # also the next step's
        resid = float(np.max(np.abs(prob.operator_matrix @ y_next - rhs)))
        trace.iterates.append(y_next.copy())
        trace.residuals.append(resid)
        y = y_next
        if diff < STEP_TOL:
            trace.converged = True
            break
    return trace


def solve_linear(prob: FractionalDirichletProblem, rhs: Array) -> Array:
    """Direct solve A y = rhs (the one-step case of the iteration)."""
    b = np.asarray(rhs, dtype=float)
    nodes = len(prob.grid)
    if b.shape[:1] != (nodes,):
        raise ValueError(f"rhs has shape {b.shape}, the problem has "
                         f"{nodes} nodes")
    return prob.inverse @ b
