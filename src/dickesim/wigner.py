"""Wigner quasi-probability functions.

Spherical: the multipole expansion for a spin J = N/2,

    W(theta, phi) = sqrt((2J+1)/(4*pi)) * sum_{k=0}^{2J} sum_{q=-k}^{k}
                    Tr(T_kq^dag rho) Y_kq(theta, phi),

with irreducible tensor operators T_kq built from Clebsch-Gordan
coefficients, normalized so that the integral over the sphere is 1 and the
maximally mixed state is flat at 1/(4*pi).  It is evaluated as the
expectation of one rotated kernel, written as a trigonometric polynomial in
theta with integer frequencies (:func:`spherical_wigner_values`); the T_kq
table it is tested against lives in the test suite.

Planar: the standard bosonic Wigner function of the state obtained by
reading Dicke amplitudes as Fock amplitudes.  This identification ignores
the actual emission dynamics and is an approximation; every planar result
is labeled ``dicke-to-fock-identification``.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .core import DickeSpace, QuantumState, _frozen, _psd_factor
from .gates import _chain_eigh, _propagation_bases

PLANAR_APPROXIMATION_LABEL = "dicke-to-fock-identification"
BOUNDARY_WARN_LEVEL = 1e-3


class WindowWarning(UserWarning):
    """The planar grid window clips non-negligible Wigner weight."""


def _kernel_diagonal(n: int) -> np.ndarray:
    """Delta = sqrt(2J+1)/(4 pi) sum_k sqrt(2k+1) diag(T_k0), the Wigner kernel
    at the north pole.  diag(T_k0) is the Gram polynomial t_k of degree k in m
    on 0..N (orthonormal, positive leading coefficient).  On the nodes
    m - N/2 they obey x t_k = b_{k+1} t_{k+1} + b_k t_{k-1} with
    b_k = (k/2) sqrt(((N+1)^2 - k^2) / (4k^2 - 1)), so the eigenvectors of
    this Jacobi band are the columns (t_0(m), ..., t_N(m)) (Golub and Welsch,
    Math. Comp. 23, 221 (1969)), each signed by t_0 > 0."""
    k = np.arange(1.0, n + 1)
    band = 0.5 * k * np.sqrt(((n + 1.0) ** 2 - k * k) / (4 * k * k - 1))
    t_k0 = _chain_eigh(np.zeros(n + 1), band, 1)[1][0]
    return (math.sqrt(n + 1) / (4 * np.pi) * (np.sqrt(2.0 * np.arange(n + 1) + 1) @ t_k0)
            * np.sign(t_k0[0]))


def _kernel_bands(space: DickeSpace) -> tuple:
    """The diagonals G_{a,a+k}, k = 0..N, of the north-pole kernel in the J_y
    eigenbasis, G = V_y^dag diag(Delta) V_y, kept in the space's propagation
    store.  V_y = P V_x with P diagonal, so P cancels against diag(Delta) and
    G = V_x^T diag(Delta) V_x is real."""
    bases = _propagation_bases(space)
    if "sphere" not in bases.store:
        vx = bases.vx.real
        g = (vx.T * _kernel_diagonal(space.n_emitters)) @ vx
        bases.store["sphere"] = tuple(_frozen(np.diagonal(g, k)) for k in range(space.dim))
    return bases.store["sphere"]


def spherical_wigner_values(state: QuantumState, thetas, phis) -> np.ndarray:
    """W at arbitrary (theta, phi) points (broadcast together).

    With rho = sum_c a_c a_c^dag and u_c(phi) = V_y^dag exp(i phi J_z) a_c, the
    kernel expectation sum_m Delta_m sum_c |<m| exp(i theta J_y) exp(i phi J_z)
    a_c>|^2 reads sum_{a,b} G_{a,b} conj(u_a) u_b exp(i theta (b - a)) summed
    over c: J_y's eigenvalues are a - N/2, so every pair of levels beats at the
    integer frequency k = b - a.  With h_k(phi) = sum_c sum_a G_{a,a+k}
    conj(u_a) u_{a+k} (one pass per diagonal, O(d^2 r) per distinct phi),
    W = Re[h_0 + 2 sum_{k>=1} exp(i k theta) h_k]: one (n_theta, d) @ (d, n_phi)
    product over the distinct angles, gathered back onto the broadcast shape.
    The cost is O(d^2 r n_phi + d n_theta n_phi) in the distinct angles, so
    scattered points pay for the full table of their distinct values."""
    thetas, phis = np.asarray(thetas, dtype=float), np.asarray(phis, dtype=float)
    theta_set, theta_at = np.unique(thetas, return_inverse=True)
    phi_set, phi_at = np.unique(phis, return_inverse=True)
    theta_at, phi_at = np.broadcast_arrays(theta_at.reshape(thetas.shape),
                                           phi_at.reshape(phis.shape))
    bases = _propagation_bases(state.space)
    cols = state.amplitudes[:, None] if state.is_pure else _psd_factor(state.density)
    d, r = cols.shape
    u = np.exp(1j * np.multiply.outer(bases.jz, phi_set))[:, None, :] * cols[:, :, None]
    u = (bases.vy_h @ u.reshape(d, -1)).reshape(d, r, -1)
    u_conj, bands = u.conj(), _kernel_bands(state.space)
    h = np.array([g_k @ (u_conj[:d - k] * u[k:]).reshape(d - k, -1)
                  for k, g_k in enumerate(bands)]).reshape(d, r, -1).sum(axis=1)
    k = np.arange(d)
    table = ((np.exp(1j * np.multiply.outer(theta_set, k)) * np.where(k, 2.0, 1.0)) @ h).real
    return table[theta_at.ravel(), phi_at.ravel()].reshape(theta_at.shape)


@dataclass(frozen=True)
class SphereGrid:
    """W sampled on a uniform midpoint grid over the sphere.

    theta_j = (j + 1/2) * pi / n_theta, phi_k = k * 2*pi / n_phi.  The
    quadrature weights (one per theta row, including the sin(theta) factor
    and the phi cell width) integrate trigonometric polynomials of degree
    < n_theta exactly, so sum(weights * row_sums) recovers the integral of
    W over the sphere.
    """

    thetas: np.ndarray
    phis: np.ndarray
    values: np.ndarray
    quadrature_weights: np.ndarray

    def integral(self) -> float:
        return float(self.quadrature_weights @ self.values.sum(axis=1))


def _theta_weights(n_theta: int) -> np.ndarray:
    """Fejer-type weights for int_0^pi f(theta) sin(theta) dtheta at midpoints."""
    thetas = (np.arange(n_theta) + 0.5) * np.pi / n_theta
    w = np.full(n_theta, 2.0 / n_theta)
    ls = np.arange(2, n_theta, 2)
    if ls.size:
        w = w + (4.0 / n_theta) * np.cos(np.outer(thetas, ls)) @ (1.0 / (1.0 - ls ** 2))
    return w


def spherical_wigner(state: QuantumState, n_theta: int = 0, n_phi: int = 0) -> SphereGrid:
    """Sample W on the default (or requested) sphere grid; a size of 0 picks
    the default and a negative one raises ValueError."""
    if n_theta < 0 or n_phi < 0:
        raise ValueError(f"sphere grid sizes must be non-negative (0 for the default), "
                         f"got n_theta={n_theta}, n_phi={n_phi}")
    n = state.space.n_emitters
    if n_theta == 0:
        n_theta = max(60, n + 2)
    if n_phi == 0:
        n_phi = max(120, 2 * n + 2)
    thetas = (np.arange(n_theta) + 0.5) * np.pi / n_theta
    phis = np.arange(n_phi) * 2 * np.pi / n_phi
    weights = _theta_weights(n_theta) * (2 * np.pi / n_phi)
    return SphereGrid(thetas, phis, spherical_wigner_values(state, thetas[:, None], phis), weights)


@dataclass(frozen=True)
class PlaneGrid:
    """Planar Wigner samples on a rectangular (x, p) grid, x along axis 0."""

    xs: np.ndarray
    ps: np.ndarray
    values: np.ndarray
    window_clipped: bool = False

    def integral(self) -> float:
        dx = self.xs[1] - self.xs[0]
        dp = self.ps[1] - self.ps[0]
        return float(self.values.sum() * dx * dp)


def _hermite_table(u: np.ndarray, size: int) -> np.ndarray:
    """Phi[i, a] = phi_a(u[i]), a < size, with the Hermite functions
    phi_a(u) = e^{-u^2/2} H_a(u) / sqrt(2^a a! sqrt(pi)), the position
    wavefunctions of x = (a + a^dag)/sqrt(2).  The three-term recurrence in a
    starts from pi^(-1/4), without the Gaussian, which underflows past
    |u| ~ 37.6.  A point past 2^512 is scaled down by 2^512 (a step grows it
    by at most 2^500 while |u| <= 1.4e150); each entry's exponent and the
    Gaussian are applied at the end, so far points read 0 and nothing
    overflows.  Below |u| = 26.6 no entry reaches 2^512, so no point of a
    default plane window (u <= 2 sqrt(N) + 3 sqrt(2)) is scaled up to
    N = 124."""
    table = np.empty((size, u.size))
    table[0] = math.pi ** -0.25
    log2_scale = np.zeros((size, u.size))
    h_prev, h = np.zeros_like(u), table[0].copy()
    for a in range(1, size):
        h_prev, h = h, math.sqrt(2.0 / a) * u * h - math.sqrt((a - 1) / a) * h_prev
        big = np.abs(h) > 2.0 ** 512
        if big.any():
            h_prev, h = np.ldexp(h_prev, -512 * big), np.ldexp(h, -512 * big)
            log2_scale[a:] += 512 * big
        table[a] = h
    return (table * np.exp(log2_scale * math.log(2.0) - 0.5 * u * u)).T


def _plane_coefficients(amps: np.ndarray) -> np.ndarray:
    """C with W(x, p) = pi^(-1/2) sum_{a,b <= 2N} C_ab phi_a(sqrt(2) x) phi_b(sqrt(2) p).

    In W = (1/pi) int conj(psi(x+y)) psi(x-y) e^{2ipy} dy with psi = sum c_n
    phi_n, rotating (x+y, x-y) into (sqrt(2) x, sqrt(2) y) is a 50:50 beam
    splitter U on phi_m phi_n, and int e^{2ipy} phi_b(sqrt(2) y) dy = sqrt(pi)
    i^b phi_b(sqrt(2) p), so C_ab = Re(i^b sum_{m+n=a+b} conj(c_m) c_n
    <a,b|U|m,n>).  The columns U|m, L-m>, m and L - m <= N, are built one
    total L = a + b at a time by the balanced step U|m,n> = (sqrt(m) P+
    U|m-1,n> + sqrt(n) P- U|m,n-1>) / L, P+- = (A_X^dag +- A_Y^dag)/sqrt(2)
    (Risbo, J. Geodesy 70, 383 (1996)); raising one index alone is unstable.
    O(N^3) time and O(N^2) memory, whatever the grid."""
    n = amps.size - 1
    size = 2 * n + 1
    roots = np.sqrt(np.arange(size + 1.0))
    i_b = np.array([[1.0, 0.0], [0.0, -1.0], [-1.0, 0.0], [0.0, 1.0]])[np.arange(size) % 4]
    coef = np.zeros((size, size))
    flat, skew = coef.reshape(-1), (size - 1) * np.arange(size)  # flat[L + skew[a]] = C_{a,L-a}
    # cols[:, 1 + m - max(0, L - n)] = U|m, L-m>, with a zero column at each end
    cols = np.array([[0.0, 1.0, 0.0]])
    for total in range(size):
        lo, hi = max(0, total - n), min(total, n)
        if total:
            count, first = hi - lo + 1, int(total > n)  # first: where U|lo-1, L-lo> sits
            via_m = cols[:, first:first + count] * roots[lo:hi + 1]  # sqrt(m) U|m-1, L-m>
            via_n = cols[:, first + 1:first + 1 + count] * roots[total - hi:total - lo + 1][::-1]
            raise_a = roots[1:total + 1, None] / (math.sqrt(2.0) * total)
            cols = np.zeros((total + 1, count + 2))
            cols[1:, 1:-1] = raise_a * (via_m + via_n)
            cols[:-1, 1:-1] += raise_a[::-1] * (via_m - via_n)  # raising b = L - a
        # g_a = sum_m conj(c_m) c_{L-m} <a, L-a|U|m, L-m> as (Re, Im) pairs
        pair = np.conj(amps[lo:hi + 1]) * amps[total - hi:total - lo + 1][::-1]
        g = cols[:, 1:-1] @ pair.view(float).reshape(-1, 2)
        flat[total + skew[:total + 1]] = (g * i_b[total::-1]).sum(axis=1)
    return coef


def _planar_kernel_sum(amps: np.ndarray, xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """W on the grid of xs (axis 0) by ps (axis 1), as the bilinear form
    Phi(xs) C Phi(ps)^T / sqrt(pi) of :func:`_plane_coefficients` and
    :func:`_hermite_table`; the x table serves p when the axes are equal.
    O(N^3 + R N^2 + R^2 N) for an R x R grid."""
    xs, ps = np.ravel(xs), np.ravel(ps)
    size = 2 * amps.size - 1
    phi_x = _hermite_table(math.sqrt(2.0) * xs, size)
    phi_p = phi_x if np.array_equal(xs, ps) else _hermite_table(math.sqrt(2.0) * ps, size)
    return phi_x @ (_plane_coefficients(amps) / math.sqrt(math.pi)) @ phi_p.T + 0.0  # -0.0 -> +0.0


def planar_wigner(state: QuantumState, x_max: float = 0.0, p_max: float = 0.0,
                  resolution: int = 201) -> PlaneGrid:
    """Bosonic Wigner function of the Fock-identified pure state.

    Conventions: x = (a + a^dag)/sqrt(2), W >= -1/pi, integral over the
    plane equals 1 for a window enclosing the state.  Emits a
    :class:`WindowWarning` (and flags the grid) when |W| at the window
    boundary exceeds ``BOUNDARY_WARN_LEVEL``.  An ``x_max`` of 0 picks
    sqrt(2N) + 3 and a ``p_max`` of 0 picks ``x_max``; a negative one raises
    ValueError.
    """
    if not state.is_pure:
        raise ValueError("planar_wigner expects a pure state")
    if resolution < 2:
        raise ValueError(f"planar grid resolution must be at least 2, got {resolution}")
    if not math.hypot(x_max, p_max) <= 1e150:  # keeps x^2, dx dp and the Hermite steps finite
        raise ValueError(f"planar window must be finite, within radius 1e150, "
                         f"got x_max={x_max}, p_max={p_max}")
    if x_max < 0 or p_max < 0:
        raise ValueError(f"planar window half-widths must be non-negative (0 for the "
                         f"default), got x_max={x_max}, p_max={p_max}")
    n = state.space.n_emitters
    if x_max == 0:
        x_max = np.sqrt(2.0 * n) + 3.0
    if p_max == 0:
        p_max = x_max
    xs = np.linspace(-x_max, x_max, resolution)
    ps = np.linspace(-p_max, p_max, resolution)
    values = _planar_kernel_sum(state.amplitudes, xs, ps)
    edge = max(np.max(np.abs(values[0, :])), np.max(np.abs(values[-1, :])),
               np.max(np.abs(values[:, 0])), np.max(np.abs(values[:, -1])))
    clipped = bool(edge > BOUNDARY_WARN_LEVEL)
    if clipped:
        warnings.warn(
            f"planar window edge still carries |W| = {edge:.3e}; enlarge x_max/p_max",
            WindowWarning,
            stacklevel=2,
        )
    return PlaneGrid(xs, ps, values, window_clipped=clipped)


# From this many samples on, two writers pay for their fork.  With one BLAS
# thread on a 2-vCPU x86 host, a fork and its wait take 1.7-2.6 ms and one
# writer 0.95 us a sample; two break even at 5,000-6,400 (N = 40 planes).
SPLIT_MIN_SAMPLES = 10_000


def _csv_job(grid, path):
    if isinstance(grid, SphereGrid):
        header, outer, inner = b"theta,phi,w\n", grid.thetas, grid.phis
    elif isinstance(grid, PlaneGrid):
        header, outer, inner = b"x,p,w\n", grid.xs, grid.ps
    else:
        raise TypeError(f"cannot export {type(grid).__name__}")
    return (path, header, [f"{float(a)!r}," for a in outer], [f"{float(b)!r}," for b in inner],
            memoryview(np.ascontiguousarray(grid.values, dtype=float).reshape(-1)))


def _csv_rows(job, start, stop):
    """Rows start..stop - 1 of a (path, header, heads, inner, flat) job as bytes, one join
    per row: a % format of a row template is 4-8% faster, but regrows its buffer per row."""
    _, _, heads, inner, flat = job
    for i in range(start, stop):
        head, row = heads[i], flat[i * len(inner):(i + 1) * len(inner)].tolist()
        yield "".join([f"{head}{b}{w!r}\n" for b, w in zip(inner, row)]).encode()


def _stream_csv(job, stop=None) -> int:
    with open(job[0], "wb") as fh:
        fh.write(job[1])
        fh.writelines(_csv_rows(job, 0, len(job[2]) if stop is None else stop))
        return fh.tell()


def _split_rows(shapes) -> tuple[int, int]:
    """(f, cut): grids 0..f-1 and rows 0..cut-1 of grid f hold half the samples, to a row."""
    half, f = sum(rows * cols for rows, cols in shapes) / 2, 0
    while half > shapes[f][0] * shapes[f][1]:
        half, f = half - shapes[f][0] * shapes[f][1], f + 1
    return f, math.ceil(half / shapes[f][1])


def export_grids(pairs) -> int:
    """Write each ``(grid, path)`` as :func:`export_grid` does; return the number of
    writers.  From ``SPLIT_MIN_SAMPLES`` samples on, with two usable CPUs, a forked child
    that does no numerics writes the second half of the rows, its share of the file the
    cut falls in at the byte offset this process pipes to it.  Every byte is unchanged,
    and the benchmark's wigner-export operations take 0.73 of their one-writer time."""
    jobs = [_csv_job(grid, path) for grid, path in pairs]
    if (sum(len(job[4]) for job in jobs) < SPLIT_MIN_SAMPLES or not hasattr(os, "fork")
            or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2):
        for job in jobs:
            _stream_csv(job)
        return 1
    f, cut = _split_rows([(len(job[2]), len(job[3])) for job in jobs])
    read_end, write_end = os.pipe()  # both held here until the child is reaped: no EPIPE
    pid = os.fork()
    if pid == 0:  # the child: never returns, never flushes this process's stdio
        status = 1  # failed: this process rewrites the child's files
        try:
            os.close(write_end)
            tail = b"".join(_csv_rows(jobs[f], cut, len(jobs[f][2])))
            for job in jobs[f + 1:]:
                _stream_csv(job)
            offset = int(os.read(read_end, 32))
            with open(jobs[f][0], "r+b") as fh:
                fh.seek(offset)
                fh.write(tail)
            status = 0
        finally:
            os._exit(status)
    try:
        for job in jobs[:f]:
            _stream_csv(job)
        os.write(write_end, b"%d" % _stream_csv(jobs[f], cut))
    finally:
        os.close(read_end)
        os.close(write_end)
        status = os.waitpid(pid, 0)[1]
    for job in jobs[f:] if status else ():  # raising, if at all, as one writer does
        _stream_csv(job)
    return 2


def export_grid(grid, path) -> None:
    """Write a grid as CSV: header ``theta,phi,w`` or ``x,p,w``, one row per
    sample, row-major order, shortest round-trip float formatting; large grids
    by two processes, byte for byte (see :func:`export_grids`)."""
    export_grids([(grid, path)])
