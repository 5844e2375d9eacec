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

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import DickeSpace, QuantumState, _frozen, _psd_factor
from .gates import _propagation_bases

PLANAR_APPROXIMATION_LABEL = "dicke-to-fock-identification"
BOUNDARY_WARN_LEVEL = 1e-3
# plane recurrence: check |l_m| every 32 steps (growth in between stays under
# 2^420 for x = 4|alpha|^2 up to 1e5) and scale points past 2^512 down by 2^512
_RESCALE_EVERY = 32
_RESCALE_BITS = 512
_RESCALE_LIMIT = 2.0 ** _RESCALE_BITS


class WindowWarning(UserWarning):
    """The planar grid window clips non-negligible Wigner weight."""


@functools.lru_cache(maxsize=None)
def _kernel_diagonal(n: int) -> np.ndarray:
    """Delta = sqrt(2J+1)/(4 pi) sum_k sqrt(2k+1) diag(T_k0), the Wigner kernel
    at the north pole.  diag(T_k0) is the Gram polynomial of degree k in m on
    0..N (orthonormal, positive leading coefficient), built by Lanczos on
    diag(m - N/2) from the uniform vector, reorthogonalized twice per step."""
    jz = np.arange(n + 1) - n / 2
    t_k0 = np.full((n + 1, n + 1), 1 / math.sqrt(n + 1))
    for k in range(n):
        v = jz * t_k0[k]
        for _ in range(2):
            v -= (t_k0[:k + 1] @ v) @ t_k0[:k + 1]
        t_k0[k + 1] = v / np.linalg.norm(v)
    return math.sqrt(n + 1) / (4 * np.pi) * (np.sqrt(2.0 * np.arange(n + 1) + 1) @ t_k0)


@functools.lru_cache(maxsize=None)
def _kernel_bands(n: int) -> tuple:
    """The diagonals G_{a,a+k}, k = 0..N, of the north-pole kernel in the J_y
    eigenbasis, G = V_y^dag diag(Delta) V_y.  V_y = P V_x with P diagonal, so
    P cancels against diag(Delta) and G = V_x^T diag(Delta) V_x is real."""
    vx = _propagation_bases(DickeSpace(n)).vx.real
    g = (vx.T * _kernel_diagonal(n)) @ vx
    return tuple(_frozen(np.diagonal(g, k)) for k in range(n + 1))


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
    u_conj, bands = u.conj(), _kernel_bands(state.space.n_emitters)
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
    """Sample W on the default (or requested) sphere grid."""
    n = state.space.n_emitters
    if n_theta <= 0:
        n_theta = max(60, n + 2)
    if n_phi <= 0:
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
    approximation: str = PLANAR_APPROXIMATION_LABEL
    window_clipped: bool = False

    def integral(self) -> float:
        dx = self.xs[1] - self.xs[0]
        dp = self.ps[1] - self.ps[0]
        return float(self.values.sum() * dx * dp)


def _planar_kernel_sum(amps: np.ndarray, X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """W(x,p) = sum_{m,n} c_m conj(c_n) K_mn(alpha), alpha = (x+ip)/sqrt(2), one
    diagonal k = n - m at a time (Cahill and Glauber, Phys. Rev. 177, 1882
    (1969)): K_{m,m+k} = (-1)^m l_m^k(4|alpha|^2) (2|alpha|)^k e^{i k arg alpha}
    e^{-2|alpha|^2} / (pi sqrt(k!)), with l_m^k = sqrt(m! k!/(m+k)!) L_m^k
    walked upwards in m by the normalized three-term recurrence (A&S 22.7.12).
    l_m grows like x^m / m! where the envelope underflows, so every
    ``_RESCALE_EVERY`` steps points past 2^_RESCALE_BITS are scaled down by that
    power of two and the exponent is folded into the envelope's log.

    Everything but the phase e^{i k arg alpha} depends on x = 4|alpha|^2 only,
    so the recurrence, the rescale and the envelope run once per distinct x
    (``np.unique`` of the grid's own values; a grid of 201^2 points at N = 40
    has 8,192) and are gathered back onto the grid for the phase sum.  Every
    point sees the same floating-point operations as a per-point walk would,
    so the values are unchanged bit for bit."""
    alpha = (X + 1j * P) / np.sqrt(2)
    x, at = np.unique(4.0 * np.abs(alpha) ** 2, return_inverse=True)
    at = at.reshape(alpha.shape)
    with np.errstate(divide="ignore"):
        log_x = np.log(x)  # -inf at alpha = 0, where every k >= 1 term vanishes
    phase = np.exp(1j * np.angle(alpha))
    phase_k = np.ones_like(phase)
    dim = amps.size
    w = np.zeros(alpha.shape)
    for k in range(dim):
        rho = amps[:dim - k] * np.conj(amps[k:]) * (-1.0) ** np.arange(dim - k)
        nonzero = np.flatnonzero(rho)  # rho_m = (-1)^m c_m conj(c_{m+k})
        if nonzero.size:
            s_re, s_im = np.zeros_like(x), np.zeros_like(x)
            l_prev, l_m = 0.0, np.ones_like(x)
            log2_scale = 0  # the sums hold 2^-log2_scale times their true value
            for m in range(nonzero[-1] + 1):
                if m:
                    l_prev, l_m = l_m, (((2 * m - 1 + k) - x) * l_m - math.sqrt(
                        (m - 1) * (m - 1 + k)) * l_prev) / math.sqrt(m * (m + k))
                if m % _RESCALE_EVERY == 0 and np.max(np.abs(l_m)) > _RESCALE_LIMIT:
                    shift = np.where(np.abs(l_m) > _RESCALE_LIMIT, _RESCALE_BITS, 0)
                    l_prev, l_m, s_re, s_im = (np.ldexp(a, -shift)
                                               for a in (l_prev, l_m, s_re, s_im))
                    log2_scale = log2_scale + shift
                if rho[m].real:
                    s_re += rho[m].real * l_m
                if rho[m].imag:
                    s_im += rho[m].imag * l_m
            # (2|alpha|)^k e^{-2|alpha|^2} / sqrt(k!), through logs to dodge overflow
            log_mag = 0.5 * (k * log_x - x - math.lgamma(k + 1)) if k else -0.5 * x
            mag = np.exp(log_mag + log2_scale * math.log(2.0))
            w += (2.0 if k else 1.0) / np.pi * mag[at] * (
                phase_k.real * s_re[at] - phase_k.imag * s_im[at])
        phase_k *= phase
    return w


def planar_wigner(state: QuantumState, x_max: float = 0.0, p_max: float = 0.0,
                  resolution: int = 201) -> PlaneGrid:
    """Bosonic Wigner function of the Fock-identified pure state.

    Conventions: x = (a + a^dag)/sqrt(2), W >= -1/pi, integral over the
    plane equals 1 for a window enclosing the state.  Emits a
    :class:`WindowWarning` (and flags the grid) when |W| at the window
    boundary exceeds ``BOUNDARY_WARN_LEVEL``.
    """
    if not state.is_pure:
        raise ValueError("planar_wigner expects a pure state")
    if resolution < 2:
        raise ValueError(f"planar grid resolution must be at least 2, got {resolution}")
    if not (math.isfinite(x_max) and math.isfinite(p_max)):
        raise ValueError(f"planar window must be finite, got x_max={x_max}, p_max={p_max}")
    n = state.space.n_emitters
    if x_max <= 0:
        x_max = np.sqrt(2.0 * n) + 3.0
    if p_max <= 0:
        p_max = x_max
    xs = np.linspace(-x_max, x_max, resolution)
    ps = np.linspace(-p_max, p_max, resolution)
    values = _planar_kernel_sum(state.amplitudes, xs[:, None], ps[None, :])
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


def export_grid(grid, path) -> None:
    """Write a grid as CSV: header ``theta,phi,w`` or ``x,p,w``, one row per
    sample, row-major order, shortest round-trip float formatting."""
    if isinstance(grid, SphereGrid):
        header, outer, inner = "theta,phi,w", grid.thetas, grid.phis
    elif isinstance(grid, PlaneGrid):
        header, outer, inner = "x,p,w", grid.xs, grid.ps
    else:
        raise TypeError(f"cannot export {type(grid).__name__}")
    inner = [f"{float(b)!r}," for b in inner]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for a, row in zip(outer, np.asarray(grid.values, dtype=float)):
            head = f"{float(a)!r},"
            fh.writelines(f"{head}{b}{w!r}\n" for b, w in zip(inner, row.tolist()))
