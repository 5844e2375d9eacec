"""Rotation and squeezing gates, pulse steps, and sequence application.

A pulse step is a coherent rotation followed by squeezing.  The rotation is
R(theta, n) = exp(s * i * theta * (n_x S_x + n_y S_y + n_z S_z)) and the
squeezes are exp(s * i * alpha S_x^2) and exp(s * i * beta S_y^2), where the
normalization of S, the global exponent sign s and the way the pieces compose
are configurable via :class:`GateConventions` so that published parameter
tables can be replayed under every plausible reading.

:func:`propagate` applies a sequence to a state vector, or to a block of
columns, without forming any (N+1)x(N+1) unitary; every state preparation,
pure or mixed, goes through it.  The dense unitaries it is tested against
live in the test suite.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Tuple

import numpy as np

from .core import (
    NORM_DRIFT_TOL,
    DickeSpace,
    DimensionMismatchError,
    NormDriftError,
    QuantumState,
    build_sx,
    build_sy,
    _check_same_space,
    _normalized,
    _psd_factor,
)

SQUEEZE_ORDERS = ("xy", "yx")
SQUEEZE_COMPOSITIONS = ("product", "combined")
ROTATION_COMPOSITIONS = ("combined", "product")
EXPONENT_SIGNS = (1, -1)
# serialized in this order
_CONVENTION_KEYS = ("convention", "exponent_sign", "squeeze_order", "squeeze_composition",
                    "rotation_composition")


class Convention(enum.Enum):
    """Normalization of the collective S_x, S_y, S_z.

    SPIN_J:    S_x = (S_+ + S_-)/2, S_z |m> = (m - N/2)|m>.  Satisfies
               [S_x, S_y] = i S_z; this is the spin-J angular momentum algebra.
    PAULI_SUM: S_x = S_+ + S_-, S_z |m> = 2(m - N/2)|m>, i.e. bare sums of
               Pauli matrices with [S_x, S_y] = 2i S_z.

    The ladder operators S_+- are identical in both conventions.
    """

    SPIN_J = "spin-j"
    PAULI_SUM = "pauli-sum"


@dataclass(frozen=True)
class GateConventions:
    """Resolvable ambiguities in how a pulse step turns into a unitary.

    convention:           normalization of the S operators in the exponents,
                          S = J (spin-j) or S = 2 J (pauli-sum).
    squeeze_order:        "xy" applies exp(i alpha S_x^2) first, "yx" flips.
                          Only relevant for squeeze_composition="product".
    squeeze_composition:  "product" multiplies the two squeeze exponentials;
                          "combined" uses the single exponential
                          exp(s*i*(alpha S_x^2 + beta S_y^2)).
    rotation_composition: "combined" exponentiates the summed generator
                          theta * (n . S) in one shot; "product" factors the
                          per-axis angles into Rz * Ry * Rx (x applied first).
    exponent_sign:        +1 or -1 global sign of the exponent.
    """

    squeeze_order: str = "xy"
    squeeze_composition: str = "product"
    rotation_composition: str = "combined"
    exponent_sign: int = 1
    convention: Convention = Convention.SPIN_J

    def __post_init__(self):
        if not isinstance(self.convention, Convention):
            try:
                object.__setattr__(self, "convention", Convention(self.convention))
            except ValueError as exc:
                raise ValueError(f"convention: {exc}") from exc
        if self.squeeze_order not in SQUEEZE_ORDERS:
            raise ValueError(f"squeeze_order must be one of {SQUEEZE_ORDERS}")
        if self.squeeze_composition not in SQUEEZE_COMPOSITIONS:
            raise ValueError(f"squeeze_composition must be one of {SQUEEZE_COMPOSITIONS}")
        if self.rotation_composition not in ROTATION_COMPOSITIONS:
            raise ValueError(f"rotation_composition must be one of {ROTATION_COMPOSITIONS}")
        if self.exponent_sign not in EXPONENT_SIGNS:
            raise ValueError("exponent_sign must be +1 or -1")

    @property
    def scale(self) -> float:
        """S = scale * J: 1 for spin-j, 2 for pauli-sum."""
        return 2.0 if self.convention is Convention.PAULI_SUM else 1.0

    def to_dict(self) -> dict:
        """JSON form, as stored in sequence files and result records."""
        doc = {key: getattr(self, key) for key in _CONVENTION_KEYS}
        doc["convention"] = self.convention.value
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "GateConventions":
        """Inverse of :meth:`to_dict`; missing keys take the defaults.
        Invalid values raise ValueError."""
        return cls(**{key: doc[key] for key in _CONVENTION_KEYS if key in doc})


DEFAULT_CONVENTIONS = GateConventions()
# The 24 distinct readings, in the order of replay --sweep-conventions' unsorted rows
CONVENTION_SWEEP = tuple(
    GateConventions(squeeze_order=order, squeeze_composition=comp, rotation_composition=rot,
                    exponent_sign=sign, convention=convention)
    for convention in Convention for sign in EXPONENT_SIGNS for rot in ROTATION_COMPOSITIONS
    for comp in SQUEEZE_COMPOSITIONS for order in SQUEEZE_ORDERS
    if comp == "product" or order == SQUEEZE_ORDERS[0])


def _checked_axis(axis) -> Tuple[float, float, float]:
    """``axis`` as a float triple, values unchanged."""
    vec = np.asarray(axis, dtype=float).reshape(-1)
    if vec.shape != (3,):
        raise ValueError(f"rotation axis must be a 3-vector, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise ValueError(f"rotation axis must be finite, got {vec.tolist()}")
    if not vec.any():
        raise ValueError("rotation axis must be nonzero")
    return (float(vec[0]), float(vec[1]), float(vec[2]))


def _finite(name: str, value) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class PulseStep:
    """One sequence step: rotation by theta about axis, then squeezing.

    The axis is kept exactly as given (so a loaded file saves back to the
    same bytes) and normalized where the rotation angles are formed."""

    axis: Tuple[float, float, float]
    theta: float
    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "axis", _checked_axis(self.axis))
        for name in ("theta", "alpha", "beta"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))

    @property
    def turns(self) -> np.ndarray:
        """Per-axis rotation angles (theta_x, theta_y, theta_z) = theta * axis / |axis|."""
        return self.theta * _normalized(np.asarray(self.axis))


@dataclass(frozen=True)
class PulseSequence:
    """Ordered pulse steps plus a final squeeze-free rotation."""

    space: DickeSpace
    steps: Tuple[PulseStep, ...]
    final_axis: Tuple[float, float, float]
    final_theta: float

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "final_axis", _checked_axis(self.final_axis))
        object.__setattr__(self, "final_theta", _finite("final_theta", self.final_theta))

    @property
    def final_turns(self) -> np.ndarray:
        """Per-axis angles of the final rotation, as :attr:`PulseStep.turns`."""
        return self.final_theta * _normalized(np.asarray(self.final_axis))

    @property
    def n_steps(self) -> int:
        return len(self.steps)


class _Bases(NamedTuple):
    """Per-space data of :func:`propagate`; see :func:`_propagation_bases`."""

    jz: np.ndarray          # J_z diagonal, the levels m - N/2
    vx: np.ndarray          # J_x eigenvectors (real, stored complex) ...
    vx_h: np.ndarray        # ... and their adjoint, a transposed view
    vy: np.ndarray          # J_y eigenvectors, exp(-i pi/2 J_z) vx ...
    vy_h: np.ndarray        # ... and their adjoint
    x_to_y: np.ndarray      # vy_h @ vx: J_x-basis to J_y-basis coordinates ...
    y_to_x: np.ndarray      # ... and back
    rows: tuple             # per path (product, combined), the rows of _slot_phases
    level_take: np.ndarray  # the two grown halves, flat, to level order, (d,)
    sq_diag: np.ndarray     # diagonals of J_x^2 and J_y^2, shape (2, d)
    sq_off: np.ndarray      # their m, m+2 entries, shape (2, d - 2)


# A slot's phases are exp(i (L x + Q x^2)) on the levels x = m - N/2, the
# eigenvalues of J_x and J_y as well as of J_z; here (L, Q) per entry of a
# coef row (a, b, c, s1, s2) and slot.  The product squeeze's slots, in order,
# are c and s2 in the second squeeze's eigenbasis, b in the standard basis, a
# and s1 in the first's, and s2 alone (for ``per_step``); the combined
# squeeze's are c, b and a of Z(a) X(b) Z(c), without Q.
_SLOT_LQ = np.zeros((5, 4, 2))
_SLOT_LQ[[2, 1, 0], [0, 1, 2], 0] = 1.0
_SLOT_LQ[[4, 3, 4], [0, 2, 3], 1] = 1.0


@functools.lru_cache(maxsize=None)
def _propagation_bases(space: DickeSpace) -> _Bases:
    """One eigendecomposition per space, shared by every propagation.

    J_x is real symmetric with a simple spectrum, so its eigenbasis is real
    orthogonal and also diagonalizes S_x^2.  J_y = P J_x P^dag with the
    diagonal P = exp(-i pi/2 J_z), so P times that basis serves J_y and S_y^2.

    Both paths' rows of :func:`_slot_phases` come from the one table
    ``_SLOT_LQ``: row i holds L x + Q x^2 at each slot's (L, Q) for coef
    entry i, below RECURRENCE_MIN_LEVELS levels at the exact levels x, in
    eigh's ascending order (the direct rows), from there on at the six seed
    arguments of the recurrence, whose halves ``level_take`` lays out in
    level order.  Everything is in J units; :func:`propagate` scales the
    coefficients to the operator convention, S = scale * J.
    """
    jx, jy = build_sx(space), build_sy(space)
    vx = np.linalg.eigh(jx.real)[1]
    jz = np.arange(space.dim) - space.n_emitters / 2
    vy = np.exp(-0.5j * np.pi * jz)[:, None] * vx
    sq = [(j @ j).real for j in (jx, jy)]
    # (L, Q) -> the direct rows' L x + Q x^2, or the arguments of f_s, r_s
    # and q per half, the upper x = x_s, x_s + 1, ... and with L negated the
    # lower x = -x_s, -x_s - 1, ..., from the middle level x_s (0 or 1/2)
    mid = 0.5 * (space.n_emitters % 2)
    levels = (np.array([jz, jz * jz]) if space.dim < RECURRENCE_MIN_LEVELS else
              np.array([[mid, 1.0, 0.0, -mid, -1.0, 0.0], [mid * mid, 2 * mid + 1, 2.0] * 2]))
    rows = tuple(np.einsum("psl,lx->psx", t, levels).reshape(5, -1)
                 for t in (_SLOT_LQ, _SLOT_LQ[:, :3] * [1.0, 0.0]))
    half, j = (space.dim + 1) // 2, np.arange(space.dim)
    level_take = np.where(j >= space.dim // 2, j - space.dim // 2, half + (space.dim - 1) // 2 - j)
    vx = vx.astype(complex)
    vy_h = np.ascontiguousarray(vy.conj().T)
    x_to_y = vy_h @ vx
    return _Bases(jz, vx, vx.T, vy, vy_h, x_to_y, np.ascontiguousarray(x_to_y.conj().T),
                  rows, level_take, np.array([np.diag(q) for q in sq]),
                  np.array([np.diag(q, 2) for q in sq]))


# A rotation exp(i t . J) is read from its SU(2) quaternion (w, x, y, z) =
# (cos(|t|/2), sin(|t|/2) t / |t|).  In the Dicke ordering (|0> has J_z =
# -1/2) its spin-1/2 matrix has the first column (w - i z, y + i x), and the
# operator product A B has the quaternion q_B (x) q_A (Hamilton product).

def _hamilton(p, q) -> np.ndarray:
    """Hamilton product p (x) q of two quaternions (w, x, y, z)."""
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return np.array([w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                     w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                     w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                     w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2])


_UNIT = np.eye(4)
# The quaternion q_X (x) q_Y (x) q_Z of Rz Ry Rx is trilinear in the
# (cos, sin) halves of the three axis angles: row 4i + 2j + k of this table
# is the product of half i of x, half j of y and half k of z.
_PRODUCT_ROTATION = np.array([_hamilton(_hamilton(qx, qy), qz)
                              for qx in _UNIT[[0, 1]]
                              for qy in _UNIT[[0, 2]]
                              for qz in _UNIT[[0, 3]]])
# P = exp(-i pi/2 J_z) carries J_x to J_y, so Y(c) = P X(c) P^dag.
_P = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2.0)
# (w, x, y, z) -> (w, z, -y, x), a rotation taking x to z and z to x: the
# Z-X-Z angles of the result are the X-Z-X angles of the input.
_XZX = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0]])
# Per squeeze order, q_R -> the relabelled quaternion of R P (xy) or P^dag R
# (yx), and what to add to its middle angle: X(a) Z(b) Y(c) = X(a)
# Z(b - pi/2) X(c) P^dag and Y(a) Z(b) X(c) = P X(a) Z(b + pi/2) X(c).
_MERGED_EULER = {
    "xy": (np.array([_hamilton(_P, e) for e in _UNIT]) @ _XZX, 0.5 * np.pi),
    "yx": (np.array([_hamilton(e, _P * [1, -1, -1, -1]) for e in _UNIT]) @ _XZX,
           -0.5 * np.pi),
}
# Z(a) X(b) Z(c) at spin 1/2 has the first column (u, v) = (w - i z, y + i x)
# = (cos(b/2) e^{-i(a+c)/2}, i sin(b/2) e^{i(a-c)/2}).  _ARG_COLUMNS takes
# (w, x, y, z) to (x, -z, y, w), so that atan2 of the first two columns over
# the last two gives arg v and arg u, and their hypot |v| and |u|; then
# (a, b, c) = (arg v, arg u, atan2(|v|, |u|)) @ _ZXZ_FROM_ARGS + (-pi/2, 0, pi/2).
_ARG_COLUMNS = np.array([[0, 0, 0, 1], [1, 0, 0, 0], [0, 0, 1, 0], [0, -1, 0, 0]])
_ZXZ_FROM_ARGS = np.array([[1.0, 0.0, -1.0], [-1.0, 0.0, -1.0], [0.0, 2.0, 0.0]])
_TINY = np.finfo(float).tiny
# From this many levels d = N + 1 on, _slot_phases grows its phases by
# recurrence instead of one exp each; below, it keeps the direct exp, bit
# for bit.  Measured with one BLAS thread on a 2-vCPU x86 host, as the time
# ratio recurrence / direct exp: a convention sweep reads 0.93-1.02 at
# N = 16, 0.90-0.94 at N = 20 and 0.76-0.91 at N = 40 and 100 (M = 1..11);
# one propagate call, a group of one, reads up to 1.17 at N = 16..30 (median
# 1.10) and 0.97-1.07 at N = 40.  M moves only the break-even of a group of
# one, which a rule blind to the group size cannot follow, so the rule reads
# d alone; it must not read the group size, or a sweep would lose the bits
# of each convention's own propagate call.
RECURRENCE_MIN_LEVELS = 17


def _chain_eigh(diag: np.ndarray, off: np.ndarray, stride: int) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the real symmetric H with the diagonal ``diag``, shape
    (..., d), and H[m, m + stride] = off[..., m], one eigh stacked over the
    leading axes.  H splits into the chains {c, c + stride, ...}, c < stride.
    Slot k of chain c holds |c + k stride>; the chains are zero-padded to a
    common length L = ceil(d / stride), and a padded slot stays decoupled.
    Returns w, shape (..., stride, L), and v, shape (..., stride, L, L), with
    chain c's block v[c] diag(w[c]) v[c]^T."""
    lead, d = diag.shape[:-1], diag.shape[-1]
    length = -(-d // stride)
    bands = np.zeros(lead + (2, length * stride))  # H[m, m] and H[m, m + stride]
    bands[..., 0, :d] = diag
    bands[..., 1, :d - stride] = off
    chains = np.swapaxes(bands.reshape(lead + (2, length, stride)), -1, -2)
    block = np.zeros(lead + (stride, length, length))
    k = np.arange(length)
    block[..., k, k] = chains[..., 0, :, :]
    block[..., k[:-1], k[1:]] = block[..., k[1:], k[:-1]] = chains[..., 1, :, :-1]
    return np.linalg.eigh(block)


def _chain_exp(v: np.ndarray, phases: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """exp(i k H) psi from the eigenvectors ``v`` of one set of
    :func:`_chain_eigh` eigenpairs (w, v) of H (no leading axes) and
    ``phases`` = exp(i k w): shape (stride, L) for the vector or (d, r)
    block ``psi``, or (B, stride, L), one k per slice, for the stack
    ``psi`` of shape (B, d, r).  Entry c + j stride of the padded input sits
    at [j, c]; the two batched real matvecs act on its real and imaginary
    parts as two real columns per input column, once per slice."""
    lead = phases.shape[:-2]
    stride, length = phases.shape[-2:]
    swap = (0, 2, 1, 3) if lead else (1, 0, 2)
    d = psi.shape[len(lead)]
    cols = psi.reshape(lead + (d, -1))
    chains = np.zeros(lead + (length * stride, cols.shape[-1]), complex)
    chains[..., :d, :] = cols
    real = chains.view(float).reshape(lead + (length, stride, -1)).transpose(swap)
    coeffs = np.matmul(v.transpose(0, 2, 1), real).view(complex)
    coeffs *= phases[..., None]
    out = np.matmul(v, coeffs.view(float)).transpose(swap).reshape(lead + (length * stride, -1))
    return out[..., :d, :].view(complex).reshape(psi.shape)


@functools.lru_cache(maxsize=None)
def _mirror_tables(space: DickeSpace) -> tuple:
    """The index tables of :func:`squeeze_eigenpairs` for even N: per
    block, its band (diagonal, subdiagonal) as f (first + s second) of the
    bands [diag, off, 0, ceiling]; per chain slot and column, the flat block
    eigenvector entry and its factor."""
    d = space.dim
    length, size = (d + 1) // 2, (d + 3) // 4
    k, r = np.arange(size), np.arange(length)
    src, factor = np.full((2, 4, 2 * size - 1), 2 * d - 2), np.ones((4, 2 * size - 1))
    take, scale = [], []
    halves = ((0, 1), (0, -1), (1, -1), (1, 1))  # (chain, s), chain by chain
    for b, (c, s) in enumerate(halves):
        n, z = length - c, (length - c + (s > 0)) // 2  # slots of the chain, of the block
        src[0, b, :size] = np.where(k < z, c + 2 * k, 2 * d - 1)
        src[0, b, size:size + z - 1] = d + c + 2 * k[:z - 1]
        if n % 2 == 0:  # the corner H[k, k] + s H[k, k+1], k + 1 = n-1-k
            src[1, b, z - 1] = d + c + 2 * z - 2
        elif s > 0 and z > 1:  # the middle slot k: (H[k, k-1] + H[k, k+1]) / sqrt 2
            src[1, b, size + z - 2], factor[b, size + z - 2] = d + c + 2 * z - 2, np.sqrt(0.5)
        rows = np.where(r < n, np.minimum(r, n - 1 - r), size - 1)  # padded: slot P - 1
        cols = k[:length - size] if b % 2 else k
        take.append(b * size ** 2 + size * rows[:, None] + cols)
        q = np.where(r == n - 1 - r, (1 + s) / 2, np.sqrt(0.5) * np.where(r < n - 1 - r, 1, s))
        scale.append(np.outer(np.where(r < n, q, s < 0), np.ones(cols.size)))
    return (src, np.array(halves)[:, 1:], factor,
            *(np.array([np.hstack(t[:2]), np.hstack(t[2:])]) for t in (take, scale)))


def squeeze_eigenpairs(space: DickeSpace, strengths) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of -(alpha J_x^2 + beta J_y^2), which couples m only to
    m +- 2, laid out as the stride-2 chains of :func:`_chain_eigh`, for every
    row (alpha, beta) of the (M, 2) table ``strengths``: w (M, 2, L) and
    v (M, 2, L, L) from one eigh call.

    The generator commutes with the mirror m <-> N - m, the pi rotation
    about x.  For odd N the mirror swaps the chains: eigh takes the even one
    alone, M blocks of L slots, and the odd one's eigenvectors are its rows
    reversed.  For even N it maps chain c of n slots onto itself, k to
    n-1-k, and splits it in the basis q_k = g_k (e_k + s e_{n-1-k}), s = +-1,
    g = 1/sqrt 2, or 1/2 at a middle slot (Cantoni and Butler, Linear
    Algebra Appl. 13, 275 (1976)).  Block (c, s) is the chain's upper left
    quarter but for its corner H[k, k] + s H[k, k+1], k + 1 = n-1-k, or its
    middle slot's coupling sqrt 2 H[k-1, k]; an eigenvector u of it is
    sum_k u_k q_k.  :func:`_chain_eigh` takes the 4M blocks as chains of
    stride 1, padded to P = ceil(L/2) slots, a padded diagonal above every
    eigenvalue (Gershgorin) so that it sorts last.  A chain takes every
    column of its first block and the L - P unpadded ones of its second;
    block (1, -1)'s padded column is chain 1's padded slot, of eigenvalue 0.

    One result serves every convention: the squeeze
    exp(s i (alpha S_x^2 + beta S_y^2)) with S = scale * J is exp(i k w) in
    this eigenbasis, with k = -s * scale**2, an exact product.  The sign -1
    is the one every bundled table uses, so for them these are the
    eigenpairs of their own generator; under sign +1, eigh(-H) stands in for
    eigh(H), equal to roundoff.
    A strength that is not finite, or so large that the generator overflows,
    raises NormDriftError, as the product squeeze's norm check does.
    """
    bases = _propagation_bases(space)
    given = np.asarray(strengths, dtype=float)
    alpha, beta = -given[:, :1], -given[:, 1:]
    diags = alpha * bases.sq_diag[0] + beta * bases.sq_diag[1]
    offs = alpha * bases.sq_off[0] + beta * bases.sq_off[1]
    bad = ~(np.isfinite(diags).all(axis=1) & np.isfinite(offs).all(axis=1))
    if bad.any():
        k = int(np.argmax(bad))
        raise NormDriftError(f"squeeze strengths {given[k].tolist()} of step {k + 1} "
                             "make the combined squeeze generator non-finite")
    if space.n_emitters % 2:
        w, v = _chain_eigh(diags[:, ::2], offs[:, ::2], 1)
        return np.concatenate([w, w], 1), np.concatenate([v, v[..., ::-1, :]], 1)
    src, sign, factor, take, scale = _mirror_tables(space)
    length, size = (space.dim + 1) // 2, (space.dim + 3) // 4
    bands = np.concatenate([diags, offs, np.zeros((len(diags), 2))], axis=1)
    bands[:, -1] = 4 * np.abs(bands).max(axis=1) + 1  # the ceiling
    band = factor * (bands[:, src[0]] + sign * bands[:, src[1]])
    w, u = _chain_eigh(band[..., :size], band[..., size:], 1)
    v = np.take(u.reshape(-1, 4 * size ** 2), take, axis=1)
    v *= scale
    w = w.reshape(-1, 2, 2 * size)[..., :length]
    w[:, 1, size - 1] = 0.0  # chain 1's padded slot
    return w, v


def _checked(psi: np.ndarray) -> np.ndarray:
    norm = np.sqrt(np.vdot(psi, psi).real)
    if not abs(norm - 1.0) <= NORM_DRIFT_TOL:
        raise NormDriftError(f"norm drifted to {float(norm)!r} during propagation")
    return psi / norm


def _quaternions(turns: np.ndarray, product_rotation: bool) -> np.ndarray:
    """Per rotation, over any leading axes of the turns (..., 3): its SU(2)
    quaternion (..., 4), or for the product rotation the eight half-angle
    products (..., 8) that ``_PRODUCT_ROTATION`` maps to it."""
    if product_rotation:
        halves = np.exp(0.5j * turns).view(float).reshape(-1, 3, 2)  # (cos, sin)
        return (halves[:, 0, :, None, None] * halves[:, 1, None, :, None]
                * halves[:, 2, None, None, :]).reshape(turns.shape[:-1] + (8,))
    norm = np.sqrt(np.einsum("...j,...j->...", turns, turns))
    half = np.exp(0.5j * norm)
    quat = np.empty(turns.shape[:-1] + (4,))
    quat[..., 0] = half.real
    # the floor only acts at norm 0, where sin(0) = 0
    quat[..., 1:] = turns * (half.imag / np.maximum(norm, _TINY))[..., None]
    return quat


def _slot_phases(space: DickeSpace, coef: np.ndarray, combined: bool, n_slots: int,
                 mul: Callable = np.ndarray.dot) -> np.ndarray:
    """The first ``n_slots`` phase slots of the coefficient table ``coef``
    (..., 5) on the combined- or product-squeeze path, shape
    (..., n_slots, d), C-contiguous; ``mul`` is the plan's product.

    Below RECURRENCE_MIN_LEVELS levels this is the direct exp(i coef @ rows)
    on the exact levels.
    From there on slot (L, Q) is grown from the middle level x_s, the one at
    or just above x = 0: with f(x) = exp(i (L x + Q x^2)), the ratios
    r(x + 1) = f(x + 1) / f(x) step by q = exp(2 i Q).  One exp gives f(x_s),
    r(x_s + 1) and q for the upper half and, with L negated, for the mirrored
    lower half; one multiply.accumulate grows the ratios and one the phases,
    and np.take lays them out in level order.  A phase n levels from the
    middle then errs by about n^2 eps / 2, where the direct exp errs by eps
    times its argument, |Q| n^2 with n up to N/2.  Every step is
    elementwise, so a slice keeps its bits in any group.
    """
    bases = _propagation_bases(space)
    lead, d = coef.shape[:-1], space.dim
    direct = d < RECURRENCE_MIN_LEVELS
    phases = np.exp(1j * mul(coef, bases.rows[combined][:, :n_slots * (d if direct else 6)]))
    if direct:
        return phases.reshape(lead + (n_slots, d))
    grown = np.repeat(phases.reshape(lead + (n_slots, 2, 3)), [1, 1, (d + 1) // 2 - 2],
                      axis=-1)  # f_s, r_s, q, q, ...
    np.multiply.accumulate(grown[..., 1:], axis=-1, out=grown[..., 1:])  # the ratios
    np.multiply.accumulate(grown, axis=-1, out=grown)  # the phases
    return np.take(grown.reshape(lead + (n_slots, -1)), bases.level_take, axis=-1)


@functools.lru_cache(maxsize=None)
def _plan(space: DickeSpace, conventions: Tuple[GateConventions, ...], n_steps: int) -> Callable:
    """The kernel of :func:`propagate` for one space, step count M and a
    group of conventions that share the squeeze composition and order, which
    decide the factors of a step, with every choice that depends only on
    them made once.  Returns ``run(params, cols, per_step)`` for flat float
    ``params`` of length 5M + 3 and a complex (d, r) block ``cols`` (a
    vector is one column); it returns the unchecked states in a list, the
    M+1 after each step and the final rotation with ``per_step``, else the
    final one.  A combined-squeeze run makes its own :func:`squeeze_eigenpairs`.

    Within a group the rotation composition changes only how the Euler
    angles are read, and the operator convention and exponent sign only
    scale the turns by sign * scale and the strengths by sign * scale**2,
    exact since scale is 1 or 2.  A group of one carries ``cols`` through
    ``ndarray.dot``, which gives a column the bits of the vector.  A group
    of B carries the stack (B, d, r) and one leading axis of angles and
    phases; every product is a stacked ``np.matmul``, which calls BLAS once
    per slice on that slice's operands, so each slice keeps the bits of its
    group of one (one gemm over all B r columns would not).

    Rotation k has Euler angles (a, b, c).  With the combined squeeze they
    are Z-X-Z angles, Z(a) X(b) Z(c) with Z(a) = exp(i a J_z).  With the
    product squeeze they are X-Z-Y angles, X(a) Z(b) Y(c), for order xy and
    Y-Z-X angles for yx, so that the outer factors share an eigenbasis with
    the neighbouring squeezes.  Reading the angles off the quaternion fixes
    the element of SU(2), not just of SO(3), so they hold in every spin-J
    representation, odd N included.  At a middle angle of 0 (or pi) only
    a + c (or a - c) is determined, and only it matters.
    """
    bases = _propagation_bases(space)
    stacked = len(conventions) > 1
    lead = (len(conventions),) if stacked else ()
    mul = np.matmul if stacked else np.ndarray.dot

    def per_slice(values):  # a scalar for a group of one, else shape (B, 1, 1)
        return np.reshape(values, (-1, 1, 1)) if stacked else values[0]

    # S = scale * J: the turns scale by it and the squeeze strengths by its
    # square, exact products since both are powers of two
    turn_scale = per_slice([c.exponent_sign * c.scale for c in conventions])
    strength_scale = per_slice([c.exponent_sign * c.scale ** 2 for c in conventions])
    # the combined squeeze's phases are exp(i k w), w of shape (M, 2, L); a
    # stack evaluates them once per distinct k (4 for the sweep's 8 slices)
    # and gathers them per slice, the same products
    squeeze_k = -strength_scale
    distinct_k, which_k = np.unique(np.ravel(squeeze_k), return_inverse=True)
    distinct_k = distinct_k[:, None, None]
    combined = conventions[0].squeeze_composition == "combined"
    squeeze_order = conventions[0].squeeze_order
    yx = int(squeeze_order == "yx")
    # Per rotation composition, the slices that use it and the map from its
    # quaternions (or, for the product rotation, the eight half-angle
    # products) to the columns the Z-X-Z angles are read from; offset is
    # added to the angles
    euler, middle = (_UNIT, 0.0) if combined else _MERGED_EULER[squeeze_order]
    offset = np.array([-0.5 * np.pi, middle, 0.5 * np.pi])
    product = np.array([c.rotation_composition == "product" for c in conventions])
    readings = [(np.flatnonzero(product == p), p, (_PRODUCT_ROTATION @ euler if p else euler)
                 @ _ARG_COLUMNS) for p in (False, True) if (product == p).any()]
    if combined:
        first, second = bases.vx_h, bases.vx
    else:
        # v1: the eigenbasis of the squeeze applied first; v2: the second.
        v1, v1_h, v2, v2_h, hop = (
            (bases.vy, bases.vy_h, bases.vx, bases.vx_h, bases.y_to_x) if yx
            else (bases.vx, bases.vx_h, bases.vy, bases.vy_h, bases.x_to_y))
        first, second = v2, v1_h

    def run(params, cols, per_step):
        # one row per rotation: (theta_x, theta_y, theta_z, alpha, beta), the
        # final rotation's strengths 0
        table = np.zeros(5 * n_steps + 5)
        table[:-2] = params
        table = table.reshape(n_steps + 1, 5)
        coef = np.zeros(lead + (n_steps + 1, 5))
        strengths = strength_scale * table[:, 3:]
        turns = table[:, :3] * turn_scale
        if len(readings) == 1:  # one rotation composition: every slice at once
            _, product_rotation, to_cols = readings[0]
            arg_cols = mul(_quaternions(turns, product_rotation), to_cols)
        else:
            arg_cols = np.empty(lead + (n_steps + 1, 4))
            for index, product_rotation, to_cols in readings:
                arg_cols[index] = mul(_quaternions(turns[index], product_rotation), to_cols)
        args = np.empty(lead + (n_steps + 1, 3))
        args[..., :2] = np.arctan2(arg_cols[..., :2], arg_cols[..., 2:])
        hyp = np.hypot(arg_cols[..., :2], arg_cols[..., 2:])
        args[..., 2] = np.arctan2(hyp[..., 0], hyp[..., 1])
        coef[..., :3] = mul(args, _ZXZ_FROM_ARGS) + offset
        coef[..., 3] = strengths[..., yx]
        coef[..., 1:, 4] = strengths[..., :-1, 1 - yx]
        # the product squeeze's slot 3, its second squeeze alone, only serves per_step
        phases = _slot_phases(space, coef, combined, 4 if per_step and not combined else 3, mul)
        # phases[k, slot] is (d, 1), or (B, d, 1) for a stack, shared by the columns
        phases = (np.moveaxis(phases, 0, 2) if stacked else phases)[..., None]
        if combined:  # squeeze_phases[k] is (2, L), or (B, 2, L) for a stack
            w, v = squeeze_eigenpairs(space, table[:-1, 3:])
            squeeze_phases = (np.take(np.exp(1j * (distinct_k * w[:, None])), which_k, axis=1)
                              if stacked else np.exp(1j * (squeeze_k * w)))
        psi = cols if combined else mul(v2_h, cols)
        states = []
        for k in range(n_steps + 1):
            psi = phases[k, 2] * mul(second, phases[k, 1] * mul(first, phases[k, 0] * psi))
            if k == n_steps:
                break
            if combined:
                psi = _chain_exp(v[k], squeeze_phases[k], psi)
                if per_step:
                    states.append(psi)
            else:
                psi = mul(hop, psi)
                if per_step:  # the second squeeze's phase is still to come
                    states.append(mul(v2, phases[k + 1, 3] * psi))
        if not combined:
            psi = mul(v1, psi)
        states.append(psi)
        return states

    return run


def propagate(space: DickeSpace, params, conventions: GateConventions,
              psi0, per_step: bool = False) -> np.ndarray:
    """Apply the sequence with flat parameters ``params`` (the
    :func:`flatten_params` layout, length 5M + 3) to the unit amplitude
    vector ``psi0``, or to each column of a (d, r) block ``psi0`` whose
    squared Frobenius norm is 1 (such as A with rho = A A^dag).  Returns the
    final amplitudes, shaped as ``psi0``, or, with ``per_step``, an array of
    the M+1 states after each step and after the final rotation.

    The inputs are checked first; the work is done by the cached
    :func:`_plan` for this space, these conventions and M, which
    :func:`dickesim.optimizer.make_objective` also binds directly.  Every
    factor is a phase in a basis computed once per space, and no unitary is
    formed.  With the squeeze strengths s1 (first applied) and s2, row k of
    ``coef`` is (a_k, b_k, c_k, s1_k, s2_{k-1}), and :func:`_slot_phases`
    turns it into every rotation and product-squeeze phase of the call.

    - Product squeeze, order xy: the state stays in the J_y eigenbasis
      between steps.  One step is Y(c_k) merged with the previous S_y^2
      phase, Z(b_k) in the standard basis, X(a_k) merged with this step's
      S_x^2 phase in the J_x basis, and the fixed change back to the J_y
      basis: three basis changes.  Order yx swaps the roles of x and y.
    - Combined squeeze: Z-X-Z angles around a phase in the J_x basis, then
      the squeeze's even and odd chains, diagonalized by :func:`squeeze_eigenpairs`.

    Each returned state is checked once: norm drift beyond NORM_DRIFT_TOL,
    or a non-finite norm, raises NormDriftError.  This is the door for files
    and library callers, so overflow is left to that check and its warnings
    are silenced.  A block is checked and rescaled as a whole, by its
    Frobenius norm, so that Tr rho stays 1.
    """
    return _propagate_each(space, params, (conventions,), psi0, per_step)[0]


def propagate_sweep(space: DickeSpace, params, psi0) -> np.ndarray:
    """The final states of :func:`propagate` under the conventions of
    :data:`CONVENTION_SWEEP`, stacked in that order, bit for bit.  Each
    pair of squeeze composition and order runs one step loop, on the stack
    of its eight conventions; the eight combined squeezes (all of order xy)
    are one such stack, so its run diagonalizes each squeeze once."""
    return np.array(_propagate_each(space, params, CONVENTION_SWEEP, psi0, False))


def _propagate_each(space: DickeSpace, params, conventions, psi0, per_step: bool) -> list:
    """:func:`propagate` under each of ``conventions``, behind one check and
    door: one :func:`_plan` per squeeze composition and order, and the
    states checked in the order of ``conventions``, so that a NormDriftError
    is the one that propagating them one at a time would raise first."""
    params = np.asarray(params, dtype=float).reshape(-1)
    if (params.size - 3) % 5:
        raise ValueError(f"parameter vector length {params.size} is not 5M + 3")
    psi = np.asarray(psi0, dtype=complex)
    if psi.ndim not in (1, 2) or psi.shape[0] != space.dim:
        raise DimensionMismatchError(
            f"state shape {psi.shape} is neither ({space.dim},) nor ({space.dim}, r)")
    cols = psi if psi.ndim == 2 else psi[:, None]
    n_steps = (params.size - 3) // 5
    groups: dict = {}
    for i, c in enumerate(conventions):
        groups.setdefault((c.squeeze_composition, c.squeeze_order), []).append(i)
    states = [None] * len(conventions)
    with np.errstate(over="ignore", invalid="ignore"):  # the norm check reports overflow
        for index in groups.values():
            run = _plan(space, tuple(conventions[i] for i in index), n_steps)
            out = [s.reshape((len(index),) + psi.shape) for s in run(params, cols, per_step)]
            for b, i in enumerate(index):
                states[i] = [s[b] for s in out]
        checked = [[_checked(s) for s in each] for each in states]
    return [np.array(each) if per_step else each[-1] for each in checked]


def apply_sequence(seq: PulseSequence, initial: QuantumState,
                   conventions: GateConventions = DEFAULT_CONVENTIONS) -> QuantumState:
    """final_rotation . step_M . ... . step_1 applied to the initial state.

    A density rho goes through :func:`propagate` as the columns of its rank
    factor A, rho = A A^dag, and U rho U^dag is returned as (U A)(U A)^dag.
    """
    _check_same_space(seq.space, initial.space)
    params = flatten_params(seq)
    if initial.is_pure:
        return QuantumState(seq.space, amplitudes=propagate(
            seq.space, params, conventions, initial.amplitudes))
    cols = propagate(seq.space, params, conventions, _psd_factor(initial.density))
    return QuantumState(seq.space, density=cols @ cols.conj().T)


def flatten_params(seq: PulseSequence) -> np.ndarray:
    """Optimizer-facing vector: (theta_x, theta_y, theta_z, alpha, beta) per
    step, then the three final per-axis angles.  Length 5*M + 3."""
    chunks = []
    for st in seq.steps:
        chunks.append(st.turns)
        chunks.append([st.alpha, st.beta])
    chunks.append(seq.final_turns)
    return np.concatenate(chunks) if chunks else np.zeros(3)


def _axis_angle(turns: np.ndarray) -> Tuple[Tuple[float, float, float], float]:
    theta = float(np.linalg.norm(turns))
    if theta == 0.0:
        return (0.0, 0.0, 1.0), 0.0
    vec = turns / theta
    return (float(vec[0]), float(vec[1]), float(vec[2])), theta


def unflatten_params(space: DickeSpace, n_steps: int, vec) -> PulseSequence:
    """Inverse of :func:`flatten_params` (up to the axis-angle sign gauge,
    which leaves every unitary unchanged)."""
    vec = np.asarray(vec, dtype=float).reshape(-1)
    expected = 5 * n_steps + 3
    if vec.shape[0] != expected:
        raise ValueError(f"parameter vector length {vec.shape[0]}, expected {expected}")
    steps = []
    for i in range(n_steps):
        part = vec[5 * i:5 * i + 5]
        axis, theta = _axis_angle(part[:3])
        steps.append(PulseStep(axis, theta, float(part[3]), float(part[4])))
    axis, theta = _axis_angle(vec[-3:])
    return PulseSequence(space, tuple(steps), axis, theta)
