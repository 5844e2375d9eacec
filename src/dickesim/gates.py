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

    jz: np.ndarray          # J_z diagonal, m - N/2
    wx: np.ndarray          # J_x eigenvalues
    vx: np.ndarray          # J_x eigenvectors (real, stored complex) ...
    vx_h: np.ndarray        # ... and their adjoint, a transposed view
    vy: np.ndarray          # J_y eigenvectors, exp(-i pi/2 J_z) vx ...
    vy_h: np.ndarray        # ... and their adjoint
    x_to_y: np.ndarray      # vy_h @ vx: J_x-basis to J_y-basis coordinates ...
    y_to_x: np.ndarray      # ... and back
    merged_rows: np.ndarray  # phase rows of the product-squeeze path, (5, 4 d)
    zxz_rows: np.ndarray    # phase rows of the combined-squeeze path, (5, 3 d)
    sq_diag: np.ndarray     # diagonals of J_x^2 and J_y^2, shape (2, d)
    sq_off: np.ndarray      # their m, m+2 entries, shape (2, d - 2)


@functools.lru_cache(maxsize=None)
def _propagation_bases(space: DickeSpace) -> _Bases:
    """One eigendecomposition per space, shared by every propagation.

    J_x is real symmetric with a simple spectrum, so its eigenbasis is real
    orthogonal and also diagonalizes S_x^2.  J_y = P J_x P^dag with the
    diagonal P = exp(-i pi/2 J_z), so P times that basis serves J_y and S_y^2.

    The phase rows turn the coefficients (a, b, c, s1, s2) of one rotation
    (see :func:`propagate`) into its phase slots: row i holds, in each slot
    that coefficient i enters, the eigenvalues it multiplies.  The product
    squeeze's slots are c and s2 in the second squeeze's eigenbasis, b in
    the standard basis, a and s1 in the first squeeze's eigenbasis, and s2
    alone (for ``per_step``); the combined squeeze's are c, b and a of
    Z(a) X(b) Z(c).

    Everything is in J units; :func:`propagate` scales the coefficients to
    the operator convention, S = scale * J.
    """
    jx, jy = build_sx(space), build_sy(space)
    wx, vx = np.linalg.eigh(jx.real)
    jz = np.arange(space.dim) - space.n_emitters / 2
    vy = np.exp(-0.5j * np.pi * jz)[:, None] * vx
    sq = [(j @ j).real for j in (jx, jy)]
    merged = np.zeros((5, 4, space.dim))
    merged[0, 2] = merged[2, 0] = wx
    merged[1, 1] = jz
    # J_x^2 in the J_x basis and J_y^2 in the J_y basis
    merged[3, 2] = merged[4, 0] = merged[4, 3] = wx ** 2
    zxz = np.zeros((5, 3, space.dim))
    zxz[0, 2] = zxz[2, 0] = jz
    zxz[1, 1] = wx
    vx = vx.astype(complex)
    vy_h = np.ascontiguousarray(vy.conj().T)
    x_to_y = vy_h @ vx
    return _Bases(jz, wx, vx, vx.T, vy, vy_h,
                  x_to_y, np.ascontiguousarray(x_to_y.conj().T),
                  merged.reshape(5, -1), zxz.reshape(5, -1),
                  np.array([np.diag(q) for q in sq]),
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


def squeeze_eigenpairs(space: DickeSpace, params) -> list:
    """Per step of the flat parameters ``params``, the eigenpairs (w, v) of
    the even-m and the odd-m block of -(alpha J_x^2 + beta J_y^2).

    The generator is real and couples m only to m +- 2, so it splits into two
    tridiagonal blocks.  One result serves every convention: the squeeze
    exp(s i (alpha S_x^2 + beta S_y^2)) with S = scale * J is exp(i k w) in
    this eigenbasis, with k = -s * scale**2, an exact product (see
    :func:`_combined_squeeze`).  The sign -1 is the one every bundled table
    uses, so for them these are the eigenpairs of their own generator; under
    sign +1, eigh(-H) stands in for eigh(H), equal to roundoff.
    A strength that is not finite, or so large that the generator overflows,
    raises NormDriftError, as the product squeeze's norm check does.
    """
    bases = _propagation_bases(space)
    given = np.asarray(params, dtype=float)[:-3].reshape(-1, 5)[:, 3:]
    alpha, beta = -given[:, :1], -given[:, 1:]
    diags = alpha * bases.sq_diag[0] + beta * bases.sq_diag[1]
    offs = alpha * bases.sq_off[0] + beta * bases.sq_off[1]
    bad = ~(np.isfinite(diags).all(axis=1) & np.isfinite(offs).all(axis=1))
    if bad.any():
        k = int(np.argmax(bad))
        raise NormDriftError(f"squeeze strengths {given[k].tolist()} of step {k + 1} "
                             "make the combined squeeze generator non-finite")
    return [[np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
             for d, e in ((diag[p::2], off[p::2]) for p in (0, 1))]
            for diag, off in zip(diags, offs)]


def _combined_squeeze(pairs, k: float, psi: np.ndarray) -> np.ndarray:
    """exp(s i (alpha S_x^2 + beta S_y^2)) psi with S = scale * J, for a
    vector or a block of columns, from one step of :func:`squeeze_eigenpairs`
    and k = -s * scale**2: the phases are exp(i k w)."""
    out = np.empty_like(psi)
    for parity, (w, v) in enumerate(pairs):
        phase = np.exp(1j * (k * w))
        if psi.ndim == 2:
            phase = phase[:, None]
        out[parity::2] = v @ (phase * (v.T @ psi[parity::2]))
    return out


def _checked(psi: np.ndarray) -> np.ndarray:
    norm = np.sqrt(np.vdot(psi, psi).real)
    if not abs(norm - 1.0) <= NORM_DRIFT_TOL:
        raise NormDriftError(f"norm drifted to {float(norm)!r} during propagation")
    return psi / norm


@functools.lru_cache(maxsize=None)
def _plan(space: DickeSpace, conventions: GateConventions, n_steps: int) -> Callable:
    """The kernel of :func:`propagate` for one space, set of conventions and
    step count M, with every choice that depends only on them made once.
    Returns ``run(params, psi, per_step, squeeze_eigs)`` for flat float
    ``params`` of length 5M + 3 and a complex vector or block ``psi``.

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
    sign, scale = conventions.exponent_sign, conventions.scale
    # S = scale * J: the turns scale by it and the squeeze strengths by its
    # square, exact products since both are powers of two
    turn_scale, strength_scale = sign * scale, sign * scale ** 2
    squeeze_k = -sign * scale ** 2  # the combined squeeze's phases, exp(i k w)
    combined = conventions.squeeze_composition == "combined"
    product_rotation = conventions.rotation_composition == "product"
    yx = int(conventions.squeeze_order == "yx")
    rows = bases.zxz_rows if combined else bases.merged_rows
    # euler takes the quaternions (or, for the product rotation, the eight
    # half-angle products per rotation) to the columns the Z-X-Z angles are
    # read from; offset is added to the angles
    euler, middle = (_UNIT, 0.0) if combined else _MERGED_EULER[conventions.squeeze_order]
    if product_rotation:
        euler = _PRODUCT_ROTATION @ euler
    euler = euler @ _ARG_COLUMNS
    offset = np.array([-0.5 * np.pi, middle, 0.5 * np.pi])
    if combined:
        first, second = bases.vx_h, bases.vx
    else:
        # v1: the eigenbasis of the squeeze applied first; v2: the second.
        v1, v1_h, v2, v2_h, hop = (
            (bases.vy, bases.vy_h, bases.vx, bases.vx_h, bases.y_to_x) if yx
            else (bases.vx, bases.vx_h, bases.vy, bases.vy_h, bases.x_to_y))
        first, second = v2, v1_h

    def run(params, psi, per_step, squeeze_eigs):
        # one row per rotation: (theta_x, theta_y, theta_z, alpha, beta), the
        # final rotation's strengths 0
        table = np.zeros(5 * n_steps + 5)
        table[:-2] = params
        table = table.reshape(n_steps + 1, 5)
        coef = np.zeros((n_steps + 1, 5))
        strengths = strength_scale * table[:, 3:]
        turns = table[:, :3] * turn_scale
        if product_rotation:
            halves = np.exp(0.5j * turns).view(float).reshape(-1, 3, 2)  # (cos, sin)
            quat = (halves[:, 0, :, None, None] * halves[:, 1, None, :, None]
                    * halves[:, 2, None, None, :]).reshape(-1, 8)
        else:
            norm = np.sqrt(np.einsum("ij,ij->i", turns, turns))
            half = np.exp(0.5j * norm)
            quat = np.empty((n_steps + 1, 4))
            quat[:, 0] = half.real
            # the floor only acts at norm 0, where sin(0) = 0
            quat[:, 1:] = turns * (half.imag / np.maximum(norm, _TINY))[:, None]
        cols = quat.dot(euler)
        args = np.empty((n_steps + 1, 3))
        args[:, :2] = np.arctan2(cols[:, :2], cols[:, 2:])
        hyp = np.hypot(cols[:, :2], cols[:, 2:])
        args[:, 2] = np.arctan2(hyp[:, 0], hyp[:, 1])
        coef[:, :3] = args.dot(_ZXZ_FROM_ARGS) + offset
        coef[:, 3] = strengths[:, yx]
        coef[1:, 4] = strengths[:-1, 1 - yx]
        phases = np.exp(1j * coef.dot(rows)).reshape(n_steps + 1, -1, space.dim)
        if psi.ndim == 2:  # one phase per row, shared by the columns
            phases = phases[..., None]
        if combined and squeeze_eigs is None:
            squeeze_eigs = squeeze_eigenpairs(space, params)
        if not combined:
            psi = v2_h.dot(psi)
        states = []
        for k in range(n_steps + 1):
            psi = phases[k, 2] * second.dot(phases[k, 1] * first.dot(phases[k, 0] * psi))
            if k == n_steps:
                break
            if combined:
                psi = _combined_squeeze(squeeze_eigs[k], squeeze_k, psi)
                if per_step:
                    states.append(_checked(psi))
            else:
                psi = hop.dot(psi)
                if per_step:  # the second squeeze's phase is still to come
                    states.append(_checked(v2.dot(phases[k + 1, 3] * psi)))
        if not combined:
            psi = v1.dot(psi)
        states.append(_checked(psi))
        return np.array(states) if per_step else states[-1]

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
    ``coef`` is (a_k, b_k, c_k, s1_k, s2_{k-1}), and every phase of the
    call is one ``exp(i coef @ rows)``.

    - Product squeeze, order xy: the state stays in the J_y eigenbasis
      between steps.  One step is Y(c_k) merged with the previous S_y^2
      phase, Z(b_k) in the standard basis, X(a_k) merged with this step's
      S_x^2 phase in the J_x basis, and the fixed change back to the J_y
      basis: three basis changes.  Order yx swaps the roles of x and y.
    - Combined squeeze: Z-X-Z angles around a phase in the J_x basis, then
      the squeeze's parity blocks, diagonalized by :func:`squeeze_eigenpairs`.

    Each returned state is checked once: norm drift beyond NORM_DRIFT_TOL,
    or a non-finite norm, raises NormDriftError.  This is the door for files
    and library callers, so overflow is left to that check and its warnings
    are silenced.  A block is checked and rescaled as a whole, by its
    Frobenius norm, so that Tr rho stays 1.
    """
    return _propagate_each(space, params, (conventions,), psi0, per_step)[0]


def propagate_sweep(space: DickeSpace, params, psi0) -> np.ndarray:
    """The final states of :func:`propagate` under the conventions of
    :data:`CONVENTION_SWEEP`, stacked in that order; its eight combined
    squeezes share one set of :func:`squeeze_eigenpairs`."""
    return np.array(_propagate_each(space, params, CONVENTION_SWEEP, psi0, False))


def _propagate_each(space: DickeSpace, params, conventions, psi0, per_step: bool) -> list:
    """:func:`propagate` under each of ``conventions``, behind one check and door."""
    params = np.asarray(params, dtype=float).reshape(-1)
    if (params.size - 3) % 5:
        raise ValueError(f"parameter vector length {params.size} is not 5M + 3")
    psi = np.asarray(psi0, dtype=complex)
    if psi.ndim not in (1, 2) or psi.shape[0] != space.dim:
        raise DimensionMismatchError(
            f"state shape {psi.shape} is neither ({space.dim},) nor ({space.dim}, r)")
    n_steps = (params.size - 3) // 5
    with np.errstate(over="ignore", invalid="ignore"):  # the norm check reports overflow
        combined = any(c.squeeze_composition == "combined" for c in conventions)
        eigs = squeeze_eigenpairs(space, params) if combined else None
        return [_plan(space, c, n_steps)(params, psi, per_step, eigs) for c in conventions]


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
