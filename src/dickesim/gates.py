"""Rotation and squeezing unitaries, pulse steps, and sequence application.

A pulse step is a coherent rotation followed by squeezing.  The rotation is
R(theta, n) = exp(s * i * theta * (n_x S_x + n_y S_y + n_z S_z)) and the
squeezes are exp(s * i * alpha S_x^2) and exp(s * i * beta S_y^2), where the
global exponent sign s and the way the pieces compose are configurable via
:class:`GateConventions` so that published parameter tables can be replayed
under every plausible reading.

:func:`propagate` applies a sequence to a state vector without forming any
(N+1)x(N+1) unitary; every command that prepares a pure state goes through
it.  The dense builders (:func:`rotation_from_turns`,
:func:`squeeze_pair_unitary`, :func:`step_unitary`,
:func:`sequence_unitaries`) stay as its reference and for mixed states.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from .core import (
    NORM_DRIFT_TOL,
    Convention,
    DickeSpace,
    DimensionMismatchError,
    NormDriftError,
    QuantumState,
    SymmetricOperator,
    apply,
    build_sx,
    build_sy,
    build_sz,
    hermitian_exp,
    _check_same_space,
)

AXIS_NORM_TOL = 1e-9

SQUEEZE_ORDERS = ("xy", "yx")
SQUEEZE_COMPOSITIONS = ("product", "combined")
ROTATION_COMPOSITIONS = ("combined", "product")
EXPONENT_SIGNS = (1, -1)
# serialized after "convention", in this order
_CONVENTION_KEYS = ("exponent_sign", "squeeze_order", "squeeze_composition",
                    "rotation_composition")


@dataclass(frozen=True)
class GateConventions:
    """Resolvable ambiguities in how a pulse step turns into a unitary.

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

    def __post_init__(self):
        if self.squeeze_order not in SQUEEZE_ORDERS:
            raise ValueError(f"squeeze_order must be one of {SQUEEZE_ORDERS}")
        if self.squeeze_composition not in SQUEEZE_COMPOSITIONS:
            raise ValueError(f"squeeze_composition must be one of {SQUEEZE_COMPOSITIONS}")
        if self.rotation_composition not in ROTATION_COMPOSITIONS:
            raise ValueError(f"rotation_composition must be one of {ROTATION_COMPOSITIONS}")
        if self.exponent_sign not in EXPONENT_SIGNS:
            raise ValueError("exponent_sign must be +1 or -1")

    def to_dict(self, convention: Convention) -> dict:
        """JSON form together with the operator convention, as stored in
        sequence files and result records."""
        return {"convention": convention.value,
                **{key: getattr(self, key) for key in _CONVENTION_KEYS}}

    @classmethod
    def from_dict(cls, doc: dict) -> Tuple[Convention, "GateConventions"]:
        """Inverse of :meth:`to_dict`; missing keys take the defaults.
        Invalid values raise ValueError."""
        try:
            convention = Convention(doc.get("convention", Convention.SPIN_J.value))
        except ValueError as exc:
            raise ValueError(f"convention: {exc}") from exc
        return convention, cls(**{key: doc[key] for key in _CONVENTION_KEYS if key in doc})


DEFAULT_CONVENTIONS = GateConventions()


def _checked_axis(axis) -> Tuple[float, float, float]:
    """``axis`` as a float triple, values unchanged."""
    vec = np.asarray(axis, dtype=float).reshape(-1)
    if vec.shape != (3,):
        raise ValueError(f"rotation axis must be a 3-vector, got shape {vec.shape}")
    if np.linalg.norm(vec) == 0:
        raise ValueError("rotation axis must be nonzero")
    return (float(vec[0]), float(vec[1]), float(vec[2]))


def _unit(axis: Tuple[float, float, float]) -> np.ndarray:
    vec = np.asarray(axis)
    return vec / np.linalg.norm(vec)


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
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))

    @property
    def turns(self) -> np.ndarray:
        """Per-axis rotation angles (theta_x, theta_y, theta_z) = theta * axis / |axis|."""
        return self.theta * _unit(self.axis)


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
        object.__setattr__(self, "final_theta", float(self.final_theta))

    @property
    def final_turns(self) -> np.ndarray:
        """Per-axis angles of the final rotation, as :attr:`PulseStep.turns`."""
        return self.final_theta * _unit(self.final_axis)

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def n_params(self) -> int:
        """Flattened parameter count: five per step plus three final angles."""
        return 5 * self.n_steps + 3

    @classmethod
    def identity(cls, space: DickeSpace, n_steps: int = 0) -> "PulseSequence":
        steps = tuple(PulseStep((0.0, 0.0, 1.0), 0.0, 0.0, 0.0) for _ in range(n_steps))
        return cls(space, steps, (0.0, 0.0, 1.0), 0.0)


@functools.lru_cache(maxsize=None)
def _spin_triple(space: DickeSpace):
    return build_sx(space), build_sy(space), build_sz(space)


def rotation_from_turns(space: DickeSpace, turns,
                        conventions: GateConventions = DEFAULT_CONVENTIONS) -> SymmetricOperator:
    """Rotation given per-axis angles (theta_x, theta_y, theta_z)."""
    turns = np.asarray(turns, dtype=float).reshape(3)
    sx, sy, sz = _spin_triple(space)
    s = conventions.exponent_sign
    if conventions.rotation_composition == "combined":
        gen = SymmetricOperator(
            space, turns[0] * sx.matrix + turns[1] * sy.matrix + turns[2] * sz.matrix,
            hermitian=True)
        return hermitian_exp(gen, s * 1j)
    rx = hermitian_exp(sx, s * 1j * turns[0])
    ry = hermitian_exp(sy, s * 1j * turns[1])
    rz = hermitian_exp(sz, s * 1j * turns[2])
    return rz @ ry @ rx  # x rotation acts first


def squeeze_pair_unitary(space: DickeSpace, alpha: float, beta: float,
                         conventions: GateConventions = DEFAULT_CONVENTIONS) -> SymmetricOperator:
    """The full squeezing part of one step, composition per conventions:
    exp(s*i*alpha S_x^2) and exp(s*i*beta S_y^2) multiplied, or the single
    exp(s*i*(alpha S_x^2 + beta S_y^2))."""
    s = conventions.exponent_sign
    sx, sy, _ = _spin_triple(space)
    if conventions.squeeze_composition == "combined":
        gen = SymmetricOperator(
            space, alpha * (sx.matrix @ sx.matrix) + beta * (sy.matrix @ sy.matrix),
            hermitian=True)
        return hermitian_exp(gen, s * 1j)
    ux = hermitian_exp(sx @ sx, s * 1j * alpha)
    uy = hermitian_exp(sy @ sy, s * 1j * beta)
    return uy @ ux if conventions.squeeze_order == "xy" else ux @ uy


def step_unitary(step: PulseStep, space: DickeSpace,
                 conventions: GateConventions = DEFAULT_CONVENTIONS) -> SymmetricOperator:
    """Rotation first, then squeezing: U = U_squeeze @ U_rot."""
    rot = rotation_from_turns(space, step.turns, conventions)
    sq = squeeze_pair_unitary(space, step.alpha, step.beta, conventions)
    return sq @ rot


def sequence_unitaries(seq: PulseSequence,
                       conventions: GateConventions = DEFAULT_CONVENTIONS) -> list:
    """Per-step unitaries followed by the final rotation, in application order."""
    out = [step_unitary(st, seq.space, conventions) for st in seq.steps]
    out.append(rotation_from_turns(seq.space, seq.final_turns, conventions))
    return out


class _Bases(NamedTuple):
    """Per-space data of :func:`propagate`; see :func:`_propagation_bases`."""

    scale: float            # S = scale * J: 1 for SPIN_J, 2 for PAULI_SUM
    jz: np.ndarray          # J_z diagonal, m - N/2
    wx: np.ndarray          # J_x eigenvalues
    vx: np.ndarray          # J_x eigenvectors (real, stored complex) ...
    vx_h: np.ndarray        # ... and their adjoint
    vy: np.ndarray          # J_y eigenvectors, exp(-i pi/2 J_z) vx ...
    vy_h: np.ndarray        # ... and their adjoint
    sq_diag: np.ndarray     # diagonals of S_x^2 and S_y^2, shape (2, d)
    sq_off: np.ndarray      # their m, m+2 entries, shape (2, d - 2)


@functools.lru_cache(maxsize=None)
def _propagation_bases(space: DickeSpace) -> _Bases:
    """One eigendecomposition per space, shared by every propagation.

    J_x is real symmetric with a simple spectrum, so its eigenbasis is real
    orthogonal and also diagonalizes S_x^2.  J_y = P J_x P^dag with the
    diagonal P = exp(-i pi/2 J_z), so P times that basis serves J_y and S_y^2.
    """
    scale = 2.0 if space.convention is Convention.PAULI_SUM else 1.0
    sx, sy, _ = _spin_triple(space)
    wx, vx = np.linalg.eigh(sx.matrix.real / scale)
    jz = np.arange(space.dim) - space.n_emitters / 2
    vy = np.exp(-0.5j * np.pi * jz)[:, None] * vx
    sq = [(s.matrix @ s.matrix).real for s in (sx, sy)]
    vx = vx.astype(complex)
    return _Bases(scale, jz, wx, vx, np.ascontiguousarray(vx.T), vy,
                  np.ascontiguousarray(vy.conj().T),
                  np.array([np.diag(q) for q in sq]),
                  np.array([np.diag(q, 2) for q in sq]))


# Spin-1/2 J_x, J_y, J_z in the Dicke ordering (|0> has J_z = -1/2), the
# matrices build_sx/build_sy/build_sz give at N = 1, one flattened per row.
_HALF_SPIN = np.array([[0, 0.5, 0.5, 0],
                       [0, 0.5j, -0.5j, 0],
                       [-0.5, 0, 0, 0.5]])


def _su2(turns: np.ndarray) -> np.ndarray:
    """exp(i t . J) at spin 1/2 for each row t of ``turns``, shape (k, 2, 2).

    (t . J)^2 = |t|^2 / 4, so the exponential is cos(|t|/2) + i sinc(|t|/2) t . J.
    """
    half = 0.5 * np.sqrt(np.einsum("ij,ij->i", turns, turns))
    g = (1j * np.sinc(half / np.pi))[:, None] * (turns @ _HALF_SPIN)
    g[:, ::3] += np.cos(half)[:, None]
    return g.reshape(-1, 2, 2)


def _rotation_euler(turns: np.ndarray, composition: str):
    """Angles (a, b, c) with exp(i a J_z) exp(i b J_x) exp(i c J_z) equal to
    the rotation by each row of J-normalized ``turns``, exactly in SU(2).

    At spin 1/2 that product is [[C e^{-i(a+c)/2}, iS e^{-i(a-c)/2}],
    [iS e^{i(a-c)/2}, C e^{i(a+c)/2}]] with C, S = cos, sin(b/2); reading the
    angles off the first column fixes the element of SU(2), not just of SO(3),
    so the same angles hold in every spin-J representation, odd N included.
    At b = 0 (or pi) only a + c (or a - c) is determined, and only it matters.
    """
    if composition == "combined":
        g = _su2(turns)
    else:
        g = _su2(turns * [0, 0, 1]) @ _su2(turns * [0, 1, 0]) @ _su2(turns * [1, 0, 0])
    u, v = g[:, 0, 0], g[:, 1, 0]
    arg_u, arg_v = np.angle(u), np.angle(v)
    b = 2.0 * np.arctan2(np.abs(v), np.abs(u))
    return arg_v - arg_u - 0.5 * np.pi, b, 0.5 * np.pi - arg_u - arg_v


def _in_basis(v: np.ndarray, v_h: np.ndarray, phases: np.ndarray,
              psi: np.ndarray) -> np.ndarray:
    """v diag(phases) v^dag psi."""
    return v @ (phases * (v_h @ psi))


def _combined_squeeze(bases: _Bases, alpha: float, beta: float,
                      psi: np.ndarray) -> np.ndarray:
    """exp(i (alpha S_x^2 + beta S_y^2)) psi.

    The generator is real and couples m only to m +- 2, so it splits into an
    even-m and an odd-m tridiagonal block, each diagonalized on its own.
    """
    diag = alpha * bases.sq_diag[0] + beta * bases.sq_diag[1]
    off = alpha * bases.sq_off[0] + beta * bases.sq_off[1]
    out = np.empty_like(psi)
    for parity in (0, 1):
        d, e = diag[parity::2], off[parity::2]
        w, v = np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        out[parity::2] = v @ (np.exp(1j * w) * (v.T @ psi[parity::2]))
    return out


def _checked(psi: np.ndarray) -> np.ndarray:
    norm = np.sqrt(np.vdot(psi, psi).real)
    if not abs(norm - 1.0) <= NORM_DRIFT_TOL:
        raise NormDriftError(f"norm drifted to {norm!r} during propagation")
    return psi / norm


def propagate(space: DickeSpace, params, conventions: GateConventions,
              psi0, per_step: bool = False) -> np.ndarray:
    """Apply the sequence with flat parameters ``params`` (the
    :func:`flatten_params` layout, length 5M + 3) to the unit amplitude
    vector ``psi0``.  Returns the final amplitudes or, with ``per_step``, an
    (M+1, d) array of the states after each step and after the final
    rotation.

    Every factor acts on the vector in O(d^2) through bases computed once
    per space: a rotation is read as ZXZ Euler angles of its exact SU(2)
    element (J_z phases around a phase in the J_x eigenbasis), a product
    squeeze is a phase in the J_x or J_y eigenbasis, and a combined squeeze
    diagonalizes its two half-size parity blocks.  No unitary is formed.
    Each returned state is checked once: norm drift beyond NORM_DRIFT_TOL,
    or a non-finite norm, raises NormDriftError.
    """
    params = np.asarray(params, dtype=float).reshape(-1)
    if (params.size - 3) % 5:
        raise ValueError(f"parameter vector length {params.size} is not 5M + 3")
    psi = np.asarray(psi0, dtype=complex).reshape(-1)
    if psi.shape != (space.dim,):
        raise DimensionMismatchError(
            f"state length {psi.shape[0]} does not match space dimension {space.dim}")
    bases = _propagation_bases(space)
    sign = conventions.exponent_sign
    n_steps = (params.size - 3) // 5
    steps = params[:-3].reshape(n_steps, 5)
    turns = np.vstack([steps[:, :3], params[-3:]]) * (sign * bases.scale)
    a, b, c = _rotation_euler(turns, conventions.rotation_composition)
    phase_a = np.exp(1j * np.multiply.outer(a, bases.jz))
    phase_b = np.exp(1j * np.multiply.outer(b, bases.wx))
    phase_c = np.exp(1j * np.multiply.outer(c, bases.jz))
    strengths = sign * steps[:, 3:]
    combined = conventions.squeeze_composition == "combined"
    # Product squeezes: exp(i alpha S_x^2) is a phase in the J_x eigenbasis,
    # exp(i beta S_y^2) the same phase in the J_y eigenbasis.
    squeeze_phase = np.exp(1j * strengths[:, :, None] * (bases.scale * bases.wx) ** 2)
    order = ((bases.vx, bases.vx_h, 0), (bases.vy, bases.vy_h, 1))
    if conventions.squeeze_order == "yx":
        order = order[::-1]
    states = []
    for k in range(n_steps + 1):
        psi = phase_a[k] * _in_basis(bases.vx, bases.vx_h, phase_b[k], phase_c[k] * psi)
        if k == n_steps:
            break
        if combined:
            psi = _combined_squeeze(bases, strengths[k, 0], strengths[k, 1], psi)
        else:
            for v, v_h, which in order:
                psi = _in_basis(v, v_h, squeeze_phase[k, which], psi)
        if per_step:
            states.append(_checked(psi))
    states.append(_checked(psi))
    return np.array(states) if per_step else states[-1]


def apply_sequence(seq: PulseSequence, initial: QuantumState,
                   conventions: GateConventions = DEFAULT_CONVENTIONS) -> QuantumState:
    """final_rotation . step_M . ... . step_1 applied to the initial state.

    Pure states go through :func:`propagate`; densities through the dense
    unitaries.
    """
    _check_same_space(seq.space, initial.space)
    if initial.is_pure:
        return QuantumState(seq.space, amplitudes=propagate(
            seq.space, flatten_params(seq), conventions, initial.amplitudes))
    state = initial
    for u in sequence_unitaries(seq, conventions):
        state = apply(u, state)
    return state


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
