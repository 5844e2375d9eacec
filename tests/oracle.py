"""Dense reference implementations that the package's fast paths are tested against.

- Gates: every rotation and squeeze as an (N+1)x(N+1) unitary built by
  ``hermitian_exp``, and ``apply`` to act with one on a pure or mixed state.
  ``gates.propagate`` is checked against these on every convention.
- Spherical Wigner: the irreducible tensor operators T_kq from exact
  Clebsch-Gordan coefficients, and the multipole coefficients
  rho_kq = Tr(T_kq^dag rho).  ``wigner.spherical_wigner_values`` and its
  Lanczos kernel diagonal are checked against these.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from dickesim.core import (
    NORM_DRIFT_TOL,
    DickeSpace,
    NormDriftError,
    QuantumState,
    SymmetricOperator,
    build_sx,
    build_sy,
    build_sz,
    hermitian_exp,
    _check_same_space,
)
from dickesim.gates import DEFAULT_CONVENTIONS, GateConventions, PulseSequence, PulseStep


# --- dense gates -------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _spin_triple(space: DickeSpace):
    return build_sx(space), build_sy(space), build_sz(space)


def apply(op: SymmetricOperator, s: QuantumState, renormalize: bool = False) -> QuantumState:
    """op|psi> for pure states, U rho U^dag for densities.

    Norm is never fixed up silently: drift beyond NORM_DRIFT_TOL raises
    unless ``renormalize`` is passed explicitly (e.g. for ladder operators).
    Roundoff-level drift inside the tolerance is divided out so it cannot
    accumulate over long sequences.
    """
    _check_same_space(op.space, s.space)
    if s.is_pure:
        vec = op.matrix @ s.amplitudes
        norm = np.linalg.norm(vec)
        if renormalize:
            if norm == 0:
                raise NormDriftError("operator annihilated the state; cannot renormalize")
            return QuantumState(s.space, amplitudes=vec / norm)
        if abs(norm - 1.0) > NORM_DRIFT_TOL:
            raise NormDriftError(
                f"norm drifted to {norm!r}; pass renormalize=True for non-unitary operators"
            )
        return QuantumState(s.space, amplitudes=vec / norm)
    rho = op.matrix @ s.density @ op.matrix.conj().T
    tr = np.trace(rho).real
    if renormalize:
        if tr <= 0:
            raise NormDriftError("operator annihilated the density; cannot renormalize")
        return QuantumState(s.space, density=rho / tr)
    if abs(tr - 1.0) > NORM_DRIFT_TOL:
        raise NormDriftError(f"density trace drifted to {tr!r}")
    return QuantumState(s.space, density=rho / tr)


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


# --- irreducible tensors T_kq --------------------------------------------------

@functools.lru_cache(maxsize=None)
def _fac(n: int) -> int:
    return math.factorial(n)


def clebsch_gordan(j1: float, m1: float, j2: float, m2: float,
                   J: float, M: float) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | J M>.

    Racah formula with log-scaled prefactor; the alternating sum, which
    cancels catastrophically in floating point at large j, is carried out
    exactly over the integers.  Invalid quantum numbers (triangle rule,
    M != m1+m2, half-integer mismatches) return 0.0 by convention.
    """
    t = {}
    for name, val in (("j1", j1), ("m1", m1), ("j2", j2), ("m2", m2),
                      ("J", J), ("M", M)):
        tv = round(2 * val)
        if abs(2 * val - tv) > 1e-9:
            return 0.0
        t[name] = int(tv)
    tj1, tm1, tj2, tm2, tJ, tM = (t["j1"], t["m1"], t["j2"], t["m2"], t["J"], t["M"])
    if tM != tm1 + tm2:
        return 0.0
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tJ + tM) % 2:
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tM) > tJ:
        return 0.0
    if tJ < abs(tj1 - tj2) or tJ > tj1 + tj2 or (tj1 + tj2 + tJ) % 2:
        return 0.0

    def f(tx: int) -> float:  # log((tx/2)!) for doubled integers
        return math.lgamma(tx // 2 + 1)

    log_pref = 0.5 * (
        math.log(tJ + 1.0)
        + f(tJ + tj1 - tj2) + f(tJ - tj1 + tj2) + f(tj1 + tj2 - tJ)
        - f(tj1 + tj2 + tJ + 2)
        + f(tJ + tM) + f(tJ - tM)
        + f(tj1 - tm1) + f(tj1 + tm1)
        + f(tj2 - tm2) + f(tj2 + tm2)
    )
    k_min = max(0, (tj2 - tJ - tm1) // 2, (tj1 - tJ + tm2) // 2)
    k_max = min((tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    if k_max < k_min:
        return 0.0
    # factorial arguments per term; scale by their maxima so every term is
    # an exact integer and the alternating sum loses no precision
    args = [
        lambda k: k,
        lambda k: (tj1 + tj2 - tJ) // 2 - k,
        lambda k: (tj1 - tm1) // 2 - k,
        lambda k: (tj2 + tm2) // 2 - k,
        lambda k: (tJ - tj2 + tm1) // 2 + k,
        lambda k: (tJ - tj1 - tm2) // 2 + k,
    ]
    ks = range(k_min, k_max + 1)
    maxima = [max(a(k) for k in ks) for a in args]
    log_scale = sum(math.lgamma(m + 1) for m in maxima)
    total = 0
    for k in ks:
        term = 1
        for a, mx in zip(args, maxima):
            term *= _fac(mx) // _fac(a(k))
        total += -term if k % 2 else term
    if total == 0:
        return 0.0
    sign = 1.0 if total > 0 else -1.0
    # log of a (possibly huge) exact integer, then back to floats
    log_total = math.log(-total if total < 0 else total)
    return sign * math.exp(log_pref - log_scale + log_total)


@functools.lru_cache(maxsize=None)
def _multipole_bands(space: DickeSpace):
    """Nonzero elements of every T_kq for the space.

    T_kq = sum_{m} (-1)^(J - M_m) <J, M_m + q; J, -M_m | k q> |m+q><m| with
    M_m = m - J, which is Hilbert-Schmidt orthonormal.  Returns a list of
    (k, q, cols, rows, values) with real values.
    """
    n = space.n_emitters
    j2 = n  # 2J
    bands = []
    for k in range(n + 1):
        for q in range(-k, k + 1):
            cols = np.arange(max(0, -q), min(n, n - q) + 1)
            rows = cols + q
            vals = np.array([
                (-1.0) ** (j2 - m) * clebsch_gordan(
                    n / 2, (2 * (m + q) - j2) / 2,
                    n / 2, -(2 * m - j2) / 2,
                    k, q)
                for m in cols
            ])
            bands.append((k, q, cols, rows, vals))
    return bands


def spherical_tensor(space: DickeSpace, k: int, q: int) -> np.ndarray:
    """Dense matrix of the irreducible tensor operator T_kq."""
    if not (0 <= k <= space.n_emitters) or abs(q) > k:
        raise ValueError(f"invalid multipole indices k={k}, q={q}")
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for bk, bq, cols, rows, vals in _multipole_bands(space):
        if bk == k and bq == q:
            mat[rows, cols] = vals
            break
    return mat


def multipole_coefficients(state: QuantumState) -> dict:
    """rho_kq = Tr(T_kq^dag rho) for all (k, q)."""
    rho = state.to_density()
    out = {}
    for k, q, cols, rows, vals in _multipole_bands(state.space):
        out[(k, q)] = complex(np.dot(vals, rho[rows, cols]))
    return out
