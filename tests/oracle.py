"""Dense reference implementations that the package's fast paths are tested against.

- Gates: every rotation and squeeze as a dense (N+1)x(N+1) unitary array,
  the exponential of its Hermitian generator through ``eigh``
  (``core._hermitian_exp``), and ``apply`` to act with one on a pure or mixed
  state.  ``gates.propagate`` is checked against these on every convention.
- Phase slots: the center-out recurrence of ``gates._slot_phases`` in its
  first form, which repeats (f_s, r_s, q) per half into a new table, grows it
  by two accumulates and joins the halves with ``np.concatenate`` into a new
  array.  The tables written into reused buffers must match it bit for bit.
- Spherical Wigner: the irreducible tensor operators T_kq from exact
  Clebsch-Gordan coefficients, and the multipole coefficients
  rho_kq = Tr(T_kq^dag rho).  ``wigner.spherical_wigner_values`` and its
  kernel diagonal are checked against these.  The kernel diagonal by Lanczos,
  which ``wigner._kernel_diagonal``, read off the Gram polynomials' Jacobi
  band, must match where the Clebsch-Gordan table is too slow.  The kernel
  rotated to every row of points by one matrix product, which the frequency
  form of ``wigner.spherical_wigner_values`` must match to 1e-12 of max|W|.
- Planar Wigner: the Cahill-Glauber Laguerre recurrence walked separately at
  every grid point.  ``wigner._planar_kernel_sum``, a Hermite bilinear form,
  must match it to 1e-13.  The Hermite-function table behind it, as its
  unscaled per-level formula, which ``wigner._hermite_table`` must match bit
  for bit where it scales nothing, and to roundoff up to |u| < 37.5.
- Lie closure: the sequential search that ``algebra.lie_closure`` replaced,
  with a complex span extended one candidate at a time.  Both must reach
  the same dimensions, rounds, verdicts and artifact counts.
- Ladder synthesis: the norms c_n of S_+^n |0>, and the dense power loop
  that ``algebra.synthesis_by_powers`` replaced, one S_+^n and one
  ``scipy.linalg.expm`` of r_n S_+^n - h.c. per rung.  The chain form must
  match it to 1e-12 in amplitudes.
- Helpers that only tests need: the commutator [a, b], the residual of a
  matrix against a Lie closure's span, and reading an exported Wigner grid back from CSV.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from dickesim.algebra import DEFAULT_RANK_TOL, ClosureReport, _as_matrices
from dickesim.core import (
    NORM_DRIFT_TOL,
    DickeSpace,
    NormDriftError,
    QuantumState,
    _frozen,
    _hermitian_exp,
    build_splus,
    build_sx,
    build_sy,
    build_sz,
)
from dickesim.gates import (
    DEFAULT_CONVENTIONS,
    RECURRENCE_MIN_LEVELS,
    Convention,
    GateConventions,
    PulseSequence,
    PulseStep,
    _propagation_bases,
)
from dickesim import wigner


# --- dense gates -------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _spin_triple(space: DickeSpace, convention: Convention):
    """S_x, S_y, S_z in the given normalization: the spin-J operators, or
    twice them (bare sums of Pauli matrices)."""
    triple = build_sx(space), build_sy(space), build_sz(space)
    if convention is Convention.PAULI_SUM:
        triple = tuple(_frozen(2 * s) for s in triple)
    return triple


def apply(op: np.ndarray, s: QuantumState, renormalize: bool = False) -> QuantumState:
    """op|psi> for pure states, U rho U^dag for densities.

    Norm is never fixed up silently: drift beyond NORM_DRIFT_TOL raises
    unless ``renormalize`` is passed explicitly (e.g. for ladder operators).
    Roundoff-level drift inside the tolerance is divided out so it cannot
    accumulate over long sequences.
    """
    if s.is_pure:
        vec = op @ s.amplitudes
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
    rho = op @ s.density @ op.conj().T
    tr = np.trace(rho).real
    if renormalize:
        if tr <= 0:
            raise NormDriftError("operator annihilated the density; cannot renormalize")
        return QuantumState(s.space, density=rho / tr)
    if abs(tr - 1.0) > NORM_DRIFT_TOL:
        raise NormDriftError(f"density trace drifted to {tr!r}")
    return QuantumState(s.space, density=rho / tr)


def rotation_from_turns(space: DickeSpace, turns,
                        conventions: GateConventions = DEFAULT_CONVENTIONS) -> np.ndarray:
    """Rotation given per-axis angles (theta_x, theta_y, theta_z)."""
    turns = np.asarray(turns, dtype=float).reshape(3)
    sx, sy, sz = _spin_triple(space, conventions.convention)
    s = conventions.exponent_sign
    if conventions.rotation_composition == "combined":
        return _hermitian_exp(turns[0] * sx + turns[1] * sy + turns[2] * sz, s * 1j)
    rx = _hermitian_exp(sx, s * 1j * turns[0])
    ry = _hermitian_exp(sy, s * 1j * turns[1])
    rz = _hermitian_exp(sz, s * 1j * turns[2])
    return rz @ ry @ rx  # x rotation acts first


def squeeze_pair_unitary(space: DickeSpace, alpha: float, beta: float,
                         conventions: GateConventions = DEFAULT_CONVENTIONS) -> np.ndarray:
    """The full squeezing part of one step, composition per conventions:
    exp(s*i*alpha S_x^2) and exp(s*i*beta S_y^2) multiplied, or the single
    exp(s*i*(alpha S_x^2 + beta S_y^2))."""
    s = conventions.exponent_sign
    sx, sy, _ = _spin_triple(space, conventions.convention)
    if conventions.squeeze_composition == "combined":
        return _hermitian_exp(alpha * (sx @ sx) + beta * (sy @ sy), s * 1j)
    ux = _hermitian_exp(sx @ sx, s * 1j * alpha)
    uy = _hermitian_exp(sy @ sy, s * 1j * beta)
    return uy @ ux if conventions.squeeze_order == "xy" else ux @ uy


def step_unitary(step: PulseStep, space: DickeSpace,
                 conventions: GateConventions = DEFAULT_CONVENTIONS) -> np.ndarray:
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


def slot_phases_concatenated(space: DickeSpace, coef: np.ndarray, combined: bool,
                             n_slots: int, mul=np.ndarray.dot) -> np.ndarray:
    """``gates._slot_phases`` from RECURRENCE_MIN_LEVELS levels on, as first
    written: per slot and half (upper, mirrored lower) the row (f_s, r_s, q,
    q, ...) by ``np.repeat``, the ratios and then the phases by one
    multiply.accumulate each, and the lower half reversed, less its x_s for
    even N, joined to the upper by ``np.concatenate``."""
    lead, d = coef.shape[:-1], space.dim
    assert d >= RECURRENCE_MIN_LEVELS
    phases = np.exp(1j * mul(coef, _propagation_bases(space).rows[combined][:, :n_slots * 6]))
    grown = np.repeat(phases.reshape(lead + (n_slots, 2, 3)), [1, 1, (d + 1) // 2 - 2],
                      axis=-1)  # f_s, r_s, q, q, ...
    np.multiply.accumulate(grown[..., 1:], axis=-1, out=grown[..., 1:])  # the ratios
    np.multiply.accumulate(grown, axis=-1, out=grown)  # the phases
    return np.concatenate([grown[..., 1, d % 2:][..., ::-1], grown[..., 0, :]], axis=-1)


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


# --- spherical Wigner, the kernel rotated row by row ---------------------------

def spherical_wigner_per_row(state: QuantumState, thetas, phis) -> np.ndarray:
    """W at (theta, phi) points (broadcast together) as the rotated-kernel
    expectation itself: with rho = sum_c a_c a_c^dag, W = sum_m Delta_m sum_c
    |<m| exp(i theta J_y) exp(i phi J_z) a_c>|^2, J_y through its eigenbasis.
    The phi half and the J_y eigenphases are computed once per distinct angle,
    and each row of the broadcast shape costs one V_y (diag(exp(i theta w)) A)
    product on a (d, r * n) block.  A density is factored by its eigenvectors
    with the eigenvalues below 1e-12 of the largest left out, so a low-rank
    density costs its rank."""
    thetas, phis = np.asarray(thetas, dtype=float), np.asarray(phis, dtype=float)
    theta_set, theta_at = np.unique(thetas, return_inverse=True)
    phi_set, phi_at = np.unique(phis, return_inverse=True)
    theta_at, phi_at = np.broadcast_arrays(theta_at.reshape(thetas.shape),
                                           phi_at.reshape(phis.shape))
    rows = (math.prod(theta_at.shape[:-1]), theta_at.shape[-1]) if theta_at.ndim else (1, 1)
    bases = _propagation_bases(state.space)
    delta = wigner._kernel_diagonal(state.space.n_emitters)
    if state.is_pure:
        cols = state.amplitudes[:, None]
    else:
        w, v = np.linalg.eigh(state.density)
        keep = w > 1e-12 * w.max()
        cols = v[:, keep] * np.sqrt(w[keep])
    d, r = cols.shape
    half = np.exp(1j * np.multiply.outer(bases.jz, phi_set))[:, None, :] * cols[:, :, None]
    vy = np.exp(-0.5j * np.pi * bases.jz)[:, None] * bases.vx
    half = (vy.conj().T @ half.reshape(d, -1)).reshape(d, r, -1)
    turn = np.exp(1j * np.multiply.outer(bases.jz, theta_set))[:, None, :]
    out = np.empty(rows)
    for i, (t, p) in enumerate(zip(theta_at.reshape(rows), phi_at.reshape(rows))):
        block = vy @ (half.take(p, axis=2) * turn.take(t, axis=2)).reshape(d, -1)
        out[i] = (delta @ (block * block.conj()).real).reshape(r, -1).sum(axis=0)
    return out.reshape(theta_at.shape)


def kernel_diagonal_lanczos(n: int) -> np.ndarray:
    """``wigner._kernel_diagonal`` with diag(T_k0), the Gram polynomial of
    degree k in m on 0..N, built by Lanczos on diag(m - N/2) from the uniform
    vector, reorthogonalized twice per step."""
    jz = np.arange(n + 1) - n / 2
    t_k0 = np.full((n + 1, n + 1), 1 / math.sqrt(n + 1))
    for k in range(n):
        v = jz * t_k0[k]
        for _ in range(2):
            v -= (t_k0[:k + 1] @ v) @ t_k0[:k + 1]
        t_k0[k + 1] = v / np.linalg.norm(v)
    return math.sqrt(n + 1) / (4 * np.pi) * (np.sqrt(2.0 * np.arange(n + 1) + 1) @ t_k0)


# --- planar Wigner, one recurrence per grid point ------------------------------

def hermite_table_per_level(u: np.ndarray, size: int) -> np.ndarray:
    """``wigner._hermite_table`` without its rescaling, one level at a time by
    the recurrence as written, h_a = sqrt(2/a) u h_{a-1} - sqrt((a-1)/a)
    h_{a-2} from h_0 = pi^(-1/4) and h_{-1} = 0, each product in that order,
    then times e^(-u^2/2).  Valid while every |u| < 37.5: by Cramer's
    inequality |phi_a| <= 1.0865 pi^(-1/4) (Abramowitz and Stegun 22.14.17)
    the entries stay below 0.82 e^(u^2/2) < 2^1015 and a step's product below
    2^1020, and e^(-u^2/2) > 2^-1015 is still a normal number."""
    table = np.empty((size, u.size))
    h_prev, h = np.zeros_like(u), np.full_like(u, math.pi ** -0.25)
    table[0] = h
    for a in range(1, size):
        h_prev, h = h, math.sqrt(2 / a) * u * h - math.sqrt((a - 1) / a) * h_prev
        table[a] = h
    return (table * np.exp(-0.5 * u * u)).T


# the walk's own rescale: check |l_m| every 32 steps and scale points past
# 2^512 down by 2^512 (growth over 32 steps stays under 2^420 for x up to 1e5)
_RESCALE_EVERY = 32
_RESCALE_BITS = 512
_RESCALE_LIMIT = 2.0 ** _RESCALE_BITS


def planar_kernel_sum_per_point(amps: np.ndarray, X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """W(x,p) = sum_{m,n} c_m conj(c_n) K_mn(alpha), alpha = (x+ip)/sqrt(2), one
    diagonal k = n - m at a time (Cahill and Glauber, Phys. Rev. 177, 1882
    (1969)), walked separately at every grid point: K_{m,m+k} = (-1)^m
    l_m^k(4|alpha|^2) (2|alpha|)^k e^{i k arg alpha} e^{-2|alpha|^2} / (pi
    sqrt(k!)), with l_m^k = sqrt(m! k!/(m+k)!) L_m^k walked upwards in m by the
    normalized three-term recurrence (A&S 22.7.12), rescaled by powers of two,
    and the envelope applied through logs.  Points past x = 4|alpha|^2 = 1600
    + 4d ln(4d + 1600) read +0.0 and are not walked: for x >= 1, |l_m^k(x)| <=
    2^(m+k) x^m with m + k < d bounds |W| by (2/pi) d (2x)^d e^(-x/2), below
    2^-1075 there, and the walk would overflow."""
    alpha = (X + 1j * P) / np.sqrt(2)
    x_all = 4.0 * np.abs(alpha) ** 2
    dim = amps.size
    near = x_all <= 1600 + 4 * dim * math.log(4 * dim + 1600)
    alpha, x = alpha[near], x_all[near]
    with np.errstate(divide="ignore"):
        log_x = np.log(x)
    phase = np.exp(1j * np.angle(alpha))
    phase_k = np.ones_like(phase)
    w = np.zeros_like(x)
    for k in range(dim):
        rho = amps[:dim - k] * np.conj(amps[k:]) * (-1.0) ** np.arange(dim - k)
        nonzero = np.flatnonzero(rho)
        if nonzero.size and x.size:
            s_re, s_im = np.zeros_like(x), np.zeros_like(x)
            l_prev, l_m = 0.0, np.ones_like(x)
            log2_scale = 0
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
            log_mag = 0.5 * (k * log_x - x - math.lgamma(k + 1)) if k else -0.5 * x
            mag = np.exp(log_mag + log2_scale * math.log(2.0))
            w += (2.0 if k else 1.0) / np.pi * mag * (phase_k.real * s_re - phase_k.imag * s_im)
        phase_k *= phase
    out = np.zeros_like(x_all)
    out[near] = w
    return out


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] = ab - ba."""
    return a @ b - b @ a


# --- Lie closure, one candidate at a time -------------------------------------

def _orthogonal_part(span: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Flattened part of mat orthogonal to the orthonormal rows of span under
    the real Hilbert-Schmidt product, projected twice (twice is enough)."""
    vec = mat.reshape(-1)
    for _ in range(2):
        vec = vec - (span.conj() @ vec).real @ span
    return vec


def _extend(span: np.ndarray, mat: np.ndarray, rank_tol: float):
    """(span, norm): norm is that of mat's part outside span, whose unit
    direction is appended when norm exceeds ``rank_tol``; mat has norm at
    most 1, so the test is relative."""
    vec = _orthogonal_part(span, mat)
    norm = float(np.linalg.norm(vec))
    if norm > rank_tol:
        span = np.vstack([span, vec / norm])
    return span, norm


def _masked(mat: np.ndarray, width: int) -> np.ndarray:
    if width <= 0:
        return mat
    out = mat.copy()
    out[-width:, :] = 0.0
    out[:, -width:] = 0.0
    return out


def lie_closure_sequential(generators, rank_tol: float = DEFAULT_RANK_TOL,
                           artifact_mask: int = 0) -> ClosureReport:
    """``algebra.lie_closure`` with each bracket formed, projected twice on a
    complex span and admitted one at a time, in the same order."""
    if not 0.0 < rank_tol < 1.0:
        raise ValueError(f"rank_tol must lie in (0, 1), got {rank_tol!r}")
    mats = _as_matrices(generators)
    d = mats[0].shape[0]
    full = (d - max(artifact_mask, 0)) ** 2
    rank_span = np.zeros((0, d * d), dtype=complex)  # masked; decides rank
    full_span = rank_span  # unmasked; tells artifacts from known directions
    basis = []
    artifact_count, min_residual = 0, np.inf

    def admit(mat: np.ndarray) -> bool:
        nonlocal rank_span, full_span, artifact_count, min_residual
        rank_span, norm = _extend(rank_span, _masked(mat, artifact_mask), rank_tol)
        new = norm > rank_tol
        if new:
            basis.append(mat)
            min_residual = min(min_residual, norm)
            if artifact_mask:
                full_span, _ = _extend(full_span, mat, rank_tol)
        elif artifact_mask and np.linalg.norm(_orthogonal_part(full_span, mat)) > rank_tol:
            artifact_count += 1
        return new

    def expand() -> int:
        """Bracket each new direction with every direction, breadth first;
        returns the number of rounds."""
        rounds, frontier = 0, range(len(basis))
        while frontier:
            rounds += 1
            start = len(basis)
            for i in frontier:
                for j in range(len(basis)):
                    a, b = basis[i], basis[j]
                    cand = 1j * (a @ b - b @ a)
                    norm = np.linalg.norm(cand)
                    if norm > rank_tol and admit(cand / norm) and len(basis) == full:
                        return rounds
            frontier = range(start, len(basis))
        return rounds

    for m in mats:
        norm = np.linalg.norm(m)
        if norm:
            admit(m / norm)
    iterations = expand()

    reached = len(basis)
    ident = np.eye(d, dtype=complex) / np.sqrt(d)
    has_identity = np.linalg.norm(
        _orthogonal_part(rank_span, _masked(ident, artifact_mask))) < 0.5
    traceless = reached - (1 if has_identity else 0)
    target = d * d - 1
    return ClosureReport(
        generator_count=len(mats),
        reached_dimension=reached,
        traceless_dimension=traceless,
        target_dimension=target,
        iterations=iterations,
        universal=(traceless >= target),
        rank_tolerance=rank_tol,
        artifact_count=artifact_count,
        min_admitted_residual=float(min_residual),
        basis=np.array(basis).reshape(reached, d, d),
    )


# --- ladder synthesis --------------------------------------------------------

def ladder_norm_constant(n_emitters: int, n: int) -> float:
    """c_n = sqrt(n! N! / (N-n)!), the norm of S_+^n |0>."""
    if not 0 <= n <= n_emitters:
        raise ValueError(f"need 0 <= n <= N, got n={n}, N={n_emitters}")
    return float(np.exp(0.5 * (math.lgamma(n + 1) + math.lgamma(n_emitters + 1)
                               - math.lgamma(n_emitters - n + 1))))


def synthesis_by_powers_dense(space: DickeSpace, target: QuantumState) -> np.ndarray:
    """The state ``algebra.synthesis_by_powers`` builds, as unit amplitudes:
    |0> acted on by expm(r_n S_+^n - conj(r_n) S_-^n), r_n = a_n / (a_0 c_n),
    for n = 1..N in turn, each power of S_+ formed densely."""
    from scipy.linalg import expm

    amps, n_emitters = target.amplitudes, space.n_emitters
    splus = build_splus(space)
    power = np.eye(space.dim, dtype=complex)
    vec = QuantumState.ground(space).amplitudes.copy()
    for n in range(1, n_emitters + 1):
        power = power @ splus
        ratio = amps[n] / (amps[0] * ladder_norm_constant(n_emitters, n))
        vec = expm(ratio * power - np.conj(ratio) * power.conj().T) @ vec
    return vec / np.linalg.norm(vec)


def closure_residual(report: ClosureReport, mat: np.ndarray) -> float:
    """Relative residual of mat against the closure basis (0 means contained)."""
    span = np.zeros((0, mat.size), dtype=complex)
    for b in report.basis:
        span, _ = _extend(span, b, report.rank_tolerance)
    return float(np.linalg.norm(_orthogonal_part(span, mat)) / np.linalg.norm(mat))


def load_grid_csv(path) -> tuple:
    """Read back an exported grid; returns (header, rows as (n, 3) array)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        data = [tuple(float(tok) for tok in line.split(",")) for line in fh if line.strip()]
    return header, np.asarray(data)
