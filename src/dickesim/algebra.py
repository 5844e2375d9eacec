"""Numerical controllability machinery.

Lie-algebra closure under the Hermitian bracket (A, B) -> i[A, B], the
truncated-oscillator contrast case where rotations plus squeezing close on
the six-dimensional Gaussian algebra, product-formula (Trotter) builders
with error measurement, and the constructive state-synthesis scheme that
climbs the Dicke ladder with powers of S_+.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .core import (
    DickeSpace,
    NotHermitianError,
    QuantumState,
    SymmetricOperator,
    build_splus,
    fidelity,
    hermitian_exp,
    HERMITIAN_TOL,
)

DEFAULT_RANK_TOL = 1e-8


@dataclass
class ClosureReport:
    """Result of a Lie-closure run.

    reached_dimension counts every independent direction found (the identity
    may appear, hence reached <= target + 1); traceless_dimension excludes
    the identity component; universal means the traceless algebra fills
    su(d), i.e. traceless_dimension == target_dimension = d^2 - 1.
    artifact_count reports candidate directions rejected as truncation
    artifacts when boundary masking is active.
    """

    generator_count: int
    reached_dimension: int
    traceless_dimension: int
    target_dimension: int
    iterations: int
    universal: bool
    rank_tolerance: float
    artifact_count: int = 0
    basis: List[np.ndarray] = field(default_factory=list, repr=False)


def _as_matrices(generators: Sequence[Union[SymmetricOperator, np.ndarray]]) -> List[np.ndarray]:
    mats = []
    space = None
    for g in generators:
        if isinstance(g, SymmetricOperator):
            if space is None:
                space = g.space
            elif g.space != space:
                raise ValueError("closure generators live on different spaces")
            mats.append(np.asarray(g.matrix, dtype=complex))
        else:
            mats.append(np.asarray(g, dtype=complex))
    if not mats:
        raise ValueError("need at least one generator")
    d = mats[0].shape[0]
    for m in mats:
        if m.shape != (d, d):
            raise ValueError("generators must share one square shape")
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise NotHermitianError("closure generators must be Hermitian")
    return mats


def _orthogonal_part(span: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Flattened part of mat orthogonal to the orthonormal rows of span under
    the real Hilbert-Schmidt product, projected twice (twice is enough)."""
    vec = mat.reshape(-1)
    for _ in range(2):
        vec = vec - (span.conj() @ vec).real @ span
    return vec


def _extend(span: np.ndarray, mat: np.ndarray, rank_tol: float) -> Tuple[np.ndarray, bool]:
    """Append mat's unit direction outside span when that part exceeds
    ``rank_tol``; mat has norm at most 1, so the test is relative."""
    vec = _orthogonal_part(span, mat)
    norm = np.linalg.norm(vec)
    if norm <= rank_tol:
        return span, False
    return np.vstack([span, vec / norm]), True


def _masked(mat: np.ndarray, width: int) -> np.ndarray:
    if width <= 0:
        return mat
    out = mat.copy()
    out[-width:, :] = 0.0
    out[:, -width:] = 0.0
    return out


def lie_closure(generators: Sequence[Union[SymmetricOperator, np.ndarray]],
                rank_tol: float = DEFAULT_RANK_TOL,
                artifact_mask: int = 0) -> ClosureReport:
    """Close the real span of Hermitian generators under i[., .].

    Every direction is kept at unit Hilbert-Schmidt norm (generators are
    normalized on entry, zero ones skipped), so the verdict does not depend
    on how the generators are scaled.  A candidate is new when its part
    orthogonal to the span exceeds ``rank_tol`` times its own norm, and the
    search stops once the span holds d^2 directions, all of u(d).  With
    ``artifact_mask = w > 0`` the novelty test ignores the last w
    rows/columns, so the span is full at (d - w)^2; candidates that are new
    only inside that boundary strip are counted as truncation artifacts
    instead of directions.  ``rank_tol`` must lie in (0, 1).
    """
    if not 0.0 < rank_tol < 1.0:
        raise ValueError(f"rank_tol must lie in (0, 1), got {rank_tol!r}")
    mats = _as_matrices(generators)
    d = mats[0].shape[0]
    full = (d - max(artifact_mask, 0)) ** 2
    rank_span = np.zeros((0, d * d), dtype=complex)  # masked; decides rank
    full_span = rank_span  # unmasked; tells artifacts from known directions
    basis: List[np.ndarray] = []
    artifact_count = 0

    def admit(mat: np.ndarray) -> bool:
        nonlocal rank_span, full_span, artifact_count
        rank_span, new = _extend(rank_span, _masked(mat, artifact_mask), rank_tol)
        if new:
            basis.append(mat)
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
        basis=basis,
    )


def oscillator_generators(cutoff: int) -> Dict[str, np.ndarray]:
    """Truncated harmonic-oscillator x, p, x^2, p^2, s = (xp + px)/2."""
    if cutoff < 4:
        raise ValueError("cutoff must be at least 4")
    n = np.arange(cutoff - 1)
    a = np.zeros((cutoff, cutoff), dtype=complex)
    a[n, n + 1] = np.sqrt(n + 1.0)
    x = (a + a.conj().T) / np.sqrt(2)
    p = (a - a.conj().T) / (1j * np.sqrt(2))
    return {
        "x": x,
        "p": p,
        "x2": x @ x,
        "p2": p @ p,
        "s": (x @ p + p @ x) / 2,
    }


def oscillator_counterexample(cutoff: int,
                              rank_tol: float = DEFAULT_RANK_TOL,
                              extra_generators: Sequence[np.ndarray] = ()) -> ClosureReport:
    """Closure of the Gaussian set {x, p, x^2, p^2, s} on a truncated Fock space.

    The exact algebra is six-dimensional (the five generators plus the
    identity from i[x, p]); truncation garbles the last rows/columns, so a
    two-wide boundary mask separates genuine directions from artifacts.
    """
    gens = list(oscillator_generators(cutoff).values()) + list(extra_generators)
    return lie_closure(gens, rank_tol=rank_tol, artifact_mask=2)


def _check_trotter_inputs(a: SymmetricOperator, b: SymmetricOperator, t: float,
                          k: int) -> None:
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    if a.space != b.space:
        raise ValueError("trotter operands live on different spaces")
    for op in (a, b):
        if np.max(np.abs(op.matrix - op.matrix.conj().T)) > HERMITIAN_TOL:
            raise NotHermitianError("trotter operands must be Hermitian")
    if k < 1:
        raise ValueError("k must be a positive integer")


def trotter_sum(a: SymmetricOperator, b: SymmetricOperator, t: float,
                k: int) -> SymmetricOperator:
    """(e^(-iAt/k) e^(-iBt/k))^k, the first-order approximation to e^(-i(A+B)t)."""
    _check_trotter_inputs(a, b, t, k)
    ua = hermitian_exp(a, -1j * t / k)
    ub = hermitian_exp(b, -1j * t / k)
    step = (ua @ ub).matrix
    return SymmetricOperator(a.space, np.linalg.matrix_power(step, k))


def trotter_sum_error(a: SymmetricOperator, b: SymmetricOperator, t: float,
                      k: int) -> float:
    """Max-norm distance between the k-fold product and the exact e^(-i(A+B)t)."""
    approx = trotter_sum(a, b, t, k)
    exact = hermitian_exp(a + b, -1j * t)
    return (approx - exact).max_abs()


def trotter_commutator(a: SymmetricOperator, b: SymmetricOperator, t: float,
                       k: int) -> SymmetricOperator:
    """(e^(-iA s) e^(-iB s) e^(iA s) e^(iB s))^k with s = sqrt(t/k).

    Converges to the unitary generated by the Hermitian i[B, A], namely
    exp(-i * (i[B,A]) * t); see :func:`trotter_commutator_error`.
    """
    _check_trotter_inputs(a, b, t, k)
    if t < 0:
        raise ValueError("t must be nonnegative (enters via sqrt(t/k))")
    s = np.sqrt(t / k)
    ua = hermitian_exp(a, -1j * s).matrix
    ub = hermitian_exp(b, -1j * s).matrix
    step = ua @ ub @ ua.conj().T @ ub.conj().T
    return SymmetricOperator(a.space, np.linalg.matrix_power(step, k))


def trotter_commutator_error(a: SymmetricOperator, b: SymmetricOperator, t: float,
                             k: int) -> float:
    """Max-norm distance to the exact unitary for the commutator generator.

    The Hermitian generator is H = i(BA - AB) = i[B, A]; the group-commutator
    product approximates exp(-iHt).  Hermiticity of H is validated, which is
    the domain check ruling out non-unitary targets.
    """
    approx = trotter_commutator(a, b, t, k)
    h_mat = 1j * (b.matrix @ a.matrix - a.matrix @ b.matrix)
    if np.max(np.abs(h_mat - h_mat.conj().T)) > HERMITIAN_TOL:
        raise NotHermitianError("i[B, A] is not Hermitian; no unitary target exists")
    exact = hermitian_exp(SymmetricOperator(a.space, h_mat, hermitian=True), -1j * t)
    return (approx - exact).max_abs()


def ladder_norm_constant(n_emitters: int, n: int) -> float:
    """c_n = sqrt(n! N! / (N-n)!), the norm of S_+^n |0>."""
    from math import lgamma

    if not 0 <= n <= n_emitters:
        raise ValueError(f"need 0 <= n <= N, got n={n}, N={n_emitters}")
    return float(np.exp(0.5 * (lgamma(n + 1) + lgamma(n_emitters + 1)
                               - lgamma(n_emitters - n + 1))))


def synthesis_by_powers(space: DickeSpace, target: QuantumState,
                        alpha_scale: float) -> Tuple[QuantumState, float]:
    """Build the target from |0> with one e^(r_n S_+^n - conj(r_n) S_-^n) per rung.

    r_n = a_n / (a_0 c_n) reproduces each ladder coefficient to first order.
    The scheme as stated splits each rung into M = round(1/alpha_scale)
    factors e^(G/M), but (e^(G/M))^M = e^G, so ``alpha_scale`` is only
    checked to lie in (0, 0.1] and does not enter the result.  Requires
    a_0 != 0 (the scheme divides by it) and returns (state, infidelity vs
    target).
    """
    if not target.is_pure:
        raise ValueError("synthesis needs a pure target")
    if not 0 < alpha_scale <= 0.1:
        raise ValueError("alpha_scale must be in (0, 0.1]")
    amps = target.amplitudes
    a0 = amps[0]
    if abs(a0) < 1e-12:
        raise ValueError("target has a_0 = 0; the ladder construction divides by a_0")
    n_emitters = space.n_emitters
    splus = build_splus(space).matrix
    power = np.eye(space.dim, dtype=complex)
    vec = QuantumState.ground(space).amplitudes.copy()
    for n in range(1, n_emitters + 1):
        power = power @ splus  # S_+^n
        ratio = amps[n] / (a0 * ladder_norm_constant(n_emitters, n))
        if ratio == 0:
            continue
        gen = ratio * power - np.conj(ratio) * power.conj().T
        h = SymmetricOperator(space, -1j * gen, hermitian=True)
        vec = hermitian_exp(h, 1j).matrix @ vec
    state = QuantumState.from_amplitudes(space, vec, normalize=True)
    return state, 1.0 - fidelity(state, target)
