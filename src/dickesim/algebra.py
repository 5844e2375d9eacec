"""Numerical controllability machinery.

Lie-algebra closure under the Hermitian bracket (A, B) -> i[A, B], with an
exact search by multipole rank for the rotation-covariant Dicke sets, the
truncated-oscillator contrast case where rotations plus squeezing close on
the six-dimensional Gaussian algebra, product-formula (Trotter) builders
with error measurement, and the constructive state-synthesis scheme that
climbs the Dicke ladder with powers of S_+.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    DickeSpace,
    NotHermitianError,
    QuantumState,
    fidelity,
    HERMITIAN_TOL,
    _hermitian_exp,
)

DEFAULT_RANK_TOL = 1e-8
_BRACKET_CHUNK = 128  # brackets formed and projected together; caps their memory


@dataclass
class ClosureReport:
    """Result of a Lie-closure run.

    reached_dimension counts every independent direction found (the identity
    may appear, hence reached <= target + 1); traceless_dimension excludes
    the identity component; universal means the traceless algebra fills
    su(d), i.e. traceless_dimension == target_dimension = d^2 - 1.
    artifact_count reports candidate directions rejected as truncation
    artifacts when boundary masking is active.  min_admitted_residual is the
    smallest norm, relative to the candidate's own, of the part of any
    admitted direction outside the span before it (inf when none was
    admitted): the verdict's margin over ``rank_tolerance``.  basis holds
    the admitted directions as a (reached, d, d) complex array, each at unit
    Hilbert-Schmidt norm.

    A report of :func:`multipole_closure` is exact: ``ranks`` holds the
    multipole ranks reached, ``missing_rank`` the smallest rank in 1..2j not
    reached (None when universal), ``iterations`` the rank rounds, and it
    has ``rank_tolerance`` 0, an empty basis and ``min_admitted_residual``
    inf.  A span closure has ``ranks`` and ``missing_rank`` None.
    """

    generator_count: int
    reached_dimension: int
    traceless_dimension: int
    target_dimension: int
    iterations: int
    universal: bool
    rank_tolerance: float
    artifact_count: int = 0
    min_admitted_residual: float = np.inf
    basis: np.ndarray = field(default_factory=lambda: np.zeros((0, 0, 0), complex),
                              repr=False)
    ranks: Optional[Tuple[int, ...]] = None
    missing_rank: Optional[int] = None


def _check_rank_tol(rank_tol: float) -> None:
    if not 0.0 < rank_tol < 1.0:
        raise ValueError(f"rank_tol must lie in (0, 1), got {rank_tol!r}")


def _as_matrices(generators: Sequence[np.ndarray]) -> List[np.ndarray]:
    mats = [np.asarray(g, dtype=complex) for g in generators]
    if not mats:
        raise ValueError("need at least one generator")
    d = mats[0].shape[0]
    for m in mats:
        if m.shape != (d, d):
            raise ValueError("generators must share one square shape")
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise NotHermitianError("generators must be Hermitian")
    return mats


def _packing(d: int, width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Positions in the real view of a flattened complex d x d matrix, and
    their weights, that pack a Hermitian matrix into a real d^2 row: its
    diagonal, then sqrt(2) times the real and the imaginary parts of its
    upper triangle.  The plain dot product of two rows is then the real
    Hilbert-Schmidt product.  Entries inside the leading (d - width) block
    come first, so the first (d - width)^2 entries are the masked row."""
    diag = np.arange(d)
    up_i, up_j = np.triu_indices(d, 1)
    up = 2 * (up_i * d + up_j)
    pos = np.concatenate([2 * diag * (d + 1), up, up + 1])
    weight = np.concatenate([np.ones(d), np.full(2 * up.size, np.sqrt(2.0))])
    order = np.argsort(np.concatenate([diag, up_j, up_j]) >= d - width, kind="stable")
    return pos[order], weight[order]


class _PackedSpan:
    """Orthonormal real rows filled in place into a preallocated array."""

    def __init__(self, capacity: int, rank_tol: float):
        self._rows = np.empty((capacity, capacity))
        self.size = 0
        self.rank_tol = rank_tol

    def project(self, vecs: np.ndarray, start: int = 0) -> np.ndarray:
        """vecs minus their parts along the rows from ``start`` on."""
        rows = self._rows[start:self.size]
        return vecs - (vecs @ rows.T) @ rows

    def residual(self, vec: np.ndarray, start: int) -> Tuple[np.ndarray, float]:
        """The part of vec outside the span and its norm, for vec already
        projected twice on the rows before ``start``.  It is projected on
        the rows from ``start`` on, and then, if it still exceeds
        ``rank_tol``, twice more on every row: the second look that keeps
        the rows orthonormal to roundoff."""
        if self.size == len(self._rows):  # a full span leaves nothing outside
            return vec, 0.0
        vec = self.project(vec, start)
        norm = float(np.linalg.norm(vec))
        if norm > self.rank_tol:
            vec = self.project(self.project(vec))
            norm = float(np.linalg.norm(vec))
        return vec, norm

    def append(self, vec: np.ndarray, norm: float) -> None:
        self._rows[self.size] = vec / norm
        self.size += 1


def lie_closure(generators: Sequence[np.ndarray],
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

    The span is an orthonormal set of packed real rows (:func:`_packing`).
    Each new direction's brackets with the directions found before it are
    formed and projected in chunks of ``_BRACKET_CHUNK``: twice on the span
    as it stood before the chunk, then one by one, in order, on the rows
    the chunk has added, and a candidate still new gets a second look, two
    more projections on the whole span, before it is admitted.
    """
    _check_rank_tol(rank_tol)
    mats = _as_matrices(generators)
    d = mats[0].shape[0]
    width = max(artifact_mask, 0)
    full = (d - width) ** 2
    pos, weight = _packing(d, width)
    rank_span = _PackedSpan(full, rank_tol)  # masked; decides rank
    # unmasked; tells artifacts from known directions
    full_span = _PackedSpan(d * d, rank_tol) if width else None
    basis = np.empty((full, d, d), dtype=complex)
    reached = artifact_count = 0
    min_residual = np.inf

    def pack(cands: np.ndarray) -> np.ndarray:
        return cands.reshape(len(cands), -1).view(float)[:, pos] * weight

    def admit(cands: np.ndarray, packed: np.ndarray, stop: bool) -> bool:
        """Admit the new ones among unit-norm candidates in order; True when
        ``stop`` is set and the span has filled."""
        nonlocal reached, artifact_count, min_residual
        rank_start = rank_span.size
        masked = rank_span.project(rank_span.project(packed[:, :full]))
        if full_span is not None:
            full_start = full_span.size
            unmasked = full_span.project(full_span.project(packed))
        for k, cand in enumerate(cands):
            vec, norm = rank_span.residual(masked[k], rank_start)
            if norm > rank_tol:
                rank_span.append(vec, norm)
                basis[reached] = cand
                reached += 1
                min_residual = min(min_residual, norm)
                if full_span is not None:
                    vec, norm = full_span.residual(unmasked[k], full_start)
                    if norm > rank_tol:
                        full_span.append(vec, norm)
                if stop and reached == full:
                    return True
            elif full_span is not None:
                artifact_count += full_span.residual(unmasked[k], full_start)[1] > rank_tol
        return False

    def expand() -> int:
        """Bracket each new direction with every direction found before its
        turn, breadth first; returns the number of rounds."""
        rounds, frontier = 0, range(reached)
        while frontier:
            rounds += 1
            start = reached
            for i in frontier:
                a, count = basis[i], reached
                for lo in range(0, count, _BRACKET_CHUNK):
                    block = basis[lo:min(lo + _BRACKET_CHUNK, count)]
                    cands = a @ block  # in place from here: the chunk sets the peak memory
                    cands -= block @ a
                    cands *= 1j
                    packed = pack(cands)
                    norms = np.linalg.norm(packed, axis=1)
                    keep = norms > rank_tol
                    if keep.any():
                        cands, packed, norms = cands[keep], packed[keep], norms[keep, None]
                        cands /= norms[:, :, None]
                        packed /= norms
                        if admit(cands, packed, stop=True):
                            return rounds
            frontier = range(start, reached)
        return rounds

    gens = np.array([m / np.linalg.norm(m) for m in mats if np.linalg.norm(m)])
    if len(gens):
        admit(gens, pack(gens), stop=False)
    iterations = expand()

    ident = pack(np.eye(d, dtype=complex)[None] / np.sqrt(d))[0, :full]
    has_identity = np.linalg.norm(rank_span.project(rank_span.project(ident))) < 0.5
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
        basis=basis if reached == full else basis[:reached].copy(),
    )


def _six_j_nonzero(k1: int, k2: int, k3: int, two_j: int) -> bool:
    """Whether the 6j symbol {k1 k2 k3; j j j} is nonzero (2j = ``two_j``);
    False when a triangle rule fails, a rank above 2j included, which is
    exactly when the sum below is empty.

    Racah's sum runs over t from t_min = max(a_i) to t_max = min(b_i) of
    (-1)^t (t+1)! / (prod_i (t - a_i)! prod_i (b_i - t)!), with a = (k1+k2+k3,
    k1+2j, k2+2j, k3+2j) and b = (k1+k2+2j, k2+k3+2j, k3+k1+2j); its triangle
    prefactors are nonzero and left out.  Each term is scaled by the integer
    prod_i (t_max - a_i)! prod_i (b_i - t_min)! / (t_min + 1)!, which makes it
    an integer, so the sum's zero test is exact.  Successive scaled terms
    follow by an exact integer division, and no factorial is formed:
    term(t + 1) = -term(t) (t + 2) prod_i (b_i - t) / prod_i (t + 1 - a_i).
    """
    a = (k1 + k2 + k3, k1 + two_j, k2 + two_j, k3 + two_j)
    b = (k1 + k2 + two_j, k2 + k3 + two_j, k3 + k1 + two_j)
    lo, hi = max(a), min(b)
    if hi < lo:
        return False
    term = total = math.prod(math.prod(range(lo - x + 1, hi - x + 1)) for x in a)
    for t in range(lo, hi):
        term = -term * (t + 2) * math.prod(y - t for y in b) // math.prod(t + 1 - x for x in a)
        total += term
    return total != 0


def _rank_witnessed(k: int, held: set, fresh: set, top: int, two_j: int) -> bool:
    """Whether some pair of held ranks (the largest is ``top``), one of them
    in ``fresh``, brackets into rank k: k1 + k2 + k odd, |k1 - k2| <= k and
    {k1 k2 k; j j j} != 0.  Pairs are tried by increasing k1 + k2, whose 6j
    sums are the shortest (k1 + k2 - k + 1 terms once 2j >= k1 + k2)."""
    for total in range(k + 1, 2 * top + 1, 2):
        for k1 in range(max((total - k + 1) // 2, total - top), total // 2 + 1):
            k2 = total - k1
            if (k1 in held and k2 in held and (k1 in fresh or k2 in fresh)
                    and _six_j_nonzero(k1, k2, k, two_j)):
                return True
    return False


def multipole_closure(space: DickeSpace, squeezing: bool) -> ClosureReport:
    """Exact closure of {S_x, S_y}, plus {S_x^2, S_y^2} with ``squeezing``,
    by multipole rank; no matrix is built and no tolerance enters.

    The algebra holds S_x, S_y and their bracket S_z, so it is invariant
    under rotations.  The operators on the spin-j ladder split into
    multipole ranks k = 0..2j, each exactly once (Fano and Racah,
    *Irreducible Tensorial Sets* (1959)), so the algebra is the sum of the
    full ranks it holds.  S_x and S_y have rank 1; S_x^2 and S_y^2 have rank
    0 (a trace) and rank 2 parts.  The bracket of full rank-k1 and rank-k2
    spaces has a rank-k part iff k1 + k2 + k is odd and {k1 k2 k; j j j} != 0
    (Racah, Phys. Rev. 62, 438 (1942)).  Each round adds every missing rank
    with such a witness pair among the ranks held at the round's start; the
    search ends when a round adds none or every rank 1..2j is held, and
    ``iterations`` counts the rounds run.  The identity is never a bracket,
    so it is reached only through the squeezes' trace.
    """
    two_j = space.n_emitters
    held = {1, 2} if squeezing and two_j >= 2 else {1}
    fresh, rounds = held, 0
    while fresh and len(held) < two_j:
        rounds += 1
        top = max(held)
        added = {k for k in range(2, min(2 * top, two_j + 1))
                 if k not in held and _rank_witnessed(k, held, fresh, top, two_j)}
        held, fresh = held | added, added
    traceless = sum(2 * k + 1 for k in held)
    missing = next((k for k in range(1, two_j + 1) if k not in held), None)
    return ClosureReport(
        generator_count=4 if squeezing else 2,
        reached_dimension=traceless + (1 if squeezing else 0),
        traceless_dimension=traceless,
        target_dimension=(two_j + 1) ** 2 - 1,
        iterations=rounds,
        universal=missing is None,
        rank_tolerance=0.0,
        ranks=tuple(sorted(held)),
        missing_rank=missing,
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


def _check_trotter_inputs(a: np.ndarray, b: np.ndarray, t: float, k: int) -> List[np.ndarray]:
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    if k < 1:
        raise ValueError("k must be a positive integer")
    return _as_matrices([a, b])


def trotter_sum(a: np.ndarray, b: np.ndarray, t: float, k: int) -> np.ndarray:
    """(e^(-iAt/k) e^(-iBt/k))^k, the first-order approximation to e^(-i(A+B)t)."""
    a, b = _check_trotter_inputs(a, b, t, k)
    ua = _hermitian_exp(a, -1j * t / k)
    ub = _hermitian_exp(b, -1j * t / k)
    return np.linalg.matrix_power(ua @ ub, k)


def trotter_sum_error(a: np.ndarray, b: np.ndarray, t: float, k: int) -> float:
    """Max-norm distance between the k-fold product and the exact e^(-i(A+B)t)."""
    approx = trotter_sum(a, b, t, k)
    exact = _hermitian_exp(a + b, -1j * t)
    return float(np.max(np.abs(approx - exact)))


def trotter_commutator(a: np.ndarray, b: np.ndarray, t: float, k: int) -> np.ndarray:
    """(e^(-iA s) e^(-iB s) e^(iA s) e^(iB s))^k with s = sqrt(t/k).

    Converges to the unitary generated by the Hermitian i[B, A], namely
    exp(-i * (i[B,A]) * t); see :func:`trotter_commutator_error`.
    """
    a, b = _check_trotter_inputs(a, b, t, k)
    if t < 0:
        raise ValueError("t must be nonnegative (enters via sqrt(t/k))")
    s = np.sqrt(t / k)
    ua = _hermitian_exp(a, -1j * s)
    ub = _hermitian_exp(b, -1j * s)
    step = ua @ ub @ ua.conj().T @ ub.conj().T
    return np.linalg.matrix_power(step, k)


def trotter_commutator_error(a: np.ndarray, b: np.ndarray, t: float, k: int) -> float:
    """Max-norm distance to the exact unitary for the commutator generator.

    The Hermitian generator is H = i(BA - AB) = i[B, A]; the group-commutator
    product approximates exp(-iHt).  Hermiticity of H is validated, which is
    the domain check ruling out non-unitary targets.
    """
    approx = trotter_commutator(a, b, t, k)
    h_mat = 1j * (b @ a - a @ b)
    if np.max(np.abs(h_mat - h_mat.conj().T)) > HERMITIAN_TOL:
        raise NotHermitianError("i[B, A] is not Hermitian; no unitary target exists")
    exact = _hermitian_exp(h_mat, -1j * t)
    return float(np.max(np.abs(approx - exact)))


def ladder_norm_constant(n_emitters: int, n: int) -> float:
    """c_n = sqrt(n! N! / (N-n)!), the norm of S_+^n |0>."""
    from math import lgamma

    if not 0 <= n <= n_emitters:
        raise ValueError(f"need 0 <= n <= N, got n={n}, N={n_emitters}")
    return float(np.exp(0.5 * (lgamma(n + 1) + lgamma(n_emitters + 1)
                               - lgamma(n_emitters - n + 1))))


@functools.lru_cache(maxsize=None)
def _ladder_chain_eigenpairs(space: DickeSpace, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of X_n = (S_+^n + S_-^n) / c_n, one stacked real eigh per rung.

    S_+^n couples |m> only to |m + n>, so X_n splits into the n chains
    {c, c + n, c + 2n, ...}, c < n.  Slot k of chain c holds |c + k n>; the
    chains are zero-padded to a common length L = ceil(d / n), and a padded
    slot stays decoupled.  Chain c's block is real tridiagonal with
    <c + (k+1) n| X_n |c + k n> = exp(l_(c+(k+1)n) - l_(c+kn) - l_n), where
    l_m = sum_(k<m) log sqrt((k+1)(N-k)) is the log of the norm of S_+^m |0>
    (so c_n = e^(l_n)): no power of S_+ is formed, so nothing overflows.  The
    l_m are summed in long double, which on x86-64 keeps each entry within
    about an ulp.  Float64 sums put errors of up to 1.4e-13 in the entries
    at N = 100, and a rung's phases |rho| w, which multiply them, reach 6e4
    rad there for a target far from |0>.  Returns w, shape (n, L), and v,
    shape (n, L, L), with X_n's block c = v[c] diag(w[c]) v[c]^T.
    """
    n_emitters, d = space.n_emitters, space.dim
    k = np.arange(n_emitters, dtype=np.longdouble)
    logs = np.concatenate([[0.0], np.cumsum(0.5 * np.log((k + 1) * (n_emitters - k)))])
    length = -(-d // n)
    slots = np.arange(n)[:, None] + n * np.arange(length)  # (n, L) ladder indices
    lower, upper = slots[:, :-1], slots[:, 1:]
    coupled = upper < d
    block = np.zeros((n, length, length))
    chain, slot = np.nonzero(coupled)
    block[chain, slot + 1, slot] = block[chain, slot, slot + 1] = np.exp(
        logs[upper[coupled]] - logs[lower[coupled]] - logs[n])
    return np.linalg.eigh(block)


def synthesis_by_powers(space: DickeSpace, target: QuantumState,
                        alpha_scale: float) -> Tuple[QuantumState, float]:
    """Build the target from |0> with one e^(r_n S_+^n - conj(r_n) S_-^n) per rung.

    r_n = a_n / (a_0 c_n) reproduces each ladder coefficient to first order.
    The scheme as stated splits each rung into M = round(1/alpha_scale)
    factors e^(G/M), but (e^(G/M))^M = e^G, so ``alpha_scale`` is only
    checked to lie in (0, 0.1] and does not enter the result.  Requires
    a_0 != 0 (the scheme divides by it) and returns (state, infidelity vs
    target).

    With a_n / a_0 = |rho| e^(i phi), the rung is D exp(i |rho| X_n) D^dag,
    X_n as in :func:`_ladder_chain_eigenpairs` and D = diag(e^(i theta m)),
    e^(i theta n) = -i e^(i phi).  On chain c, D is e^(i theta c) times
    diag(u^k) with u = -i e^(i phi), and the common factor cancels: each rung
    is one phase, two batched small matvecs and one exp(i |rho| w), never a
    d x d matrix.
    """
    if not target.is_pure:
        raise ValueError("synthesis needs a pure target")
    if not 0 < alpha_scale <= 0.1:
        raise ValueError("alpha_scale must be in (0, 0.1]")
    amps = target.amplitudes
    a0 = amps[0]
    if abs(a0) < 1e-12:
        raise ValueError("target has a_0 = 0; the ladder construction divides by a_0")
    d = space.dim
    vec = QuantumState.ground(space).amplitudes.copy()
    for n in range(1, d):
        ratio = amps[n] / a0
        if ratio == 0:
            continue
        w, v = _ladder_chain_eigenpairs(space, n)
        length = w.shape[1]
        size = abs(ratio)
        # u^k, u = -i ratio / size in real arithmetic: a subnormal ratio
        # overflows numpy's complex division
        phase = complex(ratio.imag / size, -ratio.real / size) ** np.arange(length)
        # entry c + k n of the zero-padded vector at [k, c]; the matvecs act
        # on its real and imaginary parts as two real columns per chain
        chains = np.zeros((length, n), complex)
        chains.reshape(-1)[:d] = vec
        chains *= phase.conj()[:, None]
        coeffs = np.matmul(v.transpose(0, 2, 1),
                           chains.view(float).reshape(length, n, 2).transpose(1, 0, 2))
        coeffs = coeffs.view(complex)[..., 0] * np.exp(1j * size * w)
        chains = np.matmul(v, coeffs.view(float).reshape(n, length, 2)).view(complex)[..., 0]
        vec = (chains * phase).T.reshape(-1)[:d]
    state = QuantumState.from_amplitudes(space, vec, normalize=True)
    return state, 1.0 - fidelity(state, target)
