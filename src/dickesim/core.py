"""Collective-spin operators and states on the symmetric (Dicke) subspace.

N two-level emitters restricted to permutation-symmetric states live in an
(N+1)-dimensional space spanned by |0>, |1>, ..., |N>, where |m> carries m
excitations.  Everything here is dense complex linear algebra on that space:
ladder operators and the spin-J triple J_x/J_y/J_z as read-only complex
(N+1)x(N+1) arrays, states, and fidelities.  A space is fixed by N alone; the
normalization of the S operators in the gate exponents (S = J or S = 2 J)
is a gate convention, see :class:`dickesim.gates.GateConventions`.

All values are immutable; operators and states can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# Tolerances used throughout the package.
HERMITIAN_TOL = 1e-10   # Hermiticity of generators
NORM_TOL = 1e-10        # state normalization, unitarity
NORM_DRIFT_TOL = 1e-8   # norm drift divided out of a propagated state


class DimensionMismatchError(ValueError):
    """Operands built on different Dicke spaces."""


class NotHermitianError(ValueError):
    """A generator that must be Hermitian is not, beyond tolerance."""


class NormDriftError(ValueError):
    """Applying an operator changed the state norm beyond tolerance."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


def _normalized(vec: np.ndarray) -> np.ndarray:
    """vec / ||vec|| for a nonzero contiguous vector, after a power of two takes
    its largest real or imaginary part into [1, 2): the norm cannot overflow or
    underflow, and ordinary vectors give the same bits as vec / norm(vec)."""
    parts = vec.view(float)
    vec = np.ldexp(parts, 1 - int(np.frexp(np.max(np.abs(parts)))[1])).view(vec.dtype)
    return vec / np.linalg.norm(vec)


@dataclass(frozen=True)
class DickeSpace:
    """The (N+1)-dimensional symmetric subspace of N emitters."""

    n_emitters: int

    def __post_init__(self):
        if not isinstance(self.n_emitters, (int, np.integer)) or self.n_emitters < 1:
            raise ValueError(f"n_emitters must be a positive integer, got {self.n_emitters!r}")

    @property
    def dim(self) -> int:
        return self.n_emitters + 1


@dataclass(frozen=True)
class QuantumState:
    """Pure state (amplitude vector) or mixed state (density matrix).

    Exactly one of ``amplitudes`` / ``density`` is set.  Pure states are
    validated to unit norm, densities to unit trace, Hermiticity and
    positive semidefiniteness.
    """

    space: DickeSpace
    amplitudes: Optional[np.ndarray] = None
    density: Optional[np.ndarray] = None

    def __post_init__(self):
        d = self.space.dim
        if (self.amplitudes is None) == (self.density is None):
            raise ValueError("exactly one of amplitudes/density must be provided")
        if self.amplitudes is not None:
            vec = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
            if vec.shape != (d,):
                raise DimensionMismatchError(
                    f"amplitude vector length {vec.shape[0]} does not match dimension {d}"
                )
            norm = np.linalg.norm(vec)
            if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
                raise ValueError(f"pure state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
            object.__setattr__(self, "amplitudes", _frozen(vec))
        else:
            rho = np.asarray(self.density, dtype=complex)
            if rho.shape != (d, d):
                raise DimensionMismatchError(
                    f"density shape {rho.shape} does not match dimension {d}"
                )
            trace = np.trace(rho)
            if not (abs(trace.real - 1.0) <= NORM_TOL and abs(trace.imag) <= NORM_TOL):
                raise ValueError(f"density trace {trace!r} deviates from 1")
            if not np.isfinite(rho).all():  # NaN slips through both tests below
                raise ValueError("density entries must be finite")
            if np.max(np.abs(rho - rho.conj().T)) > HERMITIAN_TOL:
                raise NotHermitianError("density matrix is not Hermitian")
            evals = np.linalg.eigvalsh(rho)
            if evals.min() < -HERMITIAN_TOL:
                raise ValueError(f"density has negative eigenvalue {evals.min():.3e}")
            object.__setattr__(self, "density", _frozen(rho))

    @property
    def is_pure(self) -> bool:
        return self.amplitudes is not None

    @classmethod
    def ground(cls, space: DickeSpace) -> "QuantumState":
        """|0> = all emitters in the ground state."""
        return cls.basis_state(space, 0)

    @classmethod
    def basis_state(cls, space: DickeSpace, m: int) -> "QuantumState":
        if not 0 <= m <= space.n_emitters:
            raise ValueError(f"basis index {m} outside 0..{space.n_emitters}")
        vec = np.zeros(space.dim, dtype=complex)
        vec[m] = 1.0
        return cls(space, amplitudes=vec)

    @classmethod
    def from_amplitudes(cls, space: DickeSpace, vec, normalize: bool = False) -> "QuantumState":
        vec = np.ascontiguousarray(vec, dtype=complex).reshape(-1)
        if normalize:
            if not vec.any():
                raise ValueError("cannot normalize the zero vector")
            vec = _normalized(vec)
        return cls(space, amplitudes=vec)

    def to_density(self) -> np.ndarray:
        if self.is_pure:
            return np.outer(self.amplitudes, self.amplitudes.conj())
        return self.density


def _check_same_space(a: DickeSpace, b: DickeSpace) -> None:
    if a != b:
        raise DimensionMismatchError(f"space mismatch: {a} vs {b}")


def build_splus(space: DickeSpace) -> np.ndarray:
    """Raising operator: S_+|m> = sqrt((m+1)(N-m)) |m+1>."""
    n = space.n_emitters
    m = np.arange(n)
    mat = np.zeros((n + 1, n + 1), dtype=complex)
    mat[m + 1, m] = np.sqrt((m + 1.0) * (n - m))
    return _frozen(mat)


def build_sminus(space: DickeSpace) -> np.ndarray:
    """Lowering operator: S_-|m> = sqrt(m(N-m+1)) |m-1>.  Adjoint of S_+."""
    return _frozen(build_splus(space).conj().T)


def build_sz(space: DickeSpace) -> np.ndarray:
    """J_z|m> = (m - N/2)|m>."""
    n = space.n_emitters
    diag = np.arange(n + 1) - n / 2
    return _frozen(np.diag(diag.astype(complex)))


def build_sx(space: DickeSpace) -> np.ndarray:
    """J_x = (S_+ + S_-)/2."""
    return _frozen((build_splus(space) + build_sminus(space)) / 2)


def build_sy(space: DickeSpace) -> np.ndarray:
    """J_y = (S_+ - S_-)/(2i); [J_x, J_y] = i J_z."""
    return _frozen((build_splus(space) - build_sminus(space)) / 1j / 2)


def _hermitian_exp(h: np.ndarray, scale: complex) -> np.ndarray:
    """exp(scale * h) for Hermitian h (checked by the caller), via eigh of (h + h^dag)/2."""
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    return (v * np.exp(scale * w)) @ v.conj().T


def _psd_factor(rho: np.ndarray) -> np.ndarray:
    """A with rho = A A^dag: one column per eigenvalue above 1e-12 of the largest,
    its eigenvector scaled by the eigenvalue's square root."""
    w, v = np.linalg.eigh(rho)
    keep = w > 1e-12 * w.max()
    return v[:, keep] * np.sqrt(w[keep])


def fidelity(a: QuantumState, b: QuantumState) -> float:
    """Fidelity in [0, 1].

    pure/pure: |<a|b>|^2, pure/mixed: <a|rho|a>, mixed/mixed: Uhlmann
    (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 = (sum of the singular values of
    A^dag B)^2 for the :func:`_psd_factor` factors rho = A A^dag, sigma =
    B B^dag.  The factor cuts each eigenvalue at or below 1e-12 of the
    largest, which lowers sqrt(F) by at most its square root, 1e-6.
    """
    _check_same_space(a.space, b.space)
    if a.is_pure or b.is_pure:
        pure, other = (a, b) if a.is_pure else (b, a)
        return _fidelity_with_vector(pure.amplitudes, other)
    overlap = _psd_factor(a.density).conj().T @ _psd_factor(b.density)
    return float(min(np.linalg.svd(overlap, compute_uv=False).sum() ** 2, 1.0))


def _fidelity_with_vector(vec: np.ndarray, s: QuantumState) -> float:
    """Fidelity of the unit amplitude vector ``vec`` with ``s`` (same space):
    |<s|vec>|^2 for a pure s, <vec|rho|vec> for a density."""
    if s.is_pure:
        val = abs(np.vdot(s.amplitudes, vec)) ** 2
    else:
        val = np.vdot(vec, s.density @ vec).real
    return float(min(max(val, 0.0), 1.0))
