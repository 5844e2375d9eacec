"""Collective-spin operators and states on the symmetric (Dicke) subspace.

N two-level emitters restricted to permutation-symmetric states live in an
(N+1)-dimensional space spanned by |0>, |1>, ..., |N>, where |m> carries m
excitations.  Everything here is dense complex linear algebra on that space:
ladder operators, the S_x/S_y/S_z triple in either of two normalization
conventions, matrix exponentials of Hermitian generators, and fidelities.

All values are immutable; operators and states can be shared freely.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Tolerances used throughout the package.
ALGEBRA_TOL = 1e-12     # entrywise algebraic identities
HERMITIAN_TOL = 1e-10   # Hermiticity of generators
NORM_TOL = 1e-10        # state normalization, unitarity
NORM_DRIFT_TOL = 1e-8   # norm drift divided out of a propagated state


class DimensionMismatchError(ValueError):
    """Operands built on different Dicke spaces."""


class NotHermitianError(ValueError):
    """A generator that must be Hermitian is not, beyond tolerance."""


class NormDriftError(ValueError):
    """Applying an operator changed the state norm beyond tolerance."""


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


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DickeSpace:
    """The (N+1)-dimensional symmetric subspace of N emitters."""

    n_emitters: int
    convention: Convention = Convention.SPIN_J

    def __post_init__(self):
        if not isinstance(self.n_emitters, (int, np.integer)) or self.n_emitters < 1:
            raise ValueError(f"n_emitters must be a positive integer, got {self.n_emitters!r}")
        if not isinstance(self.convention, Convention):
            object.__setattr__(self, "convention", Convention(self.convention))

    @property
    def dim(self) -> int:
        return self.n_emitters + 1

    @property
    def spin_j(self) -> float:
        """Total spin J = N/2 of the symmetric sector."""
        return self.n_emitters / 2


@dataclass(frozen=True)
class SymmetricOperator:
    """Dense complex (N+1)x(N+1) operator on a Dicke space.

    Row/column index m in {0..N} labels the Dicke state |m>.  Operators
    flagged ``hermitian`` are validated entrywise at construction.
    """

    space: DickeSpace
    matrix: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.space.dim
        if mat.shape != (d, d):
            raise DimensionMismatchError(
                f"operator matrix shape {mat.shape} does not match space dimension {d}"
            )
        if self.hermitian:
            dev = np.max(np.abs(mat - mat.conj().T))
            if dev > ALGEBRA_TOL:
                raise NotHermitianError(
                    f"operator tagged Hermitian deviates from its adjoint by {dev:.3e}"
                )
        object.__setattr__(self, "matrix", _frozen(mat))

    def dagger(self) -> "SymmetricOperator":
        return SymmetricOperator(self.space, self.matrix.conj().T, hermitian=self.hermitian)

    def __matmul__(self, other: "SymmetricOperator") -> "SymmetricOperator":
        _check_same_space(self.space, other.space)
        return SymmetricOperator(self.space, self.matrix @ other.matrix)

    def __add__(self, other: "SymmetricOperator") -> "SymmetricOperator":
        _check_same_space(self.space, other.space)
        return SymmetricOperator(self.space, self.matrix + other.matrix,
                                 hermitian=self.hermitian and other.hermitian)

    def __sub__(self, other: "SymmetricOperator") -> "SymmetricOperator":
        _check_same_space(self.space, other.space)
        return SymmetricOperator(self.space, self.matrix - other.matrix,
                                 hermitian=self.hermitian and other.hermitian)

    def __mul__(self, scalar) -> "SymmetricOperator":
        return SymmetricOperator(self.space, self.matrix * scalar)

    __rmul__ = __mul__

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.matrix)))


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
            if abs(norm - 1.0) > NORM_TOL:
                raise ValueError(f"pure state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
            object.__setattr__(self, "amplitudes", _frozen(vec))
        else:
            rho = np.asarray(self.density, dtype=complex)
            if rho.shape != (d, d):
                raise DimensionMismatchError(
                    f"density shape {rho.shape} does not match dimension {d}"
                )
            if abs(np.trace(rho).real - 1.0) > NORM_TOL or abs(np.trace(rho).imag) > NORM_TOL:
                raise ValueError(f"density trace {np.trace(rho)!r} deviates from 1")
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
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        if normalize:
            n = np.linalg.norm(vec)
            if n == 0:
                raise ValueError("cannot normalize the zero vector")
            vec = vec / n
        return cls(space, amplitudes=vec)

    def to_density(self) -> np.ndarray:
        if self.is_pure:
            return np.outer(self.amplitudes, self.amplitudes.conj())
        return self.density


def _check_same_space(a: DickeSpace, b: DickeSpace) -> None:
    if a != b:
        raise DimensionMismatchError(f"space mismatch: {a} vs {b}")


def build_splus(space: DickeSpace) -> SymmetricOperator:
    """Raising operator: S_+|m> = sqrt((m+1)(N-m)) |m+1>.

    Independent of the convention (which only rescales S_x, S_y, S_z).
    """
    n = space.n_emitters
    m = np.arange(n)
    mat = np.zeros((n + 1, n + 1), dtype=complex)
    mat[m + 1, m] = np.sqrt((m + 1.0) * (n - m))
    return SymmetricOperator(space, mat)


def build_sminus(space: DickeSpace) -> SymmetricOperator:
    """Lowering operator: S_-|m> = sqrt(m(N-m+1)) |m-1>.  Adjoint of S_+."""
    return build_splus(space).dagger()


def build_sz(space: DickeSpace) -> SymmetricOperator:
    """S_z|m> = (m - N/2)|m> (SPIN_J) or twice that (PAULI_SUM)."""
    n = space.n_emitters
    diag = np.arange(n + 1) - n / 2
    if space.convention is Convention.PAULI_SUM:
        diag = 2 * diag
    return SymmetricOperator(space, np.diag(diag.astype(complex)), hermitian=True)


def build_sx(space: DickeSpace) -> SymmetricOperator:
    sp = build_splus(space).matrix
    sm = sp.conj().T
    mat = sp + sm
    if space.convention is Convention.SPIN_J:
        mat = mat / 2
    return SymmetricOperator(space, mat, hermitian=True)


def build_sy(space: DickeSpace) -> SymmetricOperator:
    sp = build_splus(space).matrix
    sm = sp.conj().T
    mat = (sp - sm) / 1j
    if space.convention is Convention.SPIN_J:
        mat = mat / 2
    return SymmetricOperator(space, mat, hermitian=True)


def commutator(a: SymmetricOperator, b: SymmetricOperator) -> SymmetricOperator:
    """[a, b] = ab - ba."""
    _check_same_space(a.space, b.space)
    return SymmetricOperator(a.space, a.matrix @ b.matrix - b.matrix @ a.matrix)


def hermitian_exp(h: SymmetricOperator, scale: complex) -> SymmetricOperator:
    """exp(scale * h) for Hermitian h, via eigendecomposition.

    Unitary to machine precision whenever scale is purely imaginary.
    """
    dev = np.max(np.abs(h.matrix - h.matrix.conj().T))
    if dev > HERMITIAN_TOL:
        raise NotHermitianError(f"generator deviates from Hermitian by {dev:.3e}")
    sym = (h.matrix + h.matrix.conj().T) / 2
    w, v = np.linalg.eigh(sym)
    mat = (v * np.exp(scale * w)) @ v.conj().T
    return SymmetricOperator(h.space, mat)


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(a: QuantumState, b: QuantumState) -> float:
    """Fidelity in [0, 1].

    pure/pure: |<a|b>|^2, pure/mixed: <a|rho|a>, mixed/mixed: Uhlmann
    (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.
    """
    _check_same_space(a.space, b.space)
    if a.is_pure or b.is_pure:
        pure, other = (a, b) if a.is_pure else (b, a)
        return _fidelity_with_vector(pure.amplitudes, other)
    root = _psd_sqrt(a.density)
    inner = _psd_sqrt(root @ b.density @ root)
    return float(min(max(np.trace(inner).real ** 2, 0.0), 1.0))


def _fidelity_with_vector(vec: np.ndarray, s: QuantumState) -> float:
    """Fidelity of the unit amplitude vector ``vec`` with ``s`` (same space):
    |<s|vec>|^2 for a pure s, <vec|rho|vec> for a density."""
    if s.is_pure:
        val = abs(np.vdot(s.amplitudes, vec)) ** 2
    else:
        val = np.vdot(vec, s.density @ vec).real
    return float(min(max(val, 0.0), 1.0))
