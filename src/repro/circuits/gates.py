"""Quantum gate definitions.

This module provides the gate vocabulary used throughout the Atlas
reproduction: every gate knows its unitary matrix, which of its qubits are
*insular* (Definition 2 of the paper), and whether it is diagonal or
anti-diagonal.  Insularity is the key property exploited by the staging
algorithm: insular qubits may be mapped to regional/global physical qubits
without incurring communication, because each output amplitude depends on a
single input amplitude along that qubit axis.  Insularity and the
(anti-)diagonal flags depend on a gate's angles only through its sparsity
pattern, so each gate computes them in one structure pass
(:meth:`Gate.structure`) looked up by ``(name, pattern)``.

Gate matrices follow the little-endian qubit convention used by the rest of
the package: ``qubits[0]`` is the least-significant qubit of the matrix
index.  For a controlled gate the control qubits come *after* the target
qubits in the matrix ordering (the matrix is built as
``|1..1><1..1| (x) U + rest (x) I``), matching :func:`controlled_matrix`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Gate",
    "GateSpec",
    "GateStructure",
    "PATTERN_ATOL",
    "GATE_SPECS",
    "gate_matrix",
    "controlled_matrix",
    "is_diagonal",
    "is_antidiagonal",
    "make_gate",
    "SUPPORTED_GATES",
]


# ---------------------------------------------------------------------------
# Elementary matrices
# ---------------------------------------------------------------------------

_SQ2 = 1.0 / math.sqrt(2.0)

_I2 = np.eye(2, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=np.complex128)
_S = np.array([[1, 0], [0, 1j]], dtype=np.complex128)
_SDG = np.array([[1, 0], [0, -1j]], dtype=np.complex128)
_T = np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=np.complex128)
_TDG = np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=np.complex128)
_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=np.complex128)


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _rz(theta: float) -> np.ndarray:
    return np.array(
        [[cmath.exp(-1j * theta / 2), 0], [0, cmath.exp(1j * theta / 2)]],
        dtype=np.complex128,
    )


def _p(theta: float) -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(1j * theta)]], dtype=np.complex128)


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=np.complex128,
    )


def _u2(phi: float, lam: float) -> np.ndarray:
    return _u3(math.pi / 2, phi, lam)


def _rzz(theta: float) -> np.ndarray:
    e_m = cmath.exp(-1j * theta / 2)
    e_p = cmath.exp(1j * theta / 2)
    return np.diag([e_m, e_p, e_p, e_m]).astype(np.complex128)


def _rxx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    m = np.eye(4, dtype=np.complex128) * c
    m[0, 3] = m[3, 0] = m[1, 2] = m[2, 1] = -1j * s
    return m


def _ryy(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    m = np.eye(4, dtype=np.complex128) * c
    m[0, 3] = m[3, 0] = 1j * s
    m[1, 2] = m[2, 1] = -1j * s
    return m


_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)


def controlled_matrix(base: np.ndarray, num_controls: int = 1) -> np.ndarray:
    """Build the matrix of a controlled-U gate.

    The target qubits occupy the least-significant positions of the matrix
    index and the control qubits the most-significant ones, so the gate acts
    on the qubit tuple ``(*targets, *controls)``.

    Parameters
    ----------
    base:
        Unitary matrix of the underlying gate ``U`` (shape ``2^t × 2^t``).
    num_controls:
        Number of control qubits to add.

    Returns
    -------
    numpy.ndarray
        The ``2^(t+c) × 2^(t+c)`` controlled-U matrix.
    """
    dim_t = base.shape[0]
    dim = dim_t * (2 ** num_controls)
    out = np.eye(dim, dtype=np.complex128)
    # Controls are the high bits; the "all controls |1>" block is the last
    # dim_t × dim_t diagonal block.
    out[dim - dim_t :, dim - dim_t :] = base
    return out


def is_diagonal(matrix: np.ndarray, atol: float = 1e-12) -> bool:
    """Return True if *matrix* is diagonal (all off-diagonal entries ~ 0)."""
    return bool(np.allclose(matrix, np.diag(np.diag(matrix)), atol=atol))


def is_antidiagonal(matrix: np.ndarray, atol: float = 1e-12) -> bool:
    """Return True if *matrix* is anti-diagonal (non-zeros only on the anti-diagonal)."""
    flipped = np.fliplr(matrix)
    return bool(np.allclose(flipped, np.diag(np.diag(flipped)), atol=atol))


# ---------------------------------------------------------------------------
# Gate specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateSpec:
    """Static description of a gate type.

    Attributes
    ----------
    name:
        Canonical lowercase gate name (OpenQASM-compatible where possible).
    num_qubits:
        Number of qubits the gate acts on.
    num_params:
        Number of real parameters.
    num_controls:
        Number of control qubits (always the trailing qubits of the gate's
        qubit tuple).  Control qubits are insular (Definition 2).
    matrix_fn:
        Callable mapping the parameter tuple to the unitary matrix.
    """

    name: str
    num_qubits: int
    num_params: int
    num_controls: int
    matrix_fn: object

    def matrix(self, params: Sequence[float] = ()) -> np.ndarray:
        if len(params) != self.num_params:
            raise ValueError(
                f"gate {self.name!r} expects {self.num_params} parameters, "
                f"got {len(params)}"
            )
        return self.matrix_fn(*params)


def _const(matrix: np.ndarray):
    def fn() -> np.ndarray:
        return matrix

    return fn


GATE_SPECS: dict[str, GateSpec] = {}


def _register(name: str, num_qubits: int, num_params: int, num_controls: int, fn) -> None:
    GATE_SPECS[name] = GateSpec(name, num_qubits, num_params, num_controls, fn)


# Single-qubit constant gates.
_register("id", 1, 0, 0, _const(_I2))
_register("x", 1, 0, 0, _const(_X))
_register("y", 1, 0, 0, _const(_Y))
_register("z", 1, 0, 0, _const(_Z))
_register("h", 1, 0, 0, _const(_H))
_register("s", 1, 0, 0, _const(_S))
_register("sdg", 1, 0, 0, _const(_SDG))
_register("t", 1, 0, 0, _const(_T))
_register("tdg", 1, 0, 0, _const(_TDG))
_register("sx", 1, 0, 0, _const(_SX))
# Single-qubit parameterised gates.
_register("rx", 1, 1, 0, _rx)
_register("ry", 1, 1, 0, _ry)
_register("rz", 1, 1, 0, _rz)
_register("p", 1, 1, 0, _p)
_register("u1", 1, 1, 0, _p)
_register("u2", 1, 2, 0, _u2)
_register("u3", 1, 3, 0, _u3)
_register("u", 1, 3, 0, _u3)
# Two-qubit gates: target first, control last.
_register("cx", 2, 0, 1, lambda: controlled_matrix(_X))
_register("cy", 2, 0, 1, lambda: controlled_matrix(_Y))
_register("cz", 2, 0, 1, lambda: controlled_matrix(_Z))
_register("ch", 2, 0, 1, lambda: controlled_matrix(_H))
_register("cp", 2, 1, 1, lambda theta: controlled_matrix(_p(theta)))
_register("cu1", 2, 1, 1, lambda theta: controlled_matrix(_p(theta)))
_register("crx", 2, 1, 1, lambda theta: controlled_matrix(_rx(theta)))
_register("cry", 2, 1, 1, lambda theta: controlled_matrix(_ry(theta)))
_register("crz", 2, 1, 1, lambda theta: controlled_matrix(_rz(theta)))
_register("swap", 2, 0, 0, _const(_SWAP))
_register("rzz", 2, 1, 0, _rzz)
_register("rxx", 2, 1, 0, _rxx)
_register("ryy", 2, 1, 0, _ryy)
# Three-qubit gates.
_register("ccx", 3, 0, 2, lambda: controlled_matrix(_X, 2))
_register("ccz", 3, 0, 2, lambda: controlled_matrix(_Z, 2))
_register("cswap", 3, 0, 1, lambda: controlled_matrix(_SWAP, 1))

SUPPORTED_GATES = tuple(sorted(GATE_SPECS))


@lru_cache(maxsize=65536)
def _cached_matrix(name: str, params: tuple[float, ...]) -> np.ndarray:
    spec = GATE_SPECS[name]
    matrix = spec.matrix(params)
    matrix.setflags(write=False)
    return matrix


def gate_matrix(name: str, params: Sequence[float] = ()) -> np.ndarray:
    """Return the unitary matrix of gate *name* with the given parameters.

    Matrices are cached by ``(name, params)`` and returned as read-only
    arrays; callers that need to mutate the result must copy it.
    """
    if name not in GATE_SPECS:
        raise ValueError(f"unsupported gate {name!r}")
    return _cached_matrix(name, tuple(params))


#: Magnitude at or below which a matrix entry is zero in a gate's sparsity
#: pattern (the tolerance :func:`is_diagonal`/:func:`is_antidiagonal` use).
PATTERN_ATOL = 1e-12


@dataclass(frozen=True)
class GateStructure:
    """What a gate's sparsity pattern fixes (the gate structure pass).

    Attributes
    ----------
    pattern:
        ``np.packbits`` of the row-major boolean pattern
        ``|matrix| > PATTERN_ATOL`` — the bytes
        :meth:`repro.circuits.circuit.Circuit.structural_key` hashes.
    diagonal, antidiagonal:
        Whether the pattern has non-zeros only on the (anti-)diagonal.
    insular, non_insular:
        Positions in the gate's qubit tuple that are / are not insular
        (Definition 2), in :meth:`Gate.insular_qubits` order.
    """

    pattern: bytes
    diagonal: bool
    antidiagonal: bool
    insular: tuple[int, ...]
    non_insular: tuple[int, ...]


def _classify(name: str, matrix: np.ndarray, pattern: bytes) -> GateStructure:
    spec = GATE_SPECS[name]
    k, nc = spec.num_qubits, spec.num_controls
    mask = np.abs(matrix) > PATTERN_ATOL
    off_diagonal = ~np.eye(mask.shape[0], dtype=bool)
    diagonal = not np.any(mask & off_diagonal)
    antidiagonal = not np.any(np.fliplr(mask) & off_diagonal)
    # Controls (the trailing qubits) are always insular.
    insular = list(range(k - nc, k))
    if nc == 0 and k == 1:
        if diagonal or antidiagonal:
            insular.append(0)
    elif nc > 0:
        # Targets of a controlled gate are insular only when the whole
        # gate matrix is diagonal (cz, cp, crz, ccz, ...): then every
        # output amplitude depends on exactly one input amplitude along
        # every qubit, which is the footnote-2 case of Definition 2.
        if diagonal:
            insular.extend(range(k - nc))
    elif name == "rzz":
        insular.extend(range(k))
    return GateStructure(
        pattern=pattern,
        diagonal=diagonal,
        antidiagonal=antidiagonal,
        insular=tuple(insular),
        non_insular=tuple(i for i in range(k) if i not in insular),
    )


# Keyed by (gate name, pattern), never by params: a fresh angle with an
# already-seen pattern is one dict hit (a constant gate, with one pattern,
# is keyed by its name alone).  Shared across threads (entries are
# immutable; a race at worst classifies twice) and bounded — cleared when
# full, like the simulator's matrix-analysis memo.
_STRUCTURES: dict[object, GateStructure] = {}
_STRUCTURES_MAX = 4096


def _pattern(matrix: np.ndarray) -> bytes:
    """``np.packbits`` of ``|matrix| > PATTERN_ATOL``, row-major — as scalar
    tests, several times faster than the array calls on 2x2/4x4 matrices."""
    bits = 0
    for value in matrix.ravel().tolist():
        bits = bits << 1 | (abs(value) > PATTERN_ATOL)
    pad = -matrix.size % 8
    return (bits << pad).to_bytes((matrix.size + pad) // 8, "big")


def _gate_structure(name: str, params: tuple[float, ...]) -> GateStructure:
    """The :class:`GateStructure` of gate *name* with parameters *params*."""
    matrix = _cached_matrix(name, params)
    # A constant gate has one pattern: its name is the key.
    key: object = (name, _pattern(matrix)) if params else name
    structure = _STRUCTURES.get(key)
    if structure is None:
        structure = _classify(name, matrix, _pattern(matrix))
        if len(_STRUCTURES) >= _STRUCTURES_MAX:
            _STRUCTURES.clear()
        _STRUCTURES[key] = structure
    return structure


@lru_cache(maxsize=65536)
def _cached_diagonal(name: str, params: tuple[float, ...]) -> np.ndarray:
    """Diagonal entries of the gate's matrix as a cached read-only array."""
    diagonal = np.ascontiguousarray(np.diag(_cached_matrix(name, params)))
    diagonal.setflags(write=False)
    return diagonal


# ---------------------------------------------------------------------------
# Gate instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gate:
    """A gate applied to specific qubits of a circuit.

    Attributes
    ----------
    name:
        Gate type name (must appear in :data:`GATE_SPECS`).
    qubits:
        Tuple of logical qubit indices the gate acts on.  For controlled
        gates the targets come first and the controls last, matching the
        matrix ordering of :func:`controlled_matrix`.
    params:
        Tuple of real gate parameters.
    """

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        spec = GATE_SPECS.get(self.name)
        if spec is None:
            raise ValueError(f"unsupported gate {self.name!r}")
        if len(self.qubits) != spec.num_qubits:
            raise ValueError(
                f"gate {self.name!r} acts on {spec.num_qubits} qubits, "
                f"got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"gate {self.name!r} has duplicate qubits {self.qubits}")
        if len(self.params) != spec.num_params:
            raise ValueError(
                f"gate {self.name!r} expects {spec.num_params} parameters, "
                f"got {len(self.params)}"
            )
        if not all(math.isfinite(p) for p in self.params):
            raise ValueError(
                f"gate {self.name!r} has non-finite parameters {self.params}"
            )

    # -- basic properties ---------------------------------------------------

    @property
    def spec(self) -> GateSpec:
        return GATE_SPECS[self.name]

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def matrix(self) -> np.ndarray:
        """Unitary matrix of this gate (little-endian over ``self.qubits``).

        The returned array is a cached, read-only instance shared between
        equal gates; copy it before mutating.
        """
        return _cached_matrix(self.name, self.params)

    def diagonal(self) -> np.ndarray:
        """Diagonal entries of this gate's matrix (cached, read-only).

        Only meaningful when :meth:`is_diagonal` is true; used by the
        simulator's in-place diagonal fast path.
        """
        return _cached_diagonal(self.name, self.params)

    # -- insularity (Definition 2) -------------------------------------------

    @property
    def control_qubits(self) -> tuple[int, ...]:
        """The control qubits (trailing qubits) of a controlled gate."""
        nc = self.spec.num_controls
        if nc == 0:
            return ()
        return self.qubits[-nc:]

    @property
    def target_qubits(self) -> tuple[int, ...]:
        nc = self.spec.num_controls
        if nc == 0:
            return self.qubits
        return self.qubits[:-nc]

    def structure(self) -> GateStructure:
        """This gate's :class:`GateStructure`, computed once per instance."""
        structure = self.__dict__.get("_structure")
        if structure is None:
            structure = _gate_structure(self.name, self.params)
            self.__dict__["_structure"] = structure
        return structure

    def insular_qubits(self) -> tuple[int, ...]:
        """Qubits of this gate that are insular (Definition 2 of the paper).

        * For a single-qubit gate the qubit is insular iff the gate matrix is
          diagonal or anti-diagonal.
        * For a controlled-U gate all control qubits are insular.  If the
          controlled operation itself is diagonal on its targets (e.g.
          ``cz``, ``cp``, ``crz``), the targets are insular too; ``rzz`` is
          insular on both qubits.

        Read off the gate's sparsity pattern (:meth:`structure`), so it
        depends on the angles only through which entries are zero.
        """
        qubits = self.qubits
        return tuple(qubits[i] for i in self.structure().insular)

    def non_insular_qubits(self) -> tuple[int, ...]:
        """Qubits that are *not* insular — the ones the stager must keep local."""
        qubits = self.qubits
        return tuple(qubits[i] for i in self.structure().non_insular)

    def is_diagonal(self) -> bool:
        """True if the full gate matrix is diagonal (up to :data:`PATTERN_ATOL`)."""
        return self.structure().diagonal

    def is_antidiagonal(self) -> bool:
        """True if the full gate matrix is anti-diagonal (up to :data:`PATTERN_ATOL`)."""
        return self.structure().antidiagonal

    # -- misc ----------------------------------------------------------------

    def remap(self, mapping: dict[int, int]) -> "Gate":
        """Return a copy of this gate with qubits renamed through *mapping*."""
        return Gate(self.name, tuple(mapping[q] for q in self.qubits), self.params)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.params:
            pstr = "(" + ", ".join(f"{p:.6g}" for p in self.params) + ")"
        else:
            pstr = ""
        return f"{self.name}{pstr} {list(self.qubits)}"


def make_gate(name: str, qubits: Iterable[int], params: Iterable[float] = ()) -> Gate:
    """Convenience constructor for :class:`Gate`."""
    return Gate(name, tuple(int(q) for q in qubits), tuple(float(p) for p in params))
