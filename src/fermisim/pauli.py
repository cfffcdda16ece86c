"""Exact algebra of Pauli strings and weighted Pauli sums.

Conventions used throughout the package:

* A string's factors are listed left to right in tensor-product order, so
  ``factors[0]`` is the leftmost factor.  Factor position ``p`` acts on
  qubit ``p``, and qubit 0 is the most significant bit of a dense basis
  index (big-endian).  The fermionic mode <-> qubit assignment lives in
  :mod:`fermisim.fermions`; this module never mentions modes.
* Strings are built from ``{I, X, Y, Z}`` only; any other operator,
  such as a fermionic ladder operator, is a :class:`WeightedPauliSum`.
* Coefficient comparisons use an absolute tolerance of 1e-12; everything
  here is exact at double precision.

All objects are immutable values and all operations are pure functions,
so they are safe to share across threads or processes.
"""
from __future__ import annotations

import cmath
import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

PAULI_LABELS = ("I", "X", "Y", "Z")

COEFF_TOL = 1e-12
COMMUTATOR_TOL = 1e-12
DENSE_QUBIT_LIMIT = 12

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Single-site group table: (a, b) -> (phase, label) with a*b = phase * label.
_PRODUCT = {}
for _lbl in PAULI_LABELS:
    _PRODUCT[("I", _lbl)] = (1.0, _lbl)
    _PRODUCT[(_lbl, "I")] = (1.0, _lbl)
    _PRODUCT[(_lbl, _lbl)] = (1.0, "I")
for _a, _b, _c in (("X", "Y", "Z"), ("Y", "Z", "X"), ("Z", "X", "Y")):
    _PRODUCT[(_a, _b)] = (1j, _c)
    _PRODUCT[(_b, _a)] = (-1j, _c)


class CapacityError(ValueError):
    """Raised when a dense conversion exceeds the desk-scale qubit guard."""


class DimensionError(ValueError):
    """Raised when operands act on different qubit counts."""


def check_dense_width(qubits: int, what: str = "dense conversion") -> None:
    """The desk-scale guard: a dense object on more than
    ``DENSE_QUBIT_LIMIT`` qubits raises :class:`CapacityError`."""
    if qubits > DENSE_QUBIT_LIMIT:
        raise CapacityError(f"{what} needs {qubits} qubits; capped at "
                            f"{DENSE_QUBIT_LIMIT}")


def _check_same_width(a, b):
    if a.qubit_count != b.qubit_count:
        raise DimensionError(
            f"qubit counts differ: {a.qubit_count} vs {b.qubit_count}"
        )


@dataclass(frozen=True)
class PauliString:
    """Tensor product of {I, X, Y, Z} factors with a unit-modulus phase."""

    factors: tuple[str, ...]
    phase: complex = 1.0 + 0j

    def __post_init__(self):
        for f in self.factors:
            if f not in PAULI_LABELS:
                raise ValueError(f"unknown factor label {f!r}")
        if not abs(abs(self.phase) - 1.0) <= COEFF_TOL:
            raise ValueError(f"phase must be unit modulus, got {self.phase}")

    @classmethod
    def from_label(cls, label: str, phase: complex = 1.0) -> PauliString:
        """Build from a compact label like ``"XIZ"``."""
        return cls(tuple(label), phase)

    @property
    def qubit_count(self) -> int:
        return len(self.factors)

    def label(self) -> str:
        return "".join(self.factors)

    def __mul__(self, other: PauliString) -> PauliString:
        """Group product with accumulated phase."""
        if not isinstance(other, PauliString):
            return NotImplemented
        _check_same_width(self, other)
        phase = self.phase * other.phase
        out = []
        for a, b in zip(self.factors, other.factors):
            p, c = _PRODUCT[(a, b)]
            phase *= p
            out.append(c)
        return PauliString(tuple(out), phase)

    def dense(self) -> np.ndarray:
        """Dense matrix of this single string."""
        check_dense_width(self.qubit_count)
        out = np.array([[self.phase]], dtype=complex)
        for f in self.factors:
            d = 2 * len(out)  # np.kron(out, m), without kron's overhead
            out = (out[:, None, :, None]
                   * PAULI_MATRICES[f][None, :, None, :]).reshape(d, d)
        return out


def read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array``, copied first unless it owns its
    data; its writeable flag cannot be set back, because the array it
    views is read-only too."""
    if not array.flags.owndata:
        array = array.copy()
    array.flags.writeable = False
    return array.view()


@functools.cache
def pauli_basis(qubit_count: int) -> np.ndarray:
    """The 4^n Pauli strings on ``qubit_count`` qubits as one read-only
    (4^n, 2^n, 2^n) stack, in label order (I, X, Y, Z per factor, the
    first factor most significant)."""
    strings = itertools.product(PAULI_LABELS, repeat=qubit_count)
    return read_only(np.array([PauliString(s).dense() for s in strings]))


def _canonical_terms(qubit_count, raw_terms, offset):
    """Fold phases into coefficients, combine like strings, split identity."""
    acc: dict[tuple[str, ...], complex] = {}
    for coeff, string in raw_terms:
        if string.qubit_count != qubit_count:
            raise DimensionError(
                f"term width {string.qubit_count} != sum width {qubit_count}"
            )
        key = string.factors
        acc[key] = acc.get(key, 0.0) + complex(coeff) * string.phase
    terms = []
    identity = ("I",) * qubit_count
    for key in sorted(acc):
        c = acc[key]
        if abs(c) <= COEFF_TOL:
            continue
        if key == identity and abs(c.imag) <= COEFF_TOL:
            offset += c.real
            continue
        terms.append((c, PauliString(key)))
    return tuple(terms), float(offset)


@dataclass(frozen=True)
class WeightedPauliSum:
    """Linear combination of Pauli strings over a fixed qubit count.

    The all-identity component is kept separately in ``scalar_offset``
    (it only ever contributes a global phase to evolutions).  Terms are
    stored canonically: phases folded into coefficients, like strings
    combined, deterministic label order.  Every constructor, the bare
    one included, rejects a non-finite coefficient or offset.
    """

    qubit_count: int
    terms: tuple[tuple[complex, PauliString], ...] = ()
    scalar_offset: float = 0.0

    def __post_init__(self):
        for c, s in self.terms:
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient {c} of {s.label()} is not "
                                 f"finite")
        if not math.isfinite(self.scalar_offset):
            raise ValueError(f"scalar offset {self.scalar_offset} is not "
                             f"finite")

    @classmethod
    def from_terms(cls, qubit_count, terms, scalar_offset=0.0) -> WeightedPauliSum:
        norm = []
        for coeff, string in terms:
            if isinstance(string, str):
                string = PauliString.from_label(string)
            norm.append((coeff, string))
        t, off = _canonical_terms(qubit_count, norm, scalar_offset)
        return cls(qubit_count, t, off)

    @classmethod
    def identity(cls, qubit_count, value=1.0) -> WeightedPauliSum:
        return cls.from_terms(qubit_count, (), value)

    @property
    def term_dict(self) -> dict[str, complex]:
        return {s.label(): c for c, s in self.terms}

    def dagger(self) -> WeightedPauliSum:
        """Adjoint: every {I, X, Y, Z} string is Hermitian."""
        return WeightedPauliSum(self.qubit_count, tuple(
            (c.conjugate(), s) for c, s in self.terms), self.scalar_offset)

    def __add__(self, other: WeightedPauliSum) -> WeightedPauliSum:
        _check_same_width(self, other)
        return WeightedPauliSum.from_terms(
            self.qubit_count,
            list(self.terms) + list(other.terms),
            self.scalar_offset + other.scalar_offset,
        )

    def __sub__(self, other: WeightedPauliSum) -> WeightedPauliSum:
        return self + (-1.0) * other

    def _with_offset_term(self) -> list:
        """The terms, plus a nonzero offset as an all-identity term.

        Canonicalisation routes a product's identity part back: it stays
        an offset when real and becomes a term otherwise."""
        if not self.scalar_offset:
            return list(self.terms)
        ident = PauliString(("I",) * self.qubit_count)
        return [*self.terms, (self.scalar_offset, ident)]

    def __rmul__(self, scalar) -> WeightedPauliSum:
        scalar = complex(scalar)
        scaled = [(scalar * c, s) for c, s in self._with_offset_term()]
        return WeightedPauliSum.from_terms(self.qubit_count, scaled)

    def __mul__(self, other: WeightedPauliSum) -> WeightedPauliSum:
        """Operator product, distributing over terms via the group table."""
        if not isinstance(other, WeightedPauliSum):
            return NotImplemented
        _check_same_width(self, other)
        right = other._with_offset_term()
        prods = [(ca * cb, sa * sb) for ca, sa in self._with_offset_term()
                 for cb, sb in right]
        return WeightedPauliSum.from_terms(self.qubit_count, prods)

    def is_hermitian(self, tol: float = COEFF_TOL) -> bool:
        """True iff the sum equals its conjugate transpose.

        Exact on the canonical form: {I,X,Y,Z} strings are Hermitian, so
        the sum is Hermitian iff every coefficient is real.
        """
        return all(abs(c.imag) <= tol for c, _ in self.terms)

    def is_zero(self, tol: float = COEFF_TOL) -> bool:
        return not self.terms and abs(self.scalar_offset) <= tol

    def to_dense(self) -> np.ndarray:
        """Dense matrix: sum of kron products plus offset * identity."""
        check_dense_width(self.qubit_count)
        dim = 2 ** self.qubit_count
        out = self.scalar_offset * np.eye(dim, dtype=complex)
        for c, s in self.terms:
            out += c * s.dense()
        return out

    def to_json_dict(self) -> dict:
        return {
            "n": self.qubit_count,
            "offset": self.scalar_offset,
            "terms": [
                {"c": [c.real, c.imag], "p": s.label()} for c, s in self.terms
            ],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> WeightedPauliSum:
        terms = [
            (complex(t["c"][0], t["c"][1]), PauliString.from_label(t["p"]))
            for t in payload["terms"]
        ]
        return cls.from_terms(payload["n"], terms, payload.get("offset", 0.0))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> WeightedPauliSum:
        return cls.from_json_dict(json.loads(text))


def commutes(a: WeightedPauliSum, b: WeightedPauliSum,
             tol: float = COMMUTATOR_TOL) -> bool:
    """True iff the dense commutator vanishes (max-abs entry <= tol)."""
    _check_same_width(a, b)
    da, db = a.to_dense(), b.to_dense()
    comm = da @ db - db @ da
    return bool(np.max(np.abs(comm)) <= tol)
