"""Pauli string algebra in a symplectic bit-pair encoding.

A Pauli string on ``num_sites`` qubits is stored as two integers ``x_bits``
and ``z_bits``.  Site ``i`` occupies bit position ``num_sites - 1 - i`` (so
site 0 is the most significant bit, matching its role as the leftmost factor
of the tensor product), and the per-site letter is encoded as

    I = (x=0, z=0)    X = (1, 0)    Z = (0, 1)    Y = (1, 1)

with the sign convention Y = i·X·Z.  Products and commutators are computed
purely with bit arithmetic; the accumulated scalar is always a fourth root of
unity and is tracked exactly.

Labels read site 0 leftmost: ``PauliString.from_label("XIZ")`` is X on site 0,
Z on site 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ResourceLimitError

__all__ = [
    "PauliString",
    "PhasedPauli",
    "PauliBasis",
    "multiply",
    "commutes",
    "commutator",
    "enumerate_basis",
    "to_dense",
    "sector_dimension",
]

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LETTER = {bits: letter for letter, bits in _LETTER_TO_BITS.items()}

# i**k for k = 0..3; all phases produced by the algebra live in this set.
_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)

# to_dense materializes a 2^n x 2^n complex matrix; 10 sites is 16 MiB, the
# next power of four would start to crowd small machines for no test-relevant
# gain.
MAX_DENSE_SITES = 10


@dataclass(frozen=True, order=True)
class PauliString:
    """Immutable Pauli string; identity is (x_bits=0, z_bits=0)."""

    num_sites: int
    x_bits: int
    z_bits: int

    def __post_init__(self) -> None:
        if self.num_sites < 1:
            raise ValueError(f"num_sites must be >= 1, got {self.num_sites}")
        top = 1 << self.num_sites
        if not (0 <= self.x_bits < top and 0 <= self.z_bits < top):
            raise ValueError(
                f"bit fields out of range for {self.num_sites} sites: "
                f"x={self.x_bits:#x} z={self.z_bits:#x}"
            )

    @staticmethod
    def site_bit(num_sites: int, site: int) -> int:
        if not 0 <= site < num_sites:
            raise ValueError(f"site {site} out of range for {num_sites} sites")
        return 1 << (num_sites - 1 - site)

    @classmethod
    def identity(cls, num_sites: int) -> "PauliString":
        return cls(num_sites, 0, 0)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse ``"IXYZ"``-style labels, site 0 leftmost."""
        if not label:
            raise ValueError("empty Pauli label")
        x = z = 0
        for ch in label:
            try:
                xb, zb = _LETTER_TO_BITS[ch]
            except KeyError:
                raise ValueError(f"invalid Pauli letter {ch!r} in {label!r}") from None
            x = (x << 1) | xb
            z = (z << 1) | zb
        return cls(len(label), x, z)

    @classmethod
    def from_site_letters(
        cls, num_sites: int, site_letters: Sequence[tuple[int, str]]
    ) -> "PauliString":
        """Build a string from (site, letter) pairs; unlisted sites are identity."""
        x = z = 0
        seen = set()
        for site, letter in site_letters:
            if site in seen:
                raise ValueError(f"site {site} listed twice")
            seen.add(site)
            bit = cls.site_bit(num_sites, site)
            xb, zb = _LETTER_TO_BITS[letter]
            x |= bit * xb
            z |= bit * zb
        return cls(num_sites, x, z)

    def to_label(self) -> str:
        letters = []
        for site in range(self.num_sites):
            bit = 1 << (self.num_sites - 1 - site)
            letters.append(_BITS_TO_LETTER[(int(bool(self.x_bits & bit)), int(bool(self.z_bits & bit)))])
        return "".join(letters)

    def letter(self, site: int) -> str:
        bit = self.site_bit(self.num_sites, site)
        return _BITS_TO_LETTER[(int(bool(self.x_bits & bit)), int(bool(self.z_bits & bit)))]

    @property
    def weight(self) -> int:
        """Number of non-identity sites."""
        return (self.x_bits | self.z_bits).bit_count()

    def __str__(self) -> str:
        return self.to_label()


@dataclass(frozen=True)
class PhasedPauli:
    """A Pauli string carrying an exact fourth-root-of-unity scalar."""

    string: PauliString
    phase: complex

    def __post_init__(self) -> None:
        if self.phase not in _PHASES:
            raise ValueError(f"phase must be a fourth root of unity, got {self.phase!r}")

    def dense(self) -> np.ndarray:
        return self.phase * to_dense(self.string)


def _check_same_register(p: PauliString, q: PauliString) -> None:
    if p.num_sites != q.num_sites:
        raise ValueError(f"site-count mismatch: {p.num_sites} vs {q.num_sites}")


def multiply(p: PauliString, q: PauliString) -> PhasedPauli:
    """Exact product: dense(p) @ dense(q) == phase * dense(result).

    The phase exponent follows from writing each string as
    i^{|x.z|} X^x Z^z and commuting the Z factors of p past the X factors
    of q, which costs (-1)^{|z_p . x_q|}.
    """
    _check_same_register(p, q)
    x3 = p.x_bits ^ q.x_bits
    z3 = p.z_bits ^ q.z_bits
    exponent = (
        (p.x_bits & p.z_bits).bit_count()
        + (q.x_bits & q.z_bits).bit_count()
        - (x3 & z3).bit_count()
        + 2 * (p.z_bits & q.x_bits).bit_count()
    ) % 4
    return PhasedPauli(PauliString(p.num_sites, x3, z3), _PHASES[exponent])


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff dense(p) and dense(q) commute (symplectic form even)."""
    _check_same_register(p, q)
    anti = (p.x_bits & q.z_bits).bit_count() + (p.z_bits & q.x_bits).bit_count()
    return anti % 2 == 0


def commutator(p: PauliString, q: PauliString) -> Optional[PhasedPauli]:
    """[p, q] as 2 * phase * string, or None when the strings commute.

    The scalar 2 is left to the caller: the returned PhasedPauli satisfies
    dense(p) @ dense(q) - dense(q) @ dense(p) == 2 * phase * dense(string).
    """
    if commutes(p, q):
        return None
    return multiply(p, q)


def to_dense(p: PauliString) -> np.ndarray:
    """Dense complex matrix of the string, site 0 as the leftmost kron factor.

    Uses the permutation structure P|b> = i^{|x.z|} (-1)^{|b.z|} |b xor x>
    instead of repeated Kronecker products.
    """
    if p.num_sites > MAX_DENSE_SITES:
        raise ResourceLimitError(
            f"dense form of a {p.num_sites}-site string exceeds the "
            f"{MAX_DENSE_SITES}-site guardrail"
        )
    dim = 1 << p.num_sites
    cols = np.arange(dim, dtype=np.uint64)
    rows = cols ^ np.uint64(p.x_bits)
    signs = 1.0 - 2.0 * (
        np.bitwise_count(cols & np.uint64(p.z_bits)).astype(np.int64) % 2
    )
    out = np.zeros((dim, dim), dtype=complex)
    out[rows.astype(np.intp), cols.astype(np.intp)] = _PHASES[
        (p.x_bits & p.z_bits).bit_count() % 4
    ] * signs
    return out


def sector_dimension(num_sites: int, weight: int) -> int:
    """Number of Pauli strings of exactly the given weight: C(n, k) 3^k."""
    if not 0 <= weight <= num_sites:
        raise ValueError(f"weight {weight} out of range for {num_sites} sites")
    return comb(num_sites, weight) * 3**weight


def enumerate_basis(
    num_sites: int, max_weight: Optional[int] = None, min_weight: int = 0
) -> list[PauliString]:
    """All strings with min_weight <= weight <= max_weight.

    Ordering is weight-major, then lexicographic in the (site, letter)
    sequence with letter order X < Y < Z.  This ordering is part of the
    package's data contract (it fixes matrix row/column meanings).
    """
    if max_weight is None:
        max_weight = num_sites
    if not 0 <= min_weight <= max_weight <= num_sites:
        raise ValueError(
            f"invalid weight window [{min_weight}, {max_weight}] for {num_sites} sites"
        )
    out: list[PauliString] = []
    for k in range(min_weight, max_weight + 1):
        if k == 0:
            out.append(PauliString.identity(num_sites))
            continue
        for sites in combinations(range(num_sites), k):
            for letters in product("XYZ", repeat=k):
                out.append(
                    PauliString.from_site_letters(num_sites, list(zip(sites, letters)))
                )
    return out


class PauliBasis:
    """Ordered string collection with index maps and per-weight sectors.

    Wraps :func:`enumerate_basis` and adds O(1) index lookup, contiguous
    sector slices, and uint64 bit arrays for vectorized symplectic work.
    """

    def __init__(self, num_sites: int, max_weight: Optional[int] = None, min_weight: int = 0):
        self._strings = enumerate_basis(num_sites, max_weight, min_weight)
        self.num_sites = num_sites
        self.max_weight = num_sites if max_weight is None else max_weight
        self.min_weight = min_weight
        self._index = {(s.x_bits, s.z_bits): i for i, s in enumerate(self._strings)}

        offsets = {}
        pos = 0
        for k in range(min_weight, self.max_weight + 1):
            size = sector_dimension(num_sites, k)
            offsets[k] = (pos, pos + size)
            pos += size
        self._sector_bounds = offsets

        self.x_array = np.array([s.x_bits for s in self._strings], dtype=np.uint64)
        self.z_array = np.array([s.z_bits for s in self._strings], dtype=np.uint64)
        self.weight_array = np.array([s.weight for s in self._strings], dtype=np.int64)
        for arr in (self.x_array, self.z_array, self.weight_array):
            arr.setflags(write=False)

        # sorted composite keys for vectorized lookup
        self._keys = (self.x_array.astype(np.uint64) << np.uint64(num_sites)) | self.z_array
        self._key_order = np.argsort(self._keys, kind="stable")
        self._sorted_keys = self._keys[self._key_order]

    def __len__(self) -> int:
        return len(self._strings)

    def __iter__(self) -> Iterator[PauliString]:
        return iter(self._strings)

    def __getitem__(self, i: int) -> PauliString:
        return self._strings[i]

    @property
    def strings(self) -> tuple[PauliString, ...]:
        return tuple(self._strings)

    def index_of(self, string: PauliString) -> int:
        try:
            return self._index[(string.x_bits, string.z_bits)]
        except KeyError:
            raise KeyError(f"{string} not in basis (weights {self.min_weight}..{self.max_weight})") from None

    def __contains__(self, string: PauliString) -> bool:
        return (string.x_bits, string.z_bits) in self._index

    def sector(self, weight: int) -> slice:
        """Contiguous index range of the exact-weight sector."""
        try:
            lo, hi = self._sector_bounds[weight]
        except KeyError:
            raise ValueError(
                f"weight {weight} outside basis window [{self.min_weight}, {self.max_weight}]"
            ) from None
        return slice(lo, hi)

    def sector_size(self, weight: int) -> int:
        s = self.sector(weight)
        return s.stop - s.start

    def weights(self) -> range:
        return range(self.min_weight, self.max_weight + 1)

    def lookup(self, x_arr: np.ndarray, z_arr: np.ndarray) -> np.ndarray:
        """Vectorized index lookup; -1 marks strings not in the basis."""
        keys = (x_arr.astype(np.uint64) << np.uint64(self.num_sites)) | z_arr.astype(np.uint64)
        if len(self) == 4**self.num_sites:
            # complete basis: the sorted keys are 0 .. 4^l - 1
            return self._key_order[keys].astype(np.int64)
        pos = np.searchsorted(self._sorted_keys, keys)
        pos = np.minimum(pos, len(self._sorted_keys) - 1)
        found = self._sorted_keys[pos] == keys
        out = np.where(found, self._key_order[pos], -1)
        return out.astype(np.int64)
