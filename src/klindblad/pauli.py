"""Pauli string algebra in a symplectic bit-pair encoding.

A Pauli string on ``num_sites`` qubits is stored as two integers ``x_bits``
and ``z_bits``.  Site ``i`` occupies bit position ``num_sites - 1 - i`` (so
site 0 is the most significant bit, matching its role as the leftmost factor
of the tensor product), and the per-site letter is encoded as

    I = (x=0, z=0)    X = (1, 0)    Z = (0, 1)    Y = (1, 1)

with the sign convention Y = i·X·Z.  This is the one module that knows the
encoding: the commutation test (:func:`anticommutes`), the i^k table
(``PHASES``) and the action P|b> on computational states
(:func:`basis_state_images`) live here, broadcast over uint64 bit arrays, and
the product rule S_p S_q = i^e S_{p xor q} is :meth:`PauliBasis.product`,
over each string's int32 key (x << l) | z and tables over all 4^l keys.
The superoperator builders call them; a single pair of strings is a call on
one-element arrays.

Labels read site 0 leftmost: ``to_label()`` of X on site 0 and Z on site 2
is ``"XIZ"``.
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
    "PauliBasis",
    "PHASES",
    "anticommutes",
    "basis_state_images",
    "enumerate_basis",
    "to_dense",
    "sector_dimension",
]

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LETTER = {bits: letter for letter, bits in _LETTER_TO_BITS.items()}

# i**k for k = 0..3; all phases produced by the algebra live in this set.
PHASES = np.array([1, 1j, -1, -1j])

# to_dense materializes a 2^n x 2^n complex matrix and PauliBasis a 4^n int64
# index table; at 10 sites these are 16 and 8 MiB, the next power of four
# would start to crowd small machines for no test-relevant gain.
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

    @property
    def key(self) -> int:
        """(x << l) | z: the string's position in a :class:`PauliBasis`'s tables."""
        return (self.x_bits << self.num_sites) | self.z_bits

    def to_label(self) -> str:
        letters = []
        for site in range(self.num_sites):
            bit = 1 << (self.num_sites - 1 - site)
            letters.append(_BITS_TO_LETTER[(int(bool(self.x_bits & bit)), int(bool(self.z_bits & bit)))])
        return "".join(letters)

    @property
    def weight(self) -> int:
        """Number of non-identity sites."""
        return (self.x_bits | self.z_bits).bit_count()

    def __str__(self) -> str:
        return self.to_label()


def anticommutes(x1, z1, x2, z2) -> np.ndarray:
    """1 where S_1 and S_2 anticommute (odd symplectic form), else 0."""
    return (np.bitwise_count(x1 & z2) + np.bitwise_count(z1 & x2)) & 1


def basis_state_images(x, z, num_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """P|b> = i^{|x.z|} (-1)^{|b.z|} |b xor x> for every state b.

    Returns the image states b xor x and the values, with b along a new
    last axis after the broadcast shape of the bit arrays ``x`` and ``z``.
    """
    x = np.asarray(x, dtype=np.uint64)[..., None]
    z = np.asarray(z, dtype=np.uint64)[..., None]
    b = np.arange(1 << num_sites, dtype=np.uint64)
    signs = 1.0 - 2.0 * (np.bitwise_count(b & z) % 2)
    return b ^ x, PHASES[np.bitwise_count(x & z) % 4] * signs


def to_dense(p: PauliString) -> np.ndarray:
    """Dense complex matrix of the string, site 0 as the leftmost kron factor,
    scattered from :func:`basis_state_images` instead of Kronecker products."""
    if p.num_sites > MAX_DENSE_SITES:
        raise ResourceLimitError(
            f"dense form of a {p.num_sites}-site string exceeds the "
            f"{MAX_DENSE_SITES}-site guardrail"
        )
    dim = 1 << p.num_sites
    rows, values = basis_state_images(p.x_bits, p.z_bits, p.num_sites)
    out = np.zeros((dim, dim), dtype=complex)
    out[rows, np.arange(dim)] = values
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
    """Ordered string collection with an index table and per-weight sectors.

    Wraps :func:`enumerate_basis` and adds the int32 key (x << l) | z of
    every string on l sites (``keys``), two dense tables over all 4^l keys
    (the index of each string, -1 outside the weight window, and the uint8
    count |x.z| mod 4 of its Y letters), contiguous sector slices, and uint64
    bit arrays for vectorized symplectic work.  The tables cost O(4^l)
    whatever the window.
    """

    def __init__(self, num_sites: int, max_weight: Optional[int] = None, min_weight: int = 0):
        if num_sites > MAX_DENSE_SITES:
            raise ResourceLimitError(
                f"index table of a {num_sites}-site basis has 4^{num_sites} entries, "
                f"beyond the {MAX_DENSE_SITES}-site guardrail"
            )
        self._strings = enumerate_basis(num_sites, max_weight, min_weight)
        self.num_sites = num_sites
        self.max_weight = num_sites if max_weight is None else max_weight
        self.min_weight = min_weight

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
        self.keys = ((self.x_array << np.uint64(num_sites)) | self.z_array).astype(np.int32)
        for arr in (self.x_array, self.z_array, self.weight_array, self.keys):
            arr.setflags(write=False)

        self._table = np.full(4**num_sites, -1, dtype=np.int64)
        self._table[self.keys] = np.arange(len(self))
        every = np.arange(4**num_sites, dtype=np.int32)
        self._y_count = np.bitwise_count((every >> num_sites) & every) & np.uint8(3)

    def __len__(self) -> int:
        return len(self._strings)

    def __iter__(self) -> Iterator[PauliString]:
        return iter(self._strings)

    def __getitem__(self, i: int) -> PauliString:
        return self._strings[i]

    def _position(self, string: PauliString) -> int:
        if string.num_sites != self.num_sites:
            return -1
        return int(self._table[string.key])

    def index_of(self, string: PauliString) -> int:
        i = self._position(string)
        if i < 0:
            raise KeyError(f"{string} not in basis (weights {self.min_weight}..{self.max_weight})")
        return i

    def __contains__(self, string: PauliString) -> bool:
        return self._position(string) >= 0

    def sector(self, weight: int) -> slice:
        """Contiguous index range of the exact-weight sector."""
        try:
            lo, hi = self._sector_bounds[weight]
        except KeyError:
            raise ValueError(
                f"weight {weight} outside basis window [{self.min_weight}, {self.max_weight}]"
            ) from None
        return slice(lo, hi)

    def weights(self) -> range:
        return range(self.min_weight, self.max_weight + 1)

    def product(self, key_c: np.ndarray, key_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(index of c xor b, e) with S_c S_b = i^e S_{c xor b}, for strings
        given by their keys on this basis's sites and broadcast against each
        other; -1 marks a product outside the window.

        Writing each string as i^{|x.z|} X^x Z^z and commuting the Z factors
        of S_c past the X factors of S_b costs (-1)^{|z_c . x_b|}, so
        e = |x.z|_c + |x.z|_b - |x.z|_{c xor b} + 2 |z_c . x_b| mod 4, the
        first three read from the table over all keys.  The uint8 sum's
        wraparound below zero is harmless modulo 4.
        """
        key = key_c ^ key_b
        y_count = self._y_count
        exponent = np.take(y_count, key_c) + np.take(y_count, key_b)
        exponent -= np.take(y_count, key)
        z_c_x_b = (key_c & ((1 << self.num_sites) - 1)) & (key_b >> self.num_sites)
        exponent += np.bitwise_count(z_c_x_b) << np.uint8(1)
        exponent &= np.uint8(3)
        return np.take(self._table, key), exponent
