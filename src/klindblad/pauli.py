"""Pauli string algebra in a symplectic bit-pair encoding.

A Pauli string on ``num_sites`` qubits is stored as two integers ``x_bits``
and ``z_bits``.  Site ``i`` occupies bit position ``num_sites - 1 - i`` (so
site 0 is the most significant bit, matching its role as the leftmost factor
of the tensor product), and the per-site letter is encoded as

    I = (x=0, z=0)    X = (1, 0)    Z = (0, 1)    Y = (1, 1)

with the sign convention Y = i·X·Z.  This is the one module that knows the
encoding: the product rule S_p S_q = i^e S_{p xor q} (:func:`product_exponent`),
the commutation test (:func:`anticommutes`), the i^k table (``PHASES``) and
the action P|b> on computational states (:func:`basis_state_images`) all live
here, broadcast over uint64 bit arrays.  The superoperator builders call
them; a single pair of strings is a call on one-element arrays, since numpy
scalars warn on the uint8 wraparound of :func:`product_exponent`.

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
    "PauliBasis",
    "PHASES",
    "product_exponent",
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

    @property
    def weight(self) -> int:
        """Number of non-identity sites."""
        return (self.x_bits | self.z_bits).bit_count()

    def __str__(self) -> str:
        return self.to_label()


def product_exponent(x1, z1, x2, z2) -> np.ndarray:
    """e with S_1 S_2 = i^e S_{1 xor 2}, broadcast over uint64 bit arrays.

    Writing each string as i^{|x.z|} X^x Z^z and commuting the Z factors of
    S_1 past the X factors of S_2 costs (-1)^{|z_1 . x_2|}.  The bit counts
    are uint8, and their wraparound below zero is harmless modulo 4.
    """
    count = np.bitwise_count
    return (count(x1 & z1) + count(x2 & z2) - count((x1 ^ x2) & (z1 ^ z2))
            + 2 * count(z1 & x2)) % 4


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

    Wraps :func:`enumerate_basis` and adds one dense table from the key
    (x << l) | z of every string on l sites to its index, -1 outside the
    weight window, contiguous sector slices, and uint64 bit arrays for
    vectorized symplectic work.  The table costs O(4^l) whatever the window.
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
        for arr in (self.x_array, self.z_array, self.weight_array):
            arr.setflags(write=False)

        self._table = np.full(4**num_sites, -1, dtype=np.int64)
        self._table[(self.x_array << np.uint64(num_sites)) | self.z_array] = np.arange(len(self))

    def __len__(self) -> int:
        return len(self._strings)

    def __iter__(self) -> Iterator[PauliString]:
        return iter(self._strings)

    def __getitem__(self, i: int) -> PauliString:
        return self._strings[i]

    def _position(self, string: PauliString) -> int:
        if string.num_sites != self.num_sites:
            return -1
        return int(self._table[(string.x_bits << self.num_sites) | string.z_bits])

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

    def lookup(self, x_arr: np.ndarray, z_arr: np.ndarray) -> np.ndarray:
        """Vectorized index lookup; -1 marks strings not in the basis."""
        x_arr, z_arr = np.asarray(x_arr, np.uint64), np.asarray(z_arr, np.uint64)
        return self._table[(x_arr << np.uint64(self.num_sites)) | z_arr]
