"""Pauli string algebra in a symplectic bit-pair encoding.

A Pauli string on l = ``num_sites`` qubits is the bit pair (x, z) of two
l-bit integers.  Site ``i`` occupies bit position ``l - 1 - i`` (so site 0
is the most significant bit, matching its role as the leftmost factor of
the tensor product), and the per-site letter is encoded as

    I = (x=0, z=0)    X = (1, 0)    Z = (0, 1)    Y = (1, 1)

with the sign convention Y = i·X·Z.  The package holds a string as its key
(x << l) | z, and a :class:`PauliBasis` as its keys in the order that fixes
every generator's rows and columns.  This is the one module that knows the
encoding: the commutation test (:func:`anticommutes`) and the product rule
S_p S_q = i^e S_{p xor q} (:meth:`PauliBasis.product`) read keys, the i^k
table is ``PHASES``, and the action P|b> on computational states is
:func:`basis_state_images`.  A single :class:`PauliString` is the frozen
(x, z) pair of one string, for Hamiltonian terms and dense matrices.

Labels read site 0 leftmost: ``to_label()`` of X on site 0 and Z on site 2
is ``"XIZ"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from typing import Optional, Sequence

import numpy as np

from .errors import ResourceLimitError

__all__ = [
    "PauliString",
    "PauliBasis",
    "PHASES",
    "anticommutes",
    "basis_state_images",
    "to_dense",
    "sector_dimension",
]

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LETTER = {bits: letter for letter, bits in _LETTER_TO_BITS.items()}

# i**k for k = 0..3; all phases produced by the algebra live in this set.
PHASES = np.array([1, 1j, -1, -1j])

# to_dense materializes a 2^n x 2^n complex matrix and PauliBasis two 4^n
# int64 tables; at 10 sites these are 16 and 16 MiB, the next power of four
# would start to crowd small machines for no test-relevant gain.
MAX_DENSE_SITES = 10

# The one integer type of keys and of the tables they index or fill: numpy
# reads every index array as intp, so keys or exponents of a narrower type
# would be copied at each read.
KEY = np.intp


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


def anticommutes(key_a, key_b, num_sites: int) -> np.ndarray:
    """1 where the strings of keys a and b on ``num_sites`` sites anticommute,
    else 0: the parity of the symplectic form |x_a.z_b| + |z_a.x_b|, which
    is popcount(key_a & key_b') with the x and z halves of key_b exchanged."""
    swapped = ((key_b & ((1 << num_sites) - 1)) << num_sites) | (key_b >> num_sites)
    return np.bitwise_count(key_a & swapped) & 1


def basis_state_images(key, num_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """P|b> = i^{|x.z|} (-1)^{|b.z|} |b xor x> for every state b.

    Returns the image states b xor x and the values, with b along a new
    last axis after the shape of the string keys ``key``.
    """
    key = np.asarray(key)[..., None]
    x, z = key >> num_sites, key & ((1 << num_sites) - 1)
    b = np.arange(1 << num_sites)
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
    rows, values = basis_state_images(p.key, p.num_sites)
    out = np.zeros((dim, dim), dtype=complex)
    out[rows, np.arange(dim)] = values
    return out


def sector_dimension(num_sites: int, weight: int) -> int:
    """Number of Pauli strings of exactly the given weight: C(n, k) 3^k."""
    if not 0 <= weight <= num_sites:
        raise ValueError(f"weight {weight} out of range for {num_sites} sites")
    return comb(num_sites, weight) * 3**weight


class PauliBasis:
    """The strings of a weight window on l sites, held as their keys.

    ``keys`` lists the key (x << l) | z of every string with min_weight <=
    weight <= max_weight, weight-major, then by site tuple in lexicographic
    order, then by letters with X < Y < Z at each site of the tuple in turn.
    This order is part of the package's data contract: it fixes what each
    generator row and column means.  Derived from the keys: ``weight_array``,
    each weight's contiguous slice (:meth:`sector`), and two tables over all
    4^l keys, the index of each string (-1 outside the window) and the count
    |x.z| mod 4 of its Y letters.  The tables cost O(4^l) whatever the window.
    """

    def __init__(self, num_sites: int, max_weight: Optional[int] = None, min_weight: int = 0):
        if num_sites > MAX_DENSE_SITES:
            raise ResourceLimitError(
                f"index table of a {num_sites}-site basis has 4^{num_sites} entries, "
                f"beyond the {MAX_DENSE_SITES}-site guardrail"
            )
        self.num_sites = num_sites
        self.max_weight = num_sites if max_weight is None else max_weight
        self.min_weight = min_weight
        if not 0 <= min_weight <= self.max_weight <= num_sites:
            raise ValueError(
                f"invalid weight window [{min_weight}, {self.max_weight}] for {num_sites} sites"
            )

        # X, Y and Z on the site of bit 1: x alone, x and z, z alone
        letters = (1 << num_sites, (1 << num_sites) | 1, 1)
        sectors = []
        for k in self.weights():
            sites = np.array(list(combinations(range(num_sites), k)), KEY)
            codes = np.array(list(product(letters, repeat=k)), KEY)
            # a row per site tuple, a column per letter tuple
            bits = 1 << (num_sites - 1 - sites)
            sectors.append((bits[:, None, :] * codes).sum(axis=-1).ravel())
        self.keys = np.concatenate(sectors)
        self.weight_array = np.repeat(self.weights(), [keys.size for keys in sectors])
        for arr in (self.weight_array, self.keys):
            arr.setflags(write=False)

        self._table = np.full(4**num_sites, -1, dtype=KEY)
        self._table[self.keys] = np.arange(len(self))
        every = np.arange(4**num_sites, dtype=KEY)
        self._y_count = np.bitwise_count((every >> num_sites) & every).astype(KEY) & 3

    def __len__(self) -> int:
        return self.keys.size

    def index_of(self, string: PauliString) -> int:
        i = int(self._table[string.key]) if string.num_sites == self.num_sites else -1
        if i < 0:
            raise KeyError(f"{string} not in basis (weights {self.min_weight}..{self.max_weight})")
        return i

    def sector(self, weight: int) -> slice:
        """Contiguous index range of the exact-weight sector."""
        if weight not in self.weights():
            raise ValueError(
                f"weight {weight} outside basis window [{self.min_weight}, {self.max_weight}]"
            )
        lo, hi = np.searchsorted(self.weight_array, (weight, weight + 1)).tolist()
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
        first three read from the table over all keys.  A sum below zero is
        harmless modulo 4.
        """
        key = key_c ^ key_b
        y_count = self._y_count
        exponent = np.take(y_count, key_c) + np.take(y_count, key_b)
        exponent -= np.take(y_count, key)
        z_c_x_b = (key_c & ((1 << self.num_sites) - 1)) & (key_b >> self.num_sites)
        exponent += np.bitwise_count(z_c_x_b) << 1
        exponent &= 3
        return np.take(self._table, key), exponent
