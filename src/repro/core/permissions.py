"""Read/write permission flags.

Border Control deliberately tracks only read and write permission per
physical page: execute permission cannot be enforced at the border because
once a block is inside the accelerator, Border Control cannot observe
whether it is used as data or instructions (paper §3.1.1).
"""

from __future__ import annotations

import enum

__all__ = ["Perm", "PERM_BY_BITS", "PERM_NONE", "PERM_R", "PERM_W", "PERM_RW"]


class Perm(enum.IntFlag):
    """Per-page permission bits, 2 bits per page as in the Protection Table.

    The methods below test and combine ``_value_`` as a plain int and map
    results back through :data:`PERM_BY_BITS`: IntFlag's own operators
    build every result through ``enum.__call__``, which costs more than
    the bit test itself.
    """

    NONE = 0
    R = 1
    W = 2
    RW = 3

    @property
    def readable(self) -> bool:
        return bool(self._value_ & 1)

    @property
    def writable(self) -> bool:
        return bool(self._value_ & 2)

    def allows(self, write: bool) -> bool:
        """Does this permission allow a read (write=False) or write access?"""
        return bool(self._value_ & (2 if write else 1))

    def union(self, other: "Perm") -> "Perm":
        """Union of permissions — the multiprocess-accelerator rule (§3.3)."""
        return PERM_BY_BITS[self._value_ | other._value_]

    def describe(self) -> str:
        return ("R" if self.readable else "-") + ("W" if self.writable else "-")


#: The canonical member for each 2-bit field value: ``PERM_BY_BITS[bits]
#: is Perm(bits)`` for ``bits`` in 0..3, without the enum constructor.
PERM_BY_BITS = (Perm.NONE, Perm.R, Perm.W, Perm.RW)

PERM_NONE = Perm.NONE
PERM_R = Perm.R
PERM_W = Perm.W
PERM_RW = Perm.RW
