"""Deterministic seed derivation.

Root seeds are 64-bit integers.  Child seeds are derived with SplitMix64,
a fixed, language-neutral mixing function, so the root-seed -> per-trial
seed mapping is stable across runs and platforms.  The byte streams of
``random.Random`` built on those seeds are an implementation detail of
CPython and are not part of any file-format contract.  Consumers read a
stream through ``random``'s public calls (``random``, ``sample``,
``randrange``, ``getrandbits``); a promise pair's coordinates take two bits
of ``getrandbits`` each (``promises``).
"""

from __future__ import annotations

import random

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> int:
    """One SplitMix64 output for the given 64-bit state."""
    z = (state + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(root: int, *indices: int) -> int:
    """Child seed for (root, i0, i1, ...): fold each index with SplitMix64."""
    state = root & _MASK
    for i in indices:
        state = splitmix64((state ^ (i & _MASK)) & _MASK)
    return splitmix64(state)


def stream(root: int, *indices: int) -> random.Random:
    """A fresh random stream seeded by derive_seed(root, *indices)."""
    return random.Random(derive_seed(root, *indices))
