"""Deterministic RNG derivation.

All randomness flows from one 64-bit master seed through named derivation
paths such as ``"scenario/brownian-interval/path/3"``.  The name is hashed
with SHA-256 and mixed into a :class:`numpy.random.SeedSequence`, so streams
for different names are independent and the mapping is stable across
platforms, thread counts and schedules.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_rng(master_seed: int, name: str = "") -> np.random.Generator:
    """Generator for the stream addressed by ``name`` under ``master_seed``."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 32, 4)]
    seq = np.random.SeedSequence([int(master_seed) & 0xFFFFFFFFFFFFFFFF, *words])
    return np.random.Generator(np.random.PCG64(seq))
