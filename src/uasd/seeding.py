"""Deterministic seed derivation.

Every source of randomness in an experiment is seeded from one master seed
through named sub-seeds, so any stage can be reproduced in isolation.
Derivation is a SHA-256 digest of ``"<seed>/<name>"``, which is stable
across platforms and numpy versions.
"""

from __future__ import annotations

import hashlib

import numpy as np

def derive_seed(master: int, name: str) -> int:
    """Derive a 63-bit child seed from a master seed and a label."""
    digest = hashlib.sha256(f"{master}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def rng_for(master: int, name: str) -> np.random.Generator:
    """Generator seeded by the named sub-seed of ``master``."""
    return np.random.default_rng(derive_seed(master, name))
