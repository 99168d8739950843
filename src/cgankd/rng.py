"""Deterministic, platform-portable randomness, in one counter-based layer.

* key derivation: every pipeline stage derives its own 64-bit key from
  (master_seed, stage_name, ...) via SHA-256, so independent stages never
  share a stream.
* counter-based draws: ``raw64`` applies the SplitMix64 finalizer
  (constants below) to (key, counter) pairs, and ``uniforms``, ``normals``
  and ``below`` are built on it.  Each draw is a pure function of its
  arguments, which gives vectorized, order-independent, prefix-stable
  streams.  ``row_normals`` gives each row of a batch its own block of
  ``ROW_LANES`` counters.  ``permutation(key, n)`` orders the counters
  0..n-1 by their ``raw64`` draws.  For a fixed key ``raw64`` is a bijection
  of the counter (an odd multiplier, then invertible xor-shifts and odd
  multipliers), so two counters never draw the same value: the order has
  no ties, and every sort algorithm returns it.
"""

import hashlib

import numpy as np

# SplitMix64 constants (Steele, Lea, Flood 2014).
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# xor-ed into the key to get a second independent lane for Box-Muller.
_LANE2 = 0xD1B54A32D192ED03
# Counters reserved per row by `row_normals`; wider rows would overlap.
ROW_LANES = 64


def derive_key(*parts) -> int:
    """Derive a 64-bit stream key from any sequence of seed parts."""
    text = "/".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _finalize(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> np.uint64(30))
    z = z * _MIX1
    z = z ^ (z >> np.uint64(27))
    z = z * _MIX2
    z = z ^ (z >> np.uint64(31))
    return z


def raw64(key: int, counters) -> np.ndarray:
    """Raw 64-bit outputs, one per counter."""
    c = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(key & 0xFFFFFFFFFFFFFFFF) + _GOLDEN * (c + np.uint64(1))
        return _finalize(z)


def uniforms(key: int, counters) -> np.ndarray:
    """Floats in [0, 1), one per counter."""
    return (raw64(key, counters) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def below(key: int, counters, n: int) -> np.ndarray:
    """Integers in [0, n), each equally likely, one per counter."""
    return np.minimum((uniforms(key, counters) * n).astype(np.int64), n - 1)


def permutation(key: int, n: int) -> np.ndarray:
    """A permutation of range(n), pure in (key, n)."""
    return np.argsort(raw64(key, np.arange(n)))


def _uniforms_open(key: int, counters) -> np.ndarray:
    """Floats in (0, 1], safe for log()."""
    out = (raw64(key, counters) >> np.uint64(11)).astype(np.float64)
    return (out + 1.0) * 2.0**-53


def normals(key: int, counters) -> np.ndarray:
    """Standard normals via Box-Muller, one per counter."""
    c = np.asarray(counters, dtype=np.uint64)
    u1 = _uniforms_open(key, c)
    u2 = uniforms(key ^ _LANE2, c)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def row_normals(key: int, counters, width: int) -> np.ndarray:
    """(len(counters), width) standard normals; row i draws counters
    counters[i] * ROW_LANES + (0, ..., width - 1)."""
    if width > ROW_LANES:
        raise ValueError(f"row width {width} exceeds {ROW_LANES} lanes")
    c = np.asarray(counters, dtype=np.uint64)
    lanes = c[:, None] * np.uint64(ROW_LANES) + np.arange(width,
                                                          dtype=np.uint64)
    return normals(key, lanes)
