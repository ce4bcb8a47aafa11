"""Counter-based deterministic random number generation.

Every stochastic choice in the package (weight init, shuffling, dropout,
synthetic data) draws from `Rng`, a SplitMix64 stream indexed by an explicit
counter.  Equal seeds give bit-identical streams on every platform; child
streams are derived with `derive_seed` so concurrent components never share
state.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError

# CPython's built-in SHA-256, the module hashlib itself falls back to: hashlib
# would load OpenSSL's libcrypto (about 3.5 MB resident) for a few bytes a cell
try:
    from _sha2 import sha256           # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256     # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

_GAMMA_INT = 0x9E3779B97F4A7C15
_GAMMA = np.uint64(_GAMMA_INT)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_DOUBLE_UNIT = 2.0 ** -53
_MASK64 = (1 << 64) - 1
# Longest counter ramp kept between draws (1 MiB); dropout's largest masks fit.
_RAMP_CACHE = 1 << 17
_ramp_cache = np.empty(0, dtype=np.uint64)


def _ramp(n: int) -> np.ndarray:
    """(k + 1) * GAMMA mod 2**64 for k < n, read-only: the counter part of n
    consecutive draws, the same for every stream and offset."""
    global _ramp_cache
    if n <= _ramp_cache.size:
        return _ramp_cache[:n]
    ramp = np.arange(1, n + 1, dtype=np.uint64)
    ramp *= _GAMMA
    ramp.flags.writeable = False
    if n <= _RAMP_CACHE:
        _ramp_cache = ramp
    return ramp


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, in place on a uint64 ndarray (scalar uint64 ops
    can warn on overflow), reusing one shift buffer."""
    shifted = z >> _S30
    z ^= shifted
    z *= _MIX1
    np.right_shift(z, _S27, out=shifted)
    z ^= shifted
    z *= _MIX2
    np.right_shift(z, _S31, out=shifted)
    z ^= shifted
    return z


def _shape(size) -> tuple:
    """An array shape and its element count from an int or a tuple size."""
    shape = (size,) if isinstance(size, (int, np.integer)) else tuple(size)
    return shape, int(np.prod(shape)) if shape else 1


def derive_seed(base: int, *parts) -> int:
    """Hash a base seed and a tuple of ints/strings into a fresh 63-bit seed."""
    h = sha256()
    h.update(str(int(base) & _MASK64).encode("ascii"))
    for part in parts:
        if isinstance(part, (int, np.integer)):
            token = "i:" + str(int(part))
        elif isinstance(part, str):
            token = "s:" + part
        else:
            raise ContractError(f"derive_seed parts must be int or str, got {type(part).__name__}")
        h.update(b"\x1f")
        h.update(token.encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little") & (2**63 - 1)


class Rng:
    """SplitMix64 counter stream producing uniforms, normals, and Poisson draws."""

    __slots__ = ("seed", "_counter")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._counter = 0

    def _raw(self, n: int) -> np.ndarray:
        # Draw c + k + 1 mixes seed + (c + k + 1) * GAMMA, which is the shared
        # ramp plus one per-call offset: one pass instead of three.
        offset = np.uint64((self.seed + self._counter * _GAMMA_INT) & _MASK64)
        self._counter += n
        with np.errstate(over="ignore"):
            return _mix(np.add(_ramp(n), offset))

    def random(self, size=None):
        """Uniform doubles in [0, 1). Scalar when size is None."""
        if size is None:
            return float(self._raw(1)[0] >> _S11) * _DOUBLE_UNIT
        shape, n = _shape(size)
        raw = self._raw(n)
        raw >>= _S11
        vals = raw.astype(np.float64)
        vals *= _DOUBLE_UNIT
        return vals.reshape(shape)

    def random_at_least(self, size, p: float) -> np.ndarray:
        """Boolean array equal to `self.random(size) >= p`, for 0 <= p < 1.

        A uniform is k * 2**-53 with k the raw draw's top 53 bits, so
        u >= p exactly when k >= ceil(p * 2**53) (a power-of-two scaling,
        hence exact), that is when the raw draw is at least that bound
        shifted left by 11.  The counter advances as random(size)'s does.
        """
        if not 0.0 <= p < 1.0:
            raise ContractError(f"random_at_least needs 0 <= p < 1, got {p}")
        shape, n = _shape(size)
        bound = np.uint64(math.ceil(p * 2.0 ** 53) << 11)
        return (self._raw(n) >= bound).reshape(shape)

    def uniform(self, low: float, high: float, size=None):
        return low + (high - low) * self.random(size)

    def normal(self, size=None):
        """Standard normals via Box-Muller (two uniforms per pair)."""
        if size is None:
            return float(self.normal(1)[0])
        shape, n = _shape(size)
        m = (n + 1) // 2
        u1 = self.random(m)
        u2 = self.random(m)
        u1 = np.maximum(u1, _DOUBLE_UNIT)  # avoid log(0)
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
        return z[:n].reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        if n < 0:
            raise ContractError("permutation length must be >= 0")
        perm = np.arange(n, dtype=np.int64)
        if n < 2:
            return perm
        u = self.random(n - 1)
        for i in range(n - 1, 0, -1):
            j = int(u[n - 1 - i] * (i + 1))
            if j > i:
                j = i
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def poisson(self, lam):
        """Poisson draws; inversion for small means, normal approximation above 30."""
        arr = np.asarray(lam, dtype=np.float64)
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ContractError("poisson mean must be finite and >= 0")
        flat = arr.reshape(-1)
        out = np.empty(flat.shape, dtype=np.int64)
        for k, lm in enumerate(flat):
            out[k] = self._poisson_one(float(lm))
        if arr.ndim == 0:
            return int(out[0])
        return out.reshape(arr.shape)

    def _poisson_one(self, lam: float) -> int:
        if lam == 0.0:
            return 0
        if lam < 30.0:
            u = self.random()
            p = np.exp(-lam)
            cum = p
            k = 0
            while u > cum:
                k += 1
                p *= lam / k
                cum += p
                if k > 10_000:  # cumulative underflow guard
                    break
            return k
        z = self.normal()
        return max(0, int(round(lam + np.sqrt(lam) * z)))

    def spawn(self, *parts) -> "Rng":
        """Independent child stream keyed by ints/strings."""
        return Rng(derive_seed(self.seed, *parts))
