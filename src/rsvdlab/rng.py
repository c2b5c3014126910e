"""Counter-based random streams and Gaussian matrix sampling.

A stream is the value pair (master_seed, stream_id).  Every consumer
re-instantiates its generator from that pair, so the same stream always
reproduces the same draws regardless of call order, thread count, or how
many times it is reused.  Independent sub-streams are derived by hashing
a label into a new stream_id.

Normal variates are produced by applying the inverse normal CDF (Wichura's
PPND16) to midpoint uniforms from the Philox counter-based generator.  A
draw of any shape is filled in _CHUNK-element pieces of its flat view: each
piece takes the next uniforms of the stream and transforms them on their
own, so the values and the generator's next draw are those of one
whole-array transform, and no temporary larger than a piece is built.  The
method is fixed for this build; bit-identical output across *different*
builds is not promised, only within-build determinism.
"""

from dataclasses import dataclass
import hashlib

import numpy as np

from .stats import inv_norm_cdf

_MASK64 = (1 << 64) - 1
_CHUNK = 1 << 14   # elements transformed at a time by standard_normal


def stable_hash64(*parts) -> int:
    """Deterministic 64-bit hash of a tuple of ints/strings/floats.

    Independent of PYTHONHASHSEED and platform, so derived stream ids are
    reproducible across runs and machines.
    """
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest()[:8], "little")


@dataclass(frozen=True)
class RngStream:
    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array(
            [self.master_seed & _MASK64, self.stream_id & _MASK64],
            dtype=np.uint64,
        )
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, *label) -> "RngStream":
        """Derive an independent sub-stream keyed by ``label``."""
        return RngStream(self.master_seed, stable_hash64(self.stream_id, *label))


def uniform_open(gen: np.random.Generator, shape):
    """Uniforms strictly inside (0, 1): midpoints of a 2^53 grid."""
    u = gen.integers(0, 1 << 53, size=shape, dtype=np.int64) + 0.5
    u *= 2.0 ** -53
    return u


def standard_normal(gen: np.random.Generator, shape):
    """Standard normal draws via the inverse-CDF transform, _CHUNK at a time.

    Each uniform takes one 64-bit word of the stream whatever the chunk, so
    the draws equal those of one whole-array transform.
    """
    out = np.empty(shape)
    flat = out.reshape(-1)
    for i in range(0, flat.size, _CHUNK):
        piece = flat[i:i + _CHUNK]
        piece[...] = inv_norm_cdf(uniform_open(gen, piece.size))
    return out


def gaussian_matrix(rows: int, cols: int, stream: RngStream) -> np.ndarray:
    """rows x cols matrix of iid N(0, 1) entries, deterministic in ``stream``."""
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    gen = stream.generator()
    return standard_normal(gen, (rows, cols))
