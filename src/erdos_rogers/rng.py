"""Deterministic, labeled random streams.

Every randomized operation in this package draws from a SeededRng.  The
generator is counter based: word i of the stream labeled (seed, label) is
a slice of blake2b(seed || label || block_index), so the value sequence
depends only on (seed, label, counter) and is identical on every platform.
Substreams are derived by extending the label, never by drawing from the
parent, so sibling substreams are independent of consumption order; each
is keyed from a copy of one kept state, fed only its own sub-label.

Since every block depends only on (key, index), `bernoulli_indices` makes
the whole blocks of a long run in chunks of up to 256, each chunk with a
few C-level passes (copy the keyed state, feed each copy its index, join
the digests), and gives the same words as one block at a time.
"""

import hashlib
import math
import struct
from collections import deque
from itertools import compress, repeat, starmap

_MASK64 = (1 << 64) - 1
_FLOAT_SCALE = 2.0 ** -53
_BLOCK_WORDS = struct.Struct("<8Q")
_BLOCK_INDEX = struct.Struct("<Q")
# blocks per chunk of bernoulli_indices: 256 keyed states and 16 KiB of words
_CHUNK_BLOCKS = 256
_update = hashlib.blake2b.update
_digest = hashlib.blake2b.digest


def _label_state(seed, label):
    """The blake2b state fed with seed || 0x1f || label; its digest is the
    key of the stream labeled label."""
    return hashlib.blake2b(seed.to_bytes(8, "little") + b"\x1f" + label.encode("utf-8"), digest_size=32)


class SeededRng:
    """Counter-based deterministic RNG keyed by (seed, label, counter)."""

    __slots__ = ("seed", "label", "_key", "_keyed", "_block", "_buf", "_pos", "_children")

    def __init__(self, seed, label="root"):
        seed = int(seed) & _MASK64
        label = str(label)
        self._start(seed, label, _label_state(seed, label).digest())

    def _start(self, seed, label, key):
        self.seed = seed
        self.label = label
        self._key = key
        self._keyed = hashlib.blake2b(key=key, digest_size=64)
        self._block = 0
        self._buf = ()
        self._pos = 0
        self._children = None

    def substream(self, label):
        """The stream SeededRng(seed, f"{self.label}/{label}"), keyed from a
        copy of the kept state fed with seed || 0x1f || self.label || "/"."""
        if self._children is None:
            self._children = _label_state(self.seed, self.label + "/")
        label = str(label)
        h = self._children.copy()
        h.update(label.encode("utf-8"))
        child = SeededRng.__new__(SeededRng)
        child._start(self.seed, f"{self.label}/{label}", h.digest())
        return child

    def state(self):
        """Seed record suitable for a certificate."""
        return {"seed": self.seed, "label": self.label}

    def _next_block(self):
        """The 64 bytes of the next block: blake2b keyed by _key over the
        little-endian block index (a copy of the keyed state, which gives
        the same digest as keying afresh)."""
        h = self._keyed.copy()
        h.update(_BLOCK_INDEX.pack(self._block))
        self._block += 1
        return h.digest()

    def _refill(self):
        self._buf = _BLOCK_WORDS.unpack(self._next_block())
        self._pos = 0

    def u64(self):
        if self._pos >= len(self._buf):
            self._refill()
        value = self._buf[self._pos]
        self._pos += 1
        return value

    def random(self):
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.u64() >> 11) * _FLOAT_SCALE

    def bernoulli_indices(self, count, p):
        """The indices i < count at which the next `count` random() draws
        fall below p, consuming exactly the words those draws would: the
        rest of the current buffer one word at a time, then every whole
        block, then the tail one word at a time.

        The whole blocks are made in chunks of at most _CHUNK_BLOCKS: the
        keyed state is copied once per block, each copy is fed its index,
        and the digests are joined into one string of words, each pass a
        C-level map.  The blocks are those `_next_block` makes, and the
        buffer is left empty.

        random() < p iff (w >> 11) < ceil(p * 2^53), i.e. w < limit with
        limit = ceil(p * 2^53) << 11.  When limit <= 2^56 a passing word
        has a zero top byte, so only the words whose top byte (raw[7::8])
        is zero are decoded; otherwise the chunk is decoded at once."""
        limit = math.ceil(p * 2.0**53) << 11
        hits = []
        i = 0
        while i < count and self._pos < len(self._buf):
            if self.u64() < limit:
                hits.append(i)
            i += 1
        end = self._block + (count - i) // 8
        if end > self._block:
            sparse = limit <= 1 << 56
            copy = self._keyed.copy
            unpack_word = _BLOCK_INDEX.unpack_from
            for a in range(self._block, end, _CHUNK_BLOCKS):
                b = min(a + _CHUNK_BLOCKS, end)
                hs = list(starmap(copy, repeat((), b - a)))
                deque(map(_update, hs, map(_BLOCK_INDEX.pack, range(a, b))), 0)
                raw = b"".join(map(_digest, hs))
                if sparse:
                    tops = raw[7::8]
                    w = tops.find(0)
                    while w >= 0:
                        if unpack_word(raw, 8 * w)[0] < limit:
                            hits.append(i + w)
                        w = tops.find(0, w + 1)
                else:
                    words = struct.unpack(f"<{8 * (b - a)}Q", raw)
                    hits.extend(compress(range(i, i + len(words)), map(limit.__gt__, words)))
                i += 8 * (b - a)
            self._block = end
        while i < count:
            if self.u64() < limit:
                hits.append(i)
            i += 1
        return hits

    def randrange(self, n):
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            value = self.u64()
            if value < limit:
                return value % n

    def shuffle(self, items):
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    def __repr__(self):
        return f"SeededRng(seed={self.seed}, label={self.label!r})"

