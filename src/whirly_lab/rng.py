"""Seeded, splittable random streams for reproducible parallel Monte Carlo.

A stream is identified by ``(master_seed, stream_id)``.  Both integers feed a
numpy :class:`~numpy.random.SeedSequence`, so distinct stream ids derived from
one master seed give statistically independent PCG64 generators, and the same
pair reproduces the same draws on every run.

Estimators shard their work into fixed-size blocks and seed block ``i`` from
the child key ``(stream_id, i)``.  The shard layout depends only on the
configuration, never on how many workers execute the blocks, which is what
makes parallel runs bit-reproducible.

Components that need several internal streams derive them with
:meth:`RngStream.child`, which maps ``stream_id`` to ``64 * stream_id + 1 + index``.
That map is injective and raises the id, so the streams derived from one
stream never repeat each other or it.  It does not keep derived ids apart from
ids picked by hand through ``RngStream(s, id)`` or :meth:`RngStream.substream`:
every id that is not a multiple of 64 is already some stream's child
(``RngStream(s, 1)`` is ``RngStream(s, 0).child(0)``).  Only hand-picked ids
that are multiples of 64, 0 included, head disjoint families.  The command
line always starts from id 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

_UINT64_LIMIT = 1 << 64
_CHILD_FANOUT = 64


@dataclass(frozen=True)
class RngStream:
    """Addressable random stream: a master seed plus a stream id."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not 0 <= int(self.master_seed) < _UINT64_LIMIT:
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")
        if int(self.stream_id) < 0:
            raise ValueError("stream_id must be non-negative")

    def generator(self) -> np.random.Generator:
        """Fresh generator for this stream, always in the same state."""
        return self._make((self.stream_id,))

    def block(self, index: int) -> np.random.Generator:
        """Generator for shard block ``index`` of this stream."""
        if index < 0:
            raise ValueError("block index must be non-negative")
        return self._make((self.stream_id, index))

    def substream(self, stream_id: int) -> "RngStream":
        """Sibling stream under the same master seed."""
        return replace(self, stream_id=stream_id)

    def child(self, index: int) -> "RngStream":
        """Derived stream ``64 * stream_id + 1 + index`` for internal use by
        composite computations.

        Distinct ``(stream_id, index)`` pairs give distinct streams, but the
        result can equal a stream picked by id: ``RngStream(s, 0).child(0)``
        is ``RngStream(s, 1)``.
        """
        if not 0 <= index < _CHILD_FANOUT - 1:
            raise ValueError(f"child index must lie in [0, {_CHILD_FANOUT - 1})")
        return replace(self, stream_id=_CHILD_FANOUT * self.stream_id + 1 + index)

    def _make(self, spawn_key: tuple[int, ...]) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=spawn_key)
        return np.random.Generator(np.random.PCG64(seq))

