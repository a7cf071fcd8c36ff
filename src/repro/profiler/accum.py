"""Flat numpy accumulators backing the deferred (batched) profiler path.

The per-chunk profiler pays a dict-of-dicts price per observation: CCT
node lookups, string-keyed ``defaultdict`` updates for a dozen metrics,
and per-bin dict churn. The deferred pipeline instead accumulates into
flat float64 tables keyed by interned row ids — one row per
``(tid, call path)`` / ``(tid, variable)`` / ``(tid, variable, path)``
key, one column per metric — and flushes them into the classic
CCT/record structures once, at ``on_run_end``. Row interning is a plain
dict lookup; the metric arithmetic is one vector add per observation.
"""

from __future__ import annotations

import numpy as np


class RowTable:
    """A growable ``(rows, n_cols)`` float64 accumulator.

    Rows are handed out by :meth:`alloc` and never freed; callers index
    ``data`` directly (re-reading ``data`` after any ``alloc``, which may
    reallocate it).
    """

    __slots__ = ("data", "n_rows")

    def __init__(self, n_cols: int, capacity: int = 256) -> None:
        self.data = np.zeros((capacity, n_cols), dtype=np.float64)
        self.n_rows = 0

    def alloc(self, n: int = 1) -> int:
        """Reserve ``n`` consecutive zeroed rows; returns the first index."""
        need = self.n_rows + n
        cap = self.data.shape[0]
        if need > cap:
            grown = np.zeros(
                (max(need, cap * 2), self.data.shape[1]), dtype=np.float64
            )
            grown[: self.n_rows] = self.data[: self.n_rows]
            self.data = grown
        first = self.n_rows
        self.n_rows = need
        return first

    def snapshot(self) -> np.ndarray:
        """Copy of the live rows (phase-extrapolation ε deltas)."""
        return self.data[: self.n_rows].copy()

    def scale_rows(self, delta: np.ndarray, factor: float) -> None:
        """Add ``delta * factor`` onto the leading rows.

        The extrapolation path: instead of re-scattering per-sample
        updates for skipped iterations, a steady iteration's per-row
        delta is multiplied on in one vector op. ``delta`` may cover
        fewer rows than are now live (rows interned after the snapshot
        contributed nothing to it).
        """
        self.data[: delta.shape[0]] += delta * factor


class MinMaxTable:
    """Growable ``(rows, 2)`` [min, max] accumulator for address ranges.

    Fresh rows start at ``[+inf, -inf]`` — the same sentinel
    :class:`~repro.profiler.profile_data.VarRecord` range arrays use —
    and tighten as samples arrive via ``np.minimum.at`` /
    ``np.maximum.at`` on the two columns.
    """

    __slots__ = ("data", "n_rows")

    def __init__(self, capacity: int = 256) -> None:
        self.data = np.empty((capacity, 2), dtype=np.float64)
        self.n_rows = 0

    def alloc(self, n: int) -> int:
        """Reserve ``n`` consecutive ``[+inf, -inf]`` rows."""
        need = self.n_rows + n
        cap = self.data.shape[0]
        if need > cap:
            grown = np.empty((max(need, cap * 2), 2), dtype=np.float64)
            grown[: self.n_rows] = self.data[: self.n_rows]
            self.data = grown
        self.data[self.n_rows : need, 0] = np.inf
        self.data[self.n_rows : need, 1] = -np.inf
        first = self.n_rows
        self.n_rows = need
        return first


#: Segments longer than this are summed with ``ndarray.sum`` itself
#: (numpy's pairwise summation recurses above 128 values).
PAIRWISE_BLOCK = 128


def segment_sums(
    values: np.ndarray, counts: np.ndarray, seg: np.ndarray | None = None
) -> np.ndarray:
    """Per-segment float sums equal, bit for bit, to ``ndarray.sum()``.

    ``values`` holds consecutive segments of ``counts[i]`` values each;
    ``seg`` optionally gives each value's segment index.
    numpy's float ``add.reduce`` starts from 0.0 and adds the segment's
    pairwise sum: fewer than 8 values are added in order; up to
    :data:`PAIRWISE_BLOCK` values go round-robin into 8 partial sums,
    combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, and the
    remaining ``n % 8`` values are then added in order. This kernel
    reproduces both regimes with ``bincount`` (which accumulates in
    input order from 0.0) and falls back to ``.sum()`` per segment
    beyond the block size.
    """
    n_seg = counts.size
    if seg is None:
        seg = np.repeat(np.arange(n_seg), counts)
    small = counts < 8
    # (bincount of an empty input comes back int64, hence the casts.)
    if small.all():
        return np.bincount(seg, weights=values, minlength=n_seg).astype(
            np.float64, copy=False
        )
    first = np.cumsum(counts) - counts
    local = np.arange(values.size) - first[seg]
    # Sequential prefix: all of a small segment, none of a blocked one.
    lead = small[seg]
    out = np.bincount(
        seg[lead], weights=values[lead], minlength=n_seg
    ).astype(np.float64, copy=False)
    blocked = ~small & (counts <= PAIRWISE_BLOCK)
    if blocked.any():
        n8 = counts - counts % 8
        in_acc = blocked[seg] & (local < n8[seg])
        r = np.bincount(
            seg[in_acc] * 8 + local[in_acc] % 8,
            weights=values[in_acc], minlength=8 * n_seg,
        ).reshape(n_seg, 8)
        tree = ((r[:, 0] + r[:, 1]) + (r[:, 2] + r[:, 3])) + (
            (r[:, 4] + r[:, 5]) + (r[:, 6] + r[:, 7])
        )
        out[blocked] = tree[blocked]
        tail = np.where(blocked[seg], local - n8[seg], -1)
        for j in range(int(tail.max()) + 1):
            at = np.flatnonzero(tail == j)
            out[seg[at]] += values[at]
    for k in np.flatnonzero(counts > PAIRWISE_BLOCK).tolist():
        out[k] = values[first[k]:first[k] + counts[k]].sum()
    return out
