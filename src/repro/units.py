"""Address, page, and time unit helpers shared across the simulator.

The simulated address space is a flat 64-bit byte-addressed space. Pages are
4 KiB and cache lines 64 bytes unless a :class:`~repro.machine.machine.Machine`
is configured otherwise; the constants here are the defaults.
"""

from __future__ import annotations

import numpy as np

#: Default simulated page size in bytes (matches Linux x86-64 small pages).
PAGE_SIZE = 4096

#: Default cache line size in bytes.
CACHE_LINE = 64

#: Size of a simulated double-precision element; workloads are expressed in
#: 8-byte elements unless stated otherwise.
ELEM_SIZE = 8


def page_of(addr: int | np.ndarray, page_size: int = PAGE_SIZE):
    """Return the page number containing ``addr`` (scalar or array)."""
    return addr // page_size


def page_base(addr: int, page_size: int = PAGE_SIZE) -> int:
    """Return the byte address of the start of the page containing ``addr``."""
    return (addr // page_size) * page_size


def pages_spanned(base: int, nbytes: int, page_size: int = PAGE_SIZE) -> int:
    """Number of pages touched by the byte range ``[base, base + nbytes)``.

    A zero-length range spans zero pages.
    """
    if nbytes <= 0:
        return 0
    first = base // page_size
    last = (base + nbytes - 1) // page_size
    return int(last - first + 1)


def line_of(addr: int | np.ndarray, line_size: int = CACHE_LINE):
    """Return the cache-line number containing ``addr`` (scalar or array)."""
    return addr // line_size


#: ``first_occurrence_mask`` indexes a first-position table by value when
#: an integer input's value span is below this multiple of its length.
#: The table then holds at most 4n ``intp`` entries (32 bytes per input
#: element), so memory stays O(n) and filling it costs no more than a
#: few passes over the input, where ``np.unique`` sorts. AMG's jittered
#: index chunks span about n/8 lines.
DENSE_SPAN_FACTOR = 4


def _sorted_first_mask(values: np.ndarray) -> np.ndarray | None:
    """First-occurrence mask of a non-decreasing 1-D array, else None.

    Compares neighbours rather than differencing them, so unsigned and
    int64-extreme inputs cannot wrap into a wrong sortedness verdict.
    """
    head, tail = values[:-1], values[1:]
    if not np.all(tail >= head):
        return None
    mask = np.empty(values.size, dtype=bool)
    mask[0] = True
    np.not_equal(tail, head, out=mask[1:])
    return mask


def fast_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` with an O(n) fast path for already-sorted input.

    The simulator's hot path calls unique on page/line arrays derived
    from mostly-sorted sweep traces; checking sortedness with one
    comparison pass is far cheaper than the sort inside ``np.unique``.
    """
    values = np.asarray(values)
    if values.size <= 1:
        return values.copy()
    keep = _sorted_first_mask(values)
    if keep is not None:
        return values[keep]
    return np.unique(values)


def first_occurrence_mask(values: np.ndarray) -> np.ndarray:
    """Boolean mask of each value's first occurrence in a 1-D array.

    Three regimes, chosen from the input itself; all give the mask
    ``np.unique(values, return_index=True)`` implies:

    * sorted (non-decreasing): O(n), a value is new where it differs
      from its predecessor;
    * integer with a value span below ``DENSE_SPAN_FACTOR * n``:
      O(n + span), a table indexed by ``value - min`` takes each value's
      smallest position by ``np.minimum.at``, which is commutative, so
      the result does not depend on scatter order;
    * anything else (floats, sparse integers): ``np.unique``.
    """
    values = np.asarray(values)
    n = values.size
    if n <= 1:
        return np.ones(values.shape, dtype=bool)
    mask = _sorted_first_mask(values)
    if mask is not None:
        return mask
    if values.dtype.kind in "iu":
        imin = values.argmin()
        # Python ints: an int64 span past 2**63 must not wrap small.
        span = int(values.max()) - int(values[imin])
        if span < DENSE_SPAN_FACTOR * n:
            if values.dtype.itemsize != np.dtype(np.intp).itemsize:
                values = values.astype(np.intp)
            # Viewing the difference as intp is exact (uint64 values past
            # 2**63 included): every true key lies in [0, span < 4n].
            keys = np.subtract(values, values[imin]).view(np.intp)
            order = np.arange(n, dtype=np.intp)
            first = np.full(span + 1, n, dtype=np.intp)
            np.minimum.at(first, keys, order)
            return first[keys] == order
    mask = np.zeros(n, dtype=bool)
    _, first_idx = np.unique(values, return_index=True)
    mask[first_idx] = True
    return mask


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    if alignment <= 0:
        raise ValueError(f"alignment must be positive, got {alignment}")
    return ((value + alignment - 1) // alignment) * alignment


def cycles_to_seconds(cycles: float, ghz: float) -> float:
    """Convert a cycle count to seconds at a clock rate of ``ghz`` GHz."""
    if ghz <= 0:
        raise ValueError(f"clock rate must be positive, got {ghz}")
    return cycles / (ghz * 1e9)
