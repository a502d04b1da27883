"""Base-b block ids and their digits.

A length-ell block over b symbols is one symbol of the power alphabet of
size b**ell; its id is the block read in base b, first symbol most
significant.  Ids of two or more symbols come in that alphabet's dtype,
whatever the input's; counting widens at most max(2**16, b**ell) at once.
"""

from __future__ import annotations

import numpy as np

from .words import _dtype_for


def _horner(cols, ell: int, b: int) -> np.ndarray:
    """Ids of the blocks whose j-th symbols are ``cols(j)``."""
    b = int(b)
    if b**ell > 2**32:
        raise ValueError(f"block ids {b}**{ell} do not fit 32 bits")
    ids = cols(0).astype(_dtype_for(b**ell))
    for j in range(1, ell):
        ids *= b
        np.add(ids, cols(j), out=ids, casting="unsafe")
    return ids


def aligned_ids(data: np.ndarray, ell: int, b: int) -> np.ndarray:
    """Ids of the aligned length-ell blocks of any integer data; a partial tail is dropped."""
    if ell == 1:
        return data  # a symbol is its own id
    m = data.size // ell
    return _horner(lambda j: data[j : m * ell : ell], ell, b)


def sliding_ids(data: np.ndarray, ell: int, b: int) -> np.ndarray:
    """Ids of the length-ell windows of data starting at 0 .. size - ell."""
    m = data.size - ell + 1
    return _horner(lambda j: data[j : j + m], ell, b)


def _count_ids(ids: np.ndarray, size: int) -> np.ndarray:
    """``np.bincount(ids, minlength=size)``, max(2**16, size) ids a call."""
    step = max(1 << 16, size)
    counts = np.bincount(ids[:step], minlength=size)
    for i in range(step, ids.size, step):
        counts += np.bincount(ids[i : i + step], minlength=size)
    return counts


def digits(vals, width: int, b: int) -> np.ndarray:
    """Base-b digits of vals, most significant first, on a new last axis."""
    rest = np.array(vals)
    q = np.empty_like(rest)
    out = np.empty(rest.shape + (width,), dtype=_dtype_for(b))
    for j in range(width - 1, -1, -1):
        # rest % b in place: numpy divides by a scalar faster than it takes %
        np.floor_divide(rest, b, out=q)
        q *= b
        rest -= q
        out[..., j] = rest
        np.floor_divide(q, b, out=rest)
    return out


def digit_runs(vals, widths, b: int) -> np.ndarray:
    """Each value's base-b digits at its own width, most significant first,
    one value after another; a width of 0 writes nothing.

    Values are taken longest first, so the ones with a j-th last digit are
    a prefix, and only the digits written are computed.  Two widths are
    put in that order by a partition, more by a sort.
    """
    widths = np.asarray(widths)
    tally = np.bincount(widths, minlength=1)
    spread = np.count_nonzero(tally)  # how many widths occur
    order = slice(None)  # one width: any order is longest first
    if spread == 2:
        longest = widths == len(tally) - 1
        order = np.concatenate((np.flatnonzero(longest), np.flatnonzero(~longest)))
    elif spread > 2:
        order = np.argsort(widths, kind="stable")[::-1]  # narrow ints sort stably by radix
    ends = np.cumsum(widths, dtype=np.intp)
    out = np.empty(int(ends[-1]) if ends.size else 0, dtype=_dtype_for(b))
    ends = ends[order]
    rest = np.array(vals)[order]
    q = np.empty_like(rest)
    # have[L]: how many values are L digits wide or wider
    have = np.cumsum(tally[::-1])[::-1].tolist()
    for j in range(1, len(have)):
        r, t, at = rest[: have[j]], q[: have[j]], ends[: have[j]]
        np.floor_divide(r, b, out=t)
        t *= b
        r -= t
        at -= 1
        out[at] = r
        np.floor_divide(t, b, out=r)
    return out
