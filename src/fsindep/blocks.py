"""Base-b block ids and their digits.

A length-ell block over b symbols is one symbol of the power alphabet of
size b**ell; its id is the block read in base b, first symbol most
significant.  Ids come in that alphabet's dtype unless the input is wider,
so counting never widens the word.
"""

from __future__ import annotations

from functools import lru_cache

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


@lru_cache(maxsize=64)
def _place_values(b: int, ell: int) -> np.ndarray:
    return b ** np.arange(ell - 1, -1, -1)  # the run engine asks once a window


def aligned_ids(data: np.ndarray, ell: int, b: int) -> np.ndarray:
    """Ids of the aligned length-ell blocks of data; a partial tail is dropped."""
    if ell == 1:
        return data  # a symbol is its own id
    m = data.size // ell
    if data.dtype == np.intp:
        # already as wide as any id, so a matmul over the rows widens
        # nothing, and on a short window (the run engine's keys) its one
        # call beats Horner's 2 * ell
        return data[: m * ell].reshape(m, ell) @ _place_values(int(b), ell)
    return _horner(lambda j: data[j : m * ell : ell], ell, b)


def sliding_ids(data: np.ndarray, ell: int, b: int) -> np.ndarray:
    """Ids of the length-ell windows of data starting at 0 .. size - ell."""
    m = data.size - ell + 1
    return _horner(lambda j: data[j : j + m], ell, b)


def digits(vals, width: int, b: int) -> np.ndarray:
    """Base-b digits of vals, most significant first, on a new last axis."""
    rest = np.array(vals)
    out = np.empty(rest.shape + (width,), dtype=_dtype_for(b))
    for j in range(width - 1, -1, -1):
        out[..., j] = rest % b
        rest //= b
    return out
