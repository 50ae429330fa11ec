"""Exact reading of plain decimal CSV cells with array operations.

`read_decimals` turns the cells of a byte buffer into the floats Python's
float() gives them, or refuses the whole set, so that its caller can fall
back to a parser that reads any spelling.
"""

import numpy as np

_ROWS = np.arange(24)[:, None]
# 10**k, exact up to k = 22; 10**23 only weighs a digit that, unless zero,
# puts a cell past 2**53
_POW10 = np.array([float(10 ** k) for k in range(24)])
_CHUNK = 8192


def read_decimals(raw: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """float(cell) of each cell raw[start:end] that reads -?d+(.d+)?, or
    None unless every cell does so within the exact range.

    A cell's digits without the point form an integer N, and d digits
    follow its point. While N < 2**53 and d <= 22, N and 10**d are exact
    doubles, and one correctly rounded division gives float(cell) bit for
    bit (Clinger's fast path). N is a sum of digits times powers of ten:
    below 2**53 every term and partial sum is an exact integer, in any
    order, and at or past 2**53 the rounded sum stays at or past it.

    Each cell is read right-aligned into a (width, cells) block of bytes.
    When the point sits in the same row of every cell, as in the writers'
    "%.6f" files, the digits ahead of that row take one power less; in a
    column of mixed decimals each cell's digits are split at its own point.
    """
    negative = raw[starts] == 45  # "-"
    lead = starts - ends  # minus each cell's width
    width = -int(lead.min())
    lead += width
    lead += negative  # the bytes ahead of each cell's first digit
    ahead = int(lead.max())
    if not ahead < width <= 24:
        return None  # a cell without a digit, or past 22 decimals
    if width > ends[0]:  # the first windows would start ahead of raw
        raw, ends = np.concatenate((np.zeros(width, raw.dtype), raw)), ends + width
    # each cell's last `width` bytes as one item, then one row per byte
    windows = np.ndarray((len(raw) - width + 1,), f"V{width}", raw, strides=(1,))
    block = np.ascontiguousarray(windows[ends - width].view(np.uint8).reshape(-1, width).T)
    block -= 48  # digits 0-9; "." is 254, every other byte at least 10
    # bytes ahead of a cell, its minus included, read as leading zeros
    np.copyto(block[:ahead], 0, where=_ROWS[:ahead] < lead)
    point = block[:, 0].tobytes().rfind(b"\xfe")  # the first cell's point row
    # a digit ahead of the point in every cell, and one after it
    if ahead < point < width - 1 and (block[point] == 254).all():
        decimals = width - 1 - point
        block[point] = 0
        if block.max() > 9:
            return None
        value = _weighted(np.concatenate((_POW10[width - 2:decimals - 1:-1], [0.0],
                                          _POW10[decimals - 1::-1])), block)
    else:
        # each cell's count of points and, when it has one, the point's row
        rows = _ROWS[:width]
        code = _weighted(1.0 + 32.0 * rows[:, 0], block == 254).astype(np.intp)
        has_point = (code & 31) == 1
        point = np.where(has_point, code >> 5, -1)
        if (has_point & ((point == width - 1) | (lead >= point))).any():
            return None
        ahead_of_point = block * (rows < point)
        # a cell without a point is all after it; one with two keeps them
        block *= rows > point
        if ahead_of_point.max() > 9 or block.max() > 9:
            return None
        powers = _POW10[width - 1::-1]
        value = _weighted(np.append(powers[1:], 0.0), ahead_of_point)
        value += _weighted(powers, block)
        decimals = np.where(has_point, width - 1 - point, 0)
    if value.max() >= 2.0 ** 53:
        return None
    value /= _POW10[decimals]
    np.negative(value, out=value, where=negative)
    return value


def _weighted(weights: np.ndarray, block: np.ndarray) -> np.ndarray:
    """weights @ block, a slice of columns at a time, which bounds the
    float copy numpy makes of the block."""
    return np.concatenate([np.dot(weights, block[:, i:i + _CHUNK])
                           for i in range(0, block.shape[1], _CHUNK)])
