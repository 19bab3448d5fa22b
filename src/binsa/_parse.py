"""The data rows of a dataset CSV, parsed by numpy passes, each value the
double that float() gives for its cell.

read_rows cuts the file into chunks at line ends. binning._in_order parses
each on one of binning's workers, in that worker's own buffer, and puts its
rows in place in file order; the threads start once per read. In a chunk,
byte masks find the cells, a scanner walks every cell at once (sign,
digits, point, digits, exponent), turning its digits into a uint64
mantissa eight at a time with SWAR on unaligned 8-byte loads, and the
mantissa m and the power of ten q are converted exactly:

- Clinger's fast path: m <= 2**53 and |q| <= 22 are both exact doubles, and
  one IEEE multiply or divide rounds their product correctly.
- x87 long double, where numpy has it (64-bit significand): m is exact, 10**q
  is exact for |q| <= 27 and correctly rounded beyond, so the product is
  within 2 units of its last bit. Rounding it to double is correct unless the
  11 bits below the double's last bit lie within 4 units of the midpoint, or
  the double would be subnormal.
- float() on the cell's bytes, for every cell that neither settles: a
  mantissa past 2**64, an exponent above 99999, or one of the few near a
  midpoint.

A file that holds anything the scanner does not take returns None, and the
caller's checked reader decides; so this module never words an error.
"""

from __future__ import annotations

import re
import threading

import numpy as np

from .binning import _in_order

__all__ = ["read_rows"]

_U64 = np.uint64
_LF, _CR, _HASH, _PLUS, _COMMA, _MINUS, _DOT, _E, _LOWER_E, _SPACE, _TAB = b"\n\r#+,-.Ee \t"
# bytes past a chunk's data that an 8-byte load, or the line end put after
# a last line that has none, may touch
_PAD = 16
_LINE_END = re.compile(rb"[\n\r]")
# the bytes read at a time in search of a line end
_WINDOW = 4096
# Each byte of an 8-byte word, little-endian: byte 0 is the first character.
_ONES = _U64(0x0101010101010101)
_HIGH = _U64(0x8080808080808080)
_ZEROS = _U64(0x3030303030303030)  # "00000000"
_ABOVE_NINE = _U64(0x4646464646464646)  # a byte past '9' plus this sets its high bit
# 10**k and the largest m for which m * 10**k + 10**k - 1 fits in 64 bits
_POW10 = np.array([10**k for k in range(9)], dtype=_U64)
_MAX_BEFORE = np.array([(2**64 - 10**k) // 10**k for k in range(9)], dtype=_U64)
_POW10_F = np.array([10.0**k for k in range(23)])
# a cell with a larger exponent goes to float()
_MAX_EXPONENT = 99999
# the largest |q| of the long double step: a mantissa below 2**64 times
# 10**340 is past the largest double, and divided by it below the smallest
# normal one
_MAX_LD_POWER = 340
# numpy's long double is x87 extended precision: a 64-bit significand,
# stored in the low 8 bytes of 16
_LONG_DOUBLE = np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16


def _pow10_ld():
    """10**k as long double for k in 0.._MAX_LD_POWER, each correctly rounded
    (exact up to k = 27, where 5**k still fits in the 64-bit significand)."""
    tops, shifts = [], []
    for k in range(_MAX_LD_POWER + 1):
        p = 10**k
        shift = max(p.bit_length() - 64, 0)
        top, rest = p >> shift, p & ((1 << shift) - 1)
        half = 1 << shift >> 1
        if rest > half or (rest == half and shift and top & 1):
            top += 1
        if top >> 64:
            top, shift = top >> 1, shift + 1
        tops.append(top)
        shifts.append(shift)
    return np.ldexp(np.array(tops, dtype=_U64).astype(np.longdouble), np.array(shifts))


if _LONG_DOUBLE:
    _POW10_LD = _pow10_ld()
    _TINY_LD = np.longdouble(np.finfo(np.float64).tiny)
    _HUGE_LD = np.longdouble(np.finfo(np.float64).max)


def _line_count(raw, buf):
    """Lines in the rest of the binary file raw, read through buf: "\\n",
    "\\r\\n" and "\\r" each end one, and a last line with no end counts
    too."""
    lines, after_cr, last = 0, False, _LF
    while got := raw.readinto(buf):
        b = buf[:got]
        lf = b == _LF
        lines += int(np.count_nonzero(lf))
        cr = b == _CR
        if cr.any():
            # a "\r" ends a line unless a "\n" follows it
            lines += int(np.count_nonzero(cr)) - int(np.count_nonzero(cr[:-1] & lf[1:]))
        lines -= after_cr and b[0] == _LF
        after_cr, last = b[-1] == _CR, b[-1]
    return lines + (last not in (_LF, _CR))


class _Declined(Exception):
    """A chunk holds what the scanner does not take."""


def read_rows(raw, n_cols, chunk, workers):
    """The data rows of the rest of the binary file raw, as a column-major
    (rows, n_cols) float matrix; None for anything the scanner does not take,
    a non-finite value, or fewer than 2 rows.

    A first pass counts the lines, so the matrix is allocated once with a
    row per line; '#' and blank lines give none, and the columns move up at
    the end if any were seen. Then each chunk bytes of the file are an item
    of binning._in_order on workers workers. An item's make reads the lines
    that start after the first line end at or past its start, up to the
    first line end at or past the next item's start, into its worker's
    buffer, and parses them; its take puts their rows in place, or declines
    the file. The workers share raw through a lock around each seek and
    read.
    """
    buffers = [np.empty(chunk + _WINDOW + _PAD, dtype=np.uint8) for _ in range(workers)]
    start = raw.tell()
    n_max = _line_count(raw, buffers[0][:-_PAD])
    end = raw.tell()
    out = np.empty((n_max, n_cols), order="F")
    rows = 0
    lock = threading.Lock()

    def read(at, buf):
        with lock:
            raw.seek(at)
            return raw.readinto(buf)

    def past_line_end(at, buf):
        """The offset just past the file's first line end at or past at, or
        end."""
        while at < end and (got := read(at, buf[:_WINDOW])):
            if found := _LINE_END.search(buf, 0, got):
                return at + found.end()
            at += got
        return end

    def make(lo, buffer):
        begin = past_line_end(lo, buffer) if lo > start else start
        size = past_line_end(lo + chunk, buffer) - begin
        # a line longer than the buffer has room for gets one of its own
        buf = buffer if len(buffer) >= size + _PAD else np.empty(size + _PAD, dtype=np.uint8)
        size = read(begin, buf[:size])
        if size and buf[size - 1] not in (_LF, _CR):
            buf[size] = _LF
            size += 1
        return _rows(buf, size, n_cols)

    def take(lo, values):
        nonlocal rows
        if values is None or rows + len(values) > n_max:
            raise _Declined
        out[rows:rows + len(values)] = values
        rows += len(values)

    try:
        _in_order(make, take, range(start, end, chunk), buffers)
    except _Declined:
        return None
    if rows < 2:
        return None
    if rows < n_max:
        flat = out.reshape(-1, order="F")
        for j in range(1, n_cols):
            flat[j * rows:(j + 1) * rows] = flat[j * n_max:j * n_max + rows]
        out = flat[:rows * n_cols].reshape((rows, n_cols), order="F")
    return out


def _blank_comments(buf, lo, hi):
    """Overwrite each line of buf[lo:hi] that starts with '#' with line
    ends, which read as blank lines; False if one is not UTF-8."""
    b = buf[lo:hi]
    hashes = np.flatnonzero(b == _HASH)
    before = b[np.maximum(hashes - 1, 0)]
    starts = hashes[(hashes == 0) | (before == _LF) | (before == _CR)]
    if not starts.size:
        return True
    line_ends = np.flatnonzero((b == _LF) | (b == _CR))
    for h, e in zip(starts.tolist(), line_ends[np.searchsorted(line_ends, starts)].tolist()):
        try:
            b[h:e].tobytes().decode("utf-8")
        except UnicodeDecodeError:
            return False
        b[h:e] = _LF
    return True


def _rows(buf, size, n_cols):
    """The rows of the whole lines buf[:size] as a (rows, n_cols) float
    matrix, or None; buf holds _PAD bytes more."""
    b = buf[:size]
    if (b == _HASH).any() and not _blank_comments(buf, 0, size):
        return None
    cell_end = b == _COMMA
    cell_end |= b == _LF
    cell_end |= b == _CR
    ends = np.flatnonzero(cell_end)
    del cell_end
    starts = np.empty_like(ends)
    starts[:1] = 0
    starts[1:] = ends[:-1] + 1
    at_line_end = buf[ends] != _COMMA
    # an empty cell that is a whole line is a blank line; "\r\n" gives one
    blank = (starts == ends) & at_line_end
    blank[1:] &= at_line_end[:-1]
    if blank.any():
        keep = ~blank
        starts, ends, at_line_end = starts[keep], ends[keep], at_line_end[keep]
    rows = len(ends) // n_cols
    if (len(ends) != rows * n_cols or not at_line_end[n_cols - 1::n_cols].all()
            or np.count_nonzero(at_line_end) != rows):
        return None
    if rows == 0:
        return np.empty((0, n_cols))
    _trim(buf, starts, ends)
    values = _values(buf, starts, ends)
    return None if values is None else values.reshape(rows, n_cols)


def _trim(buf, starts, ends):
    """Move starts and ends past the spaces and tabs around each cell."""
    while True:
        c = buf[starts]
        pad = (c == _SPACE) | (c == _TAB)
        if not pad.any():
            break
        starts += pad
    while True:
        c = buf[ends - 1]
        pad = ((c == _SPACE) | (c == _TAB)) & (ends > starts)
        if not pad.any():
            break
        ends -= pad


def _digits(words, q, m, big):
    """Read the run of ASCII digits at each position q into m: q moves past
    it, m becomes m * 10**len + its value, and big is set where that would
    pass 2**64. Returns the run lengths.

    Each round reads 8 bytes at every q; the work is done in place on three
    arrays, w, d and t, as each ufunc call on a large array runs without
    the GIL.
    """
    count = np.zeros(q.shape, dtype=np.intp)
    while True:
        w = words[q]
        d = w - _ZEROS
        # the high bit of each byte that is not a digit: below '0' borrows,
        # above '9' carries, and no byte before the first one does either
        t = w + _ABOVE_NINE
        t |= d
        t |= w
        t &= _HIGH
        t >>= _U64(7)
        # w: the bytes before the first that is not a digit; t: their count
        np.invert(t, out=w)
        w += _U64(1)
        w &= t
        w -= _U64(1)
        d &= w
        np.bitwise_and(w, _ONES, out=t)
        t *= _ONES
        t >>= _U64(56)
        # left-align the digits: the empty bytes below are leading zeros
        np.left_shift(t, _U64(3), out=w)
        np.subtract(_U64(64), w, out=w)
        d <<= w
        # SWAR: pairs of digits, then the two halves (simdjson's
        # parse_eight_digits_unrolled)
        np.right_shift(d, _U64(8), out=w)
        d *= _U64(10)
        d += w
        np.right_shift(d, _U64(16), out=w)
        w &= _U64(0x000000FF000000FF)
        w *= _U64(1 + (10000 << 32))
        d &= _U64(0x000000FF000000FF)
        d *= _U64(100 + (1000000 << 32))
        d += w
        d >>= _U64(32)
        n = t.view(np.intp)
        big |= m > _MAX_BEFORE.take(n)
        m *= _POW10.take(n)
        m += d
        q += n
        count += n
        if not (n == 8).any():
            return count


def _values(buf, starts, ends):
    """The value of each cell buf[starts[i]:ends[i]] (trimmed), or None if
    one does not read as a finite number."""
    # buf as overlapping 8-byte words
    words = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
    q = starts.copy()
    c = buf[q]
    negative = c == _MINUS
    q += negative | (c == _PLUS)
    m = np.zeros(q.shape, dtype=_U64)
    # the cells that float() settles: first those whose mantissa passes 2**64
    unsettled = np.zeros(q.shape, dtype=bool)
    n_digits = _digits(words, q, m, unsettled)
    point = buf[q] == _DOT
    q += point
    n_fraction = _digits(words, q, m, unsettled)
    n_digits += n_fraction
    # the value is m * 10**q10
    q10 = np.negative(n_fraction, out=n_fraction)
    # few cells have an exponent: its scan runs on those alone
    c = buf[q]
    at = np.flatnonzero((c == _E) | (c == _LOWER_E))
    if at.size:
        qe = q[at] + 1
        c = buf[qe]
        qe += (c == _MINUS) | (c == _PLUS)
        exponent = np.zeros(qe.shape, dtype=_U64)
        unsettled_e = unsettled[at]
        if not (_digits(words, qe, exponent, unsettled_e) > 0).all():
            return None
        q[at] = qe
        unsettled[at] = unsettled_e | (exponent > _U64(_MAX_EXPONENT))
        e = np.minimum(exponent, _U64(_MAX_EXPONENT), out=exponent).view(np.intp)
        np.negative(e, out=e, where=c == _MINUS)
        q10[at] += e
    if not ((q == ends) & (n_digits > 0)).all():
        return None
    # the arrays go as soon as they are used: a chunk's working set is a
    # few times its bytes, on every worker at once
    del q, n_digits
    k = np.abs(q10)
    clinger = k <= 22
    clinger &= m <= _U64(2**53)
    clinger |= m == 0
    np.minimum(k, 22, out=k)
    values = m.astype(np.float64)
    power = _POW10_F.take(k)
    del k
    np.divide(values, power, out=values, where=q10 < 0)
    np.multiply(values, power, out=values, where=q10 >= 0)
    del power
    rest = np.flatnonzero(~clinger & ~unsettled)
    if rest.size:
        if _LONG_DOUBLE:
            rest = rest[_long_double(values, rest, m, q10)]
        unsettled[rest] = True
    np.negative(values, out=values, where=negative)
    for i in np.flatnonzero(unsettled).tolist():
        values[i] = float(buf[starts[i]:ends[i]].tobytes())
    return values if np.isfinite(values).all() else None


def _long_double(values, rest, m, q10):
    """Set values[rest] where the long double product settles the double;
    return the mask of rest that it does not."""
    q = q10[rest]
    k = np.abs(q)
    ok = k <= _MAX_LD_POWER
    np.minimum(k, _MAX_LD_POWER, out=k)
    r = m[rest].astype(np.longdouble)
    power = _POW10_LD.take(k)
    del k
    np.divide(r, power, out=r, where=q < 0)
    np.multiply(r, power, out=r, where=q >= 0)
    del power
    ok &= (r.view(_U64)[::2] & _U64(0x7FF)) - _U64(1020) > _U64(8)
    ok &= (r >= _TINY_LD) & (r <= _HUGE_LD)
    values[rest[ok]] = r[ok].astype(np.float64)
    return ~ok
