"""float.__repr__ of every element of a float64 array, laid out as bytes.

Ryu (Adams, "Ryu: fast float-to-string conversion", PLDI 2018) finds the
shortest decimal that reads back as the same double, correctly rounded,
using fixed-width integer arithmetic alone. repr_bytes ports its d2d to
numpy uint64 arrays and lays the digits out as float.__repr__ does, so that
a whole column is formatted without a Python string per value: shortest
round-trip digits, ties to even, positional for -4 < decpt <= 16 (an
integral value gets ".0"), d[.ddd]e+XX otherwise, and inf and nan.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["WIDTH", "repr_bytes", "template"]

_MANTISSA_BITS = 52
_BIAS = 1023
_POW5_INV_ENTRIES = 342  # Ryu's DOUBLE_POW5_INV_TABLE_SIZE
_POW5_ENTRIES = 326  # Ryu's DOUBLE_POW5_TABLE_SIZE
_POW5_BITCOUNT = 125  # bits of each multiplier in both tables

_U64 = np.uint64
_LO32 = _U64(0xFFFFFFFF)
_ALL_BITS = (1 << 64) - 1

# Columns of the layout template. Every repr is the template's bytes at the
# columns that its row of the keep table marks, in order: the sign, a "0" for
# values below 1, the digits up to the decimal point (A), the point, up to 3
# zeros after it, the digits after the point (B), and the exponent. A and B
# both hold all 17 digits, left-aligned and padded with '0'.
_SIGN, _LEAD_ZERO, _A, _DOT, _ZEROS, _B, _E, _EXP_SIGN, _EXP = 0, 1, 2, 19, 20, 23, 40, 41, 42
WIDTH = 45  # columns of the template, the last exponent digit included
# Rows of the keep table: 18 digit counts for each layout, decpt -3..16
# positional, then exponential with 2 and with 3 exponent digits.
_COUNTS = 18
_EXPONENTIAL = 20


@functools.cache
def _keep_table(width):
    """keep[layout * _COUNTS + digit count]: the template columns of a repr,
    padded to width with columns that no repr keeps."""
    keep = np.zeros((_EXPONENTIAL + 2, _COUNTS, width), dtype=bool)
    for count in range(1, _COUNTS):
        for dp in range(-3, 17):
            row = keep[dp + 3, count]
            if dp <= 0:
                # 0.000ddd
                row[_LEAD_ZERO] = True
                row[_ZEROS:_ZEROS - dp] = True
                row[_B:_B + count] = True
            else:
                # ddd.ddd, or ddd000.0 when the digits end before the point
                row[_A:_A + dp] = True
                row[_B + dp:_B + max(count, dp + 1)] = True
            row[_DOT] = True
        for wide in (0, 1):
            # d.ddde-XX or d.ddde-XXX
            row = keep[_EXPONENTIAL + wide, count]
            row[_A] = True
            row[_DOT] = count > 1
            row[_B + 1:_B + count] = True
            row[[_E, _EXP_SIGN]] = True
            row[_EXP + 1 - wide:_EXP + 3] = True
    keep.flags.writeable = False
    return keep.reshape(-1, width)


@functools.cache
def _tables():
    """Ryu's multipliers per binary exponent, and the small tables, built on
    first use.

    The multipliers are Ryu's DOUBLE_POW5_INV_SPLIT (342 entries,
    floor(2**(bitlen(5**q) + 124) / 5**q) + 1) and DOUBLE_POW5_SPLIT (326
    entries, the top 125 bits of 5**i). What d2d derives from the biased
    exponent alone (the multiplier, the shift, the power of ten, the mask
    that says whether vr's dropped digits are zeros, whether q is small
    enough for vp or vm to be exact) is tabulated for each of the 2048.
    """
    mults = [(1 << ((5**q).bit_length() - 1 + _POW5_BITCOUNT)) // 5**q + 1
             for q in range(_POW5_INV_ENTRIES)]
    for i in range(_POW5_ENTRIES):
        shift = (5**i).bit_length() - _POW5_BITCOUNT
        mults.append(5**i >> shift if shift > 0 else 5**i << -shift)
    mul_lo = np.array([m & _ALL_BITS for m in mults], dtype=_U64)
    mul_hi = np.array([m >> 64 for m in mults], dtype=_U64)

    e2 = np.maximum(np.arange(2048), 1) - _BIAS - _MANTISSA_BITS - 2
    positive = e2 >= 0
    a = np.abs(e2)
    # q = log10Pow2(e2) - (e2 > 3) for e2 >= 0, log10Pow5(-e2) - (-e2 > 1) below
    q = np.where(positive, ((a * 78913) >> 18) - (a > 3), ((a * 732923) >> 20) - (a > 1))
    i = a - q
    pow5bits_q, pow5bits_i = ((q * 1217359) >> 19) + 1, ((i * 1217359) >> 19) + 1
    j = np.where(positive, q - e2 + _POW5_BITCOUNT - 1 + pow5bits_q,
                 q - pow5bits_i + _POW5_BITCOUNT)
    row = np.where(positive, q, _POW5_INV_ENTRIES + i)
    # for e2 < 0, vr's dropped digits are zeros if mv has q trailing zero bits
    low_bits = np.where(positive | (q >= 63), _U64(_ALL_BITS),
                        (_U64(1) << np.minimum(q, 63).astype(_U64)) - _U64(1))
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    tables = {
        "mul_lo": mul_lo[row],
        "mul_hi": mul_hi[row],
        "dist": (j - 64).astype(_U64),
        "e10": np.where(positive, q, q + e2),
        "low_bits": low_bits,
        "q": q,
        "positive_e2": positive,
        "small_q": np.where(positive, q <= 21, q <= 1),
        "pow5": np.array([5**q for q in range(22)], dtype=_U64),
        # vr < 2**64 has at most 20 digits, so at most 19 are dropped
        "pow10": np.array([10**k for k in range(20)], dtype=_U64),
        # 5 * 10**(k - 1): dropping k digits rounds up from here (never for k = 0)
        "half_pow10": np.array([1] + [5 * 10**k for k in range(19)], dtype=_U64),
        # 4 ASCII digits of 0..9999 as one uint32, so a gather moves 4 bytes
        "digits4": digits.astype(np.uint8).view(np.uint32).ravel(),
    }
    for table in tables.values():
        table.flags.writeable = False
    return tables


def _mul_64(a, b):
    """The low and high 64-bit words of a * b, for uint64 arrays. The
    partial products are formed in place of the halves they replace, the
    first of them in b."""
    a0, a1 = a & _LO32, a >> _U64(32)
    b1 = b >> _U64(32)
    b0 = np.bitwise_and(b, _LO32, out=b)
    p00 = a0 * b0
    p01 = np.multiply(a0, b1, out=a0)
    p10 = np.multiply(b0, a1, out=b0)
    hi = np.multiply(a1, b1, out=a1)
    del b1
    mid = p00 >> _U64(32)
    mid += p01 & _LO32
    mid += p10 & _LO32
    p00 &= _LO32
    lo = mid << _U64(32)
    lo |= p00
    del p00
    hi += p01 >> _U64(32)
    hi += p10 >> _U64(32)
    hi += mid >> _U64(32)
    return lo, hi


def _shr(mid, hi, dist):
    """(hi:mid:lo) >> (64 + dist) as a uint64, 0 < dist < 64: Ryu's
    shiftright128 of the top two words of a 192-bit product, written over
    hi (mid is shifted in place too)."""
    hi <<= _U64(64) - dist
    mid >>= dist
    hi |= mid
    return hi


def _plus(lo, mid, hi, add_lo, add_hi):
    """The top two words of (hi:mid:lo) + (add_hi:add_lo)."""
    mid2 = mid + add_hi
    mid2 += lo + add_lo < lo
    return mid2, hi + (mid2 < mid)


def _minus(lo, mid, hi, sub_lo, sub_hi):
    """The top two words of (hi:mid:lo) - (sub_hi:sub_lo)."""
    mid2 = mid - sub_hi
    mid2 -= lo - sub_lo > lo
    return mid2, hi - (mid2 > mid)


def _d2d(bits):
    """Ryu's d2d on the bit patterns of finite nonzero doubles.

    Returns (mantissa, exponent): the shortest decimal mantissa, correctly
    rounded, with no trailing zero, and its power of ten.
    """
    t = _tables()
    biased = (bits >> _U64(_MANTISSA_BITS)).astype(np.intp)
    biased &= 0x7FF
    mv = bits & _U64((1 << _MANTISSA_BITS) - 1)
    power_of_two = mv == 0
    np.bitwise_or(mv, _U64(1 << _MANTISSA_BITS), out=mv, where=biased != 0)
    # 2 extra bits give room for the bounds: the interval is (mv - 1 -
    # mm_shift, mv + 2) * 2**e2, mm_shift 0 only at an exact power of two
    mv <<= _U64(2)

    # Step 3: scale mv and both bounds by 2**e2 / 10**e10. One 192-bit
    # product mv * mul gives all three, each shifted right by 64 + dist.
    # Each table row is taken where it is next needed, and taken again
    # rather than kept, to hold the fewest arrays at once.
    lo, carry = _mul_64(mv, t["mul_lo"].take(biased))
    mid, hi = _mul_64(mv, t["mul_hi"].take(biased))
    mid += carry
    hi += mid < carry
    del carry
    mul_lo, mul_hi, dist = t["mul_lo"].take(biased), t["mul_hi"].take(biased), t["dist"].take(biased)
    s = np.flatnonzero(power_of_two & (biased > 1))
    if s.size:
        vm_s = _shr(*_minus(lo[s], mid[s], hi[s], mul_lo[s], mul_hi[s]), dist[s])
    # twice mul, in place
    mul_hi <<= _U64(1)
    mul_hi |= mul_lo >> _U64(63)
    mul_lo <<= _U64(1)
    vp = _shr(*_plus(lo, mid, hi, mul_lo, mul_hi), dist)
    vm = _shr(*_minus(lo, mid, hi, mul_lo, mul_hi), dist)
    del lo, mul_lo, mul_hi
    vr = _shr(mid, hi, dist)
    del mid, hi, dist
    if s.size:
        vm[s] = vm_s

    # Whether the digits that step 4 drops from vr (vm) are all zeros.
    vr_zeros = (mv & t["low_bits"].take(biased)) == 0
    vm_zeros = np.zeros(bits.shape, dtype=bool)
    s = np.flatnonzero(t["small_q"].take(biased))
    if s.size:
        b = biased[s]
        vr_zeros[s], vm_zeros[s], vp[s] = _exact_bounds(
            mv[s], ~power_of_two[s] | (b <= 1), t["q"][b], t["positive_e2"][b], vp[s],
            t["pow5"])

    # Step 4: drop digits while the interval still holds a shorter decimal.
    general = vr_zeros | vm_zeros
    g = np.flatnonzero(general)
    if g.size == 0:
        out, removed = _shortest_common(vr, vp, vm, t)
    else:
        out = np.empty_like(vr)
        removed = np.empty(bits.shape, dtype=np.intp)
        out[g], removed[g] = _shortest_general(
            vr[g], vp[g], vm[g], vr_zeros[g], vm_zeros[g], (mv[g] & _U64(4)) == 0)
        c = np.flatnonzero(~general)
        out[c], removed[c] = _shortest_common(vr[c], vp[c], vm[c], t)
    exponent = t["e10"].take(biased) + removed
    # a round up can carry into zeros: 1299 -> 1300 is 13e2
    s = np.flatnonzero(out - out // _U64(10) * _U64(10) == 0)
    while s.size:
        out[s] //= _U64(10)
        exponent[s] += 1
        s = s[out[s] % _U64(10) == 0]
    return out, exponent


def _exact_bounds(mv, mm_shift, q, positive_e2, vp, pow5):
    """Ryu's cases for small q, where the scaled mv, vm or vp can be exact:
    (vr_zeros, vm_zeros, vp). A bound is in the interval only when the
    mantissa is even (Ryu's acceptBounds), so an exact vp is stepped down."""
    even = (mv & _U64(4)) == 0
    p5 = pow5[np.minimum(q, 21)]
    by5 = mv % _U64(5) == 0
    vr_zeros = np.where(positive_e2, by5 & (mv % p5 == 0), True)
    vm_zeros = np.where(positive_e2, ~by5 & even & ((mv - _U64(1) - mm_shift) % p5 == 0),
                        even & mm_shift)
    vp_exact = np.where(positive_e2, ~by5 & ~even & ((mv + _U64(2)) % p5 == 0), ~even)
    return vr_zeros, vm_zeros, vp - vp_exact


def _shortest_common(vr, vp, vm, t):
    """Ryu's digit removal when no bound is exact (about 99% of doubles):
    drop the digits that vp and vm do not share, then round vr half up on
    them, or up when it fell to vm. vp and vm are divided in place."""
    removed = np.zeros(vr.shape, dtype=np.intp)
    act = np.arange(vr.size)
    up, down = np.floor_divide(vp, _U64(10), out=vp), vm // _U64(10)
    while act.size:
        more = np.flatnonzero(up > down)
        # one at a time, so that each array is freed as the next is made
        act = act.take(more)
        up = up.take(more)
        up //= _U64(10)
        down = down.take(more)
        down //= _U64(10)
        removed[act] += 1
    scale = t["pow10"].take(removed)
    out = vr // scale
    rest = out * scale
    np.subtract(vr, rest, out=rest)
    round_up = rest >= t["half_pow10"].take(removed)
    del rest
    round_up |= out == np.floor_divide(vm, scale, out=vm)
    out += round_up
    return out, removed


def _drop_digit(act, vr, vp, vm, removed, vp_next, vm_next):
    """Drop one digit of vr, vp and vm at the indices act; return the digit
    dropped from vr."""
    vr_next = vr[act] // _U64(10)
    digit = vr[act] - vr_next * _U64(10)
    vr[act], vp[act], vm[act] = vr_next, vp_next, vm_next
    removed[act] += 1
    return digit


def _shortest_general(vr, vp, vm, vr_zeros, vm_zeros, even):
    """Ryu's digit removal when vr or vm may end in exact zeros: ties go to
    even, and vm is a valid output when even and exact."""
    last = np.zeros(vr.shape, dtype=_U64)
    removed = np.zeros(vr.shape, dtype=np.intp)
    act = np.arange(vr.size)
    while act.size:
        vp10, vm10 = vp[act] // _U64(10), vm[act] // _U64(10)
        more = vp10 > vm10
        act, vp10, vm10 = act[more], vp10[more], vm10[more]
        if act.size:
            vm_zeros[act] &= vm[act] - vm10 * _U64(10) == 0
            vr_zeros[act] &= last[act] == 0
            last[act] = _drop_digit(act, vr, vp, vm, removed, vp10, vm10)
    act = np.flatnonzero(vm_zeros)
    while act.size:
        vm10 = vm[act] // _U64(10)
        more = vm[act] - vm10 * _U64(10) == 0
        act, vm10 = act[more], vm10[more]
        if act.size:
            vr_zeros[act] &= last[act] == 0
            last[act] = _drop_digit(act, vr, vp, vm, removed, vp[act] // _U64(10), vm10)
    # round half to even when the exact value ends in 5000...
    last[vr_zeros & (last == 5) & (vr % _U64(2) == 0)] = 4
    take_up = ((vr == vm) & ~(even & vm_zeros)) | (last >= 5)
    return vr + take_up, removed


def _write_digits(chars, columns, mantissa, t):
    """Write the ASCII digits of mantissa (< 10**17) into the 17 columns
    of the byte matrix chars from each of columns, left-aligned and padded
    with '0'; return the digit counts."""
    pow10 = t["pow10"]
    count = np.searchsorted(pow10[1:17], mantissa, side="right") + 1
    v = mantissa * pow10.take(17 - count)
    lead = v // pow10[16]
    v -= lead * pow10[16]
    lead += _U64(ord("0"))
    hi8 = v // pow10[8]
    v -= hi8 * pow10[8]
    groups = np.empty((v.size, 4), dtype=np.uint32)
    for k, part in enumerate((hi8, v)):
        top = part // pow10[4]
        groups[:, 2 * k] = t["digits4"].take(top)
        part -= top * pow10[4]
        groups[:, 2 * k + 1] = t["digits4"].take(part)
    for c in columns:
        chars[:, c] = lead
        chars[:, c + 1:c + 17] = groups.view(np.uint8)
    return count


def template(n, width=WIDTH):
    """An n x width (chars, keep) pair for repr_bytes to fill, width >=
    WIDTH: chars holds the template's constant bytes ("-", "0", ".", "000",
    "e"), which repr_bytes does not write, so a caller that formats many
    blocks into one pair lays them out once."""
    chars = np.empty((n, width), dtype=np.uint8)
    chars[:, _SIGN], chars[:, _LEAD_ZERO], chars[:, _DOT], chars[:, _E] = b"-0.e"
    chars[:, _ZEROS:_ZEROS + 3] = ord("0")
    return chars, np.empty((n, width), dtype=bool)


def repr_bytes(values, width=WIDTH, out=None):
    """repr of each float64 of values (any shape, read in C order) as a
    template row and a mask.

    Returns (chars, keep), two n x width matrices (width >= WIDTH), uint8 and
    bool: the bytes chars[i][keep[i]] are the ASCII of repr(float(value i)).
    No value keeps a column past WIDTH, so a caller can put its own bytes
    there. out, if given, is a pair from template(n, width) to write them
    into; the columns it holds constant must still hold them.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    bits = x.view(_U64)
    t = _tables()
    magnitude = bits & _U64((1 << 63) - 1)
    finite = magnitude < _U64(0x7FF << _MANTISSA_BITS)
    plain = finite & (magnitude != 0)
    del magnitude
    if plain.all():
        mantissa, exponent = _d2d(bits)
    else:
        # 0 is mantissa 0, exponent 0: one digit, "0.0"
        s = np.flatnonzero(plain)
        mantissa = np.zeros(x.size, dtype=_U64)
        exponent = np.zeros(x.size, dtype=np.intp)
        mantissa[s], exponent[s] = _d2d(bits[s])
    del plain

    chars, keep = out if out is not None else template(x.size, width)
    count = _write_digits(chars, (_A, _B), mantissa, t)
    del mantissa
    decpt = exponent
    decpt += count  # the value is 0.d1d2... * 10**decpt
    layout = decpt + 3
    s = np.flatnonzero((decpt <= -4) | (decpt > 16))
    if s.size:
        exp10 = decpt[s] - 1
        mag = np.abs(exp10)
        chars[s, _EXP_SIGN] = np.where(exp10 < 0, ord("-"), ord("+"))
        chars[s, _EXP] = mag // 100 + ord("0")
        chars[s, _EXP + 1] = mag // 10 % 10 + ord("0")
        chars[s, _EXP + 2] = mag % 10 + ord("0")
        layout[s] = _EXPONENTIAL + (mag >= 100)
    # "clip" writes into keep directly, where "raise" would buffer a copy;
    # every row number is in range
    keep = _keep_table(width).take(layout * _COUNTS + count, axis=0, out=keep, mode="clip")
    keep[:, _SIGN] = bits >> _U64(63)
    s = np.flatnonzero(~finite)
    if s.size:
        # "inf", "-inf" or "nan": a NaN's sign is not written
        infinite = bits[s] << _U64(1) == _U64(0x7FF << (_MANTISSA_BITS + 1))
        chars[s, _A:_A + 3] = np.where(infinite[:, None], np.frombuffer(b"inf", np.uint8),
                                       np.frombuffer(b"nan", np.uint8))
        keep[s] = False
        keep[s, _A:_A + 3] = True
        keep[s, _SIGN] = infinite & (bits[s] >> _U64(63)).astype(bool)
    return chars, keep
