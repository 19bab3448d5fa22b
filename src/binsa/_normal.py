"""Standard normal quantile (ndtri) and CDF (ndtr) in numpy.

Ports of the Cephes routines ndtri, ndtr, erf and erfc (S. L. Moshier,
Cephes Mathematical Library, 1984-2000) that scipy.special evaluates for
float64. The coefficients, the branch points and the operation order are
Cephes', so every result is bitwise that of scipy.special.ndtri and
scipy.special.ndtr (NaN is NaN, whatever its sign bit).

Each branch is evaluated only on the elements that take it. Logs and
exponentials go through math, the C library's log and exp, one element at a
time and only where a branch needs them (the tails of ndtri, |x| >= sqrt(2)
in ndtr): numpy's vectorized log can differ from the C library's in the last
bit. np.sqrt is correctly rounded, as is every +, -, * and /.

Both functions work through their input BLOCK_ROWS elements at a time, so
that the temporaries of a call take a fixed amount of memory whatever the
input's length: only the output grows with it, and not even that when the
caller passes out=, as the sampler does to transform a column in place.
"""

from __future__ import annotations

import math

import numpy as np

# Elements per block of ndtri and ndtr, whose temporaries for a block take
# about 1 MB. The package's other blocked loops (the Sobol' generator, which
# needs a power of 2, the PRNG fill, mid-ranks) use it too.
BLOCK_ROWS = 16384

# sqrt(2 pi)
_S2PI = 2.50662827463100050242e0
# exp(-2): ndtri's central region is exp(-2) < y < 1 - exp(-2)
_EXP_M2 = 0.13533528323661269189
# sqrt(1/2)
_SQRT1_2 = 0.707106781186547524400844362104849039
# log of the largest double: erfc(x) is taken as 0 once x * x exceeds it
_MAXLOG = 7.09782712893383996843e2

# ndtri, |y - 1/2| <= 3/8: x = y + y * y2 * P0(y2) / Q0(y2), y2 = y * y
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# ndtri tails, z = 1 / sqrt(-2 log y), 2 <= 1/z < 8
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# ndtri tails, 1/z >= 8
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)
# erf, |x| <= 1: x * T(x * x) / U(x * x)
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
# erfc, 1 <= x < 8: exp(-x * x) * P(x) / Q(x)
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
# erfc, x >= 8: exp(-x * x) * R(x) / S(x)
_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_S = (
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)


def _polevl(x, coef):
    """coef[0] x^n + ... + coef[n] by Horner's rule, as Cephes' polevl."""
    ans = coef[0] * x
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef):
    """x^n + coef[0] x^(n-1) + ... + coef[n-1], as Cephes' p1evl."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _libm(fn, x):
    """fn (math.log or math.exp) applied to each element of the 1-D array x."""
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)


def _blocked(kernel, x, out=None):
    """kernel applied to x (a float array) BLOCK_ROWS elements at a time,
    into out, or into one new array of x's shape. out may be x itself, or
    any 1-D view such as a strided column: each block is read whole before
    it is written."""
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty(x.shape)
    flat, dest = x.reshape(-1), out.reshape(-1)
    with np.errstate(all="ignore"):
        for start in range(0, flat.size, BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            dest[block] = kernel(flat[block])
    return out


def ndtri(y0, out=None):
    """Inverse of the standard normal CDF, bitwise scipy.special.ndtri.

    ndtri(0) = -inf, ndtri(1) = inf, and outside [0, 1] or at NaN the result
    is NaN. No floating-point warning is raised. The result goes into out
    where it is given, which may be y0 itself (see _blocked).
    """
    return _blocked(_ndtri, y0, out)


def _ndtri(flat):
    """ndtri of the 1-D array flat."""
    out = np.full(flat.shape, np.nan)
    out[flat == 0.0] = -np.inf
    out[flat == 1.0] = np.inf
    # near 1, work with 1 - y and return a positive quantile; below 0,
    # above 1, at 0, at 1 and at NaN, y fails both tests below
    upper = flat > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - flat, flat)

    central = np.flatnonzero(y > _EXP_M2)
    yc = y[central] - 0.5
    y2 = yc * yc
    out[central] = (yc + yc * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI

    tail = np.flatnonzero((y > 0.0) & (y <= _EXP_M2))
    x = np.sqrt(-2.0 * _libm(math.log, y[tail]))
    x0 = x - _libm(math.log, x) / x
    z = 1.0 / x
    x1 = np.empty_like(x)
    near = np.flatnonzero(x < 8.0)
    zn = z[near]
    x1[near] = zn * _polevl(zn, _P1) / _p1evl(zn, _Q1)
    far = np.flatnonzero(x >= 8.0)
    zf = z[far]
    x1[far] = zf * _polevl(zf, _P2) / _p1evl(zf, _Q2)
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out


def ndtr(a, out=None):
    """Standard normal CDF, bitwise scipy.special.ndtr.

    ndtr(NaN) is NaN. No floating-point warning is raised. The result goes
    into out where it is given, which may be a itself (see _blocked).
    """
    return _blocked(_ndtr, a, out)


def _ndtr(a):
    """ndtr of the 1-D array a."""
    x = a * _SQRT1_2
    z = np.abs(x)
    out = np.full(x.shape, np.nan)
    # 1/2 + erf(x)/2, erf by its series ratio on |x| < sqrt(1/2)
    central = np.flatnonzero(z < _SQRT1_2)
    xc = x[central]
    x2 = xc * xc
    out[central] = 0.5 + 0.5 * (xc * _polevl(x2, _T) / _p1evl(x2, _U))

    # erfc(|x|) / 2 elsewhere; erfc is 1 - erf below 1
    near = np.flatnonzero((z >= _SQRT1_2) & (z < 1.0))
    zn = z[near]
    z2 = zn * zn
    out[near] = 0.5 * (1.0 - zn * _polevl(z2, _T) / _p1evl(z2, _U))

    # from 1 up, exp(-z * z) times a rational function, and 0 once
    # -z * z falls below -MAXLOG (NaN fails every test and stays NaN)
    mz2 = -z * z
    out[mz2 < -_MAXLOG] = 0.0
    mid = np.flatnonzero((z >= 1.0) & (mz2 >= -_MAXLOG))
    zm = z[mid]
    e = _libm(math.exp, mz2[mid])
    erfc = np.empty_like(zm)
    below8 = np.flatnonzero(zm < 8.0)
    zb = zm[below8]
    erfc[below8] = e[below8] * _polevl(zb, _P) / _p1evl(zb, _Q)
    above8 = np.flatnonzero(zm >= 8.0)
    za = zm[above8]
    erfc[above8] = e[above8] * _polevl(za, _R) / _p1evl(za, _S)
    out[mid] = 0.5 * erfc

    # reflect the upper tail
    right = np.flatnonzero((x > 0.0) & (z >= _SQRT1_2))
    out[right] = 1.0 - out[right]
    return out
