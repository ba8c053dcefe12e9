"""Pure-Python kernels: the hot inner loops, arithmetic-only.

This module is the fallback twin of the compiled ``_kernels`` extension.
Both implementations perform the identical sequence of float operations,
so results are bit-for-bit equal regardless of which one is active.

Nothing here may call a host square root, exp, log or fractional power;
the only operations used are +, -, *, / and comparisons (the source audit
in the test suite enforces this).
"""


def default_guess(x):
    """Starting point for the square-root iteration.

    The root of a d-digit number has about d/2 digits, so for x >= 1 the
    guess is 10 raised to floor(d / 2), built by repeated multiplication.
    Below 1 the same rule runs on the leading zeros: while a copy of x is
    below 0.01 it is multiplied by 100 and the guess, starting at 1, is
    divided by 10.  So x in [0.01, 1) starts at 1, 1e-36 at 1e-18, and
    x <= 0, which has no root, at 1.  The guess lands within roughly one
    order of magnitude of the root over the whole positive float range,
    subnormals included, so the iteration needs only a few steps; x = 1
    starts exactly on its own root.
    """
    if x < 1.0:
        g = 1.0
        while 0.0 < x < 0.01:
            x *= 100.0
            g /= 10.0
        return g
    d = len(str(int(x)))
    g = 1.0
    for _ in range(d // 2):
        g *= 10.0
    return g


def heron_pairs(x, guess, rel_tol, max_iterations):
    """Run the divide-and-average square-root iteration.

    Returns ``(pairs, result, converged)`` where ``pairs`` is the list of
    (x_k, y_k) iterates actually visited, y_k = x / x_k, and the next
    iterate is their mean.  Stops when consecutive iterates agree to
    ``rel_tol`` (relative), or exactly coincide, whichever happens first.
    """
    pairs = []
    xk = guess
    for _ in range(max_iterations):
        yk = x / xk
        pairs.append((xk, yk))
        xn = (xk + yk) / 2.0
        if xn == xk or abs(xn - xk) <= rel_tol * xn:
            return pairs, xn, True
        xk = xn
    return pairs, xk, False


def ladder_rungs(base, depth, rel_tol, max_iterations):
    """Repeated square roots of ``base``: rungs[j] = base^(1/2^j).

    Each rung is the converged square root of the previous one; if any
    rung fails to converge the whole build reports failure (second return
    value False).
    """
    rungs = [base]
    for _ in range(depth):
        _, r, ok = heron_pairs(rungs[-1], default_guess(rungs[-1]),
                               rel_tol, max_iterations)
        if not ok:
            return rungs, False
        rungs.append(r)
    return rungs, True


# Veltkamp's splitter 2^27 + 1: t - (t - a) with t = a * _SPLIT keeps the top
# 26 bits of a, and a minus that keeps the rest.
_SPLIT = 134217729.0
# A two-product whose first factor or result passes 2^995 could overflow in
# its split or partial products, so it scales that factor by 2^-64 first and
# the error term back by 2^64; a double-double division whose dividend
# passes 2^995 does the same to the dividend and its quotient.
_BIG = float.fromhex("0x1p995")
_DOWN = float.fromhex("0x1p-64")
_UP = float.fromhex("0x1p64")
_DBL_MAX = float.fromhex("0x1.fffffffffffffp1023")


def _two_prod(a, b):
    """(p, e) with p = a * b rounded and p + e = a * b exactly (Dekker).

    For positive a and b with b at most 2^995 and a * b finite (and above
    about 2^-900, or e loses bits to underflow); only + - * are used, no
    fused multiply-add.
    """
    p = a * b
    s = p
    scale = 1.0
    if a > _BIG or p > _BIG:
        a *= _DOWN
        s = a * b
        scale = _UP
    t = a * _SPLIT
    ah = t - (t - a)
    al = a - ah
    t = b * _SPLIT
    bh = t - (t - b)
    bl = b - bh
    e = ((ah * bh - s) + ah * bl + al * bh) + al * bl
    return p, e * scale


def _dd_mul(h, l, ph, pl):
    """(h + l) * (ph + pl) as a normalized double-double pair."""
    p, e = _two_prod(ph, h)
    e += h * pl + l * ph
    s = p + e
    return s, e - (s - p)


def _dd_div(h, l, ph, pl):
    """(h + l) / (ph + pl) for h >= ph, as a normalized double-double pair.

    The quotient q = h / ph is corrected by the exact remainder
    h - q * ph (a two-product away) plus the low parts, over ph.
    """
    scale = 1.0
    if h > _BIG:
        h *= _DOWN
        l *= _DOWN
        scale = _UP
    q = h / ph
    p, e = _two_prod(ph, q)
    d = ((((h - p) - e) + l) - q * pl) / ph
    s = q + d
    return s * scale, (d - (s - q)) * scale


def log_split(y, base, rungs):
    """Characteristic plus greedy dyadic mantissa extraction.

    The characteristic takes O(log |c|) steps.  For y >= base the powers
    base^(2^i) are built as double-double pairs by repeated squaring while
    they stay at most y, then divided out of the residual from the largest
    down (the largest as often as it fits) whenever the residual reaches
    them; for y < 1 they are built while y times their square stays below
    1, and multiplied in whenever the product stays below base.  Either
    way the residual ends in [1, base) as a double-double, about 2^-100
    relative from exact, so its high part is y / base^c correctly rounded;
    the plain single-step loops then move only a high part that rounded
    onto base.  The greedy walk over the rung list follows: whenever the
    residual still reaches rungs[j] it is divided out and bit j of the
    mantissa is set.  Returns
    ``(characteristic, mantissa_numerator, residual)`` with the numerator
    on the 2^-depth grid and 1 <= residual < rungs[depth].  Raises
    ValueError unless y is positive and finite and base is finite and > 1.
    """
    if not (0.0 < y <= _DBL_MAX and 1.0 < base <= _DBL_MAX):
        raise ValueError("log_split needs a positive finite y and a finite "
                         "base > 1")
    c = 0
    h, l = y, 0.0
    # base^(2^62) overflows even for base 1 + 2^-52, so the cap of 63
    # powers never binds for valid input; it bounds the C twin's arrays
    if y >= base:
        pows = [(base, 0.0)]
        while len(pows) < 63 and pows[-1][0] * pows[-1][0] <= y:
            ph, pl = pows[-1]
            pows.append(_dd_mul(ph, pl, ph, pl))
        i = len(pows) - 1
        ph, pl = pows[i]
        while h > ph or h == ph and l >= pl:
            h, l = _dd_div(h, l, ph, pl)
            c += 1 << i
        for i in range(i - 1, -1, -1):
            ph, pl = pows[i]
            if h > ph or h == ph and l >= pl:
                h, l = _dd_div(h, l, ph, pl)
                c += 1 << i
    elif y < 1.0:
        pows = [(base, 0.0)]
        while len(pows) < 63 and y * (pows[-1][0] * pows[-1][0]) < 1.0:
            ph, pl = pows[-1]
            pows.append(_dd_mul(ph, pl, ph, pl))
        i = len(pows) - 1
        ph, pl = pows[i]
        while True:
            th, tl = _dd_mul(h, l, ph, pl)
            if not (th < base or th == base and tl < 0.0):
                break
            h, l = th, tl
            c -= 1 << i
        for i in range(i - 1, -1, -1):
            ph, pl = pows[i]
            th, tl = _dd_mul(h, l, ph, pl)
            if th < base or th == base and tl < 0.0:
                h, l = th, tl
                c -= 1 << i
    r = h
    while r >= base:
        r /= base
        c += 1
    while r < 1.0:
        r *= base
        c -= 1
    k = 0
    depth = len(rungs) - 1
    for j in range(1, depth + 1):
        k <<= 1
        if r >= rungs[j]:
            r /= rungs[j]
            k |= 1
    return c, k, r


def mantissa_product(numerator, level, rungs):
    """Product of the rungs selected by the bits of ``numerator``.

    Bit j (counted from the most significant of ``level`` bits) selects
    rungs[j], i.e. the exponent contribution 2^-j.  The empty selection
    returns exactly 1.
    """
    v = 1.0
    for j in range(1, level + 1):
        if (numerator >> (level - j)) & 1:
            v *= rungs[j]
    return v


def int_pow(b, m):
    """b multiplied by itself m times (square-and-multiply), m >= 0."""
    r = 1.0
    f = b
    while m:
        if m & 1:
            r *= f
        m >>= 1
        if m:
            f *= f
    return r


def table_values(rungs, level):
    """Antilog values base^(k/2^level) for every k in [0, 2^level).

    The rows come back packed as native binary64 bytes, 8 per row, as the
    compiled twin writes them: one object for the whole table.

    Row 0 is 1 and row k is row[k & (k - 1)] * rungs[level - tz(k)], where
    tz(k) counts the trailing zero bits of k.  Clearing the lowest set bit
    drops the last factor of the direct product of the rungs named by the
    bits of k, so each row costs one multiplication yet has the same
    factors, multiplied in the same order, and the same bits: entry errors
    stay at a few rounding units instead of drifting along the table.
    Rows are filled one tz class at a time, largest tz first, so every
    earlier row a class reads is already in place.
    """
    from struct import pack  # only here, off the import path of the CLI

    row = [1.0] * (1 << level)
    for tz in range(level - 1, -1, -1):
        r = rungs[level - tz]
        row[1 << tz::2 << tz] = [v * r for v in row[::2 << tz]]
    return pack(f"{len(row)}d", *row)


def trapezoid_recip(x, steps):
    """Trapezoid sum of 1/t over [1, x] with ``steps`` uniform panels."""
    if x == 1.0:
        return 0.0
    h = (x - 1.0) / steps
    s = 0.5 * (1.0 + 1.0 / x)
    for i in range(1, steps):
        s += 1.0 / (1.0 + i * h)
    return s * h
