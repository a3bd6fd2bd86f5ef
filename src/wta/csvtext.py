"""CSV text: the bytes of '%.17g' % v for every float64 v, made by numpy a
chunk of values at a time.

The digits come from exact IEEE arithmetic (frexp, Dekker's product with a
double-double power of ten, ldexp, floor), so the text does not depend on
the CPU; Python's own formatting decides near-ties and non-finite values,
one value at a time. wta.integrate._write_csv writes the chunks; this
module is imported on its first call, so `import wta` does not compile it.
"""

from __future__ import annotations

import functools

import numpy as np

# Values formatted at once. Each costs about 240 bytes of working arrays
# while its chunk is made (tracemalloc), and each chunk is written before
# the next, so the writer's memory stays near CSV_CHUNK * 240 bytes
# whatever the table's size. On fig2's 26,606-value table, 1024 took 6.3
# ms, 2048 4.9 ms and 4096 4.3 ms (2 vCPUs, numpy 2.4.6); against the
# row loop, dense_fan's peak RSS rose about 1.0 MiB at 2048 and 1.8 MiB
# at 4096, most of it numpy code pages and tables that any size pays.
CSV_CHUNK = 1024
# 10^k for k = 16 - X, X the decimal exponent of a finite double (-324 to
# 308), and one more each side for _decimal's fix-up
_KMIN, _KMAX = 16 - 309, 16 + 325
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into 26-bit halves
# D's remainder r is within 2^-46 of exact, so rounding r half up is right
# unless r is this close to 1/2: a tie or near-tie, which Python decides
_NEAR_TIE = 2.0 ** -40
_LOG10_2 = 0.30102999566398120
_LOG10_FIT = (-0.79742416, 1.20104734, -0.40564428)  # c0 + c1 f + c2 f^2 ~ log10 f on [0.5, 1)


@functools.cache
def _powers() -> tuple[np.ndarray, np.ndarray]:
    """(4, K) float64 rows hi, hi's high and low 26-bit halves, lo, and
    (K,) int32 t, with 10^k = (hi + lo) * 2^t to 2^-105 relative and hi in
    [1, 2], for k from _KMIN to _KMAX. Built from Python ints, whose true
    division rounds correctly, on first use (about 1 ms)."""
    rows, ts = [], []
    for k in range(_KMIN, _KMAX + 1):
        # 10^k * 2^-t = num / den
        if k >= 0:
            t = (10 ** k).bit_length() - 1
            num, den = 10 ** k, 1 << t
        else:
            t = -(10 ** -k).bit_length()
            num, den = 1 << -t, 10 ** -k
        hi = num / den
        lo = (num * 2 ** 52 - int(hi * 2.0 ** 52) * den) / (den * 2 ** 52)
        c = hi * _SPLIT
        hh = c - (c - hi)
        rows.append((hi, hh, hi - hh, lo))
        ts.append(t)
    return np.array(rows).T.copy(), np.array(ts, np.int32)


def _estimate(a: np.ndarray) -> np.ndarray:
    """floor(log10 a) for finite positive a, within 1: the exponent of
    frexp times log10(2), plus a quadratic in the mantissa that is within
    0.003 of its log10. _decimal's fix-up absorbs a miss."""
    f, e = np.frexp(a)
    t = f * _LOG10_FIT[2]
    t += _LOG10_FIT[1]
    t *= f
    t += _LOG10_FIT[0]
    t += e * _LOG10_2
    return np.floor(t).astype(np.int64)


def _scaled(f: np.ndarray, e: np.ndarray, x: np.ndarray):
    """(D, r) with f * 2^e * 10^(16 - x) = D + r, D an int64 and r in
    [0, 1), to within 2^-46, for f in [0.5, 1): Dekker's exact product of f
    and hi, plus f * lo, scaled by a power of two."""
    tab, ts = _powers()
    i = (16 - _KMIN) - x
    fh = f * _SPLIT
    fh -= fh - f
    fl = f - fh
    # err = f * hi - p exactly: ((fh*hh - p) + fh*hl) + fl*hh) + fl*hl
    p = tab[0].take(i)
    p *= f
    hh = tab[1].take(i)
    err = hh * fh
    err -= p
    hl = tab[2].take(i)
    fh *= hl
    err += fh
    hh *= fl
    err += hh
    hl *= fl
    err += hl
    lo = tab[3].take(i, out=fh)
    lo *= f
    err += lo
    del fl, hl
    s = ts.take(i)
    s += e
    # p * 2^s is a whole number when D has its 17 digits (>= 10^16 > 2^53);
    # when it has fewer, D is out of range and _decimal computes it again
    np.ldexp(p, s, out=p)
    np.ldexp(err, s, out=err)
    lift = np.floor(err, out=hh)
    err -= lift
    d = p.astype(np.int64)
    d += lift.astype(np.int64)
    return d, err


def _decimal(a: np.ndarray, x: np.ndarray):
    """(D, X) for finite positive float64 a, given x within 2 of
    floor(log10 a), which becomes X: D in [10^16, 10^17), an int64, and X
    with D * 10^(X - 16) the value of a correctly rounded to 17
    significant digits, ties to even, as '%.16e' % a writes it."""
    f, e = np.frexp(a)
    d, r = _scaled(f, e, x)
    # D out of range means x was off: x within 1 needs one pass, and the
    # second serves an x off by 2. A power of ten may end a pass just past
    # either end, at 10^16 - 1 with r near 1 or at 10^17 with r near 0,
    # which the rounding and the carry below turn into the right text.
    for _ in range(2):
        off = np.flatnonzero((d < 10 ** 16) | (d >= 10 ** 17))
        if not off.size:
            break
        x[off] += np.where(d[off] < 10 ** 16, -1, 1)
        d[off], r[off] = _scaled(f[off], e[off], x[off])
    hard = np.abs(r - 0.5) < _NEAR_TIE
    d += r >= 0.5
    carry = np.flatnonzero(d == 10 ** 17)  # 99999999999999999.5 and up: the next power of 10
    d[carry] = 10 ** 16
    x[carry] += 1
    for w in np.flatnonzero(hard).tolist():
        text = "%.16e" % a[w]
        d[w], x[w] = int(text[0] + text[2:18]), int(text[19:])
    return d, x


# A number's cell: _CELL bytes of text, of which it keeps those its row of
# the keep table names. Columns: 2 pad, sign, the 17 digits for the
# integer part (the first, then four 4-digit groups on 4-byte boundaries),
# 2 pad, '0', 4 of prefix (the end of "0.000", or the point), the 17
# digits again for the fraction, the separator after fixed notation, the
# exponent right-aligned in 5, the separator after it, pad. The order
# makes the common text (fixed notation below 1) one run of kept bytes,
# and the compress that joins the cells costs about one pass a run.
_CELL = 52
_SIGN, _INT, _PFX, _FRAC, _SEP, _EXP, _SEP_EXP = 2, 3, 23, 27, 44, 45, 50
_XMIN, _XMAX = -325, 309  # the exponent table's range
# layouts: fixed notation at X = -4..16 (0-20), exponent form (21), with a
# 3-digit exponent (22)
_LAYOUTS = 23
_GROUP_END = (np.int8(1), np.int8(5), np.int8(9), np.int8(13))  # digits before each group


@functools.cache
def _cell_tables():
    """four: (10^4,) uint32, the 4 digit bytes of k; last: (10^4,) int8,
    the place of k's last nonzero digit (1-4), -99 for 0; exps: (X, 5)
    uint8, 'e%+03d' % X right-aligned, from X = _XMIN; pfx: (_LAYOUTS, 4)
    uint8; keep: (_LAYOUTS * 18 * 2, _CELL) bool, the kept columns by
    (layout, significant digits, sign)."""
    # k = 100 a + b, from the 100 pairs of digits
    pairs = np.frombuffer(b"".join(b"%02d" % k for k in range(100)), np.uint8).reshape(100, 2)
    text = np.empty((100, 100, 4), np.uint8)
    text[:, :, :2] = pairs[:, None]
    text[:, :, 2:] = pairs[None, :]
    four = text.view(np.uint32).ravel()
    ones = np.arange(100, dtype=np.int8)
    last2 = np.where(ones % 10 != 0, 2, 1).astype(np.int8)  # a pair's last nonzero digit
    last = np.where(ones != 0, 2 + last2, np.where(ones[:, None] != 0, last2[:, None], -99))
    last = last.astype(np.int8).ravel()
    exps = np.frombuffer(b"".join(b"%5s" % (b"e%+03d" % x) for x in range(_XMIN, _XMAX + 1)),
                         np.uint8).reshape(-1, 5)
    pfx = np.frombuffer(b".0000.00 0.0  0." + b"   ." * (_LAYOUTS - 4), np.uint8).reshape(-1, 4)
    layout = np.arange(_LAYOUTS)[:, None, None]
    nd = np.arange(18)[None, :, None]
    col = np.arange(_CELL)[None, None, :]
    x = layout - 4
    is_exp = layout >= 21
    intlen = np.where(is_exp, 1, np.maximum(x + 1, 0))
    # prefix bytes kept, counted back from the fraction: "0." and the zeros
    # below 1, else the point when a digit follows it
    pfx_len = np.where(x < 0, 1 - x, nd > intlen)
    keep = ((col >= _INT) & (col < _INT + intlen)
            | (col >= _FRAC - pfx_len) & (col < _FRAC)
            | (col >= _FRAC + intlen) & (col < _FRAC + nd) & (col < _SEP)
            | (col == _SEP) & ~is_exp
            | (col >= _SEP_EXP - 4 - (layout == 22)) & (col <= _SEP_EXP) & is_exp)
    keep = np.stack([keep, keep | (col == _SIGN)], axis=-2).reshape(-1, _CELL)
    return four, last, exps, pfx, keep


def _cells(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Write the '%.17g' text of the float64 values v into the cells m, one
    row of m a value (its separators already set); return the kept columns
    of each row."""
    four, last, exps, pfx, keeps = _cell_tables()
    a = np.abs(v)
    finite = np.isfinite(v)
    normal = finite & (a > 0)
    some_zero = not normal.all()
    if some_zero:
        a[~normal] = 1.0
    d, x = _decimal(a, _estimate(a))
    if some_zero:
        d[~normal] = 0
        x[~normal] = 0
    # digits: the first, then four groups of 4, each group 4 bytes of text
    g = np.empty((5, d.size), np.uint32)
    hi = d // 10 ** 8
    d -= hi * 10 ** 8
    g[1] = hi
    g[0] = g[1] // 10 ** 8
    g[1] -= g[0] * np.uint32(10 ** 8)
    g[2] = g[1]
    g[1] //= 10 ** 4
    g[2] -= g[1] * np.uint32(10 ** 4)
    g[4] = d
    g[3] = g[4] // 10 ** 4
    g[4] -= g[3] * np.uint32(10 ** 4)
    # the significant digits: the last group's end with a nonzero digit
    nd = np.ones(d.size, np.int8)
    for k, end in enumerate(_GROUP_END, 1):
        np.maximum(nd, last.take(g[k]) + end, out=nd)
    g[0] += ord("0")
    m[:, _INT] = g[0]
    m[:, _FRAC] = g[0]
    for k in range(1, 5):
        four.take(g[k], out=g[k])
    m32 = m.view(np.uint32)
    m32[:, (_INT + 1) // 4:(_INT + 17) // 4] = g[1:].T
    m32[:, (_FRAC + 1) // 4:(_FRAC + 17) // 4] = g[1:].T
    layout = np.clip(x, -5, 17)
    layout += 4
    exp = np.flatnonzero((layout == -1) | (layout == 21))
    if exp.size:
        m[exp, _EXP:_SEP_EXP] = exps.take(x[exp] - _XMIN, axis=0)
        layout[exp] = np.where(np.abs(x[exp]) >= 100, 22, 21)
    m[:, _PFX:_FRAC] = pfx.take(layout, axis=0)
    layout *= 18
    layout += nd
    layout *= 2
    layout += np.signbit(v)
    keep = keeps.take(layout, axis=0)
    for w in np.flatnonzero(~finite).tolist():
        text = ("%.17g" % v[w]).encode()
        keep[w] = False
        keep[w, _SEP] = True
        m[w, _INT:_INT + len(text)] = np.frombuffer(text, np.uint8)
        keep[w, _INT:_INT + len(text)] = True
    return keep


def body(columns):
    """Yield the CSV body of columns as uint8 arrays of text, CSV_CHUNK
    values at a time: one line a row, columns as _write_csv takes them."""
    blocks, where = [], []  # where: a float column's place in table, or a text column
    for col in columns:
        if isinstance(col, np.ndarray) and col.dtype.kind == "f":
            start = sum(block.shape[1] for block in blocks)
            blocks.append(col if col.ndim == 2 else col[:, None])
            where += range(start, start + blocks[-1].shape[1])
        else:
            where.append(col)
    table = np.ascontiguousarray(blocks[0] if len(blocks) == 1 else np.column_stack(blocks),
                                 dtype=np.float64)
    rows, k = table.shape
    step = max(1, min(rows, CSV_CHUNK // k))
    cells = np.zeros((step * k, _CELL), np.uint8)
    cells[:, _SIGN] = ord("-")
    cells[:, _PFX - 1] = ord("0")
    grid = cells.reshape(step, k, _CELL)
    seps = [ord(",")] * (len(where) - 1) + [ord("\n")]
    for col, sep in zip(where, seps):
        if isinstance(col, int):
            grid[:, col, _SEP] = grid[:, col, _SEP_EXP] = sep
    texts = [(j, col, sep) for j, (col, sep) in enumerate(zip(where, seps))
             if not isinstance(col, int)]
    for r0 in range(0, rows, step):
        block = table[r0:r0 + step]
        keep = _cells(block.ravel(), cells[:block.size])
        if not texts:
            yield cells[:block.size][keep]
            continue
        # a row's cells in header order, text columns as cells of their own
        parts = list(cells[:block.size].reshape(block.shape + (_CELL,)).swapaxes(0, 1))
        kept = list(keep.reshape(block.shape + (_CELL,)).swapaxes(0, 1))
        for j, col, sep in texts:
            text = np.asarray(col[r0:r0 + len(block)], dtype="S")
            width = text.dtype.itemsize
            cell = np.empty((len(block), width + 1), np.uint8)
            cell[:, :width] = text.view(np.uint8).reshape(len(block), width)
            cell[:, width] = sep
            parts.insert(j, cell)
            kept.insert(j, cell != 0)
        yield np.concatenate(parts, axis=1)[np.concatenate(kept, axis=1)]
