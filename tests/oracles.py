"""Independent reference scorers used to cross-check the package.

Everything here works on plain label dicts (chain id -> frozenset of
mention labels) with exact Fraction arithmetic, follows the metric
definitions directly, and shares no code with the package under test.
``zipf_fit`` is the exception: a float fit from stored per-point logs,
which the package's fit must equal bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations
from math import comb
from typing import Mapping

Part = Mapping[str, frozenset]

ZERO = Fraction(0)


def prf(r_num, r_den, p_num, p_den) -> tuple[Fraction, Fraction, Fraction]:
    r = Fraction(r_num, r_den) if r_den else ZERO
    p = Fraction(p_num, p_den) if p_den else ZERO
    f = 2 * r * p / (r + p) if r + p else ZERO
    return r, p, f


def muc_half(a: Part, b: Part) -> tuple[int, int]:
    """Numerator and denominator of the link-based score of a against b."""
    bmap = {m: cid for cid, ms in b.items() for m in ms}
    num = den = 0
    for ms in a.values():
        if len(ms) < 2:
            continue
        blocks = set()
        lone = 0
        for m in ms:
            if m in bmap:
                blocks.add(bmap[m])
            else:
                lone += 1
        num += len(ms) - (len(blocks) + lone)
        den += len(ms) - 1
    return num, den


def muc(key: Part, resp: Part) -> tuple[Fraction, Fraction, Fraction]:
    rn, rd = muc_half(key, resp)
    pn, pd = muc_half(resp, key)
    return prf(rn, rd, pn, pd)


def b3_half(a: Part, b: Part) -> tuple[Fraction, int]:
    """Per-mention average overlap of a's chains with b's chains."""
    bmap = {m: ms for ms in b.values() for m in ms}
    total = ZERO
    count = 0
    for ms in a.values():
        for m in ms:
            bc = bmap.get(m, frozenset())
            total += Fraction(len(ms & bc), len(ms))
            count += 1
    return total, count


def b3(key: Part, resp: Part) -> tuple[Fraction, Fraction, Fraction]:
    rn, rd = b3_half(key, resp)
    pn, pd = b3_half(resp, key)
    return prf(rn, rd, pn, pd)


def ceaf(key: Part, resp: Part, variant: str) -> tuple[Fraction, Fraction, Fraction]:
    """Optimal one-to-one chain alignment score, by exhaustive search."""
    kc = [ms for _, ms in sorted(key.items())]
    rc = [ms for _, ms in sorted(resp.items())]

    def phi(a: frozenset, b: frozenset) -> Fraction:
        if variant == "mention":
            return Fraction(len(a & b))
        return Fraction(2 * len(a & b), len(a) + len(b))

    best = ZERO
    if kc and rc:
        if len(kc) <= len(rc):
            small, large = kc, rc
            flip = False
        else:
            small, large = rc, kc
            flip = True
        for perm in permutations(range(len(large)), len(small)):
            total = ZERO
            for i, j in enumerate(perm):
                a, b = small[i], large[j]
                if flip:
                    a, b = b, a
                total += phi(a, b)
            best = max(best, total)
    if variant == "mention":
        r_den = sum(len(ms) for ms in kc)
        p_den = sum(len(ms) for ms in rc)
    else:
        r_den = len(kc)
        p_den = len(rc)
    r = best / r_den if r_den else ZERO
    p = best / p_den if p_den else ZERO
    f = 2 * r * p / (r + p) if r + p else ZERO
    return r, p, f


def pairs_of(part: Part) -> tuple[frozenset, frozenset]:
    """All coreference and non-coreference mention pairs of a partition."""
    ms = sorted({m for c in part.values() for m in c}, key=str)
    allpairs = {frozenset(p) for p in combinations(ms, 2)}
    coref = {
        frozenset(p) for c in part.values() for p in combinations(sorted(c, key=str), 2)
    }
    return frozenset(coref), frozenset(allpairs - coref)


def blanc(key: Part, resp: Part) -> tuple[Fraction, Fraction, Fraction]:
    ck, nk = pairs_of(key)
    cr, nr = pairs_of(resp)

    def cat(a: frozenset, b: frozenset) -> tuple[Fraction, Fraction, Fraction]:
        return prf(len(a & b), len(a), len(a & b), len(b))

    rc, pc, fc = cat(ck, cr)
    rn, pn, fn = cat(nk, nr)
    has_c = bool(ck or cr)
    has_n = bool(nk or nr)
    if has_c and has_n:
        return (rc + rn) / 2, (pc + pn) / 2, (fc + fn) / 2
    if has_c:
        return rc, pc, fc
    if has_n:
        return rn, pn, fn
    return ZERO, ZERO, ZERO


def lea_half(a: Part, b: Part) -> tuple[Fraction, int]:
    b_singletons = {next(iter(ms)) for ms in b.values() if len(ms) == 1}
    total = ZERO
    count = 0
    for ms in a.values():
        n = len(ms)
        if n == 1:
            res = Fraction(int(next(iter(ms)) in b_singletons))
        else:
            hits = sum(comb(len(ms & bc), 2) for bc in b.values())
            res = Fraction(hits, comb(n, 2))
        total += n * res
        count += n
    return total, count


def lea(key: Part, resp: Part) -> tuple[Fraction, Fraction, Fraction]:
    rn, rd = lea_half(key, resp)
    pn, pd = lea_half(resp, key)
    return prf(rn, rd, pn, pd)


def remove_spurious(resp: Part, key: Part) -> dict[str, frozenset]:
    key_mentions = {m for ms in key.values() for m in ms}
    cleaned = {cid: ms & key_mentions for cid, ms in resp.items()}
    return {cid: ms for cid, ms in cleaned.items() if ms}


ORACLES = {
    "muc": muc,
    "b3": b3,
    "ceaf_m": lambda k, r: ceaf(k, r, "mention"),
    "ceaf_e": lambda k, r: ceaf(k, r, "entity"),
    "blanc": blanc,
    "lea": lea,
}


def zipf_fit(series) -> tuple[float, float, float | None, int]:
    """(slope, intercept, r_squared, n_points) of log(size) on log(rank)."""
    points = list(series)
    x = [math.log(rank) for rank, _ in points]
    y = [math.log(size) for _, size in points]
    if len(set(y)) == 1:  # one point or one size: r_squared is undefined
        return 0.0, y[0], None, len(points)
    x_mean, y_mean = math.fsum(x) / len(x), math.fsum(y) / len(y)
    sxx = math.fsum((a - x_mean) ** 2 for a in x)
    sxy = math.fsum((a - x_mean) * (b - y_mean) for a, b in zip(x, y))
    slope = sxy / sxx if sxx else 0.0
    intercept = y_mean - slope * x_mean
    ss_tot = math.fsum((b - y_mean) ** 2 for b in y)
    ss_res = math.fsum((b - (slope * a + intercept)) ** 2 for a, b in zip(x, y))
    r_squared = min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)
    return slope, intercept, r_squared, len(points)
