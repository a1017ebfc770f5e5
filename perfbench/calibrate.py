"""Fixed pure-Python work that measures how fast the machine runs right now.

The gated run times this before and after each command and divides the
command's wall time by it, which takes out most of the drift in machine
speed that a shared host shows over tens of seconds.  The work imitates
pktflow's kernel (hash-consed BDD nodes, memoised recursive AND/NOT on
tuple-keyed dicts) but imports nothing from pktflow, so no change to the
program under test can change it.

    python3 -S perfbench/calibrate.py    # prints the final node count
"""

import random

BITS = 20
rng = random.Random(1)
var, lo, hi = [BITS, BITS], [0, 1], [0, 1]
unique: dict = {}
and_memo: dict = {}
not_memo: dict = {}


def mk(v, low, high):
    if low == high:
        return low
    key = (v, low, high)
    n = unique.get(key)
    if n is None:
        n = len(var)
        var.append(v)
        lo.append(low)
        hi.append(high)
        unique[key] = n
    return n


def conj(a, b):
    if a == 0 or b == 0:
        return 0
    if a == 1:
        return b
    if b == 1 or a == b:
        return a
    key = (a, b) if a < b else (b, a)
    r = and_memo.get(key)
    if r is None:
        va, vb = var[a], var[b]
        v = min(va, vb)
        la, ha = (lo[a], hi[a]) if va == v else (a, a)
        lb, hb = (lo[b], hi[b]) if vb == v else (b, b)
        r = mk(v, conj(la, lb), conj(ha, hb))
        and_memo[key] = r
    return r


def neg(a):
    if a < 2:
        return 1 - a
    r = not_memo.get(a)
    if r is None:
        r = mk(var[a], neg(lo[a]), neg(hi[a]))
        not_memo[a] = r
    return r


def cube():
    n = 1
    for v in sorted(rng.sample(range(BITS), 6), reverse=True):
        n = mk(v, 0, n) if rng.random() < 0.5 else mk(v, n, 0)
    return n


def main() -> None:
    sets = []
    for _ in range(10):
        f = 0
        for _ in range(12):
            f = neg(conj(neg(f), neg(cube())))
        sets.append(f)
    for f in sets:
        for g in sets[:5]:
            conj(f, g)
    print(len(var))


if __name__ == "__main__":
    main()
