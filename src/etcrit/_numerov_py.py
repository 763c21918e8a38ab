"""Pure-Python reference implementation of the Numerov sweep.

The compiled twin, the hand-written C file _numerov.c, mirrors this code
statement for statement; keep the arithmetic identical in both (same
expressions, same order) so the two backends agree bit for bit.
"""

from __future__ import annotations


def numerov_sweep(w, energy, h2, u1):
    """Integrate u'' = (w(r) - energy) u outward on a uniform grid.

    w holds the effective potential at r_i = i*h for i = 0..P (w[0] is never
    used because u starts at zero); h2 = h*h and u1 is the starting value at
    the first interior point.  Returns

        (nodes, u_secondlast, u_last, u_maxabs)

    where nodes counts interior sign changes.  The solution is rescaled
    whenever it exceeds 1e250 to avoid overflow; the returned values share
    one common scale, so their ratios are meaningful.
    """
    wl = w.tolist() if hasattr(w, "tolist") else list(w)
    n = len(wl) - 1
    c = h2 / 12.0
    up = 0.0
    tp = 0.0
    u = u1
    t = c * (wl[1] - energy)
    nodes = 0
    umax = abs(u)
    for i in range(2, n + 1):
        tn = c * (wl[i] - energy)
        un = (u * (2.0 + 10.0 * t) - up * (1.0 - tp)) / (1.0 - tn)
        if (un < 0.0 and u > 0.0) or (un > 0.0 and u < 0.0):
            nodes += 1
        up = u
        tp = t
        u = un
        t = tn
        au = abs(u)
        if au > umax:
            umax = au
        if au > 1e250:
            up /= au
            u /= au
            umax /= au
    return nodes, up, u, umax
