"""Print the embedded Gauss-Kronrod rule that mvtlab.simstats freezes.

Run from the repository root:  python scripts/make_gauss_kronrod.py [N]

N is the Gauss rule's node count, odd (default 35), so that 0 is one of its
nodes; the Kronrod extension adds
N + 1 nodes, the zeros of the Stieltjes polynomial E_{N+1}, which is
orthogonal to every polynomial of degree at most N under the weight P_N on
[-1, 1] (Piessens et al., QUADPACK, 1983). Everything is computed at 50
digits with mpmath (the test extra) in the Legendre basis:

- the Gauss nodes by Newton's method on P_N from numpy's nodes;
- E_{N+1} as P_{N+1} plus lower Legendre terms of its parity, whose
  coefficients solve the orthogonality conditions, each integral taken by
  a Gauss rule exact at its degree;
- its zeros by bracketed root finding, since they interlace with the
  Gauss nodes;
- the Kronrod weights from the moment equations sum w_i P_j(x_i) = 2 [j = 0]
  for j = 0 .. 2N.

The rule is checked to integrate every x^k up to k = 3N + 1 to 40 digits,
with positive weights, and printed as the nonnegative half of its nodes,
ascending from 0, with their Kronrod weights and the Gauss weights of the
half's Gauss nodes, every other node from 0 on.
"""

import sys

import mpmath as mp
import numpy as np

mp.mp.dps = 50


def legendre(m, x):
    """[P_0(x), ..., P_m(x)] by the three-term recurrence."""
    values = [mp.mpf(1), x]
    for k in range(2, m + 1):
        values.append(((2 * k - 1) * x * values[-1] - (k - 1) * values[-2]) / k)
    return values[: m + 1]


def gauss(n):
    """The n-node Gauss-Legendre nodes, ascending, and weights."""
    nodes, weights = [], []
    for x in np.polynomial.legendre.leggauss(n)[0]:
        x = mp.mpf(float(x))
        for _ in range(100):
            *_, p_prev, p = legendre(n, x)
            dp = n * (x * p - p_prev) / (x * x - 1)
            step = p / dp
            x -= step
            if abs(step) < mp.mpf(10) ** (5 - mp.mp.dps):
                break
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp**2))
    return nodes, weights


def stieltjes(n):
    """The Legendre coefficients of E_{n+1}, from degree n + 1 down by 2."""
    degrees = range(n + 1, -1, -2)
    # E_{n+1} P_n has odd parity, so only odd k give conditions.
    checks = range(1, n + 1, 2)
    xs, ws = gauss(2 * n)  # exact to degree 4n - 1 >= 3n + 1
    tables = [legendre(n + 1, x) for x in xs]

    def inner(j, k):
        return mp.fsum(w * p[j] * p[n] * p[k] for p, w in zip(tables, ws))

    matrix = mp.matrix([[inner(j, k) for j in degrees[1:]] for k in checks])
    rhs = mp.matrix([-inner(degrees[0], k) for k in checks])
    return dict(zip(degrees, [mp.mpf(1), *mp.lu_solve(matrix, rhs)]))


def gauss_kronrod(n):
    """(Kronrod nodes ascending, Kronrod weights, Gauss weights aligned to
    the nodes with zeros at the Kronrod-only ones)."""
    g_nodes, g_weights = gauss(n)
    coefficients = stieltjes(n)

    def e(x):
        p = legendre(n + 1, x)
        return mp.fsum(c * p[j] for j, c in coefficients.items())

    edges = [mp.mpf(-1), *g_nodes, mp.mpf(1)]
    k_only = [mp.findroot(e, (lo, hi), solver="anderson") for lo, hi in zip(edges, edges[1:])]
    nodes = sorted([*g_nodes, *k_only])
    tables = [legendre(2 * n, x) for x in nodes]
    matrix = mp.matrix([[p[j] for p in tables] for j in range(2 * n + 1)])
    rhs = mp.matrix([2 if j == 0 else 0 for j in range(2 * n + 1)])
    k_weights = list(mp.lu_solve(matrix, rhs))
    gauss_at = dict(zip(g_nodes, g_weights))
    g_aligned = [gauss_at.get(x, mp.mpf(0)) for x in nodes]
    for k in range(3 * n + 2):
        exact = mp.mpf(2) / (k + 1) if k % 2 == 0 else mp.mpf(0)
        assert abs(mp.fsum(w * x**k for x, w in zip(nodes, k_weights)) - exact) < 1e-40, k
    assert all(w > 0 for w in k_weights)
    return nodes, k_weights, g_aligned


def literal(name, values, per_line=4):
    rows = [", ".join(repr(float(v)) for v in values[i : i + per_line])
            for i in range(0, len(values), per_line)]
    return "\n".join([f"{name} = (", *(f"    {row}," for row in rows), ")"])


def main(n):
    if n % 2 == 0:
        raise SystemExit(f"need an odd Gauss node count, got {n}")
    nodes, k_weights, g_weights = gauss_kronrod(n)
    # From the middle node, 0, up; the Gauss nodes are every other one.
    assert nodes[n] == 0 and all(w > 0 for w in g_weights[n::2])
    print(f"# G{n}/K{2 * n + 1}, nonnegative half (scripts/make_gauss_kronrod.py {n})")
    print(literal("_KRONROD_NODES", nodes[n:]))
    print(literal("_KRONROD_WEIGHTS", k_weights[n:]))
    print(literal("_GAUSS_WEIGHTS", g_weights[n::2]))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 35)
