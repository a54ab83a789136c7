"""40-digit lambda* of fluid, MMPP and discrete sources, the oracles of
``test_pencil_matches_mpmath`` and ``test_discrete_scale_matches_mpmath``
in tests/test_throughput.py.

lambda* solves a*(theta; lambda c) = C_E for the rate shape c.  With
u = theta (fluid) or e^theta - 1 (MMPP) and t = theta C_E, both families
give a*(theta; lambda c) = sp(u lambda C + G) / theta for C = diag(c), so
lambda* = 1 / (u rho), rho the Perron root of the nonnegative matrix
(t I - G)^-1 C.  Here that root comes from ``mpmath.eig`` of the general
(unsymmetrized) product, and the generator is exact: its off-diagonal
entries are the doubles the library takes, its diagonal minus their row
sum.  Each lambda* is checked by putting it back into sp(u lambda C + G)
/ theta, which must give C_E to 30 significant digits.

A discrete source is taken straight from its definition, with no
resolvent: theta lambda* is the root y of ln sp(e^{y C} J) = theta C_E.
A double-precision bisection starts it, ``mpmath.findroot`` polishes it
on det(I - e^{y C - theta C_E} J), and a positive vector certifies it as
the Perron root's crossing (Collatz-Wielandt).  J is exactly stochastic:
its off-diagonal entries are the doubles the library takes, its diagonal
one minus their row sum.

    PYTHONPATH=src python tests/pencil_reference.py    # prints an example
"""

import mpmath as mp
import numpy as np


def exact_generator(generator):
    """``generator``'s off-diagonal entries as mpmath numbers, each row's
    diagonal minus their sum."""
    n = len(generator)
    G = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            if i != j:
                G[i, j] = mp.mpf(float(generator[i][j]))
        G[i, i] = -mp.fsum(G[i, j] for j in range(n) if j != i)
    return G


def exact_transition(transition):
    """``transition``'s off-diagonal entries as mpmath numbers, each row's
    diagonal one minus their sum."""
    G = exact_generator(transition)
    return G + mp.eye(G.rows)


def _perron(M):
    return max(mp.re(ev) for ev in mp.eig(M, left=False, right=False))


def lambda_star(generator, shape, theta, ce, poisson, dps=40):
    """lambda* at ``dps`` significant digits, as an mpmath number."""
    with mp.workdps(dps + 10):
        G = exact_generator(generator)
        n = G.rows
        C = mp.diag([mp.mpf(float(c)) for c in shape])
        theta, ce = mp.mpf(float(theta)), mp.mpf(float(ce))
        u = mp.expm1(theta) if poisson else theta
        lam = 1 / (u * _perron(mp.inverse(theta * ce * mp.eye(n) - G) * C))
        back = _perron(u * lam * C + G) / theta
        if abs(back - ce) > mp.mpf(10) ** -30 * ce:
            raise ArithmeticError(f"a*(lambda*) = {back} misses C_E = {ce}")
    with mp.workdps(dps):
        return +lam


def _rough_root(transition, shape, x):
    """The root y of ln sp(e^{y C} J) = x in doubles, by bisection: only
    a start for the polish below, which its certificate then decides."""
    J, c = np.asarray(transition, dtype=float), np.asarray(shape, dtype=float)
    top = np.max(c)

    def excess(y):  # e^{y top} scaled out
        M = np.exp(y * (c - top))[:, None] * J
        return np.log(np.max(np.linalg.eigvals(M).real)) + (y * top - x)

    lo = hi = x / top  # a* <= the peak rate: at or below the root
    while excess(hi) < 0:
        lo, hi = hi, 2 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if excess(mid) < 0 else (lo, mid)
    return hi


def discrete_lambda_star(transition, shape, theta, ce, dps=40):
    """lambda* of a discrete source at ``dps`` significant digits."""
    with mp.workdps(dps + 20):
        J = exact_transition(transition)
        n = J.rows
        c = [mp.mpf(float(v)) for v in shape]
        x = mp.mpf(float(theta)) * mp.mpf(float(ce))

        def pencil(y):
            # I - e^{y C - x} J balanced by a diagonal similarity, which
            # keeps its determinant and its Perron root
            h = [(y * v - x) / 2 for v in c]
            return mp.eye(n) - mp.matrix([[mp.exp(h[i] + h[j]) * J[i, j] for j in range(n)]
                                          for i in range(n)])

        start = mp.mpf(_rough_root(transition, shape, float(x)))
        y = mp.findroot(lambda y: mp.det(pencil(y)), start)
        # certificate (Collatz-Wielandt): where pencil(y) v = 1 has a
        # solution v > 0, the Perron root of e^{y C - x} J is below 1, and
        # where v < 0, above it; it grows with y, so the root lies between
        def side(y):
            v = mp.lu_solve(pencil(y), mp.ones(n, 1))
            return all(vi > 0 for vi in v) - all(vi < 0 for vi in v)

        d = mp.mpf(10) ** -(dps + 5)
        if (side(y * (1 - d)), side(y * (1 + d))) != (1, -1):
            raise ArithmeticError(f"y = {y} is not the root of ln sp(e^(y C) J) = {x}")
        lam = y / mp.mpf(float(theta))
    with mp.workdps(dps):
        return +lam


def main():
    # the two-state fluid source against its closed form
    # lambda* = (t + alpha + beta) / (t + alpha) C_E
    alpha, beta, theta, ce = 2.0, 3.0, 0.5, 1e-6
    mp.mp.dps = 40
    got = lambda_star([[-alpha, alpha], [beta, -beta]], [0.0, 1.0], theta, ce, False)
    t = mp.mpf(theta) * mp.mpf(ce)
    print(mp.nstr(got, 30), mp.nstr((t + alpha + beta) / (t + alpha) * mp.mpf(ce), 30))


if __name__ == "__main__":
    main()
