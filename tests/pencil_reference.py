"""40-digit lambda* of fluid and MMPP sources, the oracle of
``test_pencil_matches_mpmath`` in tests/test_throughput.py.

lambda* solves a*(theta; lambda c) = C_E for the rate shape c.  With
u = theta (fluid) or e^theta - 1 (MMPP) and t = theta C_E, both families
give a*(theta; lambda c) = sp(u lambda C + G) / theta for C = diag(c), so
lambda* = 1 / (u rho), rho the Perron root of the nonnegative matrix
(t I - G)^-1 C.  Here that root comes from ``mpmath.eig`` of the general
(unsymmetrized) product, and the generator is exact: its off-diagonal
entries are the doubles the library takes, its diagonal minus their row
sum.  Each lambda* is checked by putting it back into sp(u lambda C + G)
/ theta, which must give C_E to 30 significant digits.

    PYTHONPATH=src python tests/pencil_reference.py    # prints an example
"""

import mpmath as mp


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
