"""50-digit burstiness coefficients frozen in tests/test_sources.py.

Builds the n=50 sources of ``test_burstiness_matches_mpmath`` with
qoslink and reads every matrix entry and rate exactly as an mpmath
number.  At 50 significant digits it solves the stationary law, then the
deviation-matrix system for x, and prints sigma^2 / mu^2 for each source:

- continuous time: sigma^2 = 2 pi(d x) with (1 pi^T - G) x = d;
- discrete time: sigma^2 = 2 pi(d x) - pi(d^2) with (I - J + 1 pi^T) x = d;

where d = r - mu.  The MMPP twin shares the fluid source's generator
and takes its intensities as the rates.

    PYTHONPATH=src python tests/burstiness_reference.py
"""

import mpmath as mp

from qoslink import MmppSource, build_binomial_discrete_source, build_birth_death_fluid

N = 50


def stationary(Q):
    # pi Q = 0 with the last equation replaced by sum(pi) = 1
    n = Q.rows
    A = Q.T
    for j in range(n):
        A[n - 1, j] = 1
    b = mp.matrix([0] * (n - 1) + [1])
    return mp.lu_solve(A, b)


def burstiness(Q, rates, discrete):
    """sigma^2 / mu^2 of the chain with generator Q (J - I in discrete time)."""
    n = Q.rows
    pi = stationary(Q)
    mu = mp.fsum(pi[i] * rates[i] for i in range(n))
    d = [rates[i] - mu for i in range(n)]
    A = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            A[i, j] = pi[j] - Q[i, j]
    x = mp.lu_solve(A, mp.matrix(d))
    var = 2 * mp.fsum(pi[i] * d[i] * x[i] for i in range(n))
    if discrete:
        var -= mp.fsum(pi[i] * d[i] ** 2 for i in range(n))
    return var / mu ** 2


def exact(values):
    return [mp.mpf(float(v)) for v in values]


def main():
    mp.mp.dps = 50
    binomial = build_binomial_discrete_source(N, 0.3, 1.0)
    fluid = build_birth_death_fluid(N, 1.0, 1.2, 1.0)
    mmpp = MmppSource(fluid.generator, fluid.rates)
    J = mp.matrix([exact(row) for row in binomial.transition_probs])
    G = mp.matrix([exact(row) for row in fluid.generator])
    cases = (
        ("binomial", J - mp.eye(N), exact(binomial.rates), True),
        ("fluid", G, exact(fluid.rates), False),
        ("mmpp", G, exact(mmpp.intensities), False),
    )
    for name, Q, rates, discrete in cases:
        print(f"{name:9s} {mp.nstr(burstiness(Q, rates, discrete), 25)}")


if __name__ == "__main__":
    main()
