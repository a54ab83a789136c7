"""mpmath stationary laws and burstiness coefficients of matrix sources:
the 50-digit values frozen in tests/test_sources.py, and the oracles the
accuracy tests there and in tests/test_throughput.py call.

Every chain is read as the library defines it: its off-diagonal entries
are the doubles the library takes, and each row's diagonal is minus
their sum (``pencil_reference.exact_generator``; J - I for a transition
matrix J).  The raw float diagonal is not used: a row such as
(-(1.0 + 1.2), 1.0, 1.2) sums to 2.2e-16, not 0, so it would solve a
slightly leaky matrix, not the chain.  At the working precision this
solves the stationary law, then the deviation-matrix system for x, and
gives sigma^2 / mu^2:

- continuous time: sigma^2 = 2 pi(d x) with (1 pi^T - G) x = d;
- discrete time: sigma^2 = 2 pi(d x) - pi(d^2) with (I - J + 1 pi^T) x = d;

where d = r - mu.  The MMPP twin shares the fluid source's generator
and takes its intensities as the rates.

    PYTHONPATH=src python tests/burstiness_reference.py
"""

import mpmath as mp
from pencil_reference import exact_generator

from qoslink import MmppSource, build_binomial_discrete_source, build_birth_death_fluid

N = 50


def stationary(Q):
    """pi Q = 0 for the exact generator Q, with the last equation
    replaced by sum(pi) = 1."""
    n = Q.rows
    A = Q.T
    for j in range(n):
        A[n - 1, j] = 1
    b = mp.matrix([0] * (n - 1) + [1])
    return mp.lu_solve(A, b)


def burstiness(Q, rates, discrete):
    """sigma^2 / mu^2 of the chain with exact generator Q (J - I in
    discrete time) and the rates, read exactly."""
    n = Q.rows
    rates = [mp.mpf(float(r)) for r in rates]
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


def main():
    mp.mp.dps = 50
    binomial = build_binomial_discrete_source(N, 0.3, 1.0)
    fluid = build_birth_death_fluid(N, 1.0, 1.2, 1.0)
    mmpp = MmppSource(fluid.generator, fluid.rates)
    G = exact_generator(fluid.generator)
    cases = (
        ("binomial", exact_generator(binomial.transition_probs), binomial.rates, True),
        ("fluid", G, fluid.rates, False),
        ("mmpp", G, mmpp.intensities, False),
    )
    for name, Q, rates, discrete in cases:
        print(f"{name:9s} {mp.nstr(burstiness(Q, rates, discrete), 25)}")


if __name__ == "__main__":
    main()
