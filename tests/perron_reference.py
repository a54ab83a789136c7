"""40-digit Perron roots frozen in tests/test_sources.py.

Builds the n=30 sources of ``test_eigen_route_matches_mpmath`` with
qoslink, reads every matrix entry exactly as an mpmath number, and takes
the largest real eigenvalue of the general (unsymmetrized) matrix with
``mpmath.eig`` at 40 significant digits.  Prints one line per source and
theta: the effective bandwidth a*(theta) that root gives.

    PYTHONPATH=src python tests/perron_reference.py
"""

import mpmath as mp

from qoslink import MmppSource, build_binomial_discrete_source, build_birth_death_fluid

N = 30
THETAS = (0.01, 0.2, 1.5)


def perron(M):
    return max(mp.re(ev) for ev in mp.eig(M, left=False, right=False))


def main():
    mp.mp.dps = 40
    fluid = build_birth_death_fluid(N, 1.0, 2.0, 1.0)
    mmpp = MmppSource(fluid.generator, fluid.rates)
    binomial = build_binomial_discrete_source(N, 0.3, 1.0)
    G = mp.matrix(fluid.generator.tolist())
    P = mp.matrix(binomial.transition_probs.tolist())
    for theta in THETAS:
        th = mp.mpf(theta)
        lam = mp.diag([mp.mpf(r) for r in fluid.rates])
        rates = mp.diag([mp.exp(th * mp.mpf(r)) for r in binomial.rates])
        a_fluid = perron(lam + G / th)
        a_mmpp = perron(mp.expm1(th) * mp.diag([mp.mpf(r) for r in mmpp.intensities]) + G) / th
        a_disc = mp.log(perron(rates * P)) / th
        for name, a in (("fluid", a_fluid), ("mmpp", a_mmpp), ("binomial", a_disc)):
            print(f"{name:9s} theta={theta}: {mp.nstr(a, 25)}")


if __name__ == "__main__":
    main()
