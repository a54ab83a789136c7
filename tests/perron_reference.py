"""40-digit Perron roots frozen in tests/test_sources.py.

Builds the sources of ``test_eigen_route_matches_mpmath`` (n = 30) and
``test_tridiagonal_route_matches_mpmath`` (n = 64 and 200) with qoslink,
reads every matrix entry exactly as an mpmath number, and takes the
largest real eigenvalue of the general (unsymmetrized) matrix at 40
significant digits.  Prints one line per source, size and theta: the
effective bandwidth a*(theta) that root gives.

At n = 30 and 64 the root comes from ``mpmath.eig``.  At n = 200, where
``mpmath.eig`` takes too long, it comes from a Sturm bisection on the
tridiagonal matrix (birth-death chains only): the diagonal and the
products M[i, i+1] M[i+1, i] fix det(xI - M), and the count of negative
pivots of xI - M is the count of roots above x.  At n = 64 both run, and
the script stops if they differ by more than 1e-35 relative.

    PYTHONPATH=src python tests/perron_reference.py    # about three minutes
"""

import mpmath as mp
import numpy as np

from qoslink import DiscreteMarkovSource, build_binomial_discrete_source, build_birth_death_fluid

THETAS = (0.01, 0.2, 1.5)


def lazy_walk(n):
    """Lazy reflecting walk on n states, up and down 0.3, rates 0..n-1."""
    P = 0.3 * (np.eye(n, k=1) + np.eye(n, k=-1))
    P[np.arange(n), np.arange(n)] = 1.0 - P.sum(axis=1)
    return DiscreteMarkovSource(P, np.arange(n, dtype=float))


def perron_eig(M):
    return max(mp.re(ev) for ev in mp.eig(M, left=False, right=False))


def perron_sturm(M):
    n = M.rows
    d = [M[i, i] for i in range(n)]
    e = [M[i, i + 1] * M[i + 1, i] for i in range(n - 1)]
    assert all(M[i, j] == 0 for i in range(n) for j in range(n) if abs(i - j) > 1)

    def above(x):  # the count of roots above x is positive
        q = x - d[0]
        if q <= 0:
            return True
        for dk, ek in zip(d[1:], e):
            q = x - dk - ek / q
            if q <= 0:
                return True
        return False

    radius = [mp.sqrt(a) + mp.sqrt(b) for a, b in zip([0] + e, e + [0])]
    lo, hi = max(d), max(dk + r for dk, r in zip(d, radius))
    while hi - lo > mp.mpf(10) ** (-mp.mp.dps + 2) * max(abs(lo), abs(hi)):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return (lo + hi) / 2


def kernels(fluid, walk, theta):
    """The unsymmetrized matrices of the fluid, MMPP and discrete kernels,
    and the map from each one's root to a*(theta)."""
    th = mp.mpf(theta)
    G = mp.matrix(fluid.generator.tolist())
    lam = mp.diag([mp.mpf(r) for r in fluid.rates])
    P = mp.matrix(walk.transition_probs.tolist())
    tilt = mp.diag([mp.exp(th * mp.mpf(r)) for r in walk.rates])
    return {
        "fluid": (lam + G / th, lambda root: root),
        "mmpp": (mp.expm1(th) * lam + G, lambda root: root / th),
        "discrete": (tilt * P, lambda root: mp.log(root) / th),
    }


def main():
    mp.mp.dps = 40
    for n in (30, 64, 200):
        fluid = build_birth_death_fluid(n, 1.0, 2.0, 1.0)
        discrete = build_binomial_discrete_source(n, 0.3, 1.0) if n == 30 else lazy_walk(n)
        for theta in THETAS:
            for name, (M, to_ebw) in kernels(fluid, discrete, theta).items():
                root = perron_sturm(M) if n == 200 else perron_eig(M)
                if n == 64:
                    check = perron_sturm(M)
                    if abs(check - root) > mp.mpf("1e-35") * abs(root):
                        raise SystemExit(f"{name} theta={theta}: eig {root} vs Sturm {check}")
                if n == 30 and name == "discrete":
                    name = "binomial"
                print(f"{name:9s} n={n} theta={theta}: {mp.nstr(to_ebw(root), 25)}")


if __name__ == "__main__":
    main()
