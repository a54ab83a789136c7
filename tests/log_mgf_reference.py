"""50-digit a*(theta) and lambda* of a memoryless discrete source, the
oracles of the memoryless-chain tests in tests/test_sources.py and
tests/test_throughput.py.

Every row of a memoryless chain's transition matrix is its law p, so
e^{theta Lambda} J has rank one and its Perron root is sum_j p_j e^{theta
r_j}: a*(theta) is the scaled log-moment generating function of the law
pi = p / sum p, taken here straight from that definition on the exact
doubles of p and r.  lambda* solves a*(theta; lambda c) = C_E, that is
log1p(pi.expm1(y c)) = theta C_E at y = theta lambda, from which Newton
steps start at the mean shape's root (the log-MGF is convex, so they
fall onto it from above); a sign change across the root 1e-45 either
side certifies it.

    PYTHONPATH=src python tests/log_mgf_reference.py    # prints an example
"""

import mpmath as mp


def _law(p):
    p = [mp.mpf(float(v)) for v in p]
    total = mp.fsum(p)
    return [v / total for v in p]


def _log_mgf(pi, rates, y):
    """log pi.e^{y rates}, through expm1 so that it keeps its digits as
    y -> 0."""
    return mp.log1p(mp.fsum(q * mp.expm1(y * r) for q, r in zip(pi, rates)))


def ebw(p, rates, theta, dps=50):
    """a*(theta) = (1/theta) log pi.e^{theta rates} at ``dps`` digits."""
    with mp.workdps(dps + 20):
        pi, r = _law(p), [mp.mpf(float(v)) for v in rates]
        theta = mp.mpf(float(theta))
        value = _log_mgf(pi, r, theta) / theta
    with mp.workdps(dps):
        return +value


def lambda_star(p, shape, theta, ce, dps=50):
    """lambda* with a*(theta; lambda* shape) = ce at ``dps`` digits."""
    with mp.workdps(dps + 20):
        pi, c = _law(p), [mp.mpf(float(v)) for v in shape]
        theta, x = mp.mpf(float(theta)), mp.mpf(float(theta)) * mp.mpf(float(ce))
        y = x / mp.fsum(q * v for q, v in zip(pi, c))  # at or above the root
        for _ in range(200):
            e = [mp.exp(y * v) for v in c]
            mgf = mp.fsum(q * v for q, v in zip(pi, e))
            step = (_log_mgf(pi, c, y) - x) * mgf / mp.fsum(q * v * w for q, v, w in zip(pi, c, e))
            y -= step
            if abs(step) <= mp.mpf(10) ** -(dps + 10) * y:
                break
        d = mp.mpf(10) ** -45
        if not _log_mgf(pi, c, y * (1 - d)) < x < _log_mgf(pi, c, y * (1 + d)):
            raise ArithmeticError(f"y = {y} is not the root of log pi.e^(y c) = {x}")
        lam = y / theta
    with mp.workdps(dps):
        return +lam


def main():
    # the memoryless ON/OFF source (p11 + p22 = 1) against its closed form
    # lambda* = C_E + log(num / den) / theta of throughput's two-state solver
    p11, theta, ce = 0.25, 0.5, 2.0
    got = lambda_star([p11, 1 - p11], [0.0, 1.0], theta, ce)
    with mp.workdps(50):
        x = mp.mpf(theta) * ce
        num, den = 1 - p11 * mp.exp(-x), (1 - p11) * (1 - mp.exp(-x)) + (1 - p11) * mp.exp(-x)
        print(mp.nstr(got, 30), mp.nstr(ce + mp.log(num / den) / theta, 30))


if __name__ == "__main__":
    main()
