"""30-digit values of the m = 2 gain-chain capacity frozen in tests/test_channel.py.

Two power gains rho apart in a block, (z_1, z_2), have Kibble's
bivariate exponential law with correlation r = rho^2, whose density is
e^{-x-y} sum_n r^n L_n(x) L_n(y) (the Hille-Hardy formula; Kibble 1941).
So with g(z) = (1 + snr z)^{-a}, a = theta / log 2,

    E{g(z_1) g(z_2)} = sum_n r^n c_n^2,  c_n = E{g(t) L_n(t)}, t ~ exponential(1),

and C_E = -log(E{g(z_1) g(z_2)}) / theta for a block of m = 2 symbols.
The c_n are the Taylor coefficients of their generating function

    sum_n c_n w^n = F(1 / (1 - w)) / (1 - w),  F(p) = int_0^inf g(t) e^{-p t} dt
                                                    = U(1, 2 - a, p / snr) / snr,

(Tricomi's U), taken by the trapezoid rule on the circle |w| = rho with P
points, P a power of two with rho^P < 1e-45, so that aliasing and the
truncation of the series at n = P both stay below 1e-40.  Three checks
guard each value: c_0, ..., c_3 against mpmath.quad of g L_n e^{-t},
c_0 against e^w w^a Gamma(1 - a, w) with w = 1/snr, and the series
against the discrete Parseval sum, the mean of |F(1/(1-w)) / (1-w)|^2
over the circle.  Nothing here shares code with the kernel quadrature it
checks.  The inputs are the doubles the library forms (a = theta / log 2).
Prints one frozen entry per line, in about two minutes.

    PYTHONPATH=src python tests/gain_chain_reference.py
"""

import math

import mpmath as mp

LN2 = math.log(2.0)

RHOS = (0.3, 0.5, 0.8, 0.9)
# (snr, theta): two with snr * theta below 1e-2, two above
POINTS = ((1e-4, 0.1), (1e-2, 0.5), (1.0, 1.0), (100.0, 5.0))


def coefficients(rho, transform):
    """c_0, ..., c_{P-1} from the generating function on |w| = rho, where
    ``transform`` is F, the Laplace transform of the function expanded."""
    P = 2 ** math.ceil(math.log2(45 * math.log(10) / -math.log(rho)))
    R = mp.mpf(rho)
    roots = [mp.expjpi(mp.mpf(2 * j) / P) for j in range(P)]
    values = []
    for j in range(P):
        w = R * roots[j]
        p = 1 / (1 - w)
        values.append(transform(p) * p)
    coef = []
    for n in range(P):
        total = mp.fsum(values[j] * roots[(-n * j) % P] for j in range(P))
        coef.append(mp.re(total) / P / R ** n)
    parseval = mp.fsum(abs(v) ** 2 for v in values) / P
    return coef, parseval


def laguerre(n, t):
    """L_n(t) by the three-term recurrence."""
    prev, cur = 0, 1
    for k in range(n):
        prev, cur = cur, ((2 * k + 1 - t) * cur - k * prev) / (k + 1)
    return cur


def check(coef, parseval, r, snr, a):
    cuts = [0] + sorted({mp.mpf(1) / (100 * snr), 1, 10, 100}) + [mp.inf]
    for n in range(4):
        direct = mp.quad(lambda t: (1 + snr * t) ** -a * laguerre(n, t) * mp.exp(-t), cuts)
        assert abs(coef[n] - direct) < mp.mpf(10) ** -30, (n, coef[n], direct)
    w = 1 / snr
    closed = mp.exp(w) * w ** a * mp.gammainc(1 - a, w)
    assert abs(coef[0] / closed - 1) < mp.mpf(10) ** -35
    series = mp.fsum(r ** n * c * c for n, c in enumerate(coef))
    assert abs(series / parseval - 1) < mp.mpf(10) ** -35
    return series


def main():
    mp.mp.dps = 60
    for rho in RHOS:
        for snr, theta in POINTS:
            a = mp.mpf(theta / LN2)
            s = mp.mpf(snr)
            coef, parseval = coefficients(rho, lambda p: mp.hyperu(1, 2 - a, p / s) / s)
            mean = check(coef, parseval, mp.mpf(rho) ** 2, s, a)
            value = -mp.log(mean) / theta
            print(f"    ({rho!r}, {snr!r}, {theta!r}, {mp.nstr(value, 30)}),", flush=True)


if __name__ == "__main__":
    main()
