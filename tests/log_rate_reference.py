"""30-digit values of var(nu) for m = 2 frozen in tests/test_channel.py.

With L = log2(1 + snr z), a block of two symbols rho apart has var(nu) =
2 var(L) + 2 cov(L_1, L_2).  By the Hille-Hardy formula for Kibble's
bivariate exponential law (see tests/gain_chain_reference.py), with
r = rho^2,

    cov(L_1, L_2) = sum_{n >= 1} r^n c_n^2,  c_n = E{L(t) L_n(t)}, t ~ exponential(1).

The c_n come from ``gain_chain_reference.coefficients`` on the Laplace
transform of L,

    F(p) = int_0^inf log2(1 + snr t) e^{-p t} dt = e^{p/snr} E1(p/snr) / (p log 2).

Checks: c_0, ..., c_3 against mpmath.quad of L L_n e^{-t}, the series
against the discrete Parseval sum on the circle, and E{L^2}, taken by
mpmath.quad, against the second derivative at a = 0 of the moment
E{(1 + snr t)^-a} = e^w w^a Gamma(1 - a, w), w = 1/snr.  The inputs are
the doubles the library takes.  Prints one frozen entry per line.

    PYTHONPATH=src python tests/log_rate_reference.py
"""

import mpmath as mp

from gain_chain_reference import coefficients, laguerre

# (rho, snr): low, unit and high snr at three correlations
POINTS = ((0.5, 1e-2), (0.8, 1.0), (0.9, 100.0))


def log_rate(snr):
    return lambda t: mp.log1p(snr * t) / mp.log(2)


def var_nu(rho, snr):
    s = mp.mpf(snr)
    L = log_rate(s)
    coef, parseval = coefficients(rho, lambda p: mp.exp(p / s) * mp.e1(p / s) / (p * mp.log(2)))
    cuts = [0] + sorted({1 / (100 * s), mp.mpf(1), mp.mpf(10), mp.mpf(100)}) + [mp.inf]
    for n in range(4):
        direct = mp.quad(lambda t: L(t) * laguerre(n, t) * mp.exp(-t), cuts)
        assert abs(coef[n] - direct) < mp.mpf(10) ** -30, (n, coef[n], direct)
    r = mp.mpf(rho) ** 2
    series = mp.fsum(r ** n * c * c for n, c in enumerate(coef))
    assert abs(series / parseval - 1) < mp.mpf(10) ** -35
    second = mp.quad(lambda t: L(t) ** 2 * mp.exp(-t), cuts)
    w = 1 / s
    moment = mp.diff(lambda a: mp.exp(w) * w ** a * mp.gammainc(1 - a, w), 0, 2)
    assert abs(second * mp.log(2) ** 2 / moment - 1) < mp.mpf(10) ** -30
    cov = series - coef[0] ** 2
    return 2 * (second - coef[0] ** 2) + 2 * cov


def main():
    mp.mp.dps = 60
    for rho, snr in POINTS:
        print(f"    ({rho!r}, {snr!r}, {mp.nstr(var_nu(rho, snr), 30)}),", flush=True)


if __name__ == "__main__":
    main()
