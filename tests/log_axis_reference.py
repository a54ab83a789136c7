"""40-digit values of the one-dimensional integrals frozen in tests/test_channel.py.

Every integral is taken in the original variable t ~ exponential(1), by
``mpmath.quad`` over t, so it shares nothing with the log-axis rule it
checks; the inputs are the doubles the library code forms (a = theta /
log 2, times m at rho = 1).  The negative moments are cross-checked
against e^w w^a Gamma(1 - a, w) and the ergodic capacity against
e^w E1(w), w = 1/gamma.  Prints one frozen entry per line.

    PYTHONPATH=src python tests/log_axis_reference.py
"""

import math

import mpmath as mp

LN2 = math.log(2.0)

# (gamma, a) of log E{(1 + gamma t)^-a}
NEG_MOMENTS = [(1e-5, 1.0 / LN2), (1e-5, 0.1 / LN2), (1e5, 1.0 / LN2), (1e5, 0.1 / LN2)]
# i.i.d. C_E = -(m / theta) log E{(1 + snr t)^-(theta / log 2)} at low
# snr * theta, where the moment is within 1.5e-5 of 1
IID_LOW_SNR = [(1e-5, 0.001, 10), (1e-4, 0.01, 10), (1e-5, 1.0, 10)]
# rho = 1, m = 100, theta = 5: C_E = -log E{(1 + snr t)^-(m theta / log 2)} / theta
FULL_CORRELATION = [(1e-2, 100, 5.0), (1.0, 100, 5.0), (1e2, 100, 5.0)]
# m E{log2(1 + snr t)}
ERGODIC = [(1e-4, 10), (1e4, 10)]
# E{log2(1 + gamma t)^2}
SECOND_LOG_MOMENTS = [1e-4, 1.0, 1e4]


def expect(f, gamma):
    """E{f(gamma t)}, t ~ exponential(1), split where the integrand bends."""
    g = mp.mpf(gamma)
    cuts = {mp.mpf(c) for c in (1e-3, 1e-2, 0.1, 1, 10, 100)}
    cuts |= {c / g for c in (1e-2, 1, 100) if c / g < 200}
    points = [mp.mpf(0)] + sorted(cuts) + [mp.inf]
    return mp.quad(lambda t: f(g * t) * mp.exp(-t), points)


def neg_moment(gamma, a):
    a = mp.mpf(a)
    value = expect(lambda u: (1 + u) ** -a, gamma)
    w = 1 / mp.mpf(gamma)
    closed = mp.exp(w) * w ** a * mp.gammainc(1 - a, w)
    assert abs(value / closed - 1) < mp.mpf(10) ** -35, (gamma, a)
    return value


def main():
    mp.mp.dps = 40
    for gamma, a in NEG_MOMENTS:
        print(f"    ({gamma!r}, {a!r}, {mp.nstr(mp.log(neg_moment(gamma, a)), 25)}),")
    for snr, theta, m in IID_LOW_SNR:
        mean = neg_moment(snr, theta / LN2)
        print(f"    ({snr!r}, {theta!r}, {m}, {mp.nstr(-m / theta * mp.log(mean), 25)}),")
    for snr, m, theta in FULL_CORRELATION:
        mean = neg_moment(snr, m * (theta / LN2))
        print(f"    ({snr!r}, {m}, {theta!r}, {mp.nstr(-mp.log(mean) / theta, 25)}),")
    for snr, m in ERGODIC:
        value = expect(mp.log1p, snr)
        w = 1 / mp.mpf(snr)
        assert abs(value / (mp.exp(w) * mp.e1(w)) - 1) < mp.mpf(10) ** -35, snr
        print(f"    ({snr!r}, {m}, {mp.nstr(m * value / mp.log(2), 25)}),")
    for gamma in SECOND_LOG_MOMENTS:
        value = expect(lambda u: mp.log1p(u) ** 2, gamma)
        print(f"    ({gamma!r}, {mp.nstr(value / mp.log(2) ** 2, 25)}),")


if __name__ == "__main__":
    main()
