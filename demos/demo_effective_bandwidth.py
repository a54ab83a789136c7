"""Tour of the effective bandwidth solvers.

Shows how a*(theta) climbs from the mean rate toward the peak rate as
the QoS constraint tightens, and that the closed two-state forms agree
with the general spectral path.
"""

from qoslink.sources import (
    OnOffContinuousParams,
    OnOffDiscreteParams,
    as_discrete_source,
    as_fluid_source,
    as_mmpp_source,
    effective_bandwidth_discrete,
    effective_bandwidth_fluid,
    effective_bandwidth_mmpp,
    effective_bandwidth_onoff_discrete,
    effective_bandwidth_onoff_fluid,
    effective_bandwidth_onoff_mmpp,
)

disc = OnOffDiscreteParams(p11=0.8, p22=0.8, lam=2.0)
cont = OnOffContinuousParams(alpha=9.0, beta=1.0, lam=2.0)

print("ON/OFF discrete: p11 = p22 = 0.8, lambda = 2 (mean 1.0, peak 2.0)")
print(f"{'theta':>8} {'a*':>12} {'spectral':>12}")
for theta in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0):
    closed = effective_bandwidth_onoff_discrete(disc, theta)
    eigen = effective_bandwidth_discrete(as_discrete_source(disc), theta)
    print(f"{theta:8.2f} {closed:12.8f} {eigen:12.8f}")

print()
print("ON/OFF fluid vs MMPP, alpha = 9, beta = 1 (ON tenth of the time)")
print(f"{'theta':>8} {'fluid a*':>12} {'mmpp a*':>12}")
for theta in (0.01, 0.1, 0.5, 1.0, 2.0):
    fl = effective_bandwidth_onoff_fluid(cont, theta)
    mp = effective_bandwidth_onoff_mmpp(cont, theta)
    print(f"{theta:8.2f} {fl:12.8f} {mp:12.8f}")
print("the Poisson layer always costs extra bandwidth: (e^theta - 1)/theta > 1")

print()
print("spectral path on the same models (matrix forms)")
for theta in (0.5, 2.0):
    fl = effective_bandwidth_fluid(as_fluid_source(cont), theta)
    mp = effective_bandwidth_mmpp(as_mmpp_source(cont), theta)
    print(f"theta = {theta}: fluid {fl:.10f}, mmpp {mp:.10f}")
