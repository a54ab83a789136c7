"""Maximum supportable arrival rate across snr for several QoS levels.

The supported average rate r* falls as theta grows; at theta -> 0 it
approaches the ergodic capacity, and a bursty source pays a visible
penalty at every snr.
"""

from qoslink.channel import ChannelSpec, effective_capacity_rayleigh_iid, ergodic_capacity
from qoslink.throughput import max_avg_rate_onoff_discrete

M = 10
spec = ChannelSpec(m=M, rho=0.0, sigma_h_sq=1.0)

print("ON/OFF discrete source, p11 = p22 = 0.8, block length 10")
header = f"{'snr_db':>7} {'ergodic':>10}"
thetas = (0.01, 0.1, 1.0)
for th in thetas:
    header += f" {'r*(' + str(th) + ')':>12}"
print(header)

for snr_db in range(-5, 21, 5):
    snr = 10.0 ** (snr_db / 10.0)
    row = f"{snr_db:7d} {ergodic_capacity(spec, snr):10.4f}"
    for th in thetas:
        ce = effective_capacity_rayleigh_iid(snr, th, M).value
        res = max_avg_rate_onoff_discrete(ce, th, 0.8, 0.8)
        row += f" {res.r_avg_star:12.4f}"
    print(row)

print()
print("per-block units; divide by the block length for rate per symbol")
