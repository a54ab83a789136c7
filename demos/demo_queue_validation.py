"""Queue simulation against the large-deviations prediction.

Loads the link exactly at the computed optimum lambda*(theta) and
checks that the simulated buffer-overflow tail decays at rate theta,
the way the analysis promises.  Takes a few seconds.
"""

import numpy as np

from qoslink.channel import ChannelSpec, effective_capacity_rayleigh_iid
from qoslink.queuesim import SimConfig, simulate_queue
from qoslink.sources import OnOffDiscreteParams
from qoslink.throughput import max_avg_rate_onoff_discrete

THETA = 0.2
M = 10
N_BLOCKS = 5 * 10 ** 5
spec = ChannelSpec(m=M, rho=0.0, sigma_h_sq=1.0)

ce = effective_capacity_rayleigh_iid(1.0, THETA, M).value
res = max_avg_rate_onoff_discrete(ce, THETA, 0.8, 0.8)
print(f"target theta {THETA}, lambda* {res.lambda_star:.6f} (r* {res.r_avg_star:.6f})")

cfg = SimConfig(
    source=OnOffDiscreteParams(0.8, 0.8, res.lambda_star),
    channel=spec,
    snr=1.0,
    n_blocks=N_BLOCKS,
    seed=42,
)
report = simulate_queue(cfg)

print(f"simulated blocks: {N_BLOCKS}")
print(f"fitted overflow decay: {report.theta_sim:.6f}"
      f"  (rel err {abs(report.theta_sim - THETA) / THETA:.1%})")
delay_target = THETA * ce
print(f"fitted delay decay:    {report.delay_slope_sim:.6f}"
      f"  vs theta*a* {delay_target:.6f}"
      f"  (rel err {abs(report.delay_slope_sim - delay_target) / delay_target:.1%})")

print(f"non-empty-buffer prefactor: empirical {report.varsigma_hat:.4f},"
      f" ratio approximation {report.varsigma_ratio:.4f}")

print()
print("overflow tail (log10 scale):")
for q, p in report.overflow_points[:8]:
    bar = "#" * max(1, int(30 + 10 * np.log10(p)))
    print(f"  q {q:9.2f}  P {p:9.2e}  {bar}")
