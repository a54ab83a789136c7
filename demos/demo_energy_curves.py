"""Energy per bit against spectral efficiency in the low-snr regime.

Every non-Poisson source kind shares the same -1.59 dB floor; the MMPP
pays (e^theta - 1)/theta more.  Burstiness shows up in the wideband
slope, not the floor.
"""

import numpy as np

from qoslink.channel import ChannelSpec
from qoslink.energy import (
    ebn0_curve,
    energy_metrics_onoff_discrete,
    energy_metrics_onoff_mmpp,
    source_energy_metrics,
)

spec = ChannelSpec(m=10, rho=0.0, sigma_h_sq=1.0)
theta = 1.0

print("metrics at theta = 1:")
for label, metrics in (
    ("constant", source_energy_metrics(None, spec, theta)[1]),
    ("on/off  s=0.5", energy_metrics_onoff_discrete(spec, theta, 0.8, 0.8)),
    ("on/off  s=0.1", energy_metrics_onoff_discrete(spec, theta, 0.9, 0.1)),
    ("mmpp", energy_metrics_onoff_mmpp(spec, theta, 2.0, 2.0)),
):
    print(
        f"  {label:14} ebn0_min {metrics.ebn0_min_db:8.4f} dB"
        f"   wideband slope {metrics.wideband_slope:.4f}"
    )

print()
print("curve for the s=0.5 source (snr swept down toward zero):")
snr_grid = [10.0 ** e for e in np.linspace(-4, -1, 7)]
points = ebn0_curve("discrete", spec, theta, snr_grid, p11=0.8, p22=0.8)
print(f"{'ebn0_db':>9} {'rate/symbol':>13}")
for pt in points:
    print(f"{pt.ebn0_db:9.4f} {pt.normalized_rate:13.6e}")
print("the smallest-snr point sits just above the -1.59 dB floor")
