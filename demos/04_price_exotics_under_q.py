"""Price the five contract families under the risk-neutral GBM measure.

The Q pricer simulates geometric Brownian motion in seeded chunks and
discounts each contract's cash flows; ``price_all`` values all five
contracts on one simulation.  For the European call the Monte Carlo
estimate is checked against the Black-Scholes closed form.
"""

import math

from pqlab.payoffs import Accumulator, Asian, European, Lookback, Snowball
from pqlab.q_pricer import GbmParams, price_all

params = GbmParams(s0=100.0, r=0.05, sigma=0.2, n_days=252, n_paths=100_000, seed=7)


def bs_call(s0, k, r, sigma, t):
    d1 = (math.log(s0 / k) + (r + 0.5 * sigma * sigma) * t) / (sigma * math.sqrt(t))
    d2 = d1 - sigma * math.sqrt(t)
    cdf = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))  # noqa: E731
    return s0 * cdf(d1) - k * math.exp(-r * t) * cdf(d2)


contracts = [
    ("european", European(strike_ratio=1.0)),
    ("lookback", Lookback(strike_ratio=1.0)),
    ("asian", Asian(strike_ratio=1.0)),
    ("accumulator", Accumulator(discount=0.9, ko_ratio=1.2)),
    ("snowball", Snowball(ko_ratio=1.05, ki_ratio=0.8, coupon_pa=0.15)),
]

# snowball coupons accrue on calendar time, one year here; the other
# contracts ignore the calendar
estimates = price_all([c for _, c in contracts], params, t_calendar=1.0)

print(f"{'contract':<12} {'value':>14} {'std err':>10}")
for (name, _), est in zip(contracts, estimates):
    print(f"{name:<12} {est.value:>14.4f} {est.std_error:>10.4f}")

ref = bs_call(100.0, 100.0, 0.05, 0.2, 1.0)
est = estimates[0]  # the European call
z = (est.value - ref) / est.std_error
print(f"\nBlack-Scholes reference: {ref:.4f}  (MC is {z:+.2f} std errors away)")
