"""Play the P-Q quoting game: trader's model vs market maker's GBM.

Q quotes bid/ask around its GBM fair value with a widening greediness
spread; P trades only when its own valuation beats the quote by more
than the decision threshold.  When P prices exactly like Q there is
nothing to pick off.  Here P gets a deliberately inflated view of the
same paths, so it lifts offers aggressively at tight spreads and backs
off as the spread widens.  Settlement happens on the realized slice
path, which follows neither model's view: the deluded trader trades a
lot and loses, and widening spreads simply shut it out.
"""

import numpy as np

from pqlab.market_paths import ConditionVector, PathSlice
from pqlab.payoffs import European, Snowball
from pqlab.pq_game import (GameConfig, format_game_table, gbm_p_source, run_game,
                           value_slices)
from pqlab.q_pricer import simulate_gbm


def make_slice(seed, n=20):
    rng = np.random.default_rng([seed, 0xACC])
    returns = 0.2 / np.sqrt(252.0) * rng.standard_normal(n)
    condition = ConditionVector(
        sigma_hist=0.2, r=0.03, t_calendar=2.0 * n / 365.0,
        t_trading=n / 252.0, n_trading=n,
    )
    return PathSlice(
        s0=100.0, log_returns=returns,
        condition=condition, window_calendar_days=2 * n,
        start_date=np.datetime64("2021-01-04") + seed,
    )


slices = [make_slice(i) for i in range(12)]
config = GameConfig(q_paths=2000, seed=11)

# P identical to Q: every gap is zero, no trades at any spread
(values,) = value_slices(slices, [European()], gbm_p_source, config)
outcomes = run_game(values, European(), config)
print(format_game_table([o.report for o in outcomes], title="european, P = Q"))


def bullish(s, params):
    # P sees 40% more upside than Q on the same simulated paths
    return s.s0 + 1.4 * (simulate_gbm(params) - s.s0)


# one pass over the slices values the whole book: each slice's Q paths are
# simulated once and its P paths drawn once, for both contracts
book = (European(), Snowball())
euro_values, snow_values = value_slices(slices, book, bullish, config)

outcomes = run_game(euro_values, European(), config)
print(format_game_table([o.report for o in outcomes], title="european, bullish P"))

outcomes = run_game(snow_values, Snowball(), config)
print(format_game_table(
    [o.report for o in outcomes], title="snowball, absolute spreads"
))
