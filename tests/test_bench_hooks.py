"""The benchmark's traced run wraps these pqlab names; renaming one fails here.

``perfbench.layers.instrument`` installs span shims by attribute name, so
a renamed or moved function would otherwise break only the benchmark's own
test suite.  This test runs no workload.
"""

from perfbench import layers
from perfbench.tracing import Tracer

import pqlab.pq_game as pq_game
import pqlab.q_pricer as q_pricer

HOOKS = (
    (pq_game, "price"),
    (pq_game, "p_price"),
    (pq_game, "contract_cashflows"),
    (pq_game, "run_game"),
    (q_pricer, "discounted_values"),
)


def test_instrument_wraps_the_valuation_hooks_and_restores_them():
    originals = [getattr(owner, attr) for owner, attr in HOOKS]
    tracer = Tracer()
    try:
        layers.instrument(tracer)
        for (owner, attr), original in zip(HOOKS, originals):
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.restore()
    for (owner, attr), original in zip(HOOKS, originals):
        assert getattr(owner, attr) is original, attr
