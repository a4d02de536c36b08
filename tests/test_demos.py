"""Every demo runs to completion, so an API change cannot break one unnoticed."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos"))
               if name.endswith(".py"))

# demo 04's whole output: seeded Monte Carlo values of the five contracts
PINNED = {"04_price_exotics_under_q.py": """\
contract              value    std err
european            10.5217     0.0468
lookback            18.4048     0.0488
asian                5.8023     0.0255
accumulator       1236.4271     6.5864
snowball         10395.5819   309.3690

Black-Scholes reference: 10.4506  (MC is +1.52 std errors away)
"""}


def run_demo(name: str) -> str:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def test_all_five_demos_are_listed():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    out = run_demo(name)
    assert out.strip()
    assert out == PINNED.get(name, out)
