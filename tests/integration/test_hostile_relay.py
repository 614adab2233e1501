"""A relay that forwards a tampered copy ahead of each honest one.

The scenario is ``benchmarks/probes/tamper.py``'s: 12 peers, degree 4, 5
messages, and ``peer-000`` sending its mesh a copy with one RLN bundle
field changed before every honest forward.  The receiver's message id
covers the bundle, so the tampered copy is judged under its own id and
the honest copy still lands everywhere: the tamperer costs 0 deliveries.
"""

import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.probes import tamper  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("field", tamper.FIELDS)
def test_a_tampered_copy_censors_no_honest_one(field, seed):
    dep, tracker = tamper.scenario(seed, field)
    every = tamper.PEERS * tamper.MESSAGES
    assert sum(tracker.delivery_count(payload) for payload in tamper.PAYLOADS) == every
    # The tampered copies really went out and were refused on their own ids.
    routers = [peer.relay.router for peer in dep.peers.values()]
    assert sum(r.stats.rejected + r.stats.ignored for r in routers) > 0
    assert tamper.deliveries(seed, None) == every
