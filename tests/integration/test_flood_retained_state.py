"""What a spam flood leaves behind at each relay, counted rather than timed.

The fleet is ``benchmarks/probes/flood_memory.py``'s: 12 peers, degree 4,
six 1-s rounds of honest publishes and forged bundles from one attacker,
a double signal that gets its author slashed, then ``MCACHE_LENGTH``
heartbeats.  By then every message id a relay has judged is its bare
witness time, no retained wire object carries a ``__dict__``, and the
flood's surviving allocations per (judged id, relay) stay under a bound.
The reject and slash path also leaves no cyclic garbage.
"""

import gc
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.probes import flood_memory  # noqa: E402
from repro.core.messages import RateLimitProof  # noqa: E402
from repro.gossipsub.messages import PubSubMessage  # noqa: E402
from repro.waku.message import WakuMessage  # noqa: E402
from repro.zksnark.rln_circuit import RLNPublicInputs  # noqa: E402

#: Bytes the flood may leave allocated per (judged id, relay).  A bare
#: witness time and one verdict-cache slot read ~163; a deployment-wide
#: delivery tally read ~178; every peer keeping its delivered bundles
#: read ~355; a record per id, an ``OrderedDict`` link per verdict and a
#: ``__dict__`` per memo-holding object read ~554.
RETAINED_BYTES_PER_ID = 200


@pytest.fixture(scope="module")
def flooded():
    return flood_memory.retained()


def test_every_judged_id_is_its_witness_time(flooded):
    dep, _, _ = flooded
    tables = [peer.relay.router._table for peer in dep.peers.values()]
    assert flood_memory.judged_ids(dep) > 1000
    assert all(type(entry) is float for table in tables for entry in table.values())


def test_no_retained_wire_object_has_a_dict(flooded):
    kinds = (WakuMessage, PubSubMessage, RateLimitProof, RLNPublicInputs)
    live = [obj for obj in gc.get_objects() if type(obj) in kinds]
    # Every kept PubSubMessage has aged out of the windows; the rest stay.
    assert {type(obj) for obj in live} >= {WakuMessage, RateLimitProof, RLNPublicInputs}
    assert not [obj for obj in live if hasattr(obj, "__dict__")]


def test_retained_bytes_per_judged_id_stay_bounded(flooded):
    dep, alive, _ = flooded
    assert alive / flood_memory.judged_ids(dep) < RETAINED_BYTES_PER_ID


def test_the_reject_and_slash_path_leaves_no_cyclic_garbage():
    dep = flood_memory.fleet()
    spammer = dep.peer(flood_memory.SPAMMER).identity.pk
    gc.collect()
    gc.disable()
    try:
        flood_memory.flood(dep)
        leftover = gc.collect()
    finally:
        gc.enable()
    assert not dep.contract.is_member(spammer)  # the slash really ran
    assert sum(p.relay.router.stats.rejected for p in dep.peers.values()) > 0
    assert leftover == 0
