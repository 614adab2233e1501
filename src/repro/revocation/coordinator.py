"""The slashing coordinator: spam evidence to on-chain removal, raced.

§III-F's economic argument — spamming costs the spammer its whole stake —
only closes if detected double-signals reliably become removals.  One
routing peer might crash between detection and reveal; the system answer
is *every* routing peer that saw the two conflicting shares races the
same commit-reveal independently.  :class:`SlashingCoordinator` is that
role packaged for one peer:

1. consume :class:`~repro.core.nullifier_log.SpamEvidence` (the
   validation pipeline's ``NullifierOutcome.SPAM`` product, delivered via
   the peer's ``on_spam`` feed);
2. recover the spammer's secret key by Shamir interpolation and open the
   commit round (:class:`~repro.core.slashing.Slasher` underneath — the
   commitment binds this coordinator's address, so observers copying the
   mempool gain nothing);
3. pump the reveal across subsequent blocks.  Exactly one racer's reveal
   executes — the contract deletes the leaf on the first valid opening
   and every later reveal fails with ``NotRegistered`` (the member is
   already gone).  Losing is *normal* and accounted, not an error: the
   loser is out two transactions' gas, the §IV-A cost of redundancy;
4. watch the chain for the unified ``MemberRemoved`` event and stamp the
   case, so the spam-to-on-chain-removal latency is measurable per case
   (:class:`RevocationCase.chain_latency`) and the economics per
   coordinator (:class:`CoordinatorStats`: rewards won, gas burned, net).

Everything *after* the event — group managers zeroing the leaf, the
block's :class:`~repro.treesync.messages.ShardUpdate` and its zero write,
window collapse, witness invalidation — rides the existing tree-sync and
witness machinery; :class:`~repro.revocation.tracker.RevocationTracker`
measures when each view actually excludes the spammer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.chain.blockchain import Event
from repro.chain.rln_contract import RLNMembershipContract
from repro.core.nullifier_log import SpamEvidence
from repro.core.slashing import SlashAttempt, SlashState, Slasher
from repro.crypto.field import FieldElement
from repro.net.simulator import Simulator
from repro.telemetry import resolve as resolve_telemetry
from repro.telemetry.disttrace import ActiveSpan, Disabled
from repro.telemetry.tracing import COMMIT_REVEAL, MEMBER_REMOVED


@dataclass
class RevocationCase:
    """One spam case tracked from local evidence to on-chain removal."""

    nullifier: int
    epoch: int
    spammer_pk: FieldElement
    attempt: SlashAttempt
    #: Simulated time this coordinator saw the two conflicting shares.
    evidence_at: float
    #: Simulated time the unified ``MemberRemoved`` event landed (set
    #: whether *this* coordinator won the race or a rival did — the
    #: member is gone either way, which is what revocation cares about).
    removed_at: float | None = None
    removed_index: int | None = None

    @property
    def settled(self) -> bool:
        return self.attempt.state in (SlashState.REWARDED, SlashState.FAILED)

    @property
    def won(self) -> bool | None:
        """True/False once the race settled; None while still racing."""
        if self.attempt.state is SlashState.REWARDED:
            return True
        if self.attempt.state is SlashState.FAILED:
            return False
        return None

    @property
    def chain_latency(self) -> float | None:
        """Evidence observation to on-chain removal (simulated seconds)."""
        if self.removed_at is None:
            return None
        return self.removed_at - self.evidence_at


@dataclass
class CoordinatorStats:
    """Slash-race economics for one coordinator (E15's per-peer surface)."""

    cases: int = 0
    races_won: int = 0
    races_lost: int = 0
    #: Wei paid in gas across commit and reveal transactions (gas price 1
    #: unless callers override it chain-wide).
    gas_spent_wei: int = 0
    #: Stakes collected from won races.
    rewards_wei: int = 0

    @property
    def net_wei(self) -> int:
        """Rewards minus gas — negative for a peer that mostly loses
        races, which is the §III-F redundancy cost the E15 economics
        table quantifies."""
        return self.rewards_wei - self.gas_spent_wei


class SlashingCoordinator:
    """Drives the evidence → recovery → commit-reveal race for one peer.

    Settlement is scheduled on the event simulator after every observed
    case, one block interval at a time, until no attempt is pending —
    the unattended mode a routing peer runs.  It races through the
    ``slasher`` it is handed (a relay peer's own), whose account and chain
    it acts for.
    """

    def __init__(
        self,
        slasher: Slasher,
        contract: RLNMembershipContract,
        simulator: Simulator,
        *,
        telemetry=None,
    ) -> None:
        self.account = account = slasher.account
        self.chain = slasher.chain
        self.contract = contract
        self.simulator = simulator
        self.slasher = slasher
        self.stats = CoordinatorStats()
        self.telemetry = resolve_telemetry(telemetry)
        stats, bind = self.stats, partial(self.telemetry.registry.bind, peer=account)
        bind("slashing_cases_total", lambda: stats.cases)
        bind("slashing_races_total", lambda: stats.races_won, outcome="won")
        bind("slashing_races_total", lambda: stats.races_lost, outcome="lost")
        bind("slashing_gas_spent_wei_total", lambda: stats.gas_spent_wei)
        bind("slashing_rewards_wei_total", lambda: stats.rewards_wei)
        #: Shared with the peer's protocol (same hub, same peer id), so
        #: the evidence context it registered under (nullifier, epoch) is
        #: visible here and the race joins the spam message's propagation
        #: tree.
        self._tracer = self.telemetry.disttracer(
            account, clock=lambda: simulator.now
        )
        self._case_spans: dict[tuple[int, int], ActiveSpan | Disabled] = {}
        self.cases: list[RevocationCase] = []
        self._case_by_key: dict[tuple[int, int], RevocationCase] = {}
        self._accounted: set[int] = set()
        self._pumping = False
        self._removed_callbacks: list[Callable[[RevocationCase], None]] = []
        self._unsubscribe = self.chain.subscribe(self._on_event)

    def close(self) -> None:
        self._unsubscribe()

    # -- evidence intake -------------------------------------------------------

    def observe(self, evidence: SpamEvidence) -> RevocationCase | None:
        """Open (or ignore) a case for one piece of spam evidence.

        Idempotent per (nullifier, epoch): a botnet flood yields the same
        evidence many times over — the §III-F map produces it once per
        conflicting pair — and one commit-reveal per case is all the
        contract will ever pay for.
        """
        key = (evidence.internal_nullifier.value, evidence.epoch)
        if key in self._case_by_key:
            return None
        # One span per case, evidence → commit-reveal → member-removed,
        # hung under the evidence span the validation path registered for
        # it (a local root if the convicting verdict was untraced).
        span = self._tracer.begin(
            "revocation", parent=self._tracer.revocation_context(key)
        )
        attempt = self.slasher.begin(evidence)  # Shamir recovery + commit
        span.mark(COMMIT_REVEAL)
        self._case_spans[key] = span
        case = RevocationCase(
            nullifier=key[0],
            epoch=key[1],
            spammer_pk=attempt.spammer_pk,
            attempt=attempt,
            evidence_at=self.simulator.now,
        )
        self._case_by_key[key] = case
        self.cases.append(case)
        self.stats.cases += 1
        self._pump()
        return case

    def on_removed(self, callback: Callable[[RevocationCase], None]) -> None:
        """Subscribe to on-chain removals of this coordinator's cases
        (fired whoever won the race)."""
        self._removed_callbacks.append(callback)

    # -- settlement ------------------------------------------------------------

    def settle(self) -> None:
        """Advance pending attempts and fold settled races into stats."""
        self.slasher.settle()
        for case in self.cases:
            attempt = case.attempt
            if attempt.attempt_id in self._accounted or not case.settled:
                continue
            self._accounted.add(attempt.attempt_id)
            gas = self._fee_of(attempt.commit_tx) + self._fee_of(attempt.reveal_tx)
            self.stats.gas_spent_wei += gas
            if attempt.state is SlashState.REWARDED:
                self.stats.races_won += 1
                self.stats.rewards_wei += attempt.reward
            else:
                self.stats.races_lost += 1

    def _fee_of(self, tx_id: int | None) -> int:
        if tx_id is None:
            return 0
        receipt = self.chain.receipt(tx_id)
        # Gas price is 1 wei/gas everywhere in the reproduction, so the
        # fee in wei is the gas used.
        return 0 if receipt is None else receipt.gas_used

    def _pump(self) -> None:
        """Drive settlement across the next blocks (one live pump only —
        a case observed while a chain is running rides the existing one,
        since settle() covers every open attempt)."""
        if self._pumping:
            return
        self._pumping = True
        self.simulator.schedule(self.chain.block_interval * 1.05, self._pump_step)

    def _pump_step(self) -> None:
        # A method, not a closure over itself: a pump leaves no cycle.
        self.settle()
        if self.slasher.pending():
            self.simulator.schedule(self.chain.block_interval, self._pump_step)
        else:
            self._pumping = False

    # -- chain watching ----------------------------------------------------------

    def _on_event(self, event: Event) -> None:
        if event.contract != self.contract.address:
            return
        if event.name != "MemberRemoved":
            return
        pk = event.data["pk"]
        for case in self.cases:
            if case.removed_at is None and case.spammer_pk.value == pk:
                case.removed_at = self.simulator.now
                case.removed_index = event.data["index"]
                span = self._case_spans.pop((case.nullifier, case.epoch), None)
                if span is not None:
                    span.mark(MEMBER_REMOVED)
                    self._tracer.finish(span)
                for callback in list(self._removed_callbacks):
                    callback(case)
