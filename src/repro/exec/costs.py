"""The one place crypto cost constants live.

The simulation cannot time real BN254 pairings, so every layer that needs
a wall-clock figure — the async executor's service-time model, the
benchmark reports, capacity planning in the experiments — works from the
same small model instead of re-deriving "~7.5 ms per pairing" in scattered
comments and benchmark math.

The anchor is the paper's measured constant-time verification: ~30 ms per
proof on the authors' rust stack (§IV), which is one classical Groth16
check of :data:`~repro.zksnark.groth16.PAIRINGS_PER_VERIFY` pairing
evaluations.  Everything else is derived: a batch of N proofs costs
N + :data:`~repro.zksnark.groth16.BATCH_FIXED_PAIRINGS` evaluations, a
fallback sweep costs 4 per member, and so on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProtocolError
from repro.zksnark.groth16 import BATCH_FIXED_PAIRINGS, PAIRINGS_PER_VERIFY

#: The paper's §IV verification figure: ~30 ms per classical check.
SECONDS_PER_VERIFY = 0.030

#: Derived per-pairing cost (~7.5 ms at 4 pairings per verify) — the unit
#: the :class:`~repro.zksnark.groth16.PairingCounter` counts in.
SECONDS_PER_PAIRING = SECONDS_PER_VERIFY / PAIRINGS_PER_VERIFY


@dataclass(frozen=True)
class CryptoCostModel:
    """Pairing-count -> modeled seconds, shared by executor and benchmarks.

    ``submit_overhead_seconds`` is the modeled inline cost of *handing a
    job to the executor* (queue insertion, not crypto): it is what a relay
    callback still pays on the async path, and the denominator of the
    sync-vs-async latency comparisons in E13.
    """

    seconds_per_pairing: float = SECONDS_PER_PAIRING
    submit_overhead_seconds: float = 2e-5

    def __post_init__(self) -> None:
        if self.seconds_per_pairing <= 0:
            raise ProtocolError("seconds_per_pairing must be positive")
        if self.submit_overhead_seconds < 0:
            raise ProtocolError("submit_overhead_seconds must be >= 0")

    def seconds_for_pairings(self, evaluations: int) -> float:
        """Modeled seconds for ``evaluations`` pairing evaluations."""
        return evaluations * self.seconds_per_pairing

    def batch_verify_seconds(self, batch_size: int) -> float:
        """One RLC multi-pairing over ``batch_size`` proofs (N + 3 rule)."""
        if batch_size <= 0:
            return 0.0
        return (batch_size + BATCH_FIXED_PAIRINGS) * self.seconds_per_pairing


#: Shared default instance — importing sites that only *read* the model
#: (benchmark reports, docs) use this instead of constructing their own.
DEFAULT_COST_MODEL = CryptoCostModel()
