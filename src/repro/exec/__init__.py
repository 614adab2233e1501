"""Async crypto execution: worker lanes, priorities, the crypto cost model.

See :mod:`repro.exec.executor` for the scheduling model and
:mod:`repro.exec.costs` for the centralized pairing-cost constants.
"""

from repro.exec.costs import (
    DEFAULT_COST_MODEL,
    SECONDS_PER_PAIRING,
    SECONDS_PER_VERIFY,
    CryptoCostModel,
)
from repro.exec.executor import (
    ExecutorStats,
    Priority,
    PriorityClassStats,
    SimulatedCryptoExecutor,
    SynchronousCryptoExecutor,
)

__all__ = [
    "CryptoCostModel",
    "DEFAULT_COST_MODEL",
    "ExecutorStats",
    "Priority",
    "PriorityClassStats",
    "SECONDS_PER_PAIRING",
    "SECONDS_PER_VERIFY",
    "SimulatedCryptoExecutor",
    "SynchronousCryptoExecutor",
]
