"""Staged ingress validation: prefilter, rate limits, batched verification.

The production-shaped front end of the §III-F routing decision — see
:mod:`repro.pipeline.pipeline` for the stage map.
"""

# Load the protocol layer first: repro.core.protocol imports
# repro.pipeline.pipeline, so letting repro.core finish initialising before
# this package pulls in its own submodules keeps the (one-way) import chain
# acyclic regardless of which package an application imports first.
import repro.core  # noqa: F401  (import-order guard, see above)

from repro.pipeline.batch_verifier import (
    BatchVerifier,
    BatchVerifierStats,
    VerificationJob,
)
from repro.pipeline.pipeline import (
    PipelineConfig,
    PipelineStats,
    ValidationPipeline,
    Verdict,
)
from repro.pipeline.prefilter import Prefilter, PrefilterOutcome, PrefilterStats
from repro.pipeline.ratelimit import (
    BucketSpec,
    IngressRateLimiter,
    RateLimitStats,
    RateLimitVerdict,
    TokenBucket,
)

__all__ = [
    "BatchVerifier",
    "BatchVerifierStats",
    "VerificationJob",
    "PipelineConfig",
    "PipelineStats",
    "ValidationPipeline",
    "Verdict",
    "Prefilter",
    "PrefilterOutcome",
    "PrefilterStats",
    "BucketSpec",
    "IngressRateLimiter",
    "RateLimitStats",
    "RateLimitVerdict",
    "TokenBucket",
]
