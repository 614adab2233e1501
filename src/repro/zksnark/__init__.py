"""zkSNARK layer: R1CS, the RLN circuit, simulated Groth16, trusted setup."""

from repro.zksnark.r1cs import Constraint, ConstraintSystem, LinearCombination
from repro.zksnark.rln_circuit import (
    PUBLIC_INPUT_ORDER,
    CircuitShape,
    RLNPublicInputs,
    RLNWitness,
    circuit_shape,
    synthesize,
)
from repro.zksnark.groth16 import (
    BATCH_FIXED_PAIRINGS,
    PAIRINGS_PER_VERIFY,
    PROOF_SIZE,
    Groth16,
    PairingCounter,
    Proof,
    ProvingKey,
    RLNProver,
    VerifyingKey,
    batch_pairing_check,
    setup,
    single_pairing_check,
)
from repro.zksnark.prover import (
    NativeProver,
    reset_shared_provers,
    shared_prover,
)
from repro.zksnark.trusted_setup import (
    Ceremony,
    Contribution,
    SetupParameters,
    run_default_ceremony,
)

__all__ = [
    "Constraint",
    "ConstraintSystem",
    "LinearCombination",
    "PUBLIC_INPUT_ORDER",
    "CircuitShape",
    "RLNPublicInputs",
    "RLNWitness",
    "circuit_shape",
    "synthesize",
    "BATCH_FIXED_PAIRINGS",
    "PAIRINGS_PER_VERIFY",
    "PROOF_SIZE",
    "Groth16",
    "PairingCounter",
    "Proof",
    "ProvingKey",
    "VerifyingKey",
    "batch_pairing_check",
    "setup",
    "single_pairing_check",
    "NativeProver",
    "RLNProver",
    "reset_shared_provers",
    "shared_prover",
    "Ceremony",
    "Contribution",
    "SetupParameters",
    "run_default_ceremony",
]
