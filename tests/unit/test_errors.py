"""Unit tests for the exception hierarchy.

Callers rely on the hierarchy for coarse-grained handling ("catch any
crypto failure", "catch any protocol violation"); these tests pin the
inheritance relationships so refactors cannot silently break them.
"""

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize(
        "child,parent",
        [
            (errors.FieldError, errors.CryptoError),
            (errors.MerkleError, errors.CryptoError),
            (errors.TreeFullError, errors.MerkleError),
            (errors.InvalidAuthPath, errors.MerkleError),
            (errors.ShamirError, errors.CryptoError),
            (errors.IdentityError, errors.CryptoError),
            (errors.CommitmentError, errors.CryptoError),
            (errors.ConstraintViolation, errors.SnarkError),
            (errors.ProvingError, errors.SnarkError),
            (errors.VerificationError, errors.SnarkError),
            (errors.SetupError, errors.SnarkError),
            (errors.InsufficientFunds, errors.ChainError),
            (errors.ContractError, errors.ChainError),
            (errors.OutOfGas, errors.ChainError),
            (errors.DuplicateRegistration, errors.ContractError),
            (errors.NotRegistered, errors.ContractError),
            (errors.UnknownPeer, errors.NetworkError),
            (errors.NotConnected, errors.NetworkError),
            (errors.RegistrationError, errors.ProtocolError),
            (errors.SyncError, errors.ProtocolError),
        ],
    )
    def test_parentage(self, child, parent):
        assert issubclass(child, parent)
        assert issubclass(child, errors.ReproError)

    def test_branches_are_disjoint(self):
        assert not issubclass(errors.CryptoError, errors.ChainError)
        assert not issubclass(errors.NetworkError, errors.ProtocolError)
        assert not issubclass(errors.SnarkError, errors.CryptoError)

    def test_catching_the_root_catches_everything(self):
        for exc_type in (
            errors.FieldError,
            errors.OutOfGas,
            errors.SyncError,
            errors.UnknownPeer,
            errors.ProvingError,
        ):
            with pytest.raises(errors.ReproError):
                raise exc_type("boom")
