"""Exception hierarchy shared by all sevdel modules."""


class SevdelError(Exception):
    """Base class for every error raised by this package."""


class InvariantViolation(SevdelError):
    """A self-check of the program failed; raised explicitly, so it also
    fires under python -O."""


# -- group arithmetic / encodings -------------------------------------------

class InvalidElement(SevdelError):
    """Byte string does not decode to a valid group element."""


class UnknownDomain(SevdelError):
    """hash-to-group called with a domain tag outside the system parameters."""


# -- file codec --------------------------------------------------------------

class EmptyFile(SevdelError):
    """A zero-length file cannot be split into blocks."""


class DimensionMismatch(SevdelError):
    """Matrix shape disagrees with the manifest it is paired with."""


# -- challenges / proofs ------------------------------------------------------

class CountOutOfRange(SevdelError):
    """Challenge size is not within [1, n]."""


class IndexOutOfRange(SevdelError):
    """Challenged block index is outside the file."""


class MalformedProof(SevdelError):
    """Proof object is structurally broken (wrong arity, bad encoding)."""


class MissingBlock(SevdelError):
    """Audit responder does not hold a challenged ciphertext block."""


class DlogOutOfRange(SevdelError):
    """Recovered exponent exceeds the sector bound; ciphertext is corrupt."""


# -- enclave lifecycle ---------------------------------------------------------

class EnclaveError(SevdelError):
    pass


class EnclaveDestroyed(EnclaveError):
    """Operation requires a live enclave but it has been destroyed."""


class AlreadyDestroyed(EnclaveError):
    """destroy called twice on the same enclave."""


class DuplicateEnclave(EnclaveError):
    """An alive enclave is already bound to this file."""


class SecretNotFound(EnclaveError):
    """unseal called with a key that was never sealed."""


class UnknownFile(EnclaveError):
    """No alive enclave is bound to the given file id."""


# -- contract ------------------------------------------------------------------

class ContractError(SevdelError):
    pass


class WrongState(ContractError):
    """Transition attempted from a state that does not allow it."""


class WrongWindow(ContractError):
    """Transition attempted outside its deadline window."""


class DeadlinePassed(WrongWindow):
    """Service creation attempted after T1."""


class InsufficientBalance(ContractError):
    pass


class DuplicateOwner(ContractError):
    pass


class DuplicateTags(ContractError):
    pass


class UnknownOwner(ContractError):
    pass


# -- harness --------------------------------------------------------------------

class ScenarioError(SevdelError):
    """Scenario file fails validation."""
