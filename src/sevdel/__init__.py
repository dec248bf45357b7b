"""Secure and verifiable data deletion for outsourced storage.

Owners tag files with homomorphic authenticators before outsourcing; the
cloud encrypts blockwise under an enclave-held key and proves, against a
random challenge and in zero knowledge, that the stored ciphertexts
encrypt exactly the tagged file.  Deletion destroys the enclave (and with
it the key); leakage lets the owner win an on-chain audit that pays the
provider's penalty deposit.
"""

from .codec import BlockMatrix, FileManifest, join, split
from .contract import Contract, Ledger, LogicalClock, verify_audit_response
from .enclave import DeletionReceipt, Enclave, EnclaveRegistry
from .groups import (
    G1Elem,
    G2Elem,
    SystemParams,
    block_point,
    elem_to_scalar,
    pairing_eq,
    setup,
    vgen_points,
)
from .owner import (
    AuditResponse,
    Challenge,
    OwnerKeyPair,
    SectorGenerators,
    TagSet,
    audit_respond,
    gen_challenge,
    keygen,
    outsource,
    verify_encryption_proof,
)
from .cloud import (
    CiphertextMatrix,
    EncProof,
    EncTagSet,
    ServerKeyPair,
    decrypt_block,
    decrypt_file,
    delete_file,
    encrypt_file,
    gen_enc_tags,
    prove_encryption,
    server_keygen,
)
from .rng import SecureRng, SeededRng
from .scenario import Scenario, Transcript, bench, run_scenario

__version__ = "0.1.0"
