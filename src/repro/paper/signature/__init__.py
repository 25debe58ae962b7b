"""Chapter 4: signature measures and the signature-based ranking cube."""

from repro.paper.signature.cube import (
    ConstructionStats,
    MaintenanceReport,
    SignatureRankingCube,
)
from repro.paper.signature.encoding import (
    SCHEME_BL,
    SCHEME_PC,
    SCHEME_PI,
    SCHEME_RL,
    code_size_bits,
    code_size_bytes,
    decode,
    encode,
    encode_adaptive,
)
from repro.paper.signature.query import SignatureTopKExecutor
from repro.paper.signature.signature import Signature, path_to_sid, sid_to_path
from repro.paper.signature.store import (
    CellSignatureReader,
    CombinedSignatureReader,
    PartialSignature,
    SignatureStore,
    decompose_signature,
    reassemble_signature,
)

__all__ = [
    "ConstructionStats",
    "MaintenanceReport",
    "SignatureRankingCube",
    "SCHEME_BL",
    "SCHEME_PC",
    "SCHEME_PI",
    "SCHEME_RL",
    "code_size_bits",
    "code_size_bytes",
    "decode",
    "encode",
    "encode_adaptive",
    "SignatureTopKExecutor",
    "Signature",
    "path_to_sid",
    "sid_to_path",
    "CellSignatureReader",
    "CombinedSignatureReader",
    "PartialSignature",
    "SignatureStore",
    "decompose_signature",
    "reassemble_signature",
]
