"""Convergence certificates: witness emission and independent checking.

``emit`` computes a ranking witness at synthesis time; ``checker``
re-validates it later (cache hits, resume, CI) in one vectorised pass — no
BFS, no reachability, no re-synthesis.  ``trust`` is the one decision every
stored, resumed or late portfolio outcome goes through.  See
``docs/ARCHITECTURE.md`` § Certificates for the trust model.
"""

from .certificate import (
    CERT_SCHEMA,
    CertificateError,
    ConvergenceCertificate,
    invariant_hash,
    tamper_certificate_payload,
)
from .checker import (
    CertificateCheck,
    CertificateViolation,
    check_certificate,
    check_certificate_symbolic,
    reconstruct_pss_groups,
    validate_certificate,
)
from .emit import (
    CertificateEmissionError,
    emit_certificate,
    emit_certificate_from_groups,
    emit_certificate_symbolic,
    longest_path_ranks,
    shortest_path_ranks,
)
from .trust import trust_outcome

__all__ = [
    "CERT_SCHEMA",
    "CertificateCheck",
    "CertificateEmissionError",
    "CertificateError",
    "CertificateViolation",
    "ConvergenceCertificate",
    "check_certificate",
    "check_certificate_symbolic",
    "emit_certificate",
    "emit_certificate_from_groups",
    "emit_certificate_symbolic",
    "invariant_hash",
    "longest_path_ranks",
    "reconstruct_pss_groups",
    "shortest_path_ranks",
    "tamper_certificate_payload",
    "trust_outcome",
    "validate_certificate",
]
