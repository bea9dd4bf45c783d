"""The one trust decision for outcomes this process did not just verify.

A stored cache entry, a replayed one (``resume``) and a late result from an
expired lease all claim a solution that no local check has seen.  Each is
trusted only through :func:`trust_outcome`: the independent certificate
checker re-validates its certificate with ``expected_pss`` pinned to the
recorded groups.  A record without a certificate, or whose certificate
fails, is refused — the caller quarantines it and re-runs the config;
nothing re-derives trust another way.
"""

from __future__ import annotations

from ..trace.tracer import NULL_TRACER
from .certificate import CertificateError, ConvergenceCertificate
from .checker import check_certificate


def trust_outcome(
    protocol,
    invariant,
    pss_groups,
    certificate: dict | None,
    *,
    tracer=NULL_TRACER,
) -> str | None:
    """Re-establish trust in a recorded solution ``pss_groups``.

    Returns ``None`` when the certificate checks, else why trust was
    refused.  Emits the ``cert.check`` span and the ``cert.check_pass`` /
    ``cert.check_fail`` counters for each certificate checked, and one
    ``cert.check_failed`` event for any refusal.
    """
    if pss_groups is None:
        error = "no solution groups recorded"
    elif certificate is None:
        error = "no certificate recorded"
    else:
        error = None
        with tracer.span("cert.check"):
            try:
                check_certificate(
                    protocol,
                    invariant,
                    ConvergenceCertificate.from_payload(certificate),
                    expected_pss=[set(map(tuple, g)) for g in pss_groups],
                )
            except CertificateError as exc:
                error = str(exc)
        tracer.count("cert.check_pass" if error is None else "cert.check_fail")
    if error is not None:
        tracer.event("cert.check_failed", error=error)
    return error
