"""The one trust decision for outcomes this process did not just verify.

A stored cache entry, a replayed one (``resume``) and a late result from an
expired lease all claim a solution that no local check has seen.  Each is
trusted only through :func:`trust_outcome`: with a certificate (and
``paranoid`` off) the independent certificate checker re-validates it with
``expected_pss`` pinned to the recorded groups; otherwise the full
``check_solution`` runs.  A certificate that fails is final — there is no
fall-back to ``check_solution`` for a record that already lied once.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..trace.tracer import NULL_TRACER
from ..verify.stabilization import check_solution
from .certificate import CertificateError, ConvergenceCertificate
from .checker import check_certificate


@dataclass(frozen=True)
class TrustVerdict:
    """Whether a recorded solution may be trusted, and on what grounds."""

    trusted: bool
    #: ``"certificate"`` or ``"check_solution"``
    method: str
    #: why trust was refused (``None`` when trusted)
    error: str | None = None


def trust_outcome(
    protocol,
    invariant,
    pss_groups,
    certificate: dict | None,
    *,
    paranoid: bool = False,
    tracer=NULL_TRACER,
) -> TrustVerdict:
    """Re-establish trust in a recorded solution ``pss_groups``.

    Emits the ``cert.check`` span, the ``cert.check_pass`` /
    ``cert.check_fail`` counters (certificate path) and one
    ``cert.check_failed`` event for any refusal.
    """
    method = (
        "certificate"
        if certificate is not None and not paranoid
        else "check_solution"
    )
    error = None
    groups = (
        None if pss_groups is None else [set(map(tuple, g)) for g in pss_groups]
    )
    if groups is None:
        error = "no solution groups recorded"
    elif method == "certificate":
        with tracer.span("cert.check"):
            try:
                check_certificate(
                    protocol,
                    invariant,
                    ConvergenceCertificate.from_payload(certificate),
                    expected_pss=groups,
                )
            except CertificateError as exc:
                error = str(exc)
        tracer.count("cert.check_pass" if error is None else "cert.check_fail")
    elif not check_solution(protocol, protocol.with_groups(groups), invariant).ok:
        error = "check_solution rejected the recorded groups"
    if error is not None:
        tracer.event("cert.check_failed", method=method, error=error)
    return TrustVerdict(error is None, method, error)
