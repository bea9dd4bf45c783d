"""Certificate check vs full ``check_solution``: the trust-path speedup.

The portfolio re-verifies stored and resumed winners before trusting them.
Pre-certificates that meant a full ``check_solution`` — closure check,
deadlock scan, SCC decomposition and a δpss|I = δp|I set comparison — per
hit.  With a certificate attached, trust is re-established by one
vectorised pass over the recorded ranking function.  This benchmark pins
the claimed ≥10× on exactly the artifact the cache stores: each winner's
certificate payload, decoded from JSON like a real cache hit.

The assertion runs on the TR² (two-token-ring) winner — the paper's large
token-ring case study, where re-verification is actually expensive.  The
small parameterised rings are reported alongside: at k=4 the whole
``check_solution`` is already sub-millisecond, so fixed per-check costs
(fingerprint hash, payload decode) cap the ratio well below 10× — the
certificate path wins big exactly where it matters and only modestly where
it never did.

Emits ``BENCH_cert.json`` (path via ``CERT_BENCH_JSON``)::

    PYTHONPATH=src python -m pytest benchmarks/test_cert_speedup.py -q
"""

from __future__ import annotations

import json
import os
import time

from repro import check_certificate, check_solution, synthesize
from repro.cert import ConvergenceCertificate
from repro.protocols import coloring, matching, token_ring, two_ring

FIGURE = "Certificates: cert check vs full check_solution on cached winners"

BENCH_JSON = os.environ.get("CERT_BENCH_JSON", "BENCH_cert.json")

#: timing blocks: each sample times ``INNER`` back-to-back checks and the
#: best block is kept — individual sub-millisecond runs are too noisy on a
#: shared machine to assert a ratio on
BLOCKS = 5
INNER = 10

CASES = [
    ("token-ring k=4 d=3", token_ring, (4, 3)),
    ("token-ring k=6 d=5", token_ring, (6, 5)),
    ("matching k=5", matching, (5,)),
    ("coloring k=5", coloring, (5,)),
    ("two-ring (TR2)", two_ring, ()),
]

#: the acceptance case — the big token-ring winner
ASSERT_CASE = "two-ring (TR2)"


def _best_block(fn):
    """Best per-call time over ``BLOCKS`` blocks of ``INNER`` calls."""
    best = None
    for _ in range(BLOCKS):
        t0 = time.perf_counter()
        for _ in range(INNER):
            fn()
        elapsed = (time.perf_counter() - t0) / INNER
        best = elapsed if best is None else min(best, elapsed)
    return best


def test_certificate_check_speedup(figure_report):
    figure_report.register(
        FIGURE,
        columns=["case", "check_solution (ms)", "cert check (ms)", "speedup"],
        note=f"best of {BLOCKS} blocks x {INNER} checks; cert leg includes "
        "JSON payload decode, exactly like a cache-hit re-verification",
    )
    rows = []
    asserted_speedup = None
    for label, builder, builder_args in CASES:
        protocol, invariant = builder(*builder_args)
        result = synthesize(protocol, invariant).result
        assert result.success
        pss = result.protocol
        pss_groups = [set(g) for g in pss.groups]
        payload = result.certificate().to_payload()

        t_full = _best_block(
            lambda: check_solution(
                protocol, protocol.with_groups(pss_groups), invariant
            )
        )
        assert check_solution(protocol, pss, invariant).ok

        def cert_leg():
            cert = ConvergenceCertificate.from_payload(payload)
            check_certificate(
                protocol, invariant, cert, expected_pss=pss_groups
            )

        t_cert = _best_block(cert_leg)
        speedup = t_full / t_cert
        if label == ASSERT_CASE:
            asserted_speedup = speedup
        rows.append(
            {
                "case": label,
                "check_solution_ms": round(t_full * 1e3, 3),
                "cert_check_ms": round(t_cert * 1e3, 3),
                "speedup": round(speedup, 2),
            }
        )
        figure_report.add_row(
            FIGURE, [label, t_full * 1e3, t_cert * 1e3, speedup]
        )

    payload_out = {
        "benchmark": "cert-speedup",
        "blocks": BLOCKS,
        "inner": INNER,
        "assert_case": ASSERT_CASE,
        "cases": rows,
    }
    with open(BENCH_JSON, "w") as handle:
        json.dump(payload_out, handle, indent=2)

    # the acceptance claim: re-trusting the cached TR2 token-ring winner via
    # its certificate is at least 10x cheaper than re-running check_solution
    assert asserted_speedup is not None and asserted_speedup >= 10.0, (
        f"TR2 cert check speedup {asserted_speedup:.1f}x < 10x: {rows}"
    )
