"""Cross-engine certificate equivalence and adversarial mutation testing.

Certificates emitted by either engine must check under *both* engines on
the case studies (two-ring is explicit-only: its max rank of ~58 makes the
per-level symbolic re-check orders of magnitude more expensive than the
vectorised explicit one, with no extra coverage).

The hypothesis suite mutates certificates adversarially: a single rank
entry is rewritten and the checker's verdict is compared against a
brute-force oracle that re-derives validity straight from the pss
transition set — so mutations that happen to produce a *different but
still valid* ranking are accepted, and everything else is rejected."""

from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CertificateViolation,
    add_strong_convergence,
    check_certificate,
    check_certificate_symbolic,
    synthesize,
    token_ring,
    validate_certificate,
)
from repro.cert import (
    ConvergenceCertificate,
    emit_certificate_symbolic,
    longest_path_ranks,
)
from repro.protocols import coloring, matching, two_ring
from repro.protocols.coloring import coloring_symbolic
from repro.symbolic import SymbolicProtocol, add_strong_convergence_symbolic

CASES = [
    ("token-ring", lambda: token_ring(4, 3)),
    ("matching", lambda: matching(4)),
    ("coloring", lambda: coloring(5)),
]


def _explicit_cert(build):
    protocol, invariant = build()
    portfolio = synthesize(protocol, invariant)
    assert portfolio.success
    return protocol, invariant, portfolio.result.certificate()


class TestExplicitEmission:
    """Explicit-engine certificates check under both engines."""

    @pytest.mark.parametrize(
        "build", [c[1] for c in CASES], ids=[c[0] for c in CASES]
    )
    def test_checks_in_both_engines(self, build):
        protocol, invariant, cert = _explicit_cert(build)
        assert cert.encoding == "dense"
        explicit = check_certificate(protocol, invariant, cert)
        symbolic = check_certificate_symbolic(protocol, invariant, cert)
        assert explicit.n_ranked == symbolic.n_ranked
        assert explicit.max_rank == symbolic.max_rank
        assert explicit.n_edges_checked == symbolic.n_edges_checked > 0

    def test_two_ring_explicit(self):
        protocol, invariant, cert = _explicit_cert(two_ring)
        check = check_certificate(protocol, invariant, cert)
        assert check.n_ranked > 100_000  # the big case study


class TestSymbolicEmission:
    """Symbolic-engine (cube-encoded) certificates check under both
    engines, and decode to exactly the explicit longest-path rank."""

    def test_checks_in_both_engines(self):
        protocol, invariant = token_ring(4, 3)
        sp = SymbolicProtocol(protocol)
        inv = sp.sym.from_predicate(invariant)
        res = add_strong_convergence_symbolic(protocol, inv, sp=sp)
        assert res.success
        cert = res.certificate()
        assert cert.encoding == "cubes"
        explicit = check_certificate(protocol, invariant, cert)
        symbolic = check_certificate_symbolic(protocol, invariant, cert)
        assert explicit.n_edges_checked == symbolic.n_edges_checked > 0
        pss = protocol.with_groups([set(g) for g in res.pss_groups])
        assert np.array_equal(
            cert.dense_rank(protocol.space),
            longest_path_ranks(pss, invariant),
        )

    def test_coloring_symbolic_invariant(self):
        # coloring builds its invariant symbolically; emission goes through
        # the to_mask round-trip for the fingerprint
        protocol, sp, inv = coloring_symbolic(5)
        res = add_strong_convergence_symbolic(protocol, inv, sp=sp)
        assert res.success
        cert = res.certificate()
        _pe, invariant = coloring(5)
        check_certificate(protocol, invariant, cert)
        check_certificate_symbolic(protocol, invariant, cert)

    def test_symbolic_emission_direct(self):
        protocol, invariant = token_ring(3, 3)
        result = add_strong_convergence(protocol, invariant)
        sp = SymbolicProtocol(protocol)
        cert = emit_certificate_symbolic(
            sp,
            sp.sym.from_predicate(invariant),
            [set(g) for g in result.protocol.groups],
            schedule=result.schedule,
        )
        assert cert.engine == "symbolic"
        check_certificate(protocol, invariant, cert)


# ----------------------------------------------------------------------
# adversarial mutations, judged by a brute-force differential oracle
# ----------------------------------------------------------------------

_PROTO, _INV = token_ring(3, 3)
_RESULT = add_strong_convergence(_PROTO, _INV)
_CERT = _RESULT.certificate()
_PSS_EDGES = sorted(_RESULT.protocol.transition_set())
_SIZE = _PROTO.space.size


def _oracle_valid_strong(rank: np.ndarray) -> bool:
    """Ground truth, derived straight from the pss transition set."""
    inside = _INV.mask
    if rank.min() < 0 or rank.max() > _CERT.max_rank:
        return False
    if not np.array_equal(rank == 0, inside):
        return False
    has_out = np.zeros(_SIZE, dtype=bool)
    for s, t in _PSS_EDGES:
        if inside[s]:
            if not inside[t]:
                return False
        else:
            has_out[s] = True
            if rank[t] >= rank[s]:
                return False
    return not bool(((rank > 0) & ~has_out).any())


class TestAdversarialMutations:
    @given(
        index=st.integers(min_value=0, max_value=_SIZE - 1),
        value=st.integers(min_value=-1, max_value=_CERT.max_rank + 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_single_rank_mutation_matches_oracle(self, index, value):
        rank = _CERT.rank.copy()
        if rank[index] == value:
            return  # not a mutation
        rank[index] = value
        mutated = replace(_CERT, rank=rank, _dense_cache=None)
        check, violation = validate_certificate(_PROTO, _INV, mutated)
        assert (violation is None) == _oracle_valid_strong(rank)
        if violation is not None:
            # rejections always carry a typed, describable counterexample
            assert violation.kind
            assert violation.describe()

    @given(pos=st.integers(min_value=0, max_value=63))
    @settings(max_examples=30, deadline=None)
    def test_fingerprint_flip_always_rejected(self, pos):
        fp = _CERT.fingerprint
        flipped = fp[:pos] + ("0" if fp[pos] != "0" else "1") + fp[pos + 1:]
        mutated = replace(_CERT, fingerprint=flipped, _dense_cache=None)
        with pytest.raises(CertificateViolation) as err:
            check_certificate(_PROTO, _INV, mutated)
        assert err.value.kind == "fingerprint"

    @given(drop=st.integers(min_value=0, max_value=len(_CERT.added) - 1))
    @settings(max_examples=20, deadline=None)
    def test_delta_mutation_rejected_when_pss_is_pinned(self, drop):
        added = list(_CERT.added)
        del added[drop]
        mutated = replace(_CERT, added=added, _dense_cache=None)
        with pytest.raises(CertificateViolation) as err:
            check_certificate(
                _PROTO,
                _INV,
                mutated,
                expected_pss=[set(g) for g in _RESULT.protocol.groups],
            )
        assert err.value.kind in ("delta", "deadlock", "well_foundedness")

    @given(
        index=st.integers(min_value=0, max_value=_SIZE - 1),
        value=st.integers(min_value=0, max_value=_CERT.max_rank),
    )
    @settings(max_examples=40, deadline=None)
    def test_mutated_dense_matches_symbolic_verdict(self, index, value):
        # the two checkers must agree on every mutated certificate
        rank = _CERT.rank.copy()
        if rank[index] == value:
            return
        rank[index] = value
        mutated = replace(_CERT, rank=rank, _dense_cache=None)
        _check, violation = validate_certificate(_PROTO, _INV, mutated)
        try:
            check_certificate_symbolic(_PROTO, _INV, mutated)
            symbolic_ok = True
        except CertificateViolation:
            symbolic_ok = False
        assert (violation is None) == symbolic_ok
