"""Convergence certificates: emission, serialization, and the checker's
violation taxonomy — every rejection carries a concrete counterexample."""

from dataclasses import replace

import numpy as np
import pytest

from repro import (
    CertificateError,
    CertificateViolation,
    ConvergenceCertificate,
    add_strong_convergence,
    check_certificate,
    check_certificate_symbolic,
    check_solution,
    synthesize_weak,
    token_ring,
    validate_certificate,
)
from repro.cert import (
    CERT_SCHEMA,
    emit_certificate_from_groups,
    longest_path_ranks,
    reconstruct_pss_groups,
    shortest_path_ranks,
    tamper_certificate_payload,
)
from repro.cert.checker import VIOLATION_KINDS
from repro.symbolic import SymbolicProtocol, add_strong_convergence_symbolic


@pytest.fixture(scope="module")
def ring():
    return token_ring(3, 3)


@pytest.fixture(scope="module")
def strong_result(ring):
    protocol, invariant = ring
    result = add_strong_convergence(protocol, invariant)
    assert result.success
    return result


@pytest.fixture(scope="module")
def strong_cert(strong_result):
    return strong_result.certificate()


def _reload(cert: ConvergenceCertificate) -> ConvergenceCertificate:
    """Round-trip through the JSON payload (also drops the dense cache)."""
    return ConvergenceCertificate.from_payload(cert.to_payload())


class TestEmission:
    def test_strong_certificate_checks_in_both_engines(self, ring, strong_cert):
        protocol, invariant = ring
        check = check_certificate(protocol, invariant, strong_cert)
        assert check.mode == "strong"
        assert check.n_ranked > 0
        assert check.n_edges_checked > 0
        sym = check_certificate_symbolic(protocol, invariant, strong_cert)
        assert sym.mode == "strong"
        assert sym.n_ranked == check.n_ranked

    def test_weak_certificate_checks(self, ring):
        protocol, invariant = ring
        result = synthesize_weak(protocol, invariant, minimize=True)
        cert = result.certificate()
        assert cert.mode == "weak"
        check = check_certificate(protocol, invariant, cert)
        assert check.mode == "weak"
        check_certificate_symbolic(protocol, invariant, cert)

    def test_emit_from_groups_matches_result_certificate(
        self, ring, strong_result, strong_cert
    ):
        protocol, invariant = ring
        cert = emit_certificate_from_groups(
            protocol,
            invariant,
            [set(g) for g in strong_result.protocol.groups],
            mode="strong",
            schedule=strong_result.schedule,
        )
        assert cert.fingerprint == strong_cert.fingerprint
        assert np.array_equal(
            cert.dense_rank(protocol.space),
            strong_cert.dense_rank(protocol.space),
        )

    def test_longest_path_dominates_bfs_rank(self, ring, strong_result):
        # The strong witness is the longest-path rank; BFS can only be lower.
        protocol, invariant = ring
        longest = longest_path_ranks(strong_result.protocol, invariant)
        shortest = shortest_path_ranks(strong_result.protocol, invariant)
        assert (longest >= shortest).all()

    def test_reconstruct_pss_groups_applies_delta(
        self, ring, strong_result, strong_cert
    ):
        protocol, _invariant = ring
        groups = reconstruct_pss_groups(protocol, strong_cert)
        assert groups == [set(g) for g in strong_result.protocol.groups]


class TestSerialization:
    def test_payload_roundtrip(self, ring, strong_cert):
        protocol, invariant = ring
        cert = _reload(strong_cert)
        assert cert.schema == CERT_SCHEMA
        assert cert.fingerprint == strong_cert.fingerprint
        assert cert.mode == strong_cert.mode
        assert cert.schedule == strong_cert.schedule
        assert np.array_equal(
            cert.dense_rank(protocol.space),
            strong_cert.dense_rank(protocol.space),
        )
        check_certificate(protocol, invariant, cert)

    def test_save_load_roundtrip(self, ring, strong_cert, tmp_path):
        protocol, invariant = ring
        path = strong_cert.save(tmp_path / "tr.cert.json")
        cert = ConvergenceCertificate.load(path)
        check_certificate(protocol, invariant, cert)

    def test_load_garbage_raises(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(CertificateError):
            ConvergenceCertificate.load(path)

    def test_malformed_payload_raises(self, strong_cert):
        payload = strong_cert.to_payload()
        del payload["fingerprint"]
        with pytest.raises(CertificateError):
            ConvergenceCertificate.from_payload(payload)
        payload = strong_cert.to_payload()
        payload["rank"]["encoding"] = "sparse"
        with pytest.raises(CertificateError):
            ConvergenceCertificate.from_payload(payload)


class TestViolations:
    """Each doctored certificate is rejected with the right kind and a
    concrete counterexample; the original always still passes afterwards
    (the checker never mutates its inputs)."""

    def _rejects(self, ring, cert, kind):
        protocol, invariant = ring
        with pytest.raises(CertificateViolation) as err:
            check_certificate(protocol, invariant, cert)
        assert err.value.kind == kind
        assert kind in VIOLATION_KINDS
        assert err.value.describe()
        return err.value

    def test_wrong_schema(self, ring, strong_cert):
        cert = replace(_reload(strong_cert), schema=CERT_SCHEMA + 1)
        self._rejects(ring, cert, "schema")

    def test_unknown_mode(self, ring, strong_cert):
        cert = replace(_reload(strong_cert), mode="eventual")
        self._rejects(ring, cert, "schema")

    def test_wrong_protocol_fingerprint(self, strong_cert):
        other = token_ring(4, 3)
        self._rejects(other, _reload(strong_cert), "fingerprint")

    def test_tampered_invariant_hash(self, ring, strong_cert):
        cert = replace(_reload(strong_cert), invariant_hash="0" * 64)
        self._rejects(ring, cert, "fingerprint")

    def test_bogus_removed_group(self, ring, strong_cert):
        cert = replace(
            _reload(strong_cert),
            removed=[(0, 999, 999)],
        )
        violation = self._rejects(ring, cert, "delta")
        assert violation.group == (0, 999, 999)

    def test_added_group_out_of_range(self, ring, strong_cert):
        cert = _reload(strong_cert)
        cert = replace(cert, added=cert.added + [(0, 10_000, 0)])
        self._rejects(ring, cert, "delta")

    def test_expected_pss_mismatch(self, ring, strong_result, strong_cert):
        protocol, invariant = ring
        expected = [set(g) for g in strong_result.protocol.groups]
        expected[0] = set(list(expected[0])[:-1])  # drop one group
        with pytest.raises(CertificateViolation) as err:
            check_certificate(
                protocol, invariant, strong_cert, expected_pss=expected
            )
        assert err.value.kind == "delta"

    def test_rank_out_of_range(self, ring, strong_cert):
        cert = _reload(strong_cert)
        rank = cert.rank.copy()
        rank[np.flatnonzero(rank > 0)[0]] = cert.max_rank + 7
        cert = replace(cert, rank=rank)
        self._rejects(ring, cert, "rank_range")

    def test_rank_zero_must_equal_invariant(self, ring, strong_cert):
        protocol, invariant = ring
        cert = _reload(strong_cert)
        rank = cert.rank.copy()
        inside = np.flatnonzero(invariant.mask)
        rank[inside[0]] = 1  # an invariant state claimed ranked
        cert = replace(cert, rank=rank)
        self._rejects(ring, cert, "rank_zero")

    def test_dropping_all_recovery_is_a_deadlock(self, ring, strong_cert):
        # added=[] reconstructs the input protocol: its transitions are a
        # subset of pss (all still strictly decreasing), so the first check
        # to fire is the ranked state that lost every outgoing transition
        violation = self._rejects(
            ring, replace(_reload(strong_cert), added=[]), "deadlock"
        )
        assert violation.state is not None

    def test_tamper_rejected_with_identical_counterexample(
        self, ring, strong_cert
    ):
        protocol, invariant = ring
        tampered = ConvergenceCertificate.from_payload(
            tamper_certificate_payload(strong_cert.to_payload())
        )
        with pytest.raises(CertificateViolation) as explicit_err:
            check_certificate(protocol, invariant, tampered)
        with pytest.raises(CertificateViolation) as symbolic_err:
            check_certificate_symbolic(protocol, invariant, tampered)
        assert explicit_err.value.kind == "well_foundedness"
        assert symbolic_err.value.kind == "well_foundedness"
        assert explicit_err.value.transition is not None
        # both engines name the same concrete non-decreasing transition
        assert explicit_err.value.transition == symbolic_err.value.transition

    def test_validate_returns_violation_instead_of_raising(
        self, ring, strong_cert
    ):
        protocol, invariant = ring
        check, violation = validate_certificate(protocol, invariant, strong_cert)
        assert violation is None and check is not None
        tampered = ConvergenceCertificate.from_payload(
            tamper_certificate_payload(strong_cert.to_payload())
        )
        check, violation = validate_certificate(protocol, invariant, tampered)
        assert check is None and violation.kind == "well_foundedness"

    def test_corrupt_cert_write_drill(self, ring, strong_cert, tmp_path):
        # the CI drill: REPRO_FAULT_PLAN tampers the saved artifact and the
        # checker must reject what lands on disk
        from repro.faults.runtime import FaultPlan

        protocol, invariant = ring
        path = strong_cert.save(
            tmp_path / "drill.cert.json",
            fault_plan=FaultPlan(corrupt_certificate="cert.write@drill"),
        )
        loaded = ConvergenceCertificate.load(path)
        check, violation = validate_certificate(protocol, invariant, loaded)
        assert check is None
        assert violation.kind == "well_foundedness"
        assert violation.transition is not None


class TestSeveralViolations:
    def test_symbolic_names_a_real_offending_transition(
        self, ring, strong_cert
    ):
        """Lower one state of every level >= 2 to rank 1: transitions of
        several processes, leaving several levels, stop decreasing."""
        protocol, invariant = ring
        cert = _reload(strong_cert)
        rank = cert.rank.copy()
        for level in range(2, cert.max_rank + 1):
            rank[np.flatnonzero(rank == level)[0]] = 1
        tampered = replace(cert, rank=rank)
        offending = set()
        levels = set()
        groups = reconstruct_pss_groups(protocol, tampered)
        for j, gs in enumerate(groups):
            for r, w in gs:
                src, dst = protocol.tables[j].pairs(r, w)
                for s, t in zip(src.tolist(), dst.tolist()):
                    if rank[s] > 0 and rank[t] >= rank[s]:
                        offending.add((s, t))
                        levels.add((j, int(cert.rank[s])))
        assert len({j for j, _ in levels}) >= 2
        assert len({k for _, k in levels}) >= 2
        with pytest.raises(CertificateViolation) as symbolic_err:
            check_certificate_symbolic(protocol, invariant, tampered)
        assert symbolic_err.value.kind == "well_foundedness"
        assert symbolic_err.value.transition in offending
        _check, explicit = validate_certificate(protocol, invariant, tampered)
        assert explicit.kind == "well_foundedness"
        assert explicit.transition == symbolic_err.value.transition


@pytest.fixture(scope="module")
def cube_cert(ring):
    protocol, invariant = ring
    sp = SymbolicProtocol(protocol)
    res = add_strong_convergence_symbolic(
        protocol, sp.sym.from_predicate(invariant), sp=sp
    )
    assert res.success
    cert = res.certificate()
    assert cert.encoding == "cubes"
    return cert


def _with_literal_var(cert, old: int, new: int):
    """``cert`` with every cube literal naming variable ``old`` renamed."""
    levels = [
        [[(new if v == old else v, val) for v, val in cube] for cube in cubes]
        for cubes in cert.rank_cubes
    ]
    return replace(cert, rank_cubes=levels, _dense_cache=None)


class TestCubeLiteralIndices:
    """A cube literal must name a variable in ``[0, n_vars)``; both
    checkers reject any other index with the same encoding violation."""

    @pytest.mark.parametrize("bad", ["-1", "n_vars"])
    def test_both_engines_reject(self, ring, cube_cert, bad):
        protocol, invariant = ring
        n = protocol.space.n_vars
        index = -1 if bad == "-1" else n
        cert = _with_literal_var(cube_cert, n - 1, index)
        message = f"cube literal names variable {index} of a {n}-variable space"
        _check, explicit = validate_certificate(protocol, invariant, cert)
        assert explicit.kind == "encoding"
        assert str(explicit) == message
        with pytest.raises(CertificateViolation) as symbolic:
            check_certificate_symbolic(protocol, invariant, cert)
        assert symbolic.value.kind == "encoding"
        assert str(symbolic.value) == message

    @pytest.mark.parametrize("bad", ["-1", "n_vars"])
    @pytest.mark.parametrize("engine", ["explicit", "symbolic"])
    def test_cli_rejects(self, ring, cube_cert, bad, engine, tmp_path, capsys):
        from repro.cli import main

        protocol, _invariant = ring
        n = protocol.space.n_vars
        index = -1 if bad == "-1" else n
        path = _with_literal_var(cube_cert, n - 1, index).save(
            tmp_path / "bad.cert.json"
        )
        code = main(
            ["check-cert", str(path), "token-ring", "-k", "3", "-d", "3",
             "--engine", engine]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert (
            f"[encoding] cube literal names variable {index} of a "
            f"{n}-variable space" in captured.out
        )
        assert "Traceback" not in captured.out + captured.err


def test_partial_cube_is_the_and_of_value_cubes(ring, cube_cert):
    """The checker decodes a rank cube with one ``bdd.cube`` over its bits;
    that must be the very node the ``and_all`` of per-literal value cubes
    builds, also for contradicting literals and the empty cube."""
    protocol, _invariant = ring
    sym = SymbolicProtocol(protocol).sym
    cubes = [cube for level in cube_cert.rank_cubes for cube in level]
    assert cubes
    (v, val), other = cubes[0][0], (cubes[0][0][1] + 1) % 3
    cubes += [[], [(v, val), (v, val)], [(v, val), (v, other)]]
    for cube in cubes:
        literals = [(int(i), int(value)) for i, value in cube]
        want = sym.bdd.and_all(sym.value_cube(i, value) for i, value in literals)
        assert sym.mdd.partial_cube(literals) == want
    with pytest.raises(ValueError, match="outside domain"):
        sym.mdd.partial_cube([(v, 3)])


class TestSolutionCheckSatellites:
    def test_invariant_compared_as_state_sets(self, ring, strong_result):
        from repro.protocol.predicate import Predicate

        protocol, invariant = ring
        # an independently reconstructed, equal invariant passes
        same = Predicate(invariant.space, invariant.mask.copy())
        check = check_solution(
            protocol,
            strong_result.protocol,
            invariant,
            synthesized_invariant=same,
        )
        assert check.invariant_unchanged and check.ok
        # a genuinely different state set fails constraint (1)
        mask = invariant.mask.copy()
        mask[np.flatnonzero(~mask)[0]] = True
        different = Predicate(invariant.space, mask)
        check = check_solution(
            protocol,
            strong_result.protocol,
            invariant,
            synthesized_invariant=different,
        )
        assert not check.invariant_unchanged
        assert not check.ok

    def test_analyze_stabilization_builds_one_view(self, ring, monkeypatch):
        from repro.explicit.graph import TransitionView
        from repro.verify import analyze_stabilization

        protocol, invariant = ring
        calls = []
        original = TransitionView.of_protocol.__func__

        def counting(cls, *args, **kwargs):
            calls.append(1)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(
            TransitionView, "of_protocol", classmethod(counting)
        )
        verdict = analyze_stabilization(protocol, invariant)
        assert verdict is not None
        assert len(calls) == 1
