"""Certificate-backed trust paths: cache, resume, fault drills, CLI."""

import json
import os

import pytest

from repro.cli import main
from repro.faults.runtime import FaultPlan
from repro.parallel import synthesize_parallel
from repro.protocols import token_ring
from repro.trace.report import summarize


def _cert_counters(trace_dir) -> dict:
    merged = os.path.join(trace_dir, "merged.jsonl")
    summary = summarize([merged])
    return {
        k: v for k, v in summary.counters.items() if k.startswith("cert.")
    }


class TestPortfolioTrustPath:
    def test_workers_emit_certificates(self, tmp_path):
        trace_dir = tmp_path / "trace"
        winner, completed = synthesize_parallel(
            token_ring, (3, 3), n_workers=2, trace_dir=trace_dir
        )
        assert winner.success
        assert winner.certificate is not None
        assert winner.certificate["mode"] == "strong"
        assert _cert_counters(trace_dir).get("cert.emitted", 0) >= 1

    def test_cached_winner_reverified_by_certificate(self, tmp_path):
        cache_dir, trace_dir = tmp_path / "cache", tmp_path / "trace"
        synthesize_parallel(
            token_ring, (3, 3), n_workers=2, cache_dir=cache_dir
        )
        winner, completed = synthesize_parallel(
            token_ring, (3, 3), n_workers=2, cache_dir=cache_dir,
            trace_dir=trace_dir,
        )
        assert winner.cached
        assert winner.certificate is not None
        counters = _cert_counters(trace_dir)
        assert counters.get("cert.check_pass", 0) >= 1
        assert counters.get("cert.check_fail", 0) == 0

    def test_paranoid_skips_certificate_fast_path(self, tmp_path):
        cache_dir, trace_dir = tmp_path / "cache", tmp_path / "trace"
        synthesize_parallel(
            token_ring, (3, 3), n_workers=2, cache_dir=cache_dir
        )
        winner, _ = synthesize_parallel(
            token_ring, (3, 3), n_workers=2, cache_dir=cache_dir,
            trace_dir=trace_dir, paranoid=True,
        )
        assert winner.cached  # still trusted — via the full check_solution
        assert _cert_counters(trace_dir).get("cert.check_pass", 0) == 0

    def test_journal_resume_reverifies_certificate(self, tmp_path):
        cache_dir = tmp_path / "cache"
        synthesize_parallel(
            token_ring, (3, 3), n_workers=2, cache_dir=cache_dir
        )
        records = [
            json.loads(path.read_text())
            for path in cache_dir.glob("*.json")
            if path.name != "costs.json"
        ]
        assert any(
            r["status"] == "done" and r.get("certificate") for r in records
        )
        trace_dir = tmp_path / "trace"
        winner, completed = synthesize_parallel(
            token_ring, (3, 3), n_workers=2, cache_dir=cache_dir,
            resume=True, trace_dir=trace_dir,
        )
        assert winner.success and winner.resumed
        assert _cert_counters(trace_dir).get("cert.check_pass", 0) >= 1

    def test_tampered_stored_certificate_quarantined(self, tmp_path):
        cache_dir = tmp_path / "cache"
        plan = FaultPlan(corrupt_certificate="cert.store@")
        synthesize_parallel(
            token_ring, (3, 3), n_workers=2, cache_dir=cache_dir,
            fault_plan=plan,
        )
        trace_dir = tmp_path / "trace"
        winner, _ = synthesize_parallel(
            token_ring, (3, 3), n_workers=2, cache_dir=cache_dir,
            trace_dir=trace_dir,
        )
        # the tampered entries failed the cert check, were quarantined, and
        # the race re-ran to a fresh verified winner
        assert winner.success and not winner.cached
        counters = _cert_counters(trace_dir)
        assert counters.get("cert.check_fail", 0) >= 1
        corrupt = [
            name
            for name in os.listdir(cache_dir)
            if name.endswith(".corrupt")
        ]
        assert corrupt

    def test_trace_report_renders_certificates_table(self, tmp_path):
        from repro.trace import trace_report

        cache_dir, trace_dir = tmp_path / "cache", tmp_path / "trace"
        synthesize_parallel(
            token_ring, (3, 3), n_workers=2, cache_dir=cache_dir,
            trace_dir=trace_dir,
        )
        report = trace_report([os.path.join(trace_dir, "merged.jsonl")])
        assert "Certificates" in report
        assert "certificates emitted" in report


class TestCertCLI:
    def test_certify_then_check_roundtrip(self, tmp_path, capsys):
        cert_path = str(tmp_path / "tr.cert.json")
        assert main(
            ["certify", "token-ring", "-k", "3", "-d", "3", "--out", cert_path]
        ) == 0
        assert os.path.exists(cert_path)
        assert main(
            ["check-cert", cert_path, "token-ring", "-k", "3", "-d", "3"]
        ) == 0
        assert main(
            ["check-cert", cert_path, "token-ring", "-k", "3", "-d", "3",
             "--engine", "symbolic"]
        ) == 0
        out = capsys.readouterr().out
        assert "certificate OK" in out

    def test_check_cert_rejects_wrong_protocol(self, tmp_path, capsys):
        cert_path = str(tmp_path / "tr.cert.json")
        main(["certify", "token-ring", "-k", "3", "-d", "3", "--out", cert_path])
        code = main(
            ["check-cert", cert_path, "token-ring", "-k", "4", "-d", "3"]
        )
        assert code == 1
        assert "REJECTED" in capsys.readouterr().out

    def test_check_cert_rejects_tampered_artifact(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN",
            json.dumps({"corrupt_certificate": "cert.write@tampered"}),
        )
        cert_path = str(tmp_path / "tampered.cert.json")
        assert main(
            ["certify", "token-ring", "-k", "3", "-d", "3", "--out", cert_path]
        ) == 0
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        code = main(
            ["check-cert", cert_path, "token-ring", "-k", "3", "-d", "3"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "counterexample transition" in out

    def test_check_cert_unreadable_file(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(
            ["check-cert", missing, "token-ring", "-k", "3", "-d", "3"]
        ) == 2

    def test_certify_weak_mode(self, tmp_path, capsys):
        cert_path = str(tmp_path / "weak.cert.json")
        assert main(
            ["certify", "token-ring", "-k", "3", "-d", "3",
             "--mode", "weak", "--out", cert_path]
        ) == 0
        assert "mode=weak" in capsys.readouterr().out
        assert main(
            ["check-cert", cert_path, "token-ring", "-k", "3", "-d", "3"]
        ) == 0

    def test_synthesize_emit_cert(self, tmp_path):
        cert_path = str(tmp_path / "syn.cert.json")
        assert main(
            ["synthesize", "token-ring", "-k", "3", "-d", "3",
             "--emit-cert", cert_path]
        ) == 0
        assert main(
            ["check-cert", cert_path, "token-ring", "-k", "3", "-d", "3"]
        ) == 0

    def test_verify_mode_gates_exit_status(self):
        from repro.protocols import gouda_acharya_matching
        from repro.verify import analyze_stabilization

        protocol, invariant = gouda_acharya_matching(5)
        verdict = analyze_stabilization(protocol, invariant)
        strong = main(["verify", "gouda-acharya", "-k", "5"])
        weak = main(["verify", "gouda-acharya", "-k", "5", "--mode", "weak"])
        assert strong == (0 if verdict.strongly_stabilizing else 1)
        assert weak == (0 if verdict.weakly_stabilizing else 1)
