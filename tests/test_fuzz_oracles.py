"""The differential oracle bank: clean baselines, selection, crash folding,
and the pinned regression that motivated the harness."""

import pytest

from repro.fuzz import (
    DEFAULT_ORACLES,
    ORACLES,
    GeneratorConfig,
    OracleContext,
    generate_instance,
    resolve_oracles,
    run_oracles,
)
from repro.fuzz import oracles as oracles_mod

SMALL = GeneratorConfig(max_processes=3, max_states=128)


class TestCleanBaseline:
    @pytest.mark.parametrize("seed", range(6))
    def test_default_oracles_clean_on_generated_instances(self, seed):
        inst = generate_instance(seed, SMALL)
        findings = run_oracles(inst, DEFAULT_ORACLES, OracleContext())
        assert findings == [], [f.describe() for f in findings]

    def test_instance_cache_is_populated(self):
        inst = generate_instance(1, SMALL)
        run_oracles(inst, DEFAULT_ORACLES, OracleContext())
        # the memoised artifacts are shared across oracles
        assert "sp" in inst.cache
        assert "ranking" in inst.cache
        assert "strong_explicit" in inst.cache


class TestRegressionSeed7000000053:
    """The first bug this harness found, pinned forever.

    ``find_input_cycle_offenders`` used to flag any transition whose two
    endpoints each lay in *some* cyclic SCC — including transitions
    connecting two different SCCs, which are on no cycle at all — making
    the explicit engine raise a spurious ``UnresolvableCycleError`` while
    the symbolic engine (correctly testing same-SCC membership) went on to
    synthesize.  The ``engines`` oracle caught the divergence on this seed.
    """

    def test_engines_agree(self):
        inst = generate_instance(7000000053, GeneratorConfig())
        findings = run_oracles(inst, ("engines",), OracleContext())
        assert findings == [], [f.describe() for f in findings]

    def test_explicit_no_longer_rejects(self):
        from repro.core.heuristic import add_strong_convergence

        inst = generate_instance(7000000053, GeneratorConfig())
        result = add_strong_convergence(inst.protocol, inst.invariant)
        assert result.success


class TestResolveOracles:
    def test_default_selection(self):
        assert resolve_oracles(None) == list(DEFAULT_ORACLES)
        assert resolve_oracles(["default"]) == list(DEFAULT_ORACLES)

    def test_all_includes_portfolio(self):
        names = resolve_oracles(["all"])
        assert names == list(ORACLES)
        assert "portfolio" in names

    def test_portfolio_is_opt_in(self):
        assert "portfolio" not in DEFAULT_ORACLES

    def test_explicit_names_and_dedup(self):
        assert resolve_oracles(["cert", "ranks", "cert"]) == ["cert", "ranks"]
        assert resolve_oracles(["cert,sccs", "ranks"]) == ["cert", "sccs", "ranks"]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown oracle"):
            resolve_oracles(["bogus"])


class TestInputEmission:
    def test_emission_disagreeing_with_check_solution_is_a_finding(
        self, monkeypatch
    ):
        import repro.cert as cert_mod
        from repro.cert import CertificateEmissionError

        real = cert_mod.longest_path_ranks

        def flipped(pss, invariant):
            try:
                real(pss, invariant)
            except CertificateEmissionError:
                return None
            raise CertificateEmissionError("flipped")

        monkeypatch.setattr(cert_mod, "longest_path_ranks", flipped)
        inst = generate_instance(0, SMALL)
        findings = run_oracles(inst, ("cert",), OracleContext())
        assert any("emission on the input" in f.message for f in findings)


class TestCrashFolding:
    def test_oracle_crash_becomes_finding(self, monkeypatch):
        def exploding(instance, ctx):
            raise RuntimeError("kaboom")

        monkeypatch.setitem(oracles_mod.ORACLES, "exploding", exploding)
        inst = generate_instance(0, SMALL)
        findings = run_oracles(inst, ("exploding",), OracleContext())
        assert len(findings) == 1
        assert findings[0].oracle == "exploding"
        assert "RuntimeError" in findings[0].message
        assert "kaboom" in findings[0].message

    def test_findings_carry_instance_context(self):
        inst = generate_instance(2, SMALL)
        findings = run_oracles(inst, DEFAULT_ORACLES, OracleContext())
        assert findings == []  # context check only makes sense on failure
        # exercise the Finding shape through a synthetic one
        from repro.fuzz import Finding

        f = Finding(
            oracle="verdict", message="m", seed=2, instance=inst.describe()
        )
        assert "verdict" in f.describe()
        assert "seed=2" in f.describe()
