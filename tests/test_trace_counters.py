"""The counter declaration (``repro.trace.counters``) against the program.

Two views of "every counter the program emits is declared exactly once":

* a static scan of every ``count``/``bump``/``counter_set``/``inc`` call in
  ``src/repro`` whose name is a literal, a conditional of literals, a loop
  over a literal tuple, or an f-string over known fields;
* traced explicit, symbolic, portfolio-with-cache and fuzz runs, whose
  counters must all be declared and must all show in the rendered report.
"""

import ast
import collections
import itertools
import re
from pathlib import Path

import pytest

import repro
from repro.bdd import BDD
from repro.cli import main
from repro.metrics.reporting import format_value
from repro.parallel import synthesize_parallel
from repro.protocols import token_ring
from repro.trace import TraceSummary, render_report, summarize
from repro.trace.counters import DECLARED, SECTIONS

SRC = Path(repro.__file__).parent
COUNTER_CALLS = {"count", "bump", "counter_set", "inc"}

#: values of the f-string fields that counter names are built from: the
#: heuristic pass numbers, and ``record_bdd_counters``' default prefix over
#: the keys of ``BDD.counters()``
FIELD_VALUES = {
    "pass_no": ("1", "2", "3"),
    "prefix": ("bdd",),
    "name": tuple(BDD(1).counters()),
}

LABELS = {
    name: meaning
    for section in SECTIONS
    for name, meaning in section.counters
}


class _CounterCalls(ast.NodeVisitor):
    """Collects the counter names each call site in one file can emit."""

    def __init__(self, path: Path):
        self.path = path
        self.params: list[set[str]] = []
        self.loops: list[ast.For] = []
        self.sites: dict[str, list[str]] = collections.defaultdict(list)
        self.unresolved: list[str] = []

    def visit_FunctionDef(self, node):
        args = node.args
        self.params.append(
            {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        )
        self.generic_visit(node)
        self.params.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_For(self, node):
        self.loops.append(node)
        self.generic_visit(node)
        self.loops.pop()

    def visit_Call(self, node):
        self.generic_visit(node)
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in COUNTER_CALLS
            and node.args
        ):
            return
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and not isinstance(arg.value, str):
            return  # itertools.count(1), not a counter
        if isinstance(arg, ast.Name) and self.params and arg.id in self.params[-1]:
            return  # a forwarder (SynthesisStats.bump): its callers name it
        site = f"{self.path.relative_to(SRC.parent)}:{node.lineno}"
        names = self._resolve(arg)
        if names is None:
            self.unresolved.append(site)
            return
        for name in names:
            self.sites[name].append(site)

    def _resolve(self, node) -> list[str] | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return [node.value]
        if isinstance(node, ast.IfExp):
            body, orelse = self._resolve(node.body), self._resolve(node.orelse)
            return None if body is None or orelse is None else body + orelse
        if isinstance(node, ast.JoinedStr):
            parts = []
            for value in node.values:
                if isinstance(value, ast.Constant):
                    parts.append((value.value,))
                elif (
                    isinstance(value, ast.FormattedValue)
                    and isinstance(value.value, ast.Name)
                    and value.value.id in FIELD_VALUES
                ):
                    parts.append(FIELD_VALUES[value.value.id])
                else:
                    return None
            return ["".join(p) for p in itertools.product(*parts)]
        if isinstance(node, ast.Name):
            return self._loop_literals(node.id)
        return None

    def _loop_literals(self, var: str) -> list[str] | None:
        """The names a ``for var[, ...] in (literal, ...)`` loop binds."""
        for loop in reversed(self.loops):
            target = loop.target
            if isinstance(target, ast.Tuple) and target.elts:
                target = target.elts[0]
            if not (isinstance(target, ast.Name) and target.id == var):
                continue
            if not isinstance(loop.iter, (ast.Tuple, ast.List)):
                return None
            names = []
            for item in loop.iter.elts:
                if isinstance(item, ast.Tuple) and item.elts:
                    item = item.elts[0]
                resolved = self._resolve(item)
                if resolved is None:
                    return None
                names.extend(resolved)
            return names
        return None


@pytest.fixture(scope="module")
def emitted():
    """``(counter name -> call sites, unresolved call sites)`` over src/."""
    sites: dict[str, list[str]] = collections.defaultdict(list)
    unresolved: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        scan = _CounterCalls(path)
        scan.visit(ast.parse(path.read_text(), filename=str(path)))
        for name, where in scan.sites.items():
            sites[name].extend(where)
        unresolved.extend(scan.unresolved)
    return sites, unresolved


class TestDeclaration:
    def test_each_counter_declared_once(self):
        names = [n for section in SECTIONS for n, _meaning in section.counters]
        twice = [n for n, c in collections.Counter(names).items() if c > 1]
        assert twice == []
        assert len(DECLARED) == len(names)

    def test_section_titles_unique(self):
        titles = [section.title for section in SECTIONS]
        assert len(set(titles)) == len(titles)
        assert "Counters" not in titles  # reserved for undeclared counters

    def test_rates_read_their_own_sections_counters(self):
        for section in SECTIONS:
            own = {name for name, _meaning in section.counters}
            for rate in section.rates:
                assert rate.numerator in own, rate
                assert set(rate.denominator) <= own, rate


class TestSourceScan:
    def test_every_call_site_name_resolves(self, emitted):
        _sites, unresolved = emitted
        assert unresolved == [], (
            "counter names the scan cannot resolve; use a literal name or "
            "teach the scan the new form"
        )

    def test_scan_sees_every_call_form(self, emitted):
        sites, _unresolved = emitted
        for name in (
            "cert.check_fail",                # IfExp in cert/trust.py
            "transport.claim_conflicts",      # name tuple in parallel/pool.py
            "pass3_deadlocks_resolved",       # pass{n}_* f-string
            "bdd.op_cache_entries",           # key of BDD.counters()
            "service.store_quarantined",      # ServiceMetrics.inc
        ):
            assert name in sites, name

    def test_every_emitted_counter_is_declared(self, emitted):
        sites, _unresolved = emitted
        undeclared = {
            name: where for name, where in sites.items() if name not in DECLARED
        }
        assert undeclared == {}

    def test_every_declared_counter_is_emitted(self, emitted):
        sites, _unresolved = emitted
        assert sorted(DECLARED - set(sites)) == []


# ----------------------------------------------------------------------
# traced runs
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """Trace files of an explicit, a symbolic, a cold and a warm cached
    portfolio, and a fuzz run."""
    tmp = tmp_path_factory.mktemp("traces")
    explicit, symbolic, fuzz = tmp / "e.jsonl", tmp / "s.jsonl", tmp / "f.jsonl"
    ring = ["token-ring", "-k", "3", "-d", "3"]
    assert main(["synthesize", *ring, "--trace", str(explicit)]) == 0
    assert main(
        ["synthesize", *ring, "--engine", "symbolic", "--trace", str(symbolic)]
    ) == 0
    assert main([
        "fuzz", "--seed", "0", "--iterations", "2", "--max-processes", "3",
        "--max-states", "256", "--trace", str(fuzz),
    ]) == 0
    portfolios = []
    for run in ("cold", "warm"):
        winner, _ = synthesize_parallel(
            token_ring, (3, 3), n_workers=2, cache_dir=tmp / "cache",
            trace_dir=tmp / run,
        )
        assert winner.success
        portfolios.append(tmp / run / "merged.jsonl")
    return {
        "explicit": explicit,
        "symbolic": symbolic,
        "fuzz": fuzz,
        "portfolio-cold": portfolios[0],
        "portfolio-warm": portfolios[1],
    }


def _row_shown(report: str, label: str, value) -> bool:
    pattern = rf"^\s*{re.escape(label)}\s+{re.escape(format_value(value))}$"
    return re.search(pattern, report, re.M) is not None


@pytest.mark.parametrize(
    "run", ["explicit", "symbolic", "fuzz", "portfolio-cold", "portfolio-warm"]
)
def test_traced_run_counters_declared_and_rendered(traces, run):
    summary = summarize([traces[run]])
    assert summary.counters
    assert sorted(set(summary.counters) - DECLARED) == []
    report = render_report(summary)
    for name, value in summary.counters.items():
        assert _row_shown(report, LABELS[name], value), name


def test_symbolic_trace_shows_the_whole_bdd_section(traces):
    summary = summarize([traces["symbolic"]])
    report = render_report(summary)
    for key in BDD(1).counters():
        name = f"bdd.{key}"
        assert name in summary.counters
        assert _row_shown(report, LABELS[name], summary.counters[name]), name


def test_warm_portfolio_reads_the_cache(traces):
    counters = summarize([traces["portfolio-warm"]]).counters
    assert counters.get("portfolio.cache_hits", 0) >= 1


def test_every_counter_in_a_summary_is_rendered():
    """Declared counters by their label, undeclared ones by their name."""
    counters = {name: i + 1 for i, name in enumerate(sorted(DECLARED))}
    counters["substrate.coloring_k5.ite_calls"] = 7
    report = render_report(TraceSummary(counters=counters))
    for name, value in counters.items():
        assert _row_shown(report, LABELS.get(name, name), value), name
    for section in SECTIONS:
        assert f"== {section.title} ==" in report
    assert "== Counters ==" in report


def test_sections_without_counters_are_left_out():
    report = render_report(TraceSummary(counters={"fuzz.iterations": 1}))
    assert "== Fuzz ==" in report
    assert "== BDD manager ==" not in report
    assert "== Counters ==" not in report


def test_self_times_add_up_to_wall_time(traces):
    summary = summarize([traces["portfolio-cold"]])
    selfs = [summary.self_time(name) for name in summary.spans]
    assert min(selfs) >= -1e-9
    assert sum(selfs) == pytest.approx(summary.wall_time, abs=1e-6)
    # nested spans exist, so the totals alone double-count
    assert sum(a.total for a in summary.spans.values()) > summary.wall_time
