"""One production trust path: the certificate checker.

``check_solution`` re-verifies from scratch.  It is the independent oracle
of ``stsyn verify``/``analyze`` (``repro.verify``) and of the fuzz
campaign (``repro.fuzz``), and the test suites use it to re-check winners;
no other module of the program may call it, so every production trust
decision goes through a certificate.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
#: the packages that own ``check_solution`` or use it as an oracle
ORACLE_PACKAGES = ("verify", "fuzz")


def _uses(path: Path) -> list[str]:
    """Each call of, or import naming, ``check_solution`` in one file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name == "check_solution":
                found.append(f"call at line {node.lineno}")
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name == "check_solution" for alias in node.names):
                found.append(f"import at line {node.lineno}")
    return found


def test_only_oracles_use_check_solution():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative.parts[0] in ORACLE_PACKAGES:
            continue
        uses = _uses(path)
        if relative == Path("__init__.py"):
            # the package-level re-export, for library users
            assert uses == [u for u in uses if u.startswith("import")]
            continue
        if uses:
            offenders[str(relative)] = uses
    assert offenders == {}


def test_scan_sees_calls_and_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from repro.verify import check_solution\n"
        "import repro.verify.stabilization as s\n"
        "check_solution(1, 2, 3)\n"
        "s.check_solution(1, 2, 3)\n"
    )
    assert _uses(probe) == [
        "import at line 1", "call at line 3", "call at line 4"
    ]
