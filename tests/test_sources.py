"""The package and its tests parse as the oldest Python that pyproject.toml admits."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/perronkit/*.py"), *ROOT.glob("tests/*.py")])


def test_sources_parse_as_python_3_10():
    """Best effort: ``feature_version`` rejects syntax newer than 3.10, such as
    ``except*``, but a call to a standard-library API that 3.10 lacks parses.
    """
    assert SOURCES
    failures = []
    for path in SOURCES:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failures
