"""README names every function the package exports."""

import inspect
import re
from pathlib import Path

import perronkit

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_function_is_named_in_readme():
    """Classes (errors, result records, matrix types) are skipped."""
    text = README.read_text(encoding="utf-8")
    functions = [name for name, obj in vars(perronkit).items()
                 if not name.startswith("_") and inspect.isfunction(obj)]
    assert functions
    assert [name for name in functions if not re.search(rf"\b{name}\b", text)] == []
