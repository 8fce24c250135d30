import os
from pathlib import Path

import pytest

GOLDEN_TABLE = Path(__file__).parent / "data" / "appendix_table_s100.txt"
# pyproject's pythonpath puts src on this interpreter's path; the interpreters a test
# starts find it through PYTHONPATH.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def golden_table_text() -> str:
    return GOLDEN_TABLE.read_text(encoding="utf-8")
