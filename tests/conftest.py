from pathlib import Path

import pytest

GOLDEN_TABLE = Path(__file__).parent / "data" / "appendix_table_s100.txt"


@pytest.fixture(scope="session")
def golden_table_text() -> str:
    return GOLDEN_TABLE.read_text(encoding="utf-8")
