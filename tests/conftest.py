import faulthandler
import os
from pathlib import Path

import pytest

GOLDEN_TABLE = Path(__file__).parent / "data" / "appendix_table_s100.txt"


@pytest.fixture(scope="session")
def golden_table_text() -> str:
    return GOLDEN_TABLE.read_text(encoding="utf-8")


def pytest_configure(config):
    # A hang (a factoring loop that never ends, say) ends the run with a traceback
    # and exit 1 instead of stalling it; the suite takes well under 300 s.  Output
    # capture is off here, so a copy of fd 2 is the terminal's stderr even while a
    # test's output is captured.  pytest cancels the timer at the first failure.
    faulthandler.dump_traceback_later(300, exit=True, file=os.dup(2))
