import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture
def plan_compiles(monkeypatch) -> list:
    """The plans that compile during the test, in order."""
    from chasekit.matching import Plan

    compiled: list = []
    original = Plan._compile

    def counting(plan):
        compiled.append(plan)
        return original(plan)

    monkeypatch.setattr(Plan, "_compile", counting)
    return compiled
