"""Keeps ``benchmarks/conftest.py`` from wiping ``benchmarks/results.txt``.

The parent conftest's autouse session fixture deletes that tracked file
at the start of any pytest session under ``benchmarks/``; the harness
tests emit no tables, so for them the fixture is overridden with a no-op.
"""

import pytest


@pytest.fixture(scope="session", autouse=True)
def _fresh_results_file():
    yield
