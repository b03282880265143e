import pytest

from elldens import base


@pytest.fixture
def fresh_memo():
    """An empty memo of point blocks for the test, emptied again after it.
    Its value empties the memo on call, for a test that changes the byte
    budget after it has filled the memo."""
    base._scan_blocks.cache_clear()
    yield base._scan_blocks.cache_clear
    base._scan_blocks.cache_clear()
