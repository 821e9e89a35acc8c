import os

import pytest


@pytest.fixture
def failing_write(monkeypatch):
    """Calling it makes os.write store half its buffer, then fail like a
    full disk; `monkeypatch.undo()` restores the real one."""
    real = os.write

    def write(fd, data):
        real(fd, bytes(data[: len(data) // 2]))
        raise OSError(28, "No space left on device")
    return lambda: monkeypatch.setattr(os, "write", write)
