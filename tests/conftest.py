import os

import numpy as np
import pytest

import scenes
from cellpilot import radio, simcore


@pytest.fixture
def failing_write(monkeypatch):
    """Calling it makes os.write store half its buffer, then fail like a
    full disk; `monkeypatch.undo()` restores the real one."""
    real = os.write

    def write(fd, data):
        real(fd, bytes(data[: len(data) // 2]))
        raise OSError(28, "No space left on device")
    return lambda: monkeypatch.setattr(os, "write", write)


# the least share of scheduled UE-steps whose SE lookup reads an entry below
# the table's top that keeps the link-limited scene link limited (it reads 0.98)
LINK_LIMITED_SHARE = 0.5


@pytest.fixture(scope="session")
def link_limited():
    """`scenes.link_limited_large()`: the weakened `large` episode config
    and its parameters, checked to be link limited by one episode."""
    cfg, params = scenes.link_limited_large()
    below = []
    lookup = radio.spectral_efficiency

    def recorded(snr, table):
        se = lookup(snr, table)
        below.append(se < table[1][-1])
        return se

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radio, "spectral_efficiency", recorded)
        simcore.run_episode(cfg, simcore.constant_controller(params))
    share = np.concatenate(below).mean()
    assert share >= LINK_LIMITED_SHARE, share
    return cfg, params
