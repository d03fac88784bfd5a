"""Test data shared across modules: the tiny damaging problem.

`TINY_OVERLAY` is `mono_sine` on a 4x2x2 mesh over T = 0.5 s with N_T = 10.
The CLI tests write it to a config file; the others parse it on the preset
(`tiny_config`).  Its text ends in the [solver] section, so a test appends
the solver keys it needs.  Each test builds its own `SpatialSystem` from the
configuration, since several count its factorizations.
"""

import os
import tempfile

from latinpgd import config

TINY_OVERLAY = "[mesh]\nnx = 4\nny = 2\nnz = 2\n[load]\nT = 0.5\n[solver]\nN_T = 10\n"


def tiny_config():
    """The `mono_sine` preset with `TINY_OVERLAY` parsed on it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tiny.cfg")
        with open(path, "w") as fh:
            fh.write(TINY_OVERLAY)
        return config.parse_config(path, base=config.preset("mono_sine"))
