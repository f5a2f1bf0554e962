"""Atomic text-file writing used by all CSV/report emitters."""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path):
    """Open a temporary file for writing and rename it onto `path` on success.

    The rename is atomic on POSIX, so readers never observe a half-written
    file and a failed write leaves any previous version untouched. The
    file gets the mode a plain open(path, "w") gives a new file,
    0o666 less the umask, not mkstemp's 0o600.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        # The umask can only be read by setting it: a strict one is set for
        # that instant, so nothing created meanwhile is opened up.
        umask = os.umask(0o077)
        os.umask(umask)
        os.chmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
