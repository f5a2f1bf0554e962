"""permap's file formats: atomic writes, one CSV table writer, one input opener.

`write_csv` writes every table: commas, LF line ends, a cell quoted only
where it holds a comma, a double quote or a line break, and a float as
its Python `repr`, which reads back as the same float. `open_input` opens
every input (events, borders, config) as UTF-8 with an optional BOM.
"""

from __future__ import annotations

import csv
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


def write_csv(path, header, rows) -> None:
    """Write `header`, then `rows` of int, str or float cells, to `path` atomically."""
    with atomic_write(path) as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)


def open_input(path):
    """Open an input file for reading as UTF-8 with an optional byte-order mark."""
    return open(path, encoding="utf-8-sig", newline="")
