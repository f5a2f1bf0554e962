import os
import stat

from permap.fileio import atomic_write


def mode_of(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


def test_new_file_gets_the_mode_a_plain_open_gives(tmp_path):
    for umask in (0o022, 0o027, 0o002):
        atomic, plain = tmp_path / f"atomic-{umask:o}.txt", tmp_path / f"plain-{umask:o}.txt"
        old = os.umask(umask)
        try:
            with atomic_write(atomic) as fh:
                fh.write("x\n")
            with open(plain, "w") as fh:
                fh.write("x\n")
        finally:
            os.umask(old)
        assert mode_of(atomic) == mode_of(plain) == 0o666 & ~umask
