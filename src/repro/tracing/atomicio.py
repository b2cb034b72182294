"""Whole-file writes that either happen or leave no trace."""

import os


def atomic_write(path, data, fsync=False):
    """Write ``data`` (``str`` or ``bytes``) to ``path`` through a
    temporary file in the same directory and a rename, so a reader
    never sees a truncated file, two writers of one path never share a
    temporary, and a write that fails (disk full, a killed worker's
    ``KeyboardInterrupt``) leaves the directory as it found it, the old
    file intact.  ``fsync`` forces the bytes out before the rename, for
    files a restart depends on."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(
        directory,
        ".%s.%s.tmp" % (os.path.basename(path), os.urandom(8).hex()),
    )
    try:
        with open(tmp, "xb" if isinstance(data, bytes) else "x") as handle:
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
