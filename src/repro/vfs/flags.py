"""Open flags and whence values, platform-neutral.

Numeric values are private to the simulation (real O_* constants vary
by platform); the strace parser maps symbolic names to these.
"""

import functools

O_RDONLY = 0x0000
O_WRONLY = 0x0001
O_RDWR = 0x0002
O_ACCMODE = 0x0003

O_CREAT = 0x0040
O_EXCL = 0x0080
O_NOCTTY = 0x0100
O_TRUNC = 0x0200
O_APPEND = 0x0400
O_NONBLOCK = 0x0800
O_SYNC = 0x1000
O_DIRECTORY = 0x2000
O_NOFOLLOW = 0x4000
O_CLOEXEC = 0x8000
O_DIRECT = 0x10000
O_SHLOCK = 0x20000  # BSD/Darwin
O_EXLOCK = 0x40000  # BSD/Darwin
O_SYMLINK = 0x80000  # Darwin: open the symlink itself
O_EVTONLY = 0x100000  # Darwin: watch-only descriptor

FLAG_NAMES = {
    "O_RDONLY": O_RDONLY,
    "O_WRONLY": O_WRONLY,
    "O_RDWR": O_RDWR,
    "O_CREAT": O_CREAT,
    "O_EXCL": O_EXCL,
    "O_NOCTTY": O_NOCTTY,
    "O_TRUNC": O_TRUNC,
    "O_APPEND": O_APPEND,
    "O_NONBLOCK": O_NONBLOCK,
    "O_NDELAY": O_NONBLOCK,
    "O_SYNC": O_SYNC,
    "O_FSYNC": O_SYNC,
    "O_DSYNC": O_SYNC,
    "O_DIRECTORY": O_DIRECTORY,
    "O_NOFOLLOW": O_NOFOLLOW,
    "O_CLOEXEC": O_CLOEXEC,
    "O_DIRECT": O_DIRECT,
    "O_SHLOCK": O_SHLOCK,
    "O_EXLOCK": O_EXLOCK,
    "O_SYMLINK": O_SYMLINK,
    "O_EVTONLY": O_EVTONLY,
    "O_LARGEFILE": 0,
    "O_NOATIME": 0,
}

SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2


@functools.lru_cache(maxsize=256)  # a trace spells its flags a handful of ways
def parse_flags(text):
    """Parse ``"O_RDWR|O_CREAT"`` into a flag word."""
    value = 0
    for part in text.split("|"):
        part = part.strip()
        if not part:
            continue
        if part.startswith("0"):  # octal mode leaked into flags field
            value |= int(part, 8)
        else:
            value |= FLAG_NAMES[part]
    return value


def format_flags(value):
    """Render a flag word back into strace-style ``A|B`` text."""
    accmode = value & O_ACCMODE
    names = [
        {O_RDONLY: "O_RDONLY", O_WRONLY: "O_WRONLY", O_RDWR: "O_RDWR"}.get(
            accmode, "O_RDONLY"
        )
    ]
    for name, bit in FLAG_NAMES.items():
        if bit and bit not in (O_RDONLY, O_WRONLY, O_RDWR) and value & bit:
            if name not in ("O_NDELAY", "O_FSYNC", "O_DSYNC") and name not in names:
                names.append(name)
    return "|".join(names)
