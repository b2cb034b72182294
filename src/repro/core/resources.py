"""Resources, generations, and touches.

A resource is identified by a hashable key tuple whose first element is
its kind:

- ``("prog",)`` -- the whole program
- ``("thread", tid)`` -- one traced thread
- ``("file", ino)`` -- a file (or directory): data + metadata identity;
  ``ino`` is the inode number of the file on the compiler's null
  machine, the one a freshly initialized target gives it (inode
  numbers never appear in traces)
- ``("path", name, gen)`` -- one *generation* of a path name; odd uses
  of the same name at different times get different generations
  (the paper's ``name@generation`` notation)
- ``("fd", num, gen)`` -- one generation of a file-descriptor number
- ``("aiocb", id, gen)`` -- one generation of an AIO control block

Path generations alternate between *existence* and *absence* periods:
a failed ``stat`` participates in the current absence generation, which
is what lets ROOT order failing calls correctly relative to the
``unlink``/``rename`` that made them fail.
"""

PROG = "prog"
THREAD = "thread"
FILE = "file"
PATH = "path"
FD = "fd"
AIOCB = "aiocb"

KINDS = (PROG, THREAD, FILE, PATH, FD, AIOCB)


class Role(object):
    CREATE = "create"
    USE = "use"
    DELETE = "delete"


class Touch(object):
    """One (resource, role) interaction of an action."""

    __slots__ = ("key", "role")

    def __init__(self, key, role):
        self.key = key
        self.role = role

    @property
    def kind(self):
        return self.key[0]

    def __repr__(self):
        return "Touch(%r, %s)" % (self.key, self.role)

    def __eq__(self, other):
        return (
            isinstance(other, Touch)
            and self.key == other.key
            and self.role == other.role
        )

    def __hash__(self):
        return hash((self.key, self.role))


def prog_key():
    return (PROG,)


def thread_key(tid):
    return (THREAD, tid)


def file_key(ino):
    return (FILE, ino)


def path_key(name, gen):
    return (PATH, name, gen)


def fd_key(num, gen):
    return (FD, num, gen)


def aiocb_key(cb_id, gen):
    return (AIOCB, cb_id, gen)


def name_of(key):
    """The name component shared by all generations of a named resource
    (None for unnamed kinds)."""
    if key[0] in (PATH, FD, AIOCB):
        return (key[0], key[1])
    return None


def generation_of(key):
    if key[0] in (PATH, FD, AIOCB):
        return key[2]
    return None
