"""Resources, generations, and touches.

A *touch* is one ``(key, role)`` pair: the action interacts with the
resource ``key`` in ``role`` (a :class:`Role` string).  The compiler
builds these pairs inline, a tuple each, and every reader unpacks them
(``for key, role in touches``); a key's kind is ``key[0]``.

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


def name_of(key):
    """The name component shared by all generations of a named resource
    (None for unnamed kinds)."""
    if key[0] in (PATH, FD, AIOCB):
        return (key[0], key[1])
    return None
