"""System call numbers and argument conventions.

SHRIMP's design pushes communication out of the kernel; the syscall
surface is correspondingly small.  The ``map`` call is the paper's

    map(send-buf, destination, receive-buf)

primitive (section 2): it performs protection checking, coordinates with
the destination kernel, and installs NIPT state, after which ``send`` is
pure user-level.

Calling convention: the syscall number is the immediate of the ``syscall``
instruction; ``r1`` points to an in-memory argument block (word array);
the result is returned in ``r0`` (0 = success, negative = error).
"""


class SyscallError(Exception):
    """Raised for malformed syscall invocations."""


class Syscall:
    """System call numbers."""

    MAP = 1
    UNMAP = 2
    YIELD = 3
    EXIT = 4
    WAIT_ARRIVAL = 5  # block until data arrives for a mapped-in page

    ALL = (MAP, UNMAP, YIELD, EXIT, WAIT_ARRIVAL)


class Errno:
    """Syscall result codes (negative values are errors)."""

    OK = 0
    EINVAL = -1
    ENOMEM = -2
    EFAULT = -3
    ENODEST = -4


class MapArgs:
    """Layout of the MAP argument block (7 words at the r1 pointer).

    ======  ==========================================================
    word    meaning
    ======  ==========================================================
    0       source virtual address (word aligned)
    1       length in bytes (word multiple)
    2       destination node id
    3       destination process id
    4       destination virtual address
    5       mode code: 0 auto-single, 1 auto-blocked, 2 deliberate
    6       virtual address at which to map the command pages covering
            the source range (0 = do not map command pages)
    ======  ==========================================================
    """

    WORDS = 7
    MODE_CODES = {0: "auto-single", 1: "auto-blocked", 2: "deliberate"}

    def __init__(self, src_vaddr, nbytes, dest_node, dest_pid, dest_vaddr,
                 mode_code, command_vaddr=0):
        self.src_vaddr = src_vaddr
        self.nbytes = nbytes
        self.dest_node = dest_node
        self.dest_pid = dest_pid
        self.dest_vaddr = dest_vaddr
        self.mode_code = mode_code
        self.command_vaddr = command_vaddr

    def to_words(self):
        return [
            self.src_vaddr,
            self.nbytes,
            self.dest_node,
            self.dest_pid,
            self.dest_vaddr,
            self.mode_code,
            self.command_vaddr,
        ]

    @classmethod
    def from_words(cls, words):
        if len(words) != cls.WORDS:
            raise SyscallError("MAP argument block must be %d words" % cls.WORDS)
        return cls(*words)

    @property
    def mode(self):
        try:
            return self.MODE_CODES[self.mode_code]
        except KeyError:
            raise SyscallError("unknown mapping mode code %r" % (self.mode_code,))
