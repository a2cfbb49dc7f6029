"""User processes."""

from repro.cpu.core import Context
from repro.os.vm import PageTable


class ProcessState:
    """Lifecycle states of an :class:`OsProcess`."""

    READY = "ready"
    RUNNING = "running"
    FINISHED = "finished"

    ALL = (READY, RUNNING, FINISHED)


class OsProcess:
    """One user process: a program, architectural context and address space.

    The default virtual layout reserves the top of a small address space
    for the stack; the kernel's ``create_process`` allocates and maps the
    stack pages.
    """

    STACK_TOP = 0x0080_0000  # 8 MB virtual stack top
    STACK_PAGES = 4  # mapped eagerly at creation
    MAX_STACK_PAGES = 32  # demand-grow limit (kernel._grow_stack)

    def __init__(self, pid, name, program):
        self.pid = pid
        self.name = name
        self.program = program
        self.page_table = PageTable("pt:%s" % name)
        self.context = Context(entry_pc=0, stack_top=self.STACK_TOP)
        self.state = ProcessState.READY
        self.exit_context = None
        self.mappings = []  # MappingRecord ids owned by this process

    def __repr__(self):
        return "OsProcess(%d, %s, %s)" % (self.pid, self.name, self.state)
