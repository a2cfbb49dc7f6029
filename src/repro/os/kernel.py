"""The node kernel.

Responsibilities (exactly the ones the paper gives the operating system):

- the ``map`` system call (section 2): protection checking, coordination
  with the destination kernel, NIPT installation, write-through
  configuration of mapped-out pages, and command-page granting
  (section 4.2);
- kernel-to-kernel RPC carried as kernel-kind packets over the same
  network (section 4.4: invalidation "is done by sending messages to the
  remote kernels");
- paging with the two NIPT-consistency policies of section 4.4: *pin*
  (pages with incoming mappings are never replaced) and *invalidate* (the
  TLB-shootdown-style protocol: invalidate remote NIPT entries, wait for
  acknowledgements, then replace; a later write by the application faults
  and re-establishes the mapping).

Kernel work charges instruction-count-derived time so benches can compare
mapping cost against per-send cost -- but note that no kernel path runs per
message, which is the paper's point.
"""

from repro.memsys.address import PAGE_SIZE, page_number
from repro.memsys.cache import CachePolicy
from repro.os.params import OsParams
from repro.os.process import OsProcess
from repro.os.syscalls import Errno, MapArgs, Syscall, SyscallError
from repro.os.vm import plan_mapping
from repro.cpu.isa import R0, R1
from repro.sim.instrument import Instrumentation
from repro.sim.process import Process, Signal
from repro.sim.resources import QueueClosed


class KernelError(Exception):
    """Raised for kernel-level misuse (e.g. evicting a pinned page)."""


class Rpc:
    """Kernel-to-kernel message types (first payload word)."""

    MAP_IN_REQ = 1
    MAP_IN_REPLY = 2
    UNMAP_IN_REQ = 3
    UNMAP_IN_REPLY = 4
    INVALIDATE_REQ = 5
    INVALIDATE_ACK = 6
    REMAP_REQ = 7
    REMAP_REPLY = 8


class MappingRecord:
    """Source-side record of one established mapping."""

    def __init__(self, mapping_id, pid, src_vaddr, nbytes, dest_node,
                 dest_pid, dest_vaddr, mode, import_id):
        self.id = mapping_id
        self.pid = pid
        self.src_vaddr = src_vaddr
        self.nbytes = nbytes
        self.dest_node = dest_node
        self.dest_pid = dest_pid
        self.dest_vaddr = dest_vaddr
        self.mode = mode
        self.import_id = import_id
        self.halves = []  # (src_vpage, OutgoingHalf), as installed
        self.status = "active"  # or "invalid" (section 4.4)

    def src_vpages(self):
        return sorted({vpage for vpage, _half in self.halves})


class ImportRecord:
    """Destination-side record of a mapping that targets local memory."""

    def __init__(self, import_id, src_node, src_mapping_id, pid, vaddr, nbytes):
        self.id = import_id
        self.src_node = src_node
        self.src_mapping_id = src_mapping_id
        self.pid = pid
        self.vaddr = vaddr
        self.nbytes = nbytes

    def vpages(self):
        first = page_number(self.vaddr)
        last = page_number(self.vaddr + self.nbytes - 1)
        return list(range(first, last + 1))


class Kernel:
    """The kernel of one SHRIMP node."""

    KERNEL_RESERVED_PAGES = 4  # never handed to user processes

    #: Metrics registered under the kernel's name, ``<node>.kernel``.
    METRICS = (("syscalls", "counter"), ("faults", "counter"),
               ("rpcs", "counter"), ("evictions", "counter"),
               ("page_ins", "counter"), ("instructions", "probe"))

    def __init__(self, node, params=None):
        self.node = node
        self.sim = node.sim
        self.params = params or OsParams()
        node.kernel = self
        self._free_pages = list(
            range(self.KERNEL_RESERVED_PAGES, node.address_map.dram_pages)
        )
        self.processes = {}
        self._next_pid = 1
        self.current_process = None
        self.mappings = {}  # mapping_id -> MappingRecord (we are the source)
        self.imports = {}  # import_id -> ImportRecord (we are the destination)
        self._imports_by_page = {}  # local ppage -> set of import ids
        self._next_id = 1
        self._rpc_seq = 0
        self._pending_rpcs = {}  # seq -> [Signal, reply words or None]
        # Keyed by the page-table *object* (the address space owns its
        # swapped pages -- tables can be shared between processes), never
        # by id(): ids are reused after garbage collection.
        self._swap = {}  # (page table, vpage) -> page bytes
        self.kernel_instructions = 0
        self.name = node.name + ".kernel"
        self.instr = Instrumentation.of(self.sim)
        (self.syscalls, self.faults_handled, self.rpcs_sent,
         self.pages_evicted, self.pages_paged_in) = self.instr.register(self)
        node.cpu.syscall_handler = self._syscall_handler
        node.cpu.fault_handler = self._fault_handler
        self._started = False

    @property
    def instructions(self):
        """Kernel instructions charged (the ``instructions`` probe)."""
        return self.kernel_instructions

    # -- identifiers ------------------------------------------------------------

    def _fresh_id(self):
        value = (self.node.node_id << 20) | self._next_id
        self._next_id += 1
        return value

    # -- lifecycle ---------------------------------------------------------------

    def start(self):
        """Spawn the kernel's network service process."""
        if self._started:
            return
        self._started = True
        self.node.start()
        Process(self.sim, self._rpc_listener(), self.node.name + ".kernel").start()

    # -- time/instruction charging ---------------------------------------------------

    def _charge(self, instructions):
        self.kernel_instructions += instructions
        yield instructions * self.node.params.memsys.cpu_clock_ns

    # -- physical memory management ------------------------------------------------------

    def alloc_page(self):
        if not self._free_pages:
            raise KernelError("%s: out of physical pages" % self.node.name)
        return self._free_pages.pop(0)

    def free_page(self, ppage):
        self._free_pages.append(ppage)

    # -- process management ------------------------------------------------------------------

    def create_process(self, name, program):
        """Create a user process with stack pages mapped."""
        process = OsProcess(self._next_pid, name, program)
        self._next_pid += 1
        self.processes[process.pid] = process
        stack_base_vpage = page_number(OsProcess.STACK_TOP) - OsProcess.STACK_PAGES
        for i in range(OsProcess.STACK_PAGES):
            process.page_table.map_page(stack_base_vpage + i, self.alloc_page())
        return process

    def alloc_region(self, process, vaddr, nbytes,
                     policy=CachePolicy.WRITE_BACK):
        """Map fresh physical pages at ``vaddr`` in the process's space."""
        if vaddr % PAGE_SIZE:
            raise KernelError("regions are allocated page aligned")
        npages = -(-nbytes // PAGE_SIZE)
        for i in range(npages):
            process.page_table.map_page(
                page_number(vaddr) + i, self.alloc_page(), policy
            )

    def reap(self, process):
        """Generator: tear a finished process down.

        Unmaps all of its communication mappings (notifying destination
        kernels), releases its physical pages and forgets the process.
        The NIPT entries it contributed are cleared, so stray packets for
        its old pages will be dropped by the mapped-in check.
        """
        for mapping_id in list(process.mappings):
            yield from self.sys_unmap(process, mapping_id)
        for vpage in list(process.page_table.mapped_vpages()):
            pte = process.page_table.entry(vpage)
            if pte.present and self.node.address_map.is_dram(
                pte.ppage * PAGE_SIZE
            ):
                refs = self._imports_by_page.get(pte.ppage)
                if refs:
                    continue  # imported page still referenced remotely
                self.node.nic.nipt.unmap_out(pte.ppage)
                self.free_page(pte.ppage)
            process.page_table.unmap_page(vpage)
        self._swap = {
            key: data for key, data in self._swap.items()
            if key[0] is not process.page_table
        }
        self.processes.pop(process.pid, None)

    # -- kernel access to user memory (functional, for setup and syscall args) --------------

    def read_user_words(self, process, vaddr, nwords):
        words = []
        for i in range(nwords):
            paddr = process.page_table.translate_nofault(vaddr + 4 * i)
            if paddr is None:
                raise SyscallError("bad user address %#x" % (vaddr + 4 * i))
            words.append(self.node.memory.read_word(paddr))
        return words

    def write_user_words(self, process, vaddr, words):
        for i, word in enumerate(words):
            paddr = process.page_table.translate_nofault(vaddr + 4 * i)
            if paddr is None:
                raise SyscallError("bad user address %#x" % (vaddr + 4 * i))
            self.node.memory.write_word(paddr, word)

    # -- syscall dispatch -----------------------------------------------------------------------

    def _syscall_handler(self, cpu, number):
        self.syscalls.bump()
        hub = self.instr
        if hub.active:
            hub.emit(self.name, "os.syscall", number=number)
        yield from self._charge(self.params.trap_instructions)
        process = self.current_process
        if process is None:
            raise KernelError("syscall with no current process")
        if number == Syscall.MAP:
            args_ptr = cpu.get_reg(R1)
            try:
                words = self.read_user_words(process, args_ptr, MapArgs.WORDS)
                args = MapArgs.from_words(words)
            except SyscallError:
                cpu.set_reg(R0, Errno.EFAULT & 0xFFFFFFFF)
                return
            result = yield from self.sys_map(process, args)
            cpu.set_reg(R0, result & 0xFFFFFFFF)
        elif number == Syscall.UNMAP:
            mapping_id = cpu.get_reg(R1)
            result = yield from self.sys_unmap(process, mapping_id)
            cpu.set_reg(R0, result & 0xFFFFFFFF)
        elif number == Syscall.YIELD:
            cpu.preempt()
        elif number == Syscall.EXIT:
            cpu.halt()
        elif number == Syscall.WAIT_ARRIVAL:
            vaddr = cpu.get_reg(R1)
            result = yield from self.sys_wait_arrival(process, vaddr)
            cpu.set_reg(R0, result & 0xFFFFFFFF)
        else:
            cpu.set_reg(R0, Errno.EINVAL & 0xFFFFFFFF)

    # -- the map system call (sections 2, 3.1) -----------------------------------------------------

    def sys_map(self, process, args):
        """Generator: establish a mapping; returns mapping id or errno.

        Steps: validate and translate the source range, RPC the
        destination kernel for its physical frames (it pins/maps-in),
        install NIPT halves, set source pages write-through (flushing the
        cache so DRAM is current before snooping starts), and optionally
        map the command pages into the caller's address space.
        """
        yield from self._charge(self.params.map_local_instructions)
        if args.nbytes <= 0 or args.nbytes % 4 or args.src_vaddr % 4:
            return Errno.EINVAL
        try:
            mode = args.mode
        except SyscallError:
            return Errno.EINVAL
        src_vpages = list(
            range(
                page_number(args.src_vaddr),
                page_number(args.src_vaddr + args.nbytes - 1) + 1,
            )
        )
        for vpage in src_vpages:
            pte = process.page_table.entry(vpage)
            if pte is None or not pte.present:
                return Errno.EFAULT

        mapping_id = self._fresh_id()
        reply = yield from self._rpc(
            args.dest_node,
            [
                Rpc.MAP_IN_REQ,
                0,  # seq filled by _rpc
                mapping_id,
                args.dest_pid,
                args.dest_vaddr,
                args.nbytes,
            ],
        )
        status, import_id = reply[2], reply[3]
        if status != Errno.OK:
            return status
        dest_frames = reply[4:]

        record = MappingRecord(
            mapping_id,
            process.pid,
            args.src_vaddr,
            args.nbytes,
            args.dest_node,
            args.dest_pid,
            args.dest_vaddr,
            mode,
            import_id,
        )
        self._install_halves(
            process, record, dest_frames, args.dest_vaddr % PAGE_SIZE
        )
        yield from self._set_write_through(process, src_vpages)
        if args.command_vaddr:
            self._grant_command_pages(process, src_vpages, args.command_vaddr)
        self.mappings[mapping_id] = record
        process.mappings.append(mapping_id)
        return mapping_id

    def _install_halves(self, process, record, dest_frames, dest_first_offset):
        planned = plan_mapping(
            record.src_vaddr,
            record.nbytes,
            dest_frames,
            dest_first_offset,
            record.dest_node,
            record.mode,
        )
        record.halves = planned
        for src_vpage, half in planned:
            pte = process.page_table.entry(src_vpage)
            self.node.nic.nipt.map_out(pte.ppage, half)

    def _set_write_through(self, process, src_vpages):
        """Mapped-out pages cache write-through (section 3.1); flush any
        dirty lines first so DRAM holds current data."""
        for vpage in src_vpages:
            pte = process.page_table.entry(vpage)
            if pte.policy != CachePolicy.WRITE_THROUGH:
                pte.policy = CachePolicy.WRITE_THROUGH
                yield from self.node.cache.flush_page(
                    pte.ppage * PAGE_SIZE, PAGE_SIZE
                )

    def _grant_command_pages(self, process, src_vpages, command_vaddr):
        """Map the command pages controlling the source pages into the
        caller's space (section 4.2): command page i of the region lands at
        ``command_vaddr + i*PAGE_SIZE``, uncached."""
        if command_vaddr % PAGE_SIZE:
            raise SyscallError("command pages must be mapped page aligned")
        for i, vpage in enumerate(src_vpages):
            pte = process.page_table.entry(vpage)
            command_ppage = self.node.address_map.command_page_for(pte.ppage)
            process.page_table.map_page(
                page_number(command_vaddr) + i,
                command_ppage,
                CachePolicy.UNCACHED,
            )

    # -- interrupt-driven receive (section 4.2) ----------------------------------------------------------

    def sys_wait_arrival(self, process, vaddr):
        """Generator: block the caller until data arrives for the page
        holding ``vaddr``.

        This is the kernel service built on the command-memory feature of
        section 4.2 ("request an interrupt the next time data arrives for
        some page"): the kernel arms the one-shot arrival interrupt on the
        page and parks the process on the NIC's arrival notification --
        no user-level spinning, the event-driven alternative to polling.
        """
        from repro.nic.command import CommandOp, encode_command

        paddr = process.page_table.translate_nofault(vaddr)
        if paddr is None:
            return Errno.EFAULT
        page = page_number(paddr)
        # The page need not be mapped in *yet*: a receiver may legally
        # park before its peer's map call completes; the wait covers both.
        yield from self._charge(self.params.trap_instructions)
        self.node.nic.command_device.bus_write(
            self.node.address_map.command_addr_for(page * PAGE_SIZE),
            [encode_command(CommandOp.REQ_INTERRUPT)],
        )
        while True:
            packet = yield self.node.nic.arrival_signal
            if page_number(packet.dest_addr) == page:
                return Errno.OK

    # -- unmap -----------------------------------------------------------------------------------------

    def sys_unmap(self, process, mapping_id):
        yield from self._charge(self.params.unmap_instructions)
        record = self.mappings.get(mapping_id)
        if record is None or record.pid != process.pid:
            return Errno.EINVAL
        self._remove_halves(process, record)
        yield from self._rpc(
            record.dest_node, [Rpc.UNMAP_IN_REQ, 0, record.import_id]
        )
        del self.mappings[mapping_id]
        process.mappings.remove(mapping_id)
        return Errno.OK

    def _remove_halves(self, process, record):
        for src_vpage, half in record.halves:
            pte = process.page_table.entry(src_vpage)
            if pte is not None and pte.present:
                try:
                    self.node.nic.nipt.entry(pte.ppage).remove_half(half)
                except Exception:
                    pass  # already cleared by eviction

    # -- RPC machinery ------------------------------------------------------------------------------------

    def _rpc(self, dest_node, words):
        """Generator: send a request, block until the matching reply."""
        self._rpc_seq += 1
        seq = self._rpc_seq
        words = list(words)
        words[1] = seq
        self.rpcs_sent.bump()
        hub = self.instr
        if hub.active:
            hub.emit(self.name, "os.rpc",
                     dest=dest_node, msg_type=words[0], seq=seq)
        pending = [Signal(self.sim, "rpc%d" % seq), None]
        self._pending_rpcs[seq] = pending
        yield from self.node.nic.send_kernel_message(dest_node, words)
        while pending[1] is None:
            yield pending[0]
        del self._pending_rpcs[seq]
        return pending[1]

    def _reply(self, dest_node, words):
        yield from self.node.nic.send_kernel_message(dest_node, words)

    def _rpc_listener(self):
        """The kernel's network service loop."""
        inbox = self.node.nic.kernel_inbox
        while True:
            try:
                packet = yield from inbox.get()
            except QueueClosed:
                return
            msg_type, seq = packet.payload[0], packet.payload[1]
            src_node = self.node.backplane_node_of(packet.src_coords)
            if msg_type in (
                Rpc.MAP_IN_REPLY,
                Rpc.UNMAP_IN_REPLY,
                Rpc.INVALIDATE_ACK,
                Rpc.REMAP_REPLY,
            ):
                pending = self._pending_rpcs.get(seq)
                if pending is not None:
                    pending[1] = packet.payload
                    pending[0].fire()
                continue
            handler = {
                Rpc.MAP_IN_REQ: self._handle_map_in,
                Rpc.UNMAP_IN_REQ: self._handle_unmap_in,
                Rpc.INVALIDATE_REQ: self._handle_invalidate,
                Rpc.REMAP_REQ: self._handle_remap,
            }.get(msg_type)
            if handler is None:
                raise KernelError("unknown kernel message type %r" % msg_type)
            Process(
                self.sim,
                handler(src_node, packet.payload),
                self.node.name + ".kernel.handler",
            ).start()

    # -- destination-side handlers ----------------------------------------------------------------------------

    def _map_in_pages(self, record):
        """(Re)establish the import's mapped-in state; returns frames."""
        process = self.processes[record.pid]
        frames = []
        for vpage in record.vpages():
            pte = process.page_table.entry(vpage)
            if pte is None:
                return None
            if not pte.present:
                yield from self._page_in(process, vpage)
            if self.params.consistency_policy == "pin":
                pte.pinned = True
            frames.append(pte.ppage * PAGE_SIZE)
            self.node.nic.nipt.map_in(pte.ppage)
            self._imports_by_page.setdefault(pte.ppage, set()).add(record.id)
        return frames

    def _handle_map_in(self, src_node, payload):
        (_type, seq, src_mapping_id, dest_pid, dest_vaddr, nbytes) = payload
        yield from self._charge(self.params.map_remote_instructions)
        process = self.processes.get(dest_pid)
        if process is None:
            yield from self._reply(
                src_node, [Rpc.MAP_IN_REPLY, seq, Errno.ENODEST, 0]
            )
            return
        import_id = self._fresh_id()
        record = ImportRecord(
            import_id, src_node, src_mapping_id, dest_pid, dest_vaddr, nbytes
        )
        first = page_number(dest_vaddr)
        last = page_number(dest_vaddr + nbytes - 1)
        for vpage in range(first, last + 1):
            if process.page_table.entry(vpage) is None:
                yield from self._reply(
                    src_node, [Rpc.MAP_IN_REPLY, seq, Errno.EFAULT, 0]
                )
                return
        frames = yield from self._map_in_pages(record)
        self.imports[import_id] = record
        yield from self._reply(
            src_node, [Rpc.MAP_IN_REPLY, seq, Errno.OK, import_id] + frames
        )

    def _handle_unmap_in(self, src_node, payload):
        _type, seq, import_id = payload
        yield from self._charge(self.params.unmap_instructions)
        record = self.imports.pop(import_id, None)
        if record is not None:
            process = self.processes.get(record.pid)
            for vpage in record.vpages():
                pte = process.page_table.entry(vpage)
                if pte is None or not pte.present:
                    continue
                refs = self._imports_by_page.get(pte.ppage, set())
                refs.discard(import_id)
                if not refs:
                    self.node.nic.nipt.unmap_in(pte.ppage)
                    pte.pinned = False
        yield from self._reply(src_node, [Rpc.UNMAP_IN_REPLY, seq, Errno.OK])

    def _handle_remap(self, src_node, payload):
        """Source kernel asks us to make an invalidated import usable again
        (its application write-faulted; section 4.4 re-establishment)."""
        _type, seq, import_id = payload
        yield from self._charge(self.params.map_remote_instructions)
        record = self.imports.get(import_id)
        if record is None:
            yield from self._reply(
                src_node, [Rpc.REMAP_REPLY, seq, Errno.EINVAL, 0]
            )
            return
        frames = yield from self._map_in_pages(record)
        if frames is None:
            yield from self._reply(
                src_node, [Rpc.REMAP_REPLY, seq, Errno.EFAULT, 0]
            )
            return
        yield from self._reply(
            src_node,
            [Rpc.REMAP_REPLY, seq, Errno.OK, record.vaddr % PAGE_SIZE] + frames,
        )

    # -- source-side invalidation handling (section 4.4) -------------------------------------------------------------

    def _handle_invalidate(self, src_node, payload):
        """A destination kernel is about to replace a page we map out to:
        invalidate our NIPT entries and mark source vpages read-only."""
        _type, seq, mapping_id = payload
        yield from self._charge(self.params.invalidate_instructions)
        record = self.mappings.get(mapping_id)
        if record is not None and record.status == "active":
            process = self.processes[record.pid]
            self._remove_halves(process, record)
            for vpage in record.src_vpages():
                process.page_table.set_writable(vpage, False)
            record.status = "invalid"
        yield from self._reply(src_node, [Rpc.INVALIDATE_ACK, seq, Errno.OK])

    # -- paging ------------------------------------------------------------------------------------------------------------

    def evict_page(self, process, vpage):
        """Generator: page out one virtual page.

        Pages with incoming mappings follow the consistency policy: under
        "pin" eviction is refused; under "invalidate", all remote NIPT
        entries referring to this physical page are invalidated (and
        acknowledged) first -- the protocol of section 4.4.
        """
        pte = process.page_table.entry(vpage)
        if pte is None or not pte.present:
            raise KernelError("evicting unmapped vpage %d" % vpage)
        # Sorted: _imports_by_page holds sets, and the RPC order here is
        # externally visible timing (one INVALIDATE round-trip per import).
        import_ids = sorted(self._imports_by_page.get(pte.ppage, ()))
        if import_ids:
            if self.params.consistency_policy == "pin":
                raise KernelError(
                    "page %d pinned by incoming mappings" % pte.ppage
                )
            for import_id in import_ids:
                record = self.imports[import_id]
                yield from self._rpc(
                    record.src_node,
                    [Rpc.INVALIDATE_REQ, 0, record.src_mapping_id],
                )
            self.node.nic.nipt.unmap_in(pte.ppage)
            self._imports_by_page.pop(pte.ppage, None)
        # Outgoing mappings: safe to replace, the mapping information is
        # retained in the kernel records (section 4.4: "no consistency
        # problem for pages that have only outgoing communication
        # mappings").
        self.node.nic.nipt.unmap_out(pte.ppage)
        yield from self._charge(self.params.page_io_instructions)
        yield from self.node.cache.flush_page(pte.ppage * PAGE_SIZE, PAGE_SIZE)
        self._swap[(process.page_table, vpage)] = self.node.memory.dump_bytes(
            pte.ppage * PAGE_SIZE, PAGE_SIZE
        )
        self.free_page(pte.ppage)
        pte.present = False
        self.pages_evicted.bump()
        hub = self.instr
        if hub.active:
            hub.emit(self.name, "os.evict",
                     vpage=vpage, pid=process.pid)

    def reclaim(self, count):
        """Generator: evict up to ``count`` pages to relieve memory
        pressure.  A FIFO sweep over present, non-pinned user pages;
        pages pinned by incoming mappings (the "pin" policy) are skipped,
        and under the "invalidate" policy imported pages pay the full
        section 4.4 protocol via :meth:`evict_page`.  Returns the number
        of pages actually reclaimed.
        """
        reclaimed = 0
        for process in list(self.processes.values()):
            for vpage in list(process.page_table.mapped_vpages()):
                if reclaimed >= count:
                    return reclaimed
                pte = process.page_table.entry(vpage)
                if pte is None or not pte.present or pte.pinned:
                    continue
                try:
                    yield from self.evict_page(process, vpage)
                except KernelError:
                    continue
                reclaimed += 1
        return reclaimed

    def _page_in(self, process, vpage):
        """Generator: bring a swapped-out page back, reinstalling any
        outgoing NIPT halves recorded for it."""
        pte = process.page_table.entry(vpage)
        if pte is None:
            raise KernelError("page-in of unmapped vpage %d" % vpage)
        yield from self._charge(self.params.page_io_instructions)
        data = self._swap.pop((process.page_table, vpage), None)
        pte.ppage = self.alloc_page()
        pte.present = True
        if data is not None:
            self.node.memory.load_bytes(pte.ppage * PAGE_SIZE, data)
        for record in self.mappings.values():
            if record.pid != process.pid or record.status != "active":
                continue
            for src_vpage, half in record.halves:
                if src_vpage == vpage:
                    self.node.nic.nipt.map_out(pte.ppage, half)
        self.pages_paged_in.bump()
        hub = self.instr
        if hub.active:
            hub.emit(self.name, "os.page_in",
                     vpage=vpage, ppage=pte.ppage, pid=process.pid)

    # -- fault handling --------------------------------------------------------------------------------------------------------

    def _fault_handler(self, cpu, fault):
        self.faults_handled.bump()
        hub = self.instr
        if hub.active:
            hub.emit(self.name, "os.fault",
                     vaddr=fault.vaddr, reason=fault.reason)
        yield from self._charge(self.params.fault_instructions)
        process = self.current_process
        if process is None:
            raise fault
        vpage = page_number(fault.vaddr)
        pte = process.page_table.entry(vpage)
        if pte is None:
            if self._grow_stack(process, vpage):
                return
            raise fault  # wild access: no demand-zero outside the stack
        if not pte.present:
            yield from self._page_in(process, vpage)
            return
        if fault.reason == "write-protected":
            record = self._invalid_mapping_for(process, vpage)
            if record is None:
                raise fault  # genuine protection violation
            yield from self._reestablish(process, record)
            return
        raise fault

    def _grow_stack(self, process, vpage):
        """Demand-grow the stack: faults in the guard region below the
        mapped stack get a fresh zero page, up to MAX_STACK_PAGES."""
        stack_top_vpage = page_number(OsProcess.STACK_TOP)
        lowest_allowed = stack_top_vpage - OsProcess.MAX_STACK_PAGES
        if not lowest_allowed <= vpage < stack_top_vpage:
            return False
        process.page_table.map_page(vpage, self.alloc_page())
        return True

    def _invalid_mapping_for(self, process, vpage):
        for record in self.mappings.values():
            if (
                record.pid == process.pid
                and record.status == "invalid"
                and vpage in record.src_vpages()
            ):
                return record
        return None

    def _reestablish(self, process, record):
        """Re-create an invalidated mapping (section 4.4): ask the
        destination kernel to fault its pages back in, reinstall our NIPT
        halves against the new frames, and restore write access."""
        yield from self._charge(self.params.map_local_instructions)
        reply = yield from self._rpc(
            record.dest_node, [Rpc.REMAP_REQ, 0, record.import_id]
        )
        status = reply[2]
        if status != Errno.OK:
            raise KernelError("re-establishment failed: %d" % status)
        dest_first_offset = reply[3]
        dest_frames = reply[4:]
        self._install_halves(process, record, dest_frames, dest_first_offset)
        for vpage in record.src_vpages():
            process.page_table.set_writable(vpage, True)
        record.status = "active"
