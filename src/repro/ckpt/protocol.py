"""The ``Checkpointable`` protocol, its field-table walker, and the
checkpoint error hierarchy.

A component participates in checkpointing with two methods:

- ``ckpt_capture() -> dict`` -- return a JSON-safe dict fully describing
  the component's *persistent* simulation state.  JSON-safe means: only
  ``None``/bool/int/float/str scalars, lists, and string-keyed dicts.
  Integer-keyed maps are encoded as lists of ``[key, value]`` pairs so a
  round trip through ``json`` is the identity.
- ``ckpt_restore(state) -> None`` -- overwrite the component's state from
  a dict previously produced by ``ckpt_capture`` on an *identically
  configured* component.  Restore must be exact: a capture taken right
  after a restore into a freshly built twin equals the original capture
  (the fixed-point property checked by ``tests/test_ckpt.py``).

Components do not write the two methods by hand.  They subclass
:class:`Checkpointable` and declare their state once, in a class-level
table, the way they declare their metrics in ``METRICS``:

- ``CKPT_STATE`` -- ``(attribute, codec)`` rows.  The state key is the
  attribute name without its leading underscores; the codec is one of
  :data:`SCALAR`, :data:`DICT`, :data:`PAIRS`, :data:`PACKETS`,
  :data:`ROWS`, :data:`PART` or :data:`PARTS`.
- ``CKPT_SKIP`` -- ``{attribute: reason}`` for every mutable attribute
  the table leaves out: not state (wiring, observer output, fault
  orchestration, a latch), or state the class encodes in its own
  override.

The one generic :meth:`Checkpointable.ckpt_capture` /
:meth:`~Checkpointable.ckpt_restore` pair walks ``CKPT_STATE``, so
capture and restore cannot drift apart.  A component whose state does
not fit a field (a cache's valid lines, a parked spin) overrides the
pair, calls the walker for its fields and adds only the irregular part.
A component refuses an inexact checkpoint through one hook,
:meth:`~Checkpointable.ckpt_refusal`.  simlint's SL201 checks that every
mutable attribute sits in exactly one table and that every row names a
real attribute.

What is deliberately *not* captured (bookkeeping that cannot influence
any simulation observable, documented in ``docs/checkpoint.md``):
``Signal.fire_count``, mutex ticket counters and contention statistics
(safepoints require every mutex unlocked), and collected event-bus
records (transient observer output, not machine state).

This module has no imports from the rest of the package, so hardware
components may import it without creating cycles.
"""

class CkptError(Exception):
    """Base class for all checkpoint/restore failures."""


class CkptFormatError(CkptError):
    """The file is not a repro checkpoint (bad magic, truncation, not JSON)."""


class CkptVersionError(CkptError):
    """The checkpoint was written by an incompatible format version."""


class CkptIntegrityError(CkptError):
    """The payload checksum does not match: the file is corrupted."""


class SafepointError(CkptError):
    """Capture was attempted at an instant that is not a safepoint.

    When raised by the seek helpers the structured context rides along:
    ``obstacle`` names the blocking component or queue entry, ``sim_time``
    is the simulation time the search reached, and ``stepped`` counts the
    events executed while seeking.  All three are ``None`` when the error
    comes from a direct capture attempt instead of a seek.
    """

    def __init__(self, message, obstacle=None, sim_time=None, stepped=None):
        super().__init__(message)
        self.obstacle = obstacle
        self.sim_time = sim_time
        self.stepped = stepped


# -- field codecs: (capture, restore) pairs ----------------------------------
#
# ``capture(value)`` returns the attribute's JSON-safe encoding;
# ``restore(value, saved)`` returns the attribute's restored value, given
# its current one (a part restores itself in place and returns itself).


def _restore_part(part, saved):
    part.ckpt_restore(saved)
    return part


def _restore_parts(parts, saved):
    for part, part_state in zip(parts, saved):
        part.ckpt_restore(part_state)
    return parts


def _restore_packets(queue, saved):
    from repro.mesh.packet import Packet

    queue.clear()
    queue.extend(Packet.from_state(packet_state) for packet_state in saved)
    return queue


#: An immutable value (number, string, bool, None), stored as is.
SCALAR = (lambda value: value, lambda value, saved: saved)
#: A str-keyed dict of scalars, stored as a copy.
DICT = (dict, lambda value, saved: dict(saved))
#: An int-keyed dict, stored as sorted ``[key, value]`` pairs.
PAIRS = (lambda mapping: [[key, mapping[key]] for key in sorted(mapping)],
         lambda value, saved: {key: item for key, item in saved})
#: A list or deque of packets, stored as their states; restored in place.
PACKETS = (lambda queue: [packet.to_state() for packet in queue],
           _restore_packets)
#: A list of tuples, stored as lists; an empty one restores as the
#: shared empty tuple.
ROWS = (lambda rows: [list(row) for row in rows],
        lambda value, saved: [tuple(row) for row in saved] or ())
#: A component with its own checkpoint.
PART = (lambda part: part.ckpt_capture(), _restore_part)
#: A list of components with their own checkpoints.
PARTS = (lambda parts: [part.ckpt_capture() for part in parts],
         _restore_parts)


class Checkpointable:
    """The generic capture/restore pair over ``CKPT_STATE`` (see the
    module doc).  No slot of its own: a slotted subclass stays
    ``__dict__``-free."""

    __slots__ = ()

    #: ``(attribute, codec)`` rows: the state the checkpoint holds.
    CKPT_STATE = ()
    #: ``{attribute: reason}``: the mutable attributes it leaves out.
    CKPT_SKIP = {}

    def ckpt_refusal(self, state):
        """Why a capture (``state`` is None) or a restore from ``state``
        would be inexact, or None to let it proceed."""
        return None

    def _ckpt_check(self, state):
        reason = self.ckpt_refusal(state)
        if reason is not None:
            raise CkptError(reason)

    def ckpt_capture(self):
        self._ckpt_check(None)
        return {attr.lstrip("_"): capture(getattr(self, attr))
                for attr, (capture, _restore) in self.CKPT_STATE}

    def ckpt_restore(self, state):
        self._ckpt_check(state)
        for attr, (_capture, restore) in self.CKPT_STATE:
            setattr(self, attr,
                    restore(getattr(self, attr), state[attr.lstrip("_")]))
