"""SL8xx: DSM coherence encapsulation rules.

The fetch-on-fault layer (:mod:`repro.dsm`) owns every byte of the
shared frame region: page data moves only through the directory
protocol (fault -> grant -> deliberate-update push) so that the
single-writer/multi-reader invariant, the section 4.4 invalidation
walk, crash rollback and the run fingerprint all see the same bytes.
A direct DRAM write into a DSM frame from outside the package bypasses
all of that -- the scribble is invisible to the directory and is not
invalidated on the next write grant.  The runtime's DRAM write guard
catches such writes dynamically; this rule is the static half.
"""

import ast

from repro.lint.engine import Rule

#: DRAM mutation spellings on the physical-memory object.
_WRITE_METHODS = frozenset({"write_word", "write_words"})

#: Address spellings that identify the DSM frame region: the layout's
#: ``frame_addr(page)`` accessor and the raw ``dsm_base`` base address.
_FRAME_NAMES = frozenset({"frame_addr", "dsm_base"})


def _mentions_frame(node):
    """True when the expression tree references the DSM frame region."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id in _FRAME_NAMES:
            return True
        if isinstance(child, ast.Attribute) and child.attr in _FRAME_NAMES:
            return True
    return False


class DirectFrameWriteRule(Rule):
    """SL801: direct DRAM write into a DSM frame outside ``repro.dsm``.

    A ``memory.write_word(...)`` / ``write_words(...)`` call whose
    address expression involves ``frame_addr(...)`` or ``dsm_base``
    writes shared-page bytes behind the coherence protocol's back: the
    directory never learns about the store, so no recall or section 4.4
    invalidation will ever reconcile the other copies, and the home's
    memory copy diverges from the owner's.  Only :mod:`repro.dsm`
    itself (the service's grant deposits, recall pushes and sync-page
    state machines) may touch frames directly; everything else goes
    through :class:`repro.dsm.DsmSegment` -- ``store_word`` for
    protocol-visible stores, ``poke`` for sanctioned zero-time test
    setup.  The runtime's per-node DRAM write guard enforces the same
    invariant at run time; this rule catches the bypass before it runs.
    """

    code = "SL801"
    title = "direct DRAM write to a DSM frame outside repro.dsm"

    def applies_to(self, module):
        posix = module.path.replace("\\", "/")
        if "repro/dsm/" in posix:
            return False  # the protocol engine is the sanctioned writer
        return super().applies_to(module)

    def check(self, module):
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _WRITE_METHODS
                and any(_mentions_frame(arg) for arg in node.args)
            ):
                continue
            yield self.finding(
                module, node,
                "direct DRAM write into a DSM frame bypasses the "
                "directory protocol; use DsmSegment.store_word (or poke "
                "in test setup) so the write is coherence-visible",
            )


RULES = (DirectFrameWriteRule(),)
