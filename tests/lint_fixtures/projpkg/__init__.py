# simlint: scope=sim
"""A miniature multi-module package for the whole-program pass tests.

Exercises exactly the cross-file machinery the single-file corpus
cannot: a re-export chain (``projpkg.BaseCounter`` resolves to
``projpkg.counters.BaseCounter``), inheritance across modules (the
SL201 coverage gap in ``device.py``), and vocabulary drift between an
emitter module and the central table (``vocab.py``).  Linted by
explicit path from ``tests/test_lint_project.py``; directory walks
never see it.
"""

from .counters import BaseCounter

__all__ = ["BaseCounter"]
