"""List every function in ``src/repro`` that the tier-1 suite never calls.

Runs pytest in this process under stdlib :mod:`cProfile`.  Every Python
child the tests start is profiled too, through a ``sitecustomize`` hook
put first on the child's ``PYTHONPATH``: the CLI tests run
``python -m repro.analysis``, ``python -m repro.lint`` and the examples
as children, so their code is reached only there.  A ``def`` counts as
reached when some profile saw its code object called.

Two classes of function are skipped and never listed:

* ``__repr__`` -- a debugging aid, called only when something prints it;
* an abstract stub whose body (after an optional docstring) is only
  ``raise NotImplementedError``.

Every other unreached function must be on :data:`KEEP`, with the reason
it stays.  The run fails when the suite fails, when an unreached
function is off the keep list, or when a keep entry is stale (it names
no function, or the suite now calls it).

Run it as ``make reach`` or ``python tools/reach.py``.  Exit status: 0
clean, 1 unreached or stale entries, 2 the suite failed.
"""

import ast
import cProfile
import os
import pstats
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: ``module:qualname`` -> why the function stays although no test calls it.
KEEP = {
    "repro.msg.nx2_baseline:BaselineSystem.overhead_instructions":
        "the §5.2 NX/2 table's figure; benchmarks/bench_nx2_comparison.py "
        "reads it",
    "repro.scenarios:pin":
        "`make pin`'s entry point; re-pinning is a deliberate act, so no "
        "test rewrites tests/fingerprints.json",
}

#: Written into the hook directory as ``sitecustomize.py``: a child
#: profiles itself from start-up and dumps its stats when it exits.
_HOOK = """\
import atexit
import cProfile
import os

_profile = cProfile.Profile()
_profile.enable()


def _dump():
    _profile.disable()
    _profile.dump_stats(os.path.join(
        os.environ["REACH_PROFILE_DIR"], "child-%d.prof" % os.getpid()))


atexit.register(_dump)
"""


def _with_hook(env, hook_dir, profile_dir):
    """``env`` with the hook first on its ``PYTHONPATH``."""
    paths = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    if hook_dir not in paths:
        paths.insert(0, hook_dir)
    return dict(env, PYTHONPATH=os.pathsep.join(paths),
                REACH_PROFILE_DIR=profile_dir)


def _profile_children(hook_dir, profile_dir):
    """Hook this process's environment, and every explicit ``env=`` a
    test hands to :class:`subprocess.Popen` (some set their own
    ``PYTHONPATH``)."""
    os.environ.update(_with_hook(os.environ, hook_dir, profile_dir))
    original = subprocess.Popen.__init__

    def init(self, *args, env=None, **kwargs):
        if env is not None:
            env = _with_hook(env, hook_dir, profile_dir)
        original(self, *args, env=env, **kwargs)

    subprocess.Popen.__init__ = init


def _run_suite(profile_dir):
    """Run the tier-1 suite here under cProfile; return its exit code
    and the set of ``(path, first line, name)`` of every code object any
    profile (this process's or a child's) saw called."""
    import pytest

    hook_dir = os.path.join(profile_dir, "hook")
    os.mkdir(hook_dir)
    Path(hook_dir, "sitecustomize.py").write_text(_HOOK)
    _profile_children(hook_dir, profile_dir)
    profile = cProfile.Profile()
    profile.enable()
    try:
        status = pytest.main(["-x", "-q"])
    finally:
        profile.disable()
    stats = [pstats.Stats(profile).stats]
    for path in sorted(Path(profile_dir).glob("child-*.prof")):
        stats.append(pstats.Stats(str(path)).stats)
    called = {
        (os.path.realpath(filename), line, name)
        for table in stats
        for filename, line, name in table
    }
    return int(status), called


def _is_skipped(func):
    if func.name == "__repr__":
        return True
    body = func.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def _defs(node, scope=()):
    """Yield ``(qualname, def node)`` for every function under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope + (child.name,)
            yield ".".join(inner), child
            yield from _defs(child, inner)
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, scope + (child.name,))
        else:
            yield from _defs(child, scope)


def functions():
    """Yield ``(key, path, def node)`` for every ``def`` in ``src/repro``;
    ``key`` is ``module:qualname``, as :data:`KEEP` spells it."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        tree = ast.parse(path.read_text(), str(path))
        for qualname, func in _defs(tree):
            yield "%s:%s" % (module, qualname), path, func


def report(called):
    """Print the unreached functions and stale keep entries; return how
    many problems there are."""
    problems = 0
    seen = set()
    counts = {"reached": 0, "skipped": 0, "kept": 0}
    for key, path, func in functions():
        seen.add(key)
        # A decorated function's code object starts at its first decorator.
        lines = {func.lineno} | {d.lineno for d in func.decorator_list}
        real = os.path.realpath(path)
        if any((real, line, func.name) in called for line in lines):
            counts["reached"] += 1
            if key in KEEP:
                problems += 1
                print("%s: keep entry is called now; drop it" % key)
        elif _is_skipped(func):
            counts["skipped"] += 1
        elif key in KEEP:
            counts["kept"] += 1
        else:
            problems += 1
            print("%s:%d: %s is never called"
                  % (path.relative_to(REPO), func.lineno, key))
    for key in sorted(set(KEEP) - seen):
        problems += 1
        print("%s: keep entry names no function" % key)
    print("reach: %d functions, %d called, %d skipped (__repr__, abstract "
          "stubs), %d kept, %d problems"
          % (len(seen), counts["reached"], counts["skipped"], counts["kept"],
             problems))
    return problems


def main():
    os.chdir(REPO)
    sys.path.insert(0, str(SRC))
    # Absolute, so a child started in another directory still imports
    # (and its profile names) the same files.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [os.path.abspath(p) for p in
                      os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    missing = [key for key, reason in KEEP.items() if not reason.strip()]
    if missing:
        print("keep entries without a reason: %s" % ", ".join(missing))
        return 1
    with tempfile.TemporaryDirectory(prefix="reach-") as profile_dir:
        status, called = _run_suite(profile_dir)
    if status != 0:
        print("reach: the suite failed (pytest exit %d); no report" % status)
        return 2
    return 1 if report(called) else 0


if __name__ == "__main__":
    sys.exit(main())
