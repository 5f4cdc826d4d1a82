"""Call recorder: every (caller, callee) pair of Python functions a run makes.

Put this directory first on ``PYTHONPATH`` and every interpreter that starts
with it — the test runner, a ``python -m repro.cli ...`` child, a forked
shard worker — records through ``sys.setprofile`` / ``threading.setprofile``.
At exit each process writes ``calls/<pid>-<ns>.tsv`` beside this file: one
line per pair, ``caller<TAB>callee<TAB>count``, each side
``path:firstline:qualname``.  Python 3.10 code objects carry no qualname,
so there a side takes the qualname of the live function that runs its code
(the bare function name once no such function is left).  A forked worker
leaves through ``os._exit``, which skips ``atexit``, so ``os._exit`` dumps
first — once, even when two of the worker's threads race to exit — and
exits even if the dump fails; a fork drops the parent's counts, so no pair
is counted twice.

Record, then ask who called a name (callers under ``tests/`` apart), or
list every function defined under a directory that no dump calls::

    PYTHONPATH=tests/tools:src python -m pytest -q
    python tests/tools/sitecustomize.py tests/tools/calls Simulator.run
    python tests/tools/sitecustomize.py tests/tools/calls --unreached src/repro

To record somewhere else, copy this file into that directory and put the
copy on ``PYTHONPATH`` instead.
"""

import ast
import collections
import gc
import os
import sys
import threading
import time
import types

_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "calls")
_pairs = collections.Counter()
_dumping = threading.Lock()
_dumped = []


def _live_qualnames():
    """Each live function's code object mapped to the function's qualname."""
    return {
        obj.__code__: obj.__qualname__
        for obj in gc.get_objects()
        if isinstance(obj, types.FunctionType)
    }


def _where(code, live):
    if code is None:
        return "<root>"
    name = getattr(code, "co_qualname", None) or live.get(code, code.co_name)
    return f"{code.co_filename}:{code.co_firstlineno}:{name}"


def _profile(frame, event, arg):
    if event == "call":
        caller = frame.f_back
        _pairs[caller.f_code if caller is not None else None, frame.f_code] += 1


def _dump():
    sys.setprofile(None)
    with _dumping:  # a second exiting thread waits here, then writes nothing
        if _dumped:
            return
        _dumped.append(True)
        os.makedirs(_OUT, exist_ok=True)
        live = {} if hasattr(_dump.__code__, "co_qualname") else _live_qualnames()
        path = os.path.join(_OUT, f"{os.getpid()}-{time.time_ns()}.tsv")
        with open(path, "w", encoding="utf-8") as out:
            for (caller, callee), count in list(_pairs.items()):
                out.write(
                    f"{_where(caller, live)}\t{_where(callee, live)}\t{count}\n"
                )


def _exit(status, _real_exit=os._exit):
    try:
        _dump()
    finally:
        _real_exit(status)


def _summary(directory, names):
    """Print each name's callers, the ones under ``tests/`` counted apart."""
    callers = collections.defaultdict(collections.Counter)
    for entry in sorted(os.listdir(directory)):
        with open(os.path.join(directory, entry), encoding="utf-8") as rows:
            for row in rows:
                caller, callee, count = row.rstrip("\n").split("\t")
                callers[callee.rsplit(":", 1)[-1]][caller] += int(count)
    for name in names:
        found = callers.get(name, {})
        tests = sum(n for c, n in found.items() if f"{os.sep}tests{os.sep}" in c)
        print(f"{name}: {sum(found.values())} calls, {tests} from tests/")
        for caller, count in sorted(found.items()):
            if f"{os.sep}tests{os.sep}" not in caller:
                print(f"    {count:>9}  {caller}")


def _definitions(tree):
    """``(firstline, qualname)`` of every function ``tree`` defines, nested
    ones included; ``firstline`` is the first decorator's line, as a code
    object's ``co_firstlineno`` has it."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                lines = [d.lineno for d in child.decorator_list] + [child.lineno]
                found.append((min(lines), name))
                visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def _unreached(directory, source):
    """Print each function defined under ``source`` that no dump calls."""
    called = set()
    for entry in os.listdir(directory):
        with open(os.path.join(directory, entry), encoding="utf-8") as rows:
            for row in rows:
                path, line, _ = row.split("\t")[1].rsplit(":", 2)
                called.add((os.path.realpath(path), int(line)))
    for root, dirs, files in os.walk(source):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as text:
                tree = ast.parse(text.read())
            for line, qualname in _definitions(tree):
                if (os.path.realpath(path), line) not in called:
                    print(f"{path}:{line}:{qualname}")


if __name__ == "__main__":
    if sys.argv[2:3] == ["--unreached"]:
        _unreached(sys.argv[1], sys.argv[3])
    else:
        _summary(sys.argv[1], sys.argv[2:])
elif __name__ == "sitecustomize":
    os.register_at_fork(after_in_child=_pairs.clear)
    os._exit = _exit
    import atexit

    atexit.register(_dump)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
