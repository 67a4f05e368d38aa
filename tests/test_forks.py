"""The fork layer: a fork_map child that dies, the flag that keeps at
most two processes computing, the confinement of process code and of the
split rule's prices to stochdyn.forks, the one caller of fork_map per job
(the CSV block writer, the battery), of split_walk (the backward walker's
IFS walk), of stationary_law, of np.mod (the angle wrap), of the CLI's
record writer and of ExceptionalStart (the start guard)."""

import ast
import os
import pathlib

import pytest

import stochdyn
import stochdyn.forks
from stochdyn.forks import fork_map

SRC = pathlib.Path(stochdyn.__file__).parent
_PROCESS_MODULES = {"contextlib", "gc", "pickle", "signal"}
_PROCESS_CALLS = {"fork", "pipe", "_exit"}


@pytest.mark.parametrize("k", [2, 4, 5])
def test_fork_map_child_dying_mid_map(forks, capfd, k):
    # the child takes items 2 to 5 and dies at item k, having delivered
    # none: every item is computed here, in order
    parent = os.getpid()

    def pid_or_die(item):
        if os.getpid() != parent and item == k:
            os._exit(1)
        return item, os.getpid()

    assert list(fork_map(pid_or_die, range(6), 2)) == [
        (item, parent) for item in range(6)]
    assert forks == [1]
    assert capfd.readouterr() == ("", "")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _pid_and_busy(item):
    return os.getpid(), stochdyn.forks._busy


def test_busy_only_while_a_child_runs(forks, monkeypatch):
    # set here while the child runs, and inherited by the child, whose
    # items return it
    parent = os.getpid()
    results = list(fork_map(_pid_and_busy, range(4), 2))
    assert [busy for _, busy in results] == [True] * 4
    assert [pid == parent for pid, _ in results] == [True, True, False, False]
    assert not stochdyn.forks._busy and forks == [1]
    gen = fork_map(_pid_and_busy, range(4), 2)
    assert next(gen) == (parent, True)
    gen.close()
    assert not stochdyn.forks._busy and forks == [1, 1]

    def failing():
        raise OSError("no more processes")

    monkeypatch.setattr(os, "fork", failing)
    assert list(fork_map(_pid_and_busy, range(4), 2)) == [(parent, False)] * 4
    assert not stochdyn.forks._busy


def _modules():
    """(name, syntax tree) of every module of stochdyn but forks."""
    return [(path.stem, ast.parse(path.read_text()))
            for path in sorted(SRC.glob("*.py")) if path.stem != "forks"]


def _process_code(tree) -> list:
    """The imports of _PROCESS_MODULES and the uses of os.fork, os.pipe and
    os._exit in tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.split(".")[0] in _PROCESS_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            root = (node.module or "").split(".")[0]
            if root in _PROCESS_MODULES:
                found.append(node.module)
            elif root == "os":
                found += [f"os.{a.name}" for a in node.names
                          if a.name in _PROCESS_CALLS]
        elif (isinstance(node, ast.Attribute) and node.attr in _PROCESS_CALLS
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(f"os.{node.attr}")
    return found


def _module_names(tree) -> list:
    """The names tree defines at module level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif (isinstance(node, (ast.AnnAssign, ast.AugAssign))
              and isinstance(node.target, ast.Name)):
            names.append(node.target.id)
    return names


def test_process_code_only_in_forks():
    found = {name: _process_code(tree) for name, tree in _modules()}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_split_prices_only_in_forks():
    found = {name: [n for n in _module_names(tree)
                    if "ROW_STEP" in n or "ROUND_TRIP" in n]
             for name, tree in _modules()}
    assert {name: names for name, names in found.items() if names} == {}


def _callers(name: str) -> set:
    """(module, top-level function) of every call of name outside forks,
    as name(...) or x.name(...)."""
    found = set()
    for module, tree in _modules():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    found.add((module, getattr(top, "name", None)))
    return found


def test_one_fork_map_caller_per_job():
    assert _callers("fork_map") == {("ifs", "write_csv_blocks"),
                                    ("acceptance", "run_all")}


def test_one_law_lookup():
    assert _callers("stationary_law") == {("archpotential", "radial_law")}


def test_one_angle_wrap():
    assert _callers("mod") == {("exactnum", "wrap_angle")}


def test_one_record_writer():
    assert _callers("_emit") == {("cli", "_run")}


def test_one_start_guard():
    # every sampled walk's start is refused in one place
    assert _callers("ExceptionalStart") == {("dynsys", "walk_start")}


def test_one_split_walker():
    # the valuation and fiber walks run in one piece; only the backward
    # walker's IFS walk splits, at one price per row-step
    assert _callers("split_walk") == {("orbits", "backward_walk")}
    assert isinstance(stochdyn.forks._ROW_STEP_S, float)
