"""The memo policy: every memo in omnipipe is a bounded functools.lru_cache
keyed by the arguments of the pure function it wraps, and conftest empties
each of them before every test.

A memo conftest does not know carries results from one test into the
next, so a test could pass or fail by the order the suite runs in.  A
module-level dict would be a memo outside the policy: unbounded, or keyed
by something other than value.
"""

import functools
import importlib
import pkgutil

import omnipipe
from conftest import MEMOS


def module_values():
    """(module.name, value) for each module-level name in omnipipe."""
    for info in pkgutil.iter_modules(omnipipe.__path__):
        module = importlib.import_module(f"omnipipe.{info.name}")
        for name, value in vars(module).items():
            if not name.startswith("__"):
                yield module, f"{module.__name__}.{name}", value


def module_memos():
    """(module.name, memo) for each functools.lru_cache wrapper defined in
    an omnipipe module."""
    for module, name, value in module_values():
        if (isinstance(value, functools._lru_cache_wrapper)
                and value.__module__ == module.__name__):
            yield name, value


def test_no_module_keeps_a_dict_that_is_not_a_constant():
    assert [name for _, name, value in module_values()
            if isinstance(value, dict)
            and not name.rpartition(".")[2].isupper()] == []


def test_every_memo_is_bounded():
    assert [name for name, memo in module_memos()
            if memo.cache_parameters()["maxsize"] is None] == []


def test_every_memo_is_emptied_before_each_test():
    assert {name for name, _ in module_memos()} == {
        "omnipipe.drive.drive_sign", "omnipipe.planner._tee_turn",
        "omnipipe.planner._drive_command", "omnipipe.planner._roll_command",
        "omnipipe.singularity.sweep_t_junction", "omnipipe.sim._twist",
        "omnipipe.sim._derived_set"}
    assert ({id(memo) for _, memo in module_memos()}
            == {id(memo) for memo in MEMOS})
    assert len(MEMOS) == 7
