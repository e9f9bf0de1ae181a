"""Every memo in omnipipe is one that conftest empties before each test.

A memo conftest does not know carries results from one test into the
next, so a test could pass or fail by the order the suite runs in.
"""

import functools
import importlib
import pkgutil

import omnipipe
from conftest import MEMOS


def module_memos():
    """(module.name, memo) for each module-level memo in omnipipe: every
    functools.lru_cache wrapper defined there, and every dict that is not
    an UPPER_CASE constant table (the identity memos)."""
    for info in pkgutil.iter_modules(omnipipe.__path__):
        module = importlib.import_module(f"omnipipe.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            if (isinstance(value, functools._lru_cache_wrapper)
                    and value.__module__ == module.__name__):
                yield f"{module.__name__}.{name}", value
            elif isinstance(value, dict) and not name.isupper():
                yield f"{module.__name__}.{name}", value


def test_every_memo_is_emptied_before_each_test():
    memos = list(module_memos())
    known = {id(memo) for memo in MEMOS}
    assert [name for name, memo in memos if id(memo) not in known] == []
    # and the walk sees the memos it is meant to find
    assert {"omnipipe.sim._drives", "omnipipe.planner._regions",
            "omnipipe.drive.drive_sign"} <= {name for name, _ in memos}
    assert len({id(memo) for _, memo in memos}) == len(MEMOS)
