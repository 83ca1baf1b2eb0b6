"""Every public function and method of the package that no source file of the package calls, against a reviewed list.

A function that nothing in ``src/`` names runs only for the tests, the
benchmark's tracer or an outside caller, so it is kept on purpose or
deleted.  A name counts as called when any source file of the package reads
it, as a bare name or as an attribute, other than in its own ``def``; a
method that shares its name with one in use is therefore not listed.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import auctionbench
from test_option_census import defined_functions

# The traced ones are named in perfbench/tracing.py's TARGETS and stay until the
# benchmark drops them (ROADMAP items 5 and 11); the rest are exported for the tests.
UNCALLED = [
    "decomposition.surplus_event_probability",  # traced; the Surplus tests' rival event
    "dist.ScalarDistribution.convolve",  # traced; the tests' per-M utility fold
    "dist.ScalarDistribution.map_through",  # traced; the tests' per-item utility laws
    "dist.chebyshev_check",  # acceptance and dist tests
    "dist.variance_ub_check",  # acceptance and dist tests
    "duality.verify_dual_certificate",  # acceptance and duality tests
    "simple_auctions.ronen_bound",  # traced; the Ronen-floor tests
    "simple_auctions.ronen_r_star",  # traced; the tests' per-item posted price
]


def names_read() -> set[str]:
    """Every name the package's source files read, as a bare name or an attribute."""
    names = set()
    for path in Path(auctionbench.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def census() -> list[str]:
    read = names_read()
    found = []
    for info in pkgutil.iter_modules(auctionbench.__path__):
        module = importlib.import_module(f"auctionbench.{info.name}")
        for qualname, fn in defined_functions(module):
            public = not any(part.startswith("_") for part in qualname.split("."))
            if public and fn.__code__.co_filename == module.__file__ and fn.__name__ not in read:
                found.append(f"{info.name}.{qualname}")
    return sorted(found)


def test_uncalled_functions_are_the_reviewed_list():
    assert census() == UNCALLED
