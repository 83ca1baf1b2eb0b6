"""Every defaulted parameter of the package's functions and methods, against a reviewed list.

A default is an option a caller may set.  One that no caller sets is a fork
the tests must still cover, so a new one is added here on purpose or not at
all.  Fields of dataclasses and named tuples are data, not options, and are
not listed: their generated ``__init__`` and ``__new__`` are defined in no
source file of the package.
"""

import importlib
import inspect
import pkgutil

import auctionbench

OPTIONS = [
    "cli.main(argv)",
    "decomposition.lemma_chain_check(tol)",
    "decomposition.main_theorem_verdict(tol)",
    "dist.ScalarDistribution.from_atoms(renorm_tol)",
    "dist.chebyshev_check(tol)",
    "dist.make_rng(stream)",
    "dist.variance_ub_check(tol)",
    "duality.verify_dual_certificate(mechanism)",
    "generators.random_item(max_support)",
    "generators.random_item(max_value)",
    "generators.random_regular_item(max_support)",
    "generators.random_regular_item(max_value)",
    "generators.random_setting(max_bidders)",
    "generators.random_setting(max_ghosts)",
    "generators.random_setting(max_items)",
    "generators.random_setting(max_support)",
    "generators.random_setting(max_value)",
    "generators.random_setting(regular_only)",
    "iu.step2_inequality_check(tol)",
    "report.CheckRecord.leq(tol)",
    "report.holds_leq(tol)",
    "simple_auctions.bulow_klemperer_check(tol)",
]


def defined_functions(module):
    """(qualified name, function) for each function and method written in `module`'s source file."""
    for name, obj in vars(module).items():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member
        elif inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def census() -> list[str]:
    found = []
    for info in pkgutil.iter_modules(auctionbench.__path__):
        module = importlib.import_module(f"auctionbench.{info.name}")
        for qualname, fn in defined_functions(module):
            if fn.__code__.co_filename != module.__file__:
                continue
            for param in inspect.signature(fn).parameters.values():
                if param.default is not inspect.Parameter.empty:
                    found.append(f"{info.name}.{qualname}({param.name})")
    return sorted(found)


def test_defaulted_parameters_are_the_reviewed_options():
    assert census() == OPTIONS
