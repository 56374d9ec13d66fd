"""The package's export list against its modules' export lists."""

import importlib
import inspect
import pkgutil
import re
from collections import Counter

import ucrga
import ucrga.svd

# every public module; __main__ runs the CLI when imported
MODULES = [
    importlib.import_module(f"ucrga.{info.name}")
    for info in pkgutil.iter_modules(ucrga.__path__)
    if not info.name.startswith("_")
]


def test_every_package_export_comes_from_exactly_one_module():
    owners = Counter(name for module in MODULES for name in getattr(module, "__all__", ()))
    assert {name: owners[name] for name in ucrga.__all__} == dict.fromkeys(ucrga.__all__, 1)
    for module in MODULES:
        for name in set(getattr(module, "__all__", ())) & set(ucrga.__all__):
            assert getattr(ucrga, name) is getattr(module, name)


def test_every_module_export_exists():
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__} exports missing {name}"


def test_no_exported_function_takes_a_numerical_knob():
    # the rank cutoff, the balancing tolerance and the sweep cap are constants
    knob = re.compile(r"(\w+_)?tol|max_iter")
    for module in (ucrga, ucrga.svd):
        for name in module.__all__:
            function = getattr(module, name)
            if inspect.isfunction(function):
                knobs = [p for p in inspect.signature(function).parameters if knob.fullmatch(p)]
                assert knobs == [], f"{module.__name__}.{name} takes {knobs}"


def test_no_exported_callable_takes_an_option():
    # a keyword-only parameter or a bool default is a switch on how a function
    # works; size=None and main(argv=None) are inputs, not options. An
    # exception class takes what Python's own exceptions take
    for module in (ucrga, *MODULES):
        for name in getattr(module, "__all__", ()):
            function = getattr(module, name)
            exception = inspect.isclass(function) and issubclass(function, Exception)
            if not callable(function) or exception:
                continue
            parameters = inspect.signature(function).parameters.values()
            options = [
                p.name
                for p in parameters
                if p.kind is p.KEYWORD_ONLY or isinstance(p.default, bool)
            ]
            assert options == [], f"{module.__name__}.{name} takes {options}"
