"""Every docstring in beaverkit is plain text: no control character but newline."""

import importlib
import inspect
import pkgutil

import beaverkit


def docstrings():
    """(qualified name, docstring) of each module, class, function and method."""
    for info in pkgutil.walk_packages(beaverkit.__path__, "beaverkit."):
        module = importlib.import_module(info.name)
        yield info.name, module.__doc__
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != info.name:
                continue  # imported from elsewhere
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj.__doc__
            elif inspect.isclass(obj):
                yield f"{info.name}.{name}", obj.__doc__
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member):
                        yield f"{info.name}.{name}.{attr}", member.__doc__


def test_no_docstring_holds_a_control_character():
    bad = {
        name: sorted({hex(ord(c)) for c in doc if c < " " and c != "\n"})
        for name, doc in docstrings()
        if doc and any(c < " " and c != "\n" for c in doc)
    }
    assert bad == {}
    assert sum(1 for _ in docstrings()) > 100  # the walk reaches the package
