"""The Descend language: AST, frontend, type system, code generation, interpreter.

The supported public surface is :mod:`repro.descend.api` — versioned
request/response types, the :class:`~repro.descend.api.LocalBackend`
in-process backend, the :class:`~repro.descend.api.DescendClient` daemon
client, and the canonical compile functions:

>>> from repro.descend.api import compile_source
>>> program = compile_source(source_text)      # parse + typecheck
>>> cuda = program.to_cuda()                   # CUDA C++ source strings
>>> launch = program.kernel("scale_vec").launch(device, {"vec": buf})  # run on the simulator
"""

from repro.descend.nat import Nat, NatConst, NatVar, as_nat
from repro.descend.source import SourceFile, Span

__all__ = [
    "Nat",
    "NatConst",
    "NatVar",
    "as_nat",
    "SourceFile",
    "Span",
    # The supported API surface, loaded lazily to keep bare `import
    # repro.descend` light and cycle-free:
    "api",
    "DescendClient",
    "LocalBackend",
    "Request",
    "Response",
]

_API_NAMES = ("DescendClient", "LocalBackend", "Request", "Response")


def __getattr__(name):
    # PEP 562: `repro.descend.api` pulls in the driver, store and client
    # stack; defer that import until a consumer actually asks for it.
    if name == "api" or name in _API_NAMES:
        import repro.descend.api as api

        if name == "api":
            return api
        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
