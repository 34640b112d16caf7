"""Kernel backend registry for the quantization hot path.

The hot kernels of the encode/exchange path — bitpack pack/unpack,
QSGD stochastic encode, QSGD decode, the fused decode-accumulate
behind :class:`~repro.quantization.bucketed.BucketSumDecoder`, and the
1bitSGD encode (sign words plus pos/neg means) and decode(-accumulate)
— are provided by interchangeable *backends* with identical signatures
and byte-for-byte identical output:

``cext``
    ``_kernels.c`` compiled on first use with the system C compiler
    and called through ctypes (:mod:`._cext`).  Available when a
    working ``cc`` is on PATH.
``numpy``
    The pure-numpy reference (:mod:`._numpy`); always available.
    This backend defines the bit pattern ``cext`` must match.

Selection happens once, on first use: the ``REPRO_KERNELS``
environment variable (``cext`` or ``numpy``) forces a backend —
raising immediately if the forced backend cannot load — and without it
the registry auto-selects ``cext``, falling back to ``numpy`` when the
C backend cannot build.  :func:`requested_backend` checks the variable
without loading anything, so a command can refuse an unknown name
before it starts work.  Callers dispatch per call via
:func:`active`, so the test suite can pin backends with
:func:`use_backend` without re-importing anything.

Bit-identity across backends is enforced by
``tests/quantization/test_kernels.py`` over the full
scheme×bits×bucket×shape grid and the 1bitSGD group-length × layout
grid, including the RNG-consuming stochastic rounding: the uniform
draws are made by the caller with the run's
:class:`numpy.random.Generator` and passed *into* the kernels, so
every backend consumes the identical stream.
"""

from __future__ import annotations

import importlib
import os
from contextlib import contextmanager

__all__ = [
    "active",
    "backend_name",
    "available_backends",
    "requested_backend",
    "set_backend",
    "use_backend",
    "BACKEND_ORDER",
]

#: auto-selection preference, fastest first
BACKEND_ORDER = ("cext", "numpy")

_active = None
#: backend name -> repr of the exception that kept it from loading
_load_errors: dict[str, str] = {}


def _try_load(name: str):
    try:
        return importlib.import_module(f"._{name}", __name__)
    except Exception as exc:  # missing dep / no compiler / build failure
        # only the text: the exception's traceback would pin every frame
        # of whoever first asked for a kernel -- mid-exchange, that is
        # the process engine's shared-memory gradient views
        _load_errors[name] = repr(exc)
        return None


def requested_backend() -> str:
    """The backend ``REPRO_KERNELS`` forces (``""``: auto-select).

    Raises ``ValueError`` listing the choices for an unknown name; loads
    nothing.
    """
    forced = os.environ.get("REPRO_KERNELS", "").strip().lower()
    if forced and forced not in BACKEND_ORDER:
        raise ValueError(
            f"REPRO_KERNELS={forced!r}: unknown backend "
            f"(choose from {', '.join(BACKEND_ORDER)})"
        )
    return forced


def _select():
    forced = requested_backend()
    if forced:
        module = _try_load(forced)
        if module is None:
            raise RuntimeError(
                f"REPRO_KERNELS={forced!r} requested but the backend "
                f"failed to load: {_load_errors[forced]}"
            )
        return module
    for name in BACKEND_ORDER:
        module = _try_load(name)
        if module is not None:
            return module
    raise AssertionError("unreachable: the numpy backend always imports")


def active():
    """The selected backend module (selects on first call, then cached)."""
    global _active
    if _active is None:
        _active = _select()
    return _active


def backend_name() -> str:
    """Name of the active backend: ``"cext"`` or ``"numpy"``."""
    return active().name


def available_backends() -> tuple[str, ...]:
    """Backends that load in this environment (probes each once)."""
    return tuple(n for n in BACKEND_ORDER if _try_load(n) is not None)


def set_backend(name: str) -> str:
    """Force ``name`` as the active backend; returns the previous name.

    Test/bench hook: raises if the backend cannot load.  Prefer
    :func:`use_backend` for scoped switches.
    """
    global _active
    if name not in BACKEND_ORDER:
        raise ValueError(
            f"unknown kernel backend {name!r} "
            f"(choose from {', '.join(BACKEND_ORDER)})"
        )
    module = _try_load(name)
    if module is None:
        raise RuntimeError(
            f"kernel backend {name!r} is not available here: "
            f"{_load_errors[name]}"
        )
    previous = backend_name()
    _active = module
    return previous


@contextmanager
def use_backend(name: str):
    """Context manager pinning the active backend within a ``with`` block."""
    previous = set_backend(name)
    try:
        yield active()
    finally:
        set_backend(previous)
