"""The state tree: one inventory of everything a run's trajectory is.

Every stateful object — ``Sgd``, the exchange, ``SynchronousStep``,
``RankWorker``, the engine, the trainer — has exactly one
``state_dict()`` / ``load_state_dict()`` pair, and the pairs compose
into one nested ``dict[str, ...]`` whose leaves are ndarrays or JSON
values.  ``state_dict()`` returns copies; ``load_state_dict()`` copies
in (in place where a same-shape buffer exists), so a tree never aliases
live state and loading one tree into two objects never aliases them to
each other.  Retry rollback, checkpoints, process-engine shadows and
eviction all read this tree instead of listing fields; this module is
the little they share.
"""

from __future__ import annotations

from urllib.parse import quote, unquote

import numpy as np

__all__ = ["StateError", "flatten", "unflatten", "load_arrays", "copy_into"]


class StateError(ValueError):
    """A state tree does not fit the object it is being loaded into."""


def flatten(tree: dict, prefix: str = "") -> dict[str, object]:
    """``{"a": {"b": leaf}}`` -> ``{"a/b": leaf}``.

    Keys are percent-quoted, so a ``/`` inside one (the MPI exchange's
    ``"<param>/range<k>"`` streams) survives the round trip.  An empty
    dict is a leaf: it is a JSON value, and dropping it would lose the
    key.
    """
    flat: dict[str, object] = {}
    for key, value in tree.items():
        path = prefix + quote(str(key), safe="")
        if isinstance(value, dict) and value:
            flat.update(flatten(value, path + "/"))
        else:
            flat[path] = value
    return flat


def unflatten(flat: dict[str, object]) -> dict:
    """Inverse of :func:`flatten`."""
    tree: dict = {}
    for path, value in flat.items():
        *parents, leaf = (unquote(part) for part in path.split("/"))
        node = tree
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = value
    return tree


def load_arrays(
    target: dict[str, np.ndarray], source: dict[str, np.ndarray]
) -> None:
    """Make ``target`` hold exactly ``source``'s arrays, by value.

    A same-shape buffer already in ``target`` is overwritten in place,
    so arena- and shm-backed buffers stay where they are; anything else
    is a fresh copy, never ``source``'s own array.
    """
    for name in [name for name in target if name not in source]:
        del target[name]
    for name, value in source.items():
        held = target.get(name)
        if held is not None and held.shape == np.shape(value):
            np.copyto(held, value)
        else:
            target[name] = np.array(value, copy=True)


def copy_into(held: np.ndarray, tree: dict, key: str, where: str) -> None:
    """``held[...] = tree[key]``, or a :class:`StateError` naming the path."""
    if key not in tree:
        raise StateError(f"state tree lacks {where}/{key}")
    value = tree[key]
    if np.shape(value) != held.shape:
        raise StateError(
            f"{where}/{key} has shape {np.shape(value)}, expected {held.shape}"
        )
    np.copyto(held, value)
