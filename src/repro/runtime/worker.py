"""Per-rank worker: model replica, RNG stream, compute, and update.

Each rank owns a full model replica (as every GPU does in real
data-parallel training), a deterministic per-rank RNG stream for any
stochastic layers (dropout), and its own optimizer instance.  Because
every rank applies the *same* aggregated gradient to the *same*
starting parameters, replicas remain bit-identical after every step —
the synchronous-SGD invariant, asserted by the runtime tests.

The worker is engine-agnostic: the sequential engine calls
:meth:`RankWorker.compute` inline in rank order, the threaded engine
from a dedicated thread, the process engine in the rank's own process;
every engine then carries out the step's verdict through
:meth:`RankWorker.settle`.  Bit-identity between the engines falls out
of all of them running this exact code per rank.
"""

from __future__ import annotations

import copy
from typing import Callable, Iterable, Mapping

import numpy as np

from ..nn.loss import accuracy as _accuracy
from ..nn.module import Module, Parameter, Sequential
from ..optim import Sgd
from ..statetree import StateError, copy_into

__all__ = [
    "RankWorker",
    "clone_module",
    "collect_module_buffers",
    "collect_module_rngs",
    "reseed_module_rngs",
]

LossFn = Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]]
ReadyHook = Callable[[Iterable[str]], None]


def clone_module(module: Module) -> Module:
    """Deep-copy a model into an independent replica."""
    return copy.deepcopy(module)


def _module_state_attributes(module: Module) -> list[tuple[Module, str, object]]:
    """Every ``Generator`` / ``ndarray`` attribute in ``module``'s tree.

    One walk (attributes, nested modules, lists/tuples) in one fixed
    order, as ``(owner, attribute name, value)``: two replicas of the
    same architecture enumerate the same positions, which is what lets
    RNG streams be seeded, and RNG and buffer state be keyed, by
    position.
    """
    found: list[tuple[Module, str, object]] = []

    def visit(node: object) -> None:
        if isinstance(node, Module):
            for name, value in vars(node).items():
                if isinstance(value, (np.random.Generator, np.ndarray)):
                    found.append((node, name, value))
                else:
                    visit(value)
        elif isinstance(node, (list, tuple)):
            for item in node:
                visit(item)

    visit(module)
    return found


def reseed_module_rngs(module: Module, seed: int, rank: int) -> int:
    """Give every RNG inside ``module`` a deterministic per-rank stream.

    Replaces each ``np.random.Generator`` attribute in the module tree
    with a fresh generator seeded from ``(seed, rank, position)``.
    Ranks therefore draw *different* dropout masks (as real replicas
    do) while any two engines running the same rank draw *identical*
    ones.

    Returns the number of generators replaced.
    """
    counter = 0
    for owner, name, value in _module_state_attributes(module):
        if isinstance(value, np.random.Generator):
            stream = np.random.SeedSequence([seed, rank, counter])
            setattr(owner, name, np.random.default_rng(stream))
            counter += 1
    return counter


def collect_module_rngs(module: Module) -> list[np.random.Generator]:
    """Every RNG inside ``module``, in the reseeding walk's order.

    The list positions line up with :func:`reseed_module_rngs`'s
    ``(seed, rank, position)`` streams — which is what lets the state
    tree capture and restore per-rank RNG state positionally.
    """
    return [
        value
        for _, _, value in _module_state_attributes(module)
        if isinstance(value, np.random.Generator)
    ]


def collect_module_buffers(module: Module) -> list[tuple[Module, str]]:
    """Every non-parameter array buffer inside ``module``, in walk order.

    Buffers are the persistent arrays a layer keeps *outside* its
    :class:`Parameter` objects — batchnorm's ``running_mean`` /
    ``running_var`` — found as public ``numpy`` array attributes on a
    module (underscore-prefixed attributes are transient per-step
    caches and excluded).  Two replicas of the same architecture
    enumerate their buffers in the same positional order, which is what
    lets :meth:`RankWorker.state_dict` key them by position and load
    them into another replica of the architecture.
    """
    return [
        (owner, name)
        for owner, name, value in _module_state_attributes(module)
        if isinstance(value, np.ndarray) and not name.startswith("_")
    ]


class RankWorker:
    """State and per-step compute of one simulated rank.

    Attributes:
        rank: 0-based rank id.
        model: this rank's model replica.
        parameters: the replica's parameters, in stable model order.
        optimizer: this rank's SGD instance (momentum state lives per
            replica; identical inputs keep replicas bit-identical).
        loss / accuracy / samples: results of the last compute phase
            (``None`` / 0 when the rank received an empty shard).
    """

    #: :meth:`state_dict` keys every live replica holds identically
    #: between rounds (stored once per run) ...
    SHARED_STATE = ("params", "velocity")
    #: ... and the keys only this rank holds: its module RNG streams
    #: and the buffers its own forward passes update (batchnorm running
    #: statistics).  A forward pass moves these, so they are the part
    #: of a rank an uncommitted step attempt can change.
    RANK_STATE = ("rngs", "buffers")

    def __init__(
        self,
        rank: int,
        model: Module,
        loss_fn: LossFn,
        lr: float,
        momentum: float,
        weight_decay: float,
        label: str,
    ):
        self.rank = rank
        self.model = model
        self.loss_fn = loss_fn
        self.label = label
        self.parameters: list[Parameter] = model.parameters()
        self.param_by_name = {p.name: p for p in self.parameters}
        self.optimizer = Sgd(
            lr=lr, momentum=momentum, weight_decay=weight_decay
        )
        self.loss: float | None = None
        self.accuracy: float | None = None
        self.samples: int = 0

    # -- state tree -------------------------------------------------------
    def state_dict(
        self, keys: tuple[str, ...] = SHARED_STATE + RANK_STATE
    ) -> dict:
        """Copies of this rank's state, one subtree per requested key."""
        build = {
            "params": lambda: {p.name: p.data.copy() for p in self.parameters},
            "velocity": self.optimizer.state_dict,
            "rngs": lambda: [
                copy.deepcopy(gen.bit_generator.state)
                for gen in collect_module_rngs(self.model)
            ],
            "buffers": lambda: {
                str(i): getattr(owner, name).copy()
                for i, (owner, name) in enumerate(
                    collect_module_buffers(self.model)
                )
            },
        }
        return {key: build[key]() for key in keys}

    def load_state_dict(self, state: dict) -> None:
        """Load whichever :meth:`state_dict` subtrees ``state`` carries.

        Everything is copied in place, so two workers loaded from one
        tree share nothing and shm-backed arrays stay where they are.
        """
        where = f"ranks/{self.rank}"

        def same_count(held: list, saved, what: str) -> None:
            if len(held) != len(saved):
                raise StateError(
                    f"{where}/{what} holds {len(saved)} entries, "
                    f"the model has {len(held)}"
                )

        if "params" in state:
            for param in self.parameters:
                copy_into(param.data, state["params"], param.name, "params")
        if "velocity" in state:
            self.optimizer.load_state_dict(state["velocity"])
        if "rngs" in state:
            generators = collect_module_rngs(self.model)
            same_count(generators, state["rngs"], "rngs")
            for gen, saved in zip(generators, state["rngs"]):
                gen.bit_generator.state = copy.deepcopy(saved)
        if "buffers" in state:
            buffers = collect_module_buffers(self.model)
            same_count(buffers, state["buffers"], "buffers")
            for i, (owner, name) in enumerate(buffers):
                copy_into(
                    getattr(owner, name), state["buffers"], str(i),
                    f"{where}/buffers",
                )

    # -- compute phase ----------------------------------------------------
    def compute(
        self,
        x: np.ndarray,
        y: np.ndarray,
        on_ready: ReadyHook | None = None,
        grad_scale: float | None = None,
    ) -> None:
        """Forward/backward on this rank's shard of the global batch.

        ``on_ready`` is invoked with parameter names as their
        gradients become final (per top-level layer, in backward
        order), enabling bucketed exchange to overlap with the rest of
        the backward pass.  Gradients are left in each parameter's
        ``grad`` buffer; an empty shard yields zero gradients.

        ``grad_scale`` multiplies every gradient before it is
        announced — a degraded collective reweights uneven shards this
        way so the aggregated mean stays the exact global-batch mean.
        """
        self.loss = None
        self.accuracy = None
        self.samples = int(x.shape[0])
        self.model.zero_grad()
        if self.samples == 0:
            if on_ready is not None:
                on_ready([p.name for p in self.parameters])
            return
        logits = self.model.forward(x, training=True)
        loss, dlogits = self.loss_fn(logits, y)
        if not np.isfinite(loss):
            raise FloatingPointError(
                f"training diverged: non-finite loss under "
                f"{self.label} (lower the learning rate or "
                "use a less aggressive quantizer)"
            )
        self.loss = float(loss)
        self.accuracy = float(_accuracy(logits, y))
        self._backward(dlogits, on_ready, grad_scale)

    def _backward(
        self,
        dlogits: np.ndarray,
        on_ready: ReadyHook | None,
        grad_scale: float | None = None,
    ) -> None:
        """Backward pass, announcing gradient readiness layer by layer.

        For :class:`Sequential` models each top-level layer (including
        composite blocks) is announced as soon as its backward
        completes; other model classes are announced wholesale.  Any
        ``grad_scale`` is applied to a layer's gradients *before* the
        layer is announced, so overlapped exchanges always consume
        scaled gradients.
        """
        if on_ready is None and grad_scale is None:
            self.model.backward(dlogits)
            return
        if isinstance(self.model, Sequential):
            dout = dlogits
            for layer in reversed(self.model.layers):
                dout = layer.backward(dout)
                params = layer.parameters()
                if grad_scale is not None:
                    for param in params:
                        param.grad *= grad_scale
                if params and on_ready is not None:
                    on_ready([p.name for p in params])
        else:
            self.model.backward(dlogits)
            if grad_scale is not None:
                for param in self.parameters:
                    param.grad *= grad_scale
            if on_ready is not None:
                on_ready([p.name for p in self.parameters])

    # -- update phase -----------------------------------------------------
    def apply_updates(self, aggregated: Mapping[str, np.ndarray]) -> None:
        """Apply the aggregated gradients to this rank's replica."""
        for param in self.parameters:
            self.optimizer.apply(param, aggregated[param.name])

    def settle(
        self,
        verdict: str,
        mean: Mapping[str, np.ndarray] | None = None,
        grads: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        """Carry out one step's verdict on this replica.

        ``apply``: step on the aggregated gradient ``mean``.  ``local``
        (local SGD): step on this rank's own gradients — ``grads``
        where they are held, by default its own buffers.
        ``install`` (local SGD, round flush): adopt the averaged
        parameters ``mean``.  ``skip`` (accumulating mid-round): the
        replica does not move.
        """
        if verdict == "apply":
            self.apply_updates(mean)
        elif verdict == "local":
            self.apply_updates(self.grads if grads is None else grads)
        elif verdict == "install":
            for param in self.parameters:
                np.copyto(param.data, mean[param.name])

    @property
    def grads(self) -> dict[str, np.ndarray]:
        """This rank's gradient buffers, by parameter name."""
        return {param.name: param.grad for param in self.parameters}
