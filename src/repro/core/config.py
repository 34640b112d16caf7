"""Run configuration: the one declaration of every training knob.

A knob is a :class:`TrainingConfig` field built with :func:`knob`; its
``dataclasses.field`` metadata carries everything the rest of the repo
needs to know about it — help text, ``choices`` or range, whether it
defines the numeric trajectory (``identity``) and which surfaces
(``repro train`` / ``repro trace`` flags, the serve job body) expose
it.  The argparse groups, the value checks below, ``JobSpec``,
``checkpoint.IDENTITY_FIELDS`` and README's knob table are all derived
from that metadata; adding a knob is one field here and nothing else.

Modules that declare knobs need ``from __future__ import annotations``:
the checks read a field's annotation as written (``"int | None"``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields

from ..comm import EXCHANGE_NAMES
from ..quantization import SCHEME_NAMES, validate_scheme
from ..runtime.engine import ENGINE_NAMES

__all__ = [
    "TrainingConfig",
    "ENGINE_NAMES",
    "POLICY_NAMES",
    "SURFACES",
    "SYNC_MODE_NAMES",
    "check_knobs",
    "identity_fields",
    "knob",
    "knobs",
]

#: codec-routing policies: "static" routes every gradient through the
#: configured scheme (plus the small-matrix passthrough); "adaptive"
#: derives a per-layer scheme assignment from layer sizes and kinds
#: (high precision for sensitive conv/norm layers, ternary for fat fc
#: matrices) — deterministic and checkpoint-carried, so resumed runs
#: stay bit-identical
POLICY_NAMES = ("static", "adaptive")

#: periodic-synchronization variants: "allreduce" accumulates local
#: gradients and exchanges the sum once per round; "local_sgd" takes
#: local optimizer steps and averages parameters once per round
SYNC_MODE_NAMES = ("allreduce", "local_sgd")

#: where a knob can be exposed: the two CLI commands and the serve job
#: body (``POST /jobs``)
SURFACES = ("train", "trace", "serve")
_TRAIN = ("train",)
_TRAIN_SERVE = ("train", "serve")

_SCALARS = {
    "int": numbers.Integral,
    "float": numbers.Real,
    "str": str,
    "bool": bool,
}


def knob(
    default,
    help: str,
    *,
    choices: tuple | None = None,
    check=None,
    min=None,
    above=None,
    identity: bool = False,
    surfaces: tuple[str, ...] = (),
    cli: dict | None = None,
):
    """Declare one knob: a dataclass field whose metadata is its schema.

    Args:
        default: the library default (surfaces may override it).
        help: one-line description — CLI help and README's knob table.
        choices: the accepted values, if the knob is an enumeration.
        check: ``callable(value)`` raising ``ValueError`` for values
            a tuple of choices cannot describe (scheme names).
        min / above: inclusive / exclusive lower bound.
        identity: the knob defines the numeric trajectory, so a
            checkpoint only restores under an equal value.
        surfaces: the :data:`SURFACES` that expose the knob.
        cli: extra ``add_argument`` keywords where the flag's spelling
            differs from the value (``flag`` renames the option).
    """
    return field(default=default, metadata={
        "help": help, "choices": choices, "check": check, "min": min,
        "above": above, "identity": identity, "surfaces": tuple(surfaces),
        "cli": cli or {},
    })


def knobs(cls, surface: str | None = None) -> list:
    """The knob fields of ``cls`` (those exposed on ``surface``, if given)."""
    return [
        f for f in fields(cls)
        if "help" in f.metadata
        and (surface is None or surface in f.metadata["surfaces"])
    ]


def identity_fields(cls) -> tuple[str, ...]:
    """Names of the knobs of ``cls`` that define the numeric trajectory."""
    return tuple(f.name for f in knobs(cls) if f.metadata["identity"])


def _conforms(value, kind: str) -> bool:
    """Whether ``value`` is of annotated ``kind`` (lists pass as tuples)."""
    if not kind.startswith("tuple["):
        return isinstance(value, _SCALARS[kind]) and (
            kind == "bool" or not isinstance(value, bool)
        )
    if not isinstance(value, (tuple, list)):
        return False
    inner = kind[len("tuple["):-1]
    if inner.endswith(", ..."):
        return all(_conforms(v, inner.removesuffix(", ...")) for v in value)
    kinds = inner.split(", ")
    return len(value) == len(kinds) and all(map(_conforms, value, kinds))


def check_knobs(obj) -> None:
    """Enforce every knob's declared type, choices and range on ``obj``.

    Tuple knobs arrive from JSON and checkpoints as (nested) lists and
    are normalized back to tuples.
    """
    for f in knobs(type(obj)):
        meta = f.metadata
        value = getattr(obj, f.name)
        kind = f.type.removesuffix(" | None")
        if value is None and kind != f.type:
            continue
        if not _conforms(value, kind):
            raise ValueError(f"{f.name} must be {kind}, got {value!r}")
        if kind.startswith("tuple["):
            value = tuple(
                tuple(v) if isinstance(v, list) else v for v in value
            )
            object.__setattr__(obj, f.name, value)
        if meta["choices"] and value not in meta["choices"]:
            raise ValueError(
                f"unknown {f.name} {value!r}; expected one of "
                f"{meta['choices']}"
            )
        if meta["check"]:
            meta["check"](value)
        if meta["min"] is not None and value < meta["min"]:
            raise ValueError(
                f"{f.name} must be >= {meta['min']}, got {value}"
            )
        if meta["above"] is not None and not value > meta["above"]:
            raise ValueError(
                f"{f.name} must be > {meta['above']}, got {value}"
            )


def _parse_kill_point(value: str) -> tuple[int, int]:
    try:
        rank, step = value.split(":", 1)
        return int(rank), int(step)
    except ValueError:
        raise ValueError(
            f"--kill-point must be RANK:STEP (e.g. 1:6), got {value!r}"
        ) from None


@dataclass
class TrainingConfig:
    """Everything that identifies one cell of the paper's study grid.

    Every field but ``tracer`` is a :func:`knob`; what each one does is
    its ``help`` metadata (rendered as README's knob table and as
    ``repro train --help``).
    """

    scheme: str = knob(
        "32bit", "quantizer: " + ", ".join(SCHEME_NAMES)
        + ", or aqsgd<bits> / topk<density> / terngrad<clip>",
        check=validate_scheme, identity=True, surfaces=SURFACES,
    )
    bucket_size: int | None = knob(
        None, "quantizer bucket size (None = the scheme's tuned default)",
        identity=True,
    )
    exchange: str = knob(
        "mpi", "collective pattern",
        choices=EXCHANGE_NAMES, identity=True, surfaces=SURFACES,
    )
    world_size: int = knob(
        1, "number of simulated GPUs (ranks)",
        min=1, identity=True, surfaces=SURFACES,
    )
    batch_size: int = knob(
        32, "global minibatch size, split across ranks",
        identity=True, surfaces=SURFACES,
    )
    #: kept fixed across world sizes, as the paper tunes it once for
    #: full precision and reuses it
    lr: float = knob(0.05, "learning rate", identity=True, surfaces=SURFACES)
    lr_decay: float = knob(
        1.0, "per-epoch multiplicative LR decay (1.0 = constant)",
        identity=True,
    )
    momentum: float = knob(
        0.9, "SGD momentum (use 0 with --sync-mode local_sgd)",
        identity=True, surfaces=_TRAIN_SERVE,
    )
    weight_decay: float = knob(0.0, "L2 weight decay", identity=True)
    seed: int = knob(
        0, "seed of quantization randomness, shuffling and the dataset",
        identity=True, surfaces=SURFACES,
    )
    requantize_broadcast: bool = knob(
        True, "MPI path re-quantizes aggregated ranges before broadcast "
        "(CNTK behaviour)", identity=True,
    )
    passthrough_coverage: float = knob(
        0.99, "fraction of parameters that must stay quantized when "
        "choosing the small-matrix passthrough threshold", identity=True,
    )
    norm: str = knob(
        "inf", "QSGD scaling norm", choices=("inf", "l2"), identity=True
    )
    variant: str = knob(
        "sign", "QSGD level layout", choices=("sign", "grid"), identity=True
    )
    #: see :data:`POLICY_NAMES`
    policy: str = knob(
        "static", "bit-width policy; 'adaptive' picks a per-layer scheme "
        "from layer size and kind (--scheme is the middle precision tier)",
        choices=POLICY_NAMES, identity=True, surfaces=_TRAIN_SERVE,
    )
    #: the paper's Section 5.1 "Impact of Layer Types" analysis toggles
    #: this, e.g. ("conv",) or ("fc", "rnn")
    quantize_kinds: tuple[str, ...] | None = knob(
        None, "quantize only these parameter kinds (None = every kind)",
        identity=True,
    )
    #: N=1 is the classic fully-synchronous path and stays bit-identical
    #: to it; N>1 accumulates local gradients (sync_mode "allreduce") or
    #: takes local optimizer steps ("local_sgd") and runs the quantized
    #: exchange once per round, cutting wire traffic ~N-fold
    aggregation_frequency: int = knob(
        1, "micro-steps per synchronization round (N=1 exchanges every "
        "step)", min=1, identity=True, surfaces=SURFACES,
        cli={"metavar": "N"},
    )
    #: see :data:`SYNC_MODE_NAMES`; local_sgd requires momentum 0 —
    #: per-rank momentum on diverged replicas has no synchronous-SGD
    #: equivalent
    sync_mode: str = knob(
        "allreduce", "what a round exchanges: accumulated gradients, or "
        "(local_sgd, needs --momentum 0) averaged parameters",
        choices=SYNC_MODE_NAMES, identity=True, surfaces=_TRAIN_SERVE,
    )
    engine: str = knob(
        "sequential", "execution engine: rank loop, thread per rank, or "
        "OS process per rank (all three are bit-identical)",
        choices=ENGINE_NAMES, surfaces=SURFACES,
    )
    #: distinct from the quantizer's element-count ``bucket_size``
    comm_bucket_bytes: int = knob(
        1 << 16, "coalescing cap of the runtime's gradient buckets",
        min=1, identity=True,
    )
    barrier_timeout: float = knob(
        30.0, "seconds before a rank missing at a step barrier or bucket "
        "rendezvous is declared failed", above=0, surfaces=_TRAIN,
    )
    #: each rank's encoded upload occupies a per-rank FIFO link (the
    #: bandwidth term of a ring allreduce).  A rank reserves its link
    #: the moment backward finishes a bucket and keeps computing; the
    #: bucket's collective waits for the bytes to arrive, so on the
    #: threaded and process engines wire time hides behind the rank's
    #: own backward and a step costs t_f + max(t_b, first-bucket
    #: latency + t_wire) + tail.  The sequential engine pays every
    #: rank's wire time serially.  Wall-clock only, never the numerics.
    link_gbps: float | None = knob(
        None, "pace collectives at this simulated link rate",
        above=0, surfaces=SURFACES,
    )
    straggler_ranks: tuple[int, ...] = knob(
        (), "ranks delayed by --straggler-delay every step",
        surfaces=_TRAIN, cli={"nargs": "*", "type": int},
    )
    straggler_delay: float = knob(
        0.0, "seconds each straggler rank is delayed per step",
        min=0, surfaces=_TRAIN,
    )
    crash_rank: int | None = knob(
        None, "rank to crash at --crash-step (fault-injection demo)",
        surfaces=_TRAIN,
    )
    crash_step: int | None = knob(
        None, "global step of the injected crash (None = every step)",
        surfaces=_TRAIN,
    )
    crash_transient: bool = knob(
        False, "the injected crash fires only on a step's first attempt, "
        "so a retried step succeeds", surfaces=_TRAIN,
    )
    #: a real SIGKILL under the process engine; the in-process engines
    #: degrade each point to an injected crash so a grid cell keeps one
    #: meaning everywhere.  Kills fire once, so they are always
    #: recoverable with ``max_retries >= 1``.
    kill_points: tuple[tuple[int, int], ...] = knob(
        (), "kill this rank outright at this step (repeatable)",
        surfaces=_TRAIN, cli={
            "flag": "--kill-point", "action": "append",
            "type": _parse_kill_point, "metavar": "RANK:STEP",
        },
    )
    max_retries: int = knob(
        0, "re-attempts per failed step before escalating (0 = fail fast)",
        min=0, surfaces=_TRAIN,
    )
    retry_backoff: float = knob(
        0.05, "base backoff seconds between retries (doubles per retry)",
        min=0, surfaces=_TRAIN,
    )
    retry_backoff_max: float = knob(2.0, "ceiling of the retry backoff")
    retry_jitter: float = knob(
        0.1, "fraction of the backoff added as deterministic jitter", min=0
    )
    #: the eviction is recorded as a TopologyChange on the run's History
    allow_degraded: bool = knob(
        False, "evict a rank that exhausts its retries and continue on "
        "the survivors (resharded batch, reweighted gradient mean)",
        surfaces=_TRAIN,
    )
    min_world_size: int = knob(
        1, "smallest live world --allow-degraded may shrink to",
        surfaces=_TRAIN,
    )
    # a repro.telemetry.Tracer recording spans and counters on the live
    # path (None = the shared no-op NULL_TRACER); observation-only, so
    # it is no knob and is excluded from equality and repr
    tracer: object | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_knobs(self)
        if self.batch_size < self.world_size:
            raise ValueError(
                "global batch_size must be >= world_size "
                f"({self.batch_size} < {self.world_size})"
            )
        if self.sync_mode == "local_sgd" and self.momentum != 0.0:
            raise ValueError(
                f"sync_mode 'local_sgd' requires momentum=0.0, got "
                f"momentum={self.momentum}; per-rank momentum on diverged "
                "replicas has no synchronous-SGD equivalent"
            )
        ranks = [("straggler rank", r) for r in self.straggler_ranks]
        if self.crash_rank is not None:
            ranks.append(("crash_rank", self.crash_rank))
        for rank, step in self.kill_points:
            ranks.append(("kill point rank", rank))
            if step < 0:
                raise ValueError(f"kill point step must be >= 0, got {step}")
        for what, rank in ranks:
            if not 0 <= rank < self.world_size:
                raise ValueError(
                    f"{what} {rank} outside world of {self.world_size}"
                )
        if self.retry_backoff_max < self.retry_backoff:
            raise ValueError(
                f"retry_backoff_max ({self.retry_backoff_max}) must be >= "
                f"retry_backoff ({self.retry_backoff})"
            )
        if not 1 <= self.min_world_size <= self.world_size:
            raise ValueError(
                f"min_world_size must be in [1, {self.world_size}], got "
                f"{self.min_world_size}"
            )

    @property
    def label(self) -> str:
        """Short human-readable cell label, e.g. 'qsgd4/mpi/8gpu'."""
        return f"{self.scheme}/{self.exchange}/{self.world_size}gpu"
