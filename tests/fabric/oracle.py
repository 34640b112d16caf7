"""Test-only oracle for ``verify_allreduce``: the multiset interpreter.

This is the verifier as it stood before it became a counting argument
over bitmasks: one ``Counter`` of contributing ranks per (rank, chunk),
O(K^3) and therefore only usable on small worlds.  ``test_verify.py``
checks that the two accept and reject the same schedules.
"""

from collections import Counter

from repro.fabric import CollectiveSchedule


def counter_verify_allreduce(schedule: CollectiveSchedule) -> None:
    """Raise ``ValueError`` unless every rank ends holding, for every
    chunk, every rank's contribution exactly once."""
    k = schedule.world_size
    state: list[list[Counter]] = [
        [Counter({rank: 1}) for _ in range(k)] for rank in range(k)
    ]
    for t in schedule.transfers:
        if any(d >= t.index for d in t.deps):
            raise ValueError(
                f"transfer {t.index} depends forward on {t.deps}"
            )
        if not (0 <= t.lo < t.hi <= k):
            raise ValueError(
                f"transfer {t.index} carries bad chunk range "
                f"[{t.lo}, {t.hi}) for {k} chunks"
            )
        expected = sum(schedule.chunk_bytes[t.lo:t.hi])
        if t.nbytes != expected:
            raise ValueError(
                f"transfer {t.index} claims {t.nbytes} bytes but its "
                f"chunks encode to {expected}"
            )
        for chunk in range(t.lo, t.hi):
            payload = state[t.src][chunk]
            if t.op == "reduce":
                state[t.dst][chunk] = state[t.dst][chunk] + payload
            elif t.op == "copy":
                state[t.dst][chunk] = Counter(payload)
            else:
                raise ValueError(
                    f"transfer {t.index} has unknown op {t.op!r}"
                )
    want = Counter({rank: 1 for rank in range(k)})
    for rank in range(k):
        for chunk in range(k):
            got = state[rank][chunk]
            if got != want:
                over = sorted(r for r, n in got.items() if n > 1)
                missing = [r for r in range(k) if r not in got]
                raise ValueError(
                    f"rank {rank} chunk {chunk}: contributions "
                    f"reduced more than once from {over}, missing "
                    f"{missing}"
                )
