"""Writes the v1 checkpoint fixtures.  Run ONCE, at the parent commit
(37b8c44, the last one with the v1 writer):

    PYTHONPATH=src python tests/core/fixtures_v1/make_fixtures.py

Each cell trains to the end with a checkpoint after every step, keeps
one mid-run file, resumes from it with that commit's own code and
records the resumed run's ``History.digest()`` in ``digests.json``.
"""
import json, shutil, sys, tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from cells import CELLS, build  # noqa: E402

from repro.core import CheckpointPolicy  # noqa: E402

here, digests = Path(__file__).resolve().parent, {}
for name, cell in CELLS.items():
    with tempfile.TemporaryDirectory() as tmp:
        policy = CheckpointPolicy(tmp, every_steps=1, every_epochs=None, keep=None)
        with build(cell, faults=True) as trainer:
            whole = trainer.fit(*cell["data"], epochs=cell["epochs"], checkpoint=policy)
        shutil.copy(Path(tmp) / f"ckpt-{cell['step']:08d}.npz", here / f"{name}.npz")
    with build(cell, faults=False) as trainer:
        resumed = trainer.fit(*cell["data"], epochs=cell["epochs"], resume_from=here / f"{name}.npz")
    assert resumed.digest() == whole.digest(), name
    digests[name] = resumed.digest()
(here / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
