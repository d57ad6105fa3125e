#!/usr/bin/env python3
"""Regenerate the identity manifest ``tests/data/golden_digests.json``.

The manifest maps ``<run>/<kind>`` to the sha256 of one artifact of one
``repro run`` at ``--fast``, seed 0, ``--jobs 1``:

* ``<run>`` is every registry experiment (``repro list``), plus
  :data:`FAULT_RUN`, a fig1a campaign under message loss;
* ``<kind>`` is ``out`` (the ``--out`` report), ``metrics``, ``trace``
  and ``journal``.  The fault campaign records ``out`` and ``journal``
  only.

Each run is a ``python -m repro run`` child process in its own
temporary directory, with every ``REPRO_*`` variable cleared and
``REPRO_CODE_VERSION`` pinned, so the bytes depend only on the code.
Children fan out over every CPU; each artifact is deleted as soon as it
is hashed.  The manifest is rewritten in place and the added, removed
and changed entries are printed, so "bytes unchanged" is an empty diff.

Run from anywhere, with no arguments::

    python tools/golden_digests.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "data" / "golden_digests.json"

#: Journals stamp the code version; pin it so only semantics show.
CODE_VERSION = "golden-digests"

#: The fault campaign: (run name, experiment, extra ``repro run`` flags).
FAULT_RUN = ("fig1a+fault", "fig1a",
             ("--fault", "loss:loss_rate=0.05,start=0,duration=1",
              "--fault-seed", "7"))

#: Artifact kind -> (``repro run`` flag, file name in the run directory).
ARTIFACTS = {
    "out": ("--out", "out.md"),
    "metrics": ("--metrics", "metrics.json"),
    "trace": ("--trace", "trace.json"),
    "journal": ("--journal", "journal.jsonl"),
}

Run = Tuple[str, str, Tuple[str, ...], Tuple[str, ...]]


def runs() -> List[Run]:
    """Every manifest run as ``(run, experiment, flags, kinds)``."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from repro.core import registry

    out: List[Run] = [(name, name, (), tuple(ARTIFACTS))
                      for name in registry.names()]
    run, experiment, flags = FAULT_RUN
    out.append((run, experiment, flags, ("out", "journal")))
    return out


def _child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["REPRO_CODE_VERSION"] = CODE_VERSION
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def digest_run(run: Run) -> Dict[str, str]:
    """Run one manifest entry in a child process; its digests by key."""
    name, experiment, flags, kinds = run
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        cmd = [sys.executable, "-m", "repro", "run", experiment, "--fast",
               "--jobs", "1", *flags]
        for kind in kinds:
            cmd += ARTIFACTS[kind]
        proc = subprocess.run(cmd, cwd=tmp, env=_child_env(),
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{name}: `{' '.join(cmd[1:])}` exited "
                               f"{proc.returncode}:\n{proc.stderr}")
        digests = {}
        for kind in kinds:
            path = Path(tmp) / ARTIFACTS[kind][1]
            with open(path, "rb") as fh:
                digests[f"{name}/{kind}"] = \
                    hashlib.file_digest(fh, "sha256").hexdigest()
            path.unlink()
        return digests


def diff_manifests(old: Dict[str, str], new: Dict[str, str]) -> List[str]:
    """One ``added``/``removed``/``changed`` line per differing key."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in old:
            lines.append(f"added    {key}")
        elif key not in new:
            lines.append(f"removed  {key}")
        elif old[key] != new[key]:
            lines.append(f"changed  {key}")
    return lines


def main() -> int:
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        results = list(pool.map(digest_run, runs()))
    new = {key: digest for digests in results
           for key, digest in digests.items()}
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    MANIFEST.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    lines = diff_manifests(old, new)
    for line in lines:
        print(line)
    print(f"{MANIFEST.relative_to(ROOT)}: {len(new)} entries, "
          f"{len(lines)} differ from the previous manifest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
