"""Regenerate this fixture: a recovery directory left by a crashed runner.

The directory is an artefact of the code *before* the runner took its
deliveries from the engine (commit 5d5de37): its format-1 checkpoint
carries the whole results/emissions history.  Run it from a checkout of
that commit so the bytes are that code's, then update PROVENANCE.json:

    PYTHONPATH=src:tests:tests/core python generate.py OUT_DIR
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from repro import CrashError, Event, FaultInjector, ResilientRunner
from test_recovery import make_engine, trace

SCENARIO = {"events": 120, "seed": 3, "checkpoint_every": 25, "crash_at": 90}


def stream():
    """The scenario's input, with eid = ts so match identities (which
    embed eids) are the same in every process that rebuilds it."""
    return [
        Event(e.etype, e.ts, e.attrs, eid=e.ts)
        for e in trace(SCENARIO["events"], seed=SCENARIO["seed"])
    ]


def main(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    runner = ResilientRunner(
        make_engine(), out, checkpoint_every=SCENARIO["checkpoint_every"],
        fault=FaultInjector(crash_at=[SCENARIO["crash_at"]]),
    )
    try:
        runner.run(stream())
    except CrashError:
        runner._close_handles()
    else:
        raise SystemExit("the injected crash did not fire")
    files = sorted(p for p in out.iterdir() if p.suffix in (".jsonl", ".bin"))
    provenance = {
        "scenario": SCENARIO,
        "commit": subprocess.check_output(
            ["git", "rev-parse", "HEAD"], text=True
        ).strip(),
        "python": sys.version.split()[0],
        "sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files},
    }
    (out / "PROVENANCE.json").write_text(json.dumps(provenance, indent=2) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]))
