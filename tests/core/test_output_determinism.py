"""Output determinism: the same input writes the same bytes in every process.

Recovery replays the WAL and checks what the engine re-emits against the
delivery log, so output must not depend on anything a process picks for
itself — above all the per-process string hash, which orders any ``set``
of events or names.  The same work runs in subprocesses under different
fixed ``PYTHONHASHSEED``s and must produce identical output:

* emission order, counters and state digests on the kernel fingerprint's
  ``engine-disorder`` and serving streams;
* ``delivered.jsonl`` of a :class:`ResilientRunner` directory;
* ``delivered.jsonl`` and ``gateway.jsonl`` of an in-process gateway
  drill on a virtual clock (sources joining, degrading and recovering,
  duplicates, a seal).

Run directly (``python tests/core/test_output_determinism.py DIR``) it
prints the outputs as JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).parent
if __name__ == "__main__":  # runnable from a bare checkout
    sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

from repro import OutOfOrderEngine, ResilientRunner, parse  # noqa: E402
from repro.core.recovery import DELIVERED_NAME  # noqa: E402
from repro.ingest import (  # noqa: E402
    EventSchema,
    FieldSpec,
    GatewayConfig,
    IngestGateway,
    StreamSchema,
)
from test_kernel_fingerprint import fingerprint, serve_stream  # noqa: E402

HASH_SEEDS = ("0", "1")
FINGERPRINTS = (("disorder-s1", "eager"), ("serve", "punct500"))


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def runner_run(directory):
    pattern, k, __, stream = serve_stream(7)
    with ResilientRunner(
        OutOfOrderEngine(pattern, k=k), directory, checkpoint_every=500
    ) as runner:
        runner.run(stream[:4000])
    return {"runner/delivered": sha256(directory / DELIVERED_NAME)}


def gateway_drill(directory):
    """Three sources on a virtual clock; s3 falls silent, is degraded, returns."""
    schema = StreamSchema(
        "orders",
        t_event="ts",
        events=[
            EventSchema(name, [FieldSpec("ts", "int"), FieldSpec("x", "int")])
            for name in ("A", "B")
        ],
        ordering_scope="global",
        source_slack=4,
    )
    now = [0.0]
    gateway = IngestGateway(
        lambda: OutOfOrderEngine(
            parse("PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 20"), k=8
        ),
        GatewayConfig(schema, liveness_timeout=5.0, checkpoint_every=64),
        directory=directory,
        clock=lambda: now[0],
    )
    rng = random.Random(11)
    sent = []
    for ts in range(1, 1200):
        sources = ("s1", "s2") if 300 <= ts < 500 else ("s1", "s2", "s3")
        attrs = {"ts": max(1, ts - rng.randrange(4)), "x": rng.randrange(6)}
        if sent and rng.random() < 0.05:
            attrs = rng.choice(sent)  # a redelivery: a duplicate
        sent.append(attrs)
        gateway.admit_frame(rng.choice(sources), rng.choice("AB"), dict(attrs))
        if ts % 16 == 0:
            gateway.sync_acks()
            now[0] += 1.0
            gateway.tick()
    gateway.seal()
    return {
        "gateway/delivered": sha256(directory / DELIVERED_NAME),
        "gateway/journal": sha256(directory / "gateway.jsonl"),
    }


def outputs(directory):
    directory = Path(directory)
    found = {
        f"fingerprint/{name}/{config}": fingerprint(name, config, "batch512")
        for name, config in FINGERPRINTS
    }
    found.update(runner_run(directory / "runner"))
    found.update(gateway_drill(directory / "gateway"))
    return found


def test_output_is_the_same_under_every_hash_seed(tmp_path):
    procs = [
        subprocess.Popen(
            [sys.executable, __file__, str(tmp_path / seed)],
            env={**os.environ, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
        )
        for seed in HASH_SEEDS
    ]
    runs = {}
    for seed, proc in zip(HASH_SEEDS, procs):
        stdout, __ = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"PYTHONHASHSEED={seed} exited {proc.returncode}"
        runs[seed] = json.loads(stdout)
    reference = runs[HASH_SEEDS[0]]
    for seed in HASH_SEEDS[1:]:
        differ = sorted(key for key in reference if runs[seed][key] != reference[key])
        assert differ == [], f"PYTHONHASHSEED={seed} changed {differ}"


if __name__ == "__main__":
    print(json.dumps(outputs(sys.argv[1]), sort_keys=True))
