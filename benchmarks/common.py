"""Shared infrastructure for the experiment benchmarks (E1–E12).

Every ``bench_eN_*.py`` file reproduces one table or figure from the
paper's evaluation (reconstructed — see DESIGN.md's source-text caveat).
Each defines:

* a ``run_experiment()`` function that performs the full sweep and
  returns the rendered table/series text (also written to
  ``benchmarks/results/eN_<name>.txt`` so results survive the run);
* one or more ``test_eN_*`` functions using the pytest-benchmark
  fixture, timing the experiment's *representative kernel* (a single
  engine pass) so ``pytest benchmarks/ --benchmark-only`` yields a
  comparable timing table across engines/configurations;
* a ``test_eN_report`` that executes the sweep once, writes the result
  file, and asserts the experiment's *qualitative claim* (who wins, by
  what shape), so a regression in the reproduced result fails the run.

Run everything and print all tables:  python benchmarks/run_all.py
"""

from __future__ import annotations

from pathlib import Path

from repro.bench import make_engine

RESULTS_DIR = Path(__file__).parent / "results"

#: The optimistic row of an engine comparison: ``ooo`` with speculative
#: emission, the library's one optimistic mode.
SPECULATIVE = "speculative"


def build_engine(name: str, query, k):
    """``make_engine(name, query, k=k)``, plus the :data:`SPECULATIVE` row."""
    if name == SPECULATIVE:
        return make_engine("ooo", query, k=k, speculative=True)
    return make_engine(name, query, k=k)


def consumer_view(engine):
    """(emission records, net result keys) a consumer of *engine* acts on.

    A speculative engine's consumer reads the speculative stream and
    applies its retractions; every other engine's reads sealed output.
    """
    log = getattr(engine, "speculation", None)
    if log is None:
        return engine.emissions, engine.result_set()
    return log.emissions, log.net_keys()


def write_result(name: str, text: str) -> str:
    """Persist a rendered experiment table; returns the text unchanged."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text, encoding="utf-8")
    return text
