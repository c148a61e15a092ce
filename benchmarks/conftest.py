"""Shared configuration for the figure-reproduction benchmarks.

Each benchmark runs the relevant (benchmark, variant) sweep exactly once
(``pedantic`` with one round) and prints a paper-vs-measured table; the
pytest-benchmark timing records how long the sweep itself takes.
``bench_figures.py`` holds one case per paper figure, read from
:data:`repro.analysis.figures.FIGURES` and printed through the renderer
``repro figure`` uses.

The sweeps execute through the :class:`repro.api.Session` front door
(:func:`repro.analysis.figures.measure_figure` routes through the shared
default session; the ablation benchmarks open their own), so results
land in the persistent store (``.repro_cache/`` or
``$REPRO_CACHE_DIR``): BASE runs are shared between figures, and
re-running the benchmark suite is warm-start (the recorded time then
measures cache lookups, not simulation).  Clear the cache directory, or
set ``REPRO_CACHE=off``, to force fresh simulations.  Knobs:
``REPRO_BENCH_INSTRUCTIONS`` (run length), ``REPRO_BENCH_SEED`` (sweep
seed), ``REPRO_BENCH_JOBS`` (worker processes per sweep).
EXPERIMENTS.md documents the methodology.
"""
