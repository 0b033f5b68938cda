"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  The
corpora and the fitted end-to-end pipeline are built once per session; the
individual benchmarks then time the experiment-specific work (training the
models under comparison, clustering, relation extraction, ...) and print the
same rows the paper reports so the output can be compared side by side with
the published numbers (the experiment modules in ``src/repro/experiments/``
carry the paper's values where it reports them, e.g. Table IV's matrix).

Run with::

    pytest benchmarks/ --benchmark-only
    pytest benchmarks/ --benchmark-only -s      # also show the rendered tables
"""

from __future__ import annotations

import pytest

from repro.experiments.common import build_corpora, train_modeler

#: Corpus scale used by the benchmarks; "small" keeps every benchmark under a
#: few seconds while remaining large enough for the paper's shapes to show.
BENCH_SCALE = "small"
BENCH_SEED = 0


@pytest.fixture(scope="session")
def corpora():
    """AllRecipes / FOOD.com / combined corpora at the benchmark scale."""
    return build_corpora(scale=BENCH_SCALE, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def modeler(corpora):
    """End-to-end pipeline fitted on the combined corpus."""
    return train_modeler(corpora.combined, seed=BENCH_SEED)


def emit(title: str, body: str) -> None:
    """Print a rendered experiment report (visible with ``pytest -s``)."""
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}\n{body}\n")
