"""Shared fixtures for the test suite.

Training the POS tagger, the NER models and the full pipeline is cheap at the
``tiny`` corpus scale (a couple of seconds), but doing it once per test would
still dominate the suite's runtime, so every trained component is provided as
a session-scoped fixture.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.core.pipeline import RecipeModeler, RecipeModelerConfig
from repro.data.generator import GeneratorConfig, RecipeCorpusGenerator
from repro.data.models import Source
from repro.data.recipedb import RecipeDB
from repro.experiments.common import build_corpora, train_pos_tagger
from repro.pos.vectorizer import PosBagOfWordsVectorizer


@pytest.fixture(scope="session")
def corpora():
    """The three tiny-scale corpora (AllRecipes, FOOD.com, combined)."""
    return build_corpora(scale="tiny", seed=0)


@pytest.fixture(scope="session")
def corpus(corpora):
    """The combined tiny corpus."""
    return corpora.combined


@pytest.fixture(scope="session")
def sample_phrases(corpus):
    """All annotated ingredient phrases of the combined corpus."""
    return corpus.ingredient_phrases()


@pytest.fixture(scope="session")
def sample_steps(corpus):
    """All annotated instruction steps of the combined corpus."""
    return corpus.instruction_steps()


@pytest.fixture(scope="session")
def pos_tagger(corpus):
    """POS tagger trained on the combined corpus gold tags."""
    return train_pos_tagger(corpus, seed=0)


@pytest.fixture(scope="session")
def vectorizer(pos_tagger):
    """POS bag-of-words vectoriser over the trained tagger."""
    return PosBagOfWordsVectorizer(pos_tagger)


@pytest.fixture(scope="session")
def modeler(corpus):
    """The full RecipeModeler fitted on the combined tiny corpus."""
    return RecipeModeler(
        RecipeModelerConfig(seed=0, instruction_training_steps=120)
    ).fit(corpus)


@pytest.fixture(scope="session")
def ingredient_pipeline(modeler):
    """Trained ingredient-section pipeline."""
    return modeler.components.ingredient_pipeline


@pytest.fixture(scope="session")
def instruction_pipeline(modeler):
    """Trained instruction-section pipeline (with dictionaries)."""
    return modeler.components.instruction_pipeline


@pytest.fixture(scope="session")
def clean_generator():
    """A noise-free AllRecipes generator (deterministic gold annotations)."""
    return RecipeCorpusGenerator(
        GeneratorConfig(
            source=Source.ALLRECIPES,
            seed=99,
            noise_level=0.0,
            ingredient_annotation_noise=0.0,
            instruction_annotation_noise=0.0,
        )
    )


@pytest.fixture(scope="session")
def clean_corpus(clean_generator):
    """A small noise-free corpus (gold tags exactly follow the templates)."""
    return RecipeDB(clean_generator.generate_corpus(15))


@pytest.fixture()
def serve_process():
    """Start a ``python -m repro`` server command as a child process.

    Returns ``start(argv) -> (process, port)``: it waits for the startup
    banner on stdout and reads the bound port from its ``http://host:PORT``
    (pass ``--port 0``).  The child gets the default SIGINT disposition, so
    ``process.send_signal(SIGINT)`` stops it even when the test runner
    ignores SIGINT.  Children still running at teardown are killed.
    """
    env = dict(os.environ)
    source = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    processes: list[subprocess.Popen] = []

    def start(argv: list[str]) -> tuple[subprocess.Popen, int]:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        processes.append(process)
        banner: list[str] = []
        reader = threading.Thread(
            target=lambda: banner.append(process.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(60)
        match = re.search(r"http://[^:]+:(\d+)", banner[0]) if banner else None
        if match is None:
            process.kill()
            _, stderr = process.communicate()
            pytest.fail(f"{argv[0]} printed no banner {banner!r}:\n{stderr[-2000:]}")
        return process, int(match.group(1))

    yield start
    for process in processes:
        if process.poll() is None:
            process.kill()
        process.communicate()
