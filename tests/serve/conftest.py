"""Shared fixtures for the serving-layer tests.

The bundle artifact is saved once from the session-scoped fitted modeler;
registry/service/server fixtures are rebuilt per module so tests that mutate
serving state (reloads, closed queues) stay isolated.
"""

from __future__ import annotations

import pytest

from repro.corpus.sink import write_structured_jsonl
from repro.index import IndexBuilder
from repro.serve import ModelRegistry, SearchService, TaggingService, start_in_thread


@pytest.fixture(scope="session")
def bundle_path(modeler, tmp_path_factory):
    """A saved bundle artifact for the fitted tiny-scale modeler."""
    path = tmp_path_factory.mktemp("serve") / "bundle.json"
    modeler.save_bundle(path)
    return path


@pytest.fixture(scope="session")
def structured_path(modeler, corpus, tmp_path_factory):
    """A structured-recipe JSONL of the tiny corpus (the index's input)."""
    path = tmp_path_factory.mktemp("serve-index") / "structured.jsonl"
    write_structured_jsonl(path, (modeler.model_recipe(recipe) for recipe in corpus))
    return path


@pytest.fixture(scope="session")
def index_path(structured_path, tmp_path_factory):
    """A saved recipe-index artifact over the structured tiny corpus."""
    path = tmp_path_factory.mktemp("serve-index") / "index.json"
    IndexBuilder.build_from_jsonl(structured_path).save(path)
    return path


@pytest.fixture()
def registry(bundle_path):
    """A registry with the bundle loaded under the default name."""
    registry = ModelRegistry()
    registry.load(bundle_path)
    return registry


@pytest.fixture()
def service(registry):
    """A tagging service over the registry (closed after the test)."""
    with TaggingService(registry, max_delay_s=0.001) as service:
        yield service


@pytest.fixture()
def server(service):
    """A running HTTP server on an OS-assigned port, on a background event
    loop (closed after the test); connect to ``server.port``."""
    with start_in_thread(service) as handle:
        yield handle


@pytest.fixture()
def search_service(index_path):
    """A search service over a fresh registry with the index loaded."""
    return SearchService.from_artifact(index_path)


@pytest.fixture()
def search_server(service, search_service):
    """A running HTTP server with POST /v1/search enabled."""
    with start_in_thread(service, search=search_service) as handle:
        yield handle
