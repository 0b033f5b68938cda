"""Character-level sequence tagging on the shared engine substrate.

The second workload of the repo: prove that the CSR feature encoder, the
bucketed batch Viterbi, the inference-session caches, the microbatch
queues and the artifact/registry machinery are task-generic, not
recipe-specific.  The pipeline mirrors :mod:`repro.ner` one level down —
the "tokens" are characters:

* :class:`CharFeatureExtractor` — char-window features (identity, class,
  bigrams) over a text line;
* :class:`CharTagger` — the :class:`~repro.ner.model.NerModel` shape over
  characters: any of the three sequence labellers via
  :func:`~repro.ner.model.make_sequence_model`, session-cached tag /
  batched tag_batch, span extraction;
* :class:`CharTagBundle` — the checksummed artifact envelope
  (``repro-chartag-bundle``) served through the same
  :class:`~repro.serve.registry.ModelRegistry` hot-swap;
* :class:`CharTagService` — the serving facade with the exact surface the
  HTTP front end is duck-typed over, so ``POST /v1/tag`` with
  ``{"section": "char"}`` serves this workload from the unchanged
  server;
* :func:`structure_document` — maps tagged char spans of a raw document
  onto a :class:`~repro.core.recipe_model.StructuredRecipe`, so the char
  pipeline feeds the recipe index and query engine end to end.
"""

from repro.chartag.bundle import CHARTAG_ARTIFACT_FORMAT, CharTagBundle
from repro.chartag.features import CharFeatureExtractor
from repro.chartag.model import CharTagger
from repro.chartag.service import CHAR_SECTION, CharTagService
from repro.chartag.structuring import structure_document, structure_raw_jsonl

__all__ = [
    "CHAR_SECTION",
    "CHARTAG_ARTIFACT_FORMAT",
    "CharFeatureExtractor",
    "CharTagBundle",
    "CharTagger",
    "CharTagService",
    "structure_document",
    "structure_raw_jsonl",
]
