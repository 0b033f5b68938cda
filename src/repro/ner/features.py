"""Feature templates for the ingredient and instruction NER models.

The Stanford NER tagger used in the paper relies on local lexical features
(word identity, affixes, shape, neighbouring words).  The extractors here
reproduce that recipe-tuned feature design:

* :class:`IngredientFeatureExtractor` -- adds features for quantity shapes,
  measurement-unit suffixes, temperature/size/freshness trigger words and
  parenthesis context, which is what distinguishes STATE from NAME and UNIT
  from NAME in homograph cases ("clove").
* :class:`InstructionFeatureExtractor` -- adds verb-position and imperative
  features useful for spotting cooking techniques and utensils.

Feature extraction sits on the serving hot path (it is the one stage the
batched Viterbi kernels cannot amortise), and recipe text draws from a small
vocabulary, so every *token-static* feature group is memoised per token with
``functools.lru_cache``: the f-string formatting, shape computation and
regex checks run once per distinct token instead of once per occurrence.
Only genuinely positional features (sequence position, context windows,
prefix punctuation state) are computed per call, and the emitted feature
lists are identical to the uncached implementation, element for element.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from functools import lru_cache

__all__ = [
    "IngredientFeatureExtractor",
    "InstructionFeatureExtractor",
    "TokenFeatureExtractor",
]

_NUMERIC_RE = re.compile(r"^\d+(?:\.\d+)?$")
_FRACTION_RE = re.compile(r"^\d+(?: \d+)?/\d+$")
_RANGE_RE = re.compile(r"^\d+(?:\.\d+)?-\d+(?:\.\d+)?$")

#: Trigger words strongly associated with particular ingredient attributes.
_SIZE_WORDS = frozenset({"small", "medium", "large", "big", "extra-large", "jumbo"})
_TEMP_WORDS = frozenset({"hot", "cold", "warm", "chilled", "frozen", "room", "lukewarm", "iced"})
_FRESHNESS_WORDS = frozenset({"fresh", "dried", "dry", "freeze-dried", "canned"})
_UNIT_SUFFIXES = ("spoon", "spoons", "ounce", "ounces", "gram", "grams", "liter", "litre")
_STATE_SUFFIXES = ("ed", "en")

_UTENSIL_SUFFIXES = ("pan", "pot", "bowl", "oven", "sheet", "skillet", "dish", "board")
_PREPOSITIONS = frozenset({"in", "into", "with", "on", "onto", "over", "to", "from", "using"})
_DETERMINERS = frozenset({"a", "an", "the"})

#: Per-token memo capacity; recipe vocabularies are a few thousand types, so
#: this never evicts in practice while still bounding adversarial input.
_MEMO_SIZE = 131072


def _shape(token: str) -> str:
    chars = []
    for char in token:
        if char.isdigit():
            chars.append("d")
        elif char.isalpha():
            chars.append("X" if char.isupper() else "x")
        else:
            chars.append(char)
    collapsed: list[str] = []
    for char in chars:
        if not collapsed or collapsed[-1] != char:
            collapsed.append(char)
    return "".join(collapsed)


@lru_cache(maxsize=_MEMO_SIZE)
def _is_numberish(token: str) -> bool:
    return bool(
        _NUMERIC_RE.match(token) or _FRACTION_RE.match(token) or _RANGE_RE.match(token)
    )


@lru_cache(maxsize=_MEMO_SIZE)
def _token_lexical(token: str, original: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The base token-static features: (head before pos_in_seq, flags after)."""
    head = (
        "bias",
        f"w={token}",
        f"suffix3={token[-3:]}",
        f"suffix2={token[-2:]}",
        f"prefix2={token[:2]}",
        f"shape={_shape(original)}",
    )
    flags = []
    if _is_numberish(token):
        flags.append("is_number")
    if "-" in token:
        flags.append("has_hyphen")
    if original[:1].isupper():
        flags.append("is_capitalised")
    return head, tuple(flags)


@lru_cache(maxsize=_MEMO_SIZE)
def _neighbor_feature(label: str, token: str) -> str:
    """Cached ``w[-1]=salt`` style context-window strings."""
    return f"w[{label}]={token}"


@lru_cache(maxsize=64)
def _window_labels(window: int) -> tuple[tuple[int, str, str, str, str], ...]:
    """(offset, left/right labels, left/right boundary features) per offset."""
    return tuple(
        (offset, f"-{offset}", f"+{offset}", f"w[-{offset}]=<s>", f"w[+{offset}]=</s>")
        for offset in range(1, window + 1)
    )


@lru_cache(maxsize=_MEMO_SIZE)
def _ingredient_lexical(token: str) -> tuple[str, ...]:
    extras = []
    if token in _SIZE_WORDS:
        extras.append("size_trigger")
    if token in _TEMP_WORDS:
        extras.append("temp_trigger")
    if token in _FRESHNESS_WORDS:
        extras.append("freshness_trigger")
    if token.endswith(_UNIT_SUFFIXES):
        extras.append("unit_suffix")
    if token.endswith(_STATE_SUFFIXES) and not _is_numberish(token):
        extras.append("participle_suffix")
    if token.endswith("ly"):
        extras.append("adverb_suffix")
    return tuple(extras)


@lru_cache(maxsize=_MEMO_SIZE)
def _instruction_lexical(token: str) -> tuple[str, ...]:
    extras = []
    if token.endswith(_UTENSIL_SUFFIXES):
        extras.append("utensil_suffix")
    if token.endswith("ing"):
        extras.append("gerund_suffix")
    return tuple(extras)


class TokenFeatureExtractor:
    """Base extractor producing context-window lexical features.

    Subclasses append domain-specific triggers in :meth:`_extend`, which
    sees the whole sequence at once so prefix state (open parentheses, a
    preceding comma) is carried forward in one pass instead of rescanned at
    every position.  The extractor is deliberately stateless so one instance
    can be shared by parallel experiments and by the serving threads (the
    token memos above are module-level and thread-safe).
    """

    window = 2

    def sequence_features(self, tokens: Sequence[str]) -> list[list[str]]:
        """Feature lists for every position of ``tokens``."""
        lowered = [token.lower() for token in tokens]
        length = len(lowered)
        last = length - 1
        numberish = [_is_numberish(token) for token in lowered]
        windows = _window_labels(self.window)
        sequence = []
        for index, token in enumerate(lowered):
            head, flags = _token_lexical(token, tokens[index])
            features = list(head)
            features.append(
                "pos_in_seq=first"
                if index == 0
                else "pos_in_seq=last" if index == last else "pos_in_seq=mid"
            )
            features.extend(flags)
            for offset, left_label, right_label, left_boundary, right_boundary in windows:
                features.append(
                    _neighbor_feature(left_label, lowered[index - offset])
                    if index - offset >= 0
                    else left_boundary
                )
                features.append(
                    _neighbor_feature(right_label, lowered[index + offset])
                    if index + offset < length
                    else right_boundary
                )
            if index > 0 and numberish[index - 1]:
                features.append("prev_is_number")
            if index < last and numberish[index + 1]:
                features.append("next_is_number")
            sequence.append(features)
        self._extend(lowered, sequence)
        return sequence

    def _extend(self, lowered: Sequence[str], sequence: list[list[str]]) -> None:
        """Append subclass features to each position's list, in place;
        ``lowered`` is the lower-cased view of the tokens."""


class IngredientFeatureExtractor(TokenFeatureExtractor):
    """Features tuned for the seven ingredient attributes of Table II."""

    def _extend(self, lowered: Sequence[str], sequence: list[list[str]]) -> None:
        # Parenthesis context: "( thawed )", "(8 ounce) package" -- the state
        # of the tokens strictly before each position.
        has_open = has_close = has_comma = False
        previous = None
        for token, features in zip(lowered, sequence):
            features.extend(_ingredient_lexical(token))
            if has_open and not has_close:
                features.append("inside_parens")
            if previous == ",":
                features.append("after_comma")
            if has_comma:
                features.append("after_any_comma")
            if token == "(":
                has_open = True
            elif token == ")":
                has_close = True
            elif token == ",":
                has_comma = True
            previous = token


class InstructionFeatureExtractor(TokenFeatureExtractor):
    """Features tuned for processes, utensils and ingredients in instructions."""

    def _extend(self, lowered: Sequence[str], sequence: list[list[str]]) -> None:
        last = len(lowered) - 1
        previous = None
        for index, (token, features) in enumerate(zip(lowered, sequence)):
            if index == 0:
                features.append("sentence_initial")  # imperative verbs open the step
            features.extend(_instruction_lexical(token))
            if previous in _PREPOSITIONS:
                features.append("after_preposition")
            if previous in _DETERMINERS:
                features.append("after_determiner")
            if index < last and lowered[index + 1] in _PREPOSITIONS:
                features.append("before_preposition")
            previous = token
