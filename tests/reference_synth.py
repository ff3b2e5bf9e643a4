"""Reference draws of the world generator for the equality tests.

Copies of ``synth``'s seeding and name draws before their fixed numpy
costs were cut: ``_rng`` hands ``np.random.default_rng`` a Python list,
which ``SeedSequence`` converts on every call, and the name draws call
``rng.choice`` on a list, which converts the list to an array on every
draw. ``draw_name`` is the syllable and first-name draw that the external
co-author loop of ``generate`` used to hold inline. Patched into ``synth``,
they must give the same bytes as the package's ``_rng``, ``_pick`` and
``_draw_name``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from fssbench.synth import _FIRST_NAMES, _NS_PERSON, _SYLLABLES, SynthConfig

if TYPE_CHECKING:
    import numpy as np


def _rng(config: SynthConfig, *key: int) -> np.random.Generator:
    import numpy as np

    return np.random.default_rng([config.seed, *key])


def _person_names(config: SynthConfig, index: int,
                  assigned: list[tuple[str, str]]) -> tuple[str, str]:
    rng = _rng(config, _NS_PERSON, index, 0)
    last = "".join(rng.choice(_SYLLABLES) for _ in range(int(rng.integers(2, 4))))
    last = last.capitalize()
    first = str(rng.choice(_FIRST_NAMES))
    if index > 0 and rng.random() < config.homonym_rate:
        target_last, target_first = assigned[int(rng.integers(0, index))]
        same_initial = [n for n in _FIRST_NAMES
                        if n[0] == target_first[0] and n != target_first]
        first = str(rng.choice(same_initial)) if same_initial else target_first
        last = target_last
    return last, first


def draw_name(rng: np.random.Generator) -> tuple[str, str]:
    last = "".join(rng.choice(_SYLLABLES) for _ in range(int(rng.integers(2, 4))))
    last = last.capitalize()
    first = str(rng.choice(_FIRST_NAMES))
    return last, first
