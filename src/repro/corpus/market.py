"""The 217-app market for the Section I usage study.

"We downloaded and analyzed 217 popular apps (more than 500,000
downloads) from 27 categories of Google Play …  The preliminary code
analysis discovered 91% of them use Fragment components."  Also,
Section VII-A: some apps are packed and fall out of the static pipeline.

:func:`generate_market` deterministically synthesises that population:
217 apps over 27 categories, ~91% built with Fragments, a small packed
tail, with sizes drawn from a seeded distribution.  The usage-study
bench then *measures* the fragment share by decoding each APK and
running the effective-fragment scan — it does not read the flags here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.apk.package import ApkPackage
from repro.apk.builder import build_apk
from repro.corpus.synth import AppPlan, build_app

CATEGORIES: List[str] = [
    "Tools", "Entertainment", "News Magazine", "Business Office",
    "Books and Reference", "Shopping", "Travel", "Weather", "Health",
    "Social", "Communication", "Photography", "Music Audio",
    "Video Players", "Productivity", "Personalization", "Finance",
    "Sports", "Lifestyle", "Education", "Maps Navigation", "Food Drink",
    "Puzzle", "Arcade", "Casual", "Medical", "Parenting",
]

# The paper's category headcounts for the largest categories.
CATEGORY_WEIGHTS = {
    "Tools": 21,
    "Entertainment": 21,
    "News Magazine": 16,
    "Business Office": 15,
    "Books and Reference": 14,
}

FRAGMENT_SHARE = 0.91
PACKED_SHARE = 0.04


@dataclass
class MarketApp:
    """One market entry: the plan it builds from, plus whether that
    plan has Fragments (the flag the study measures, never reads).

    The entry holds no spec: :meth:`build` compiles the plan where it
    runs, so a sweep ships a few hundred bytes per app and each worker
    builds its own apps.
    """

    plan: AppPlan
    uses_fragments: bool

    @property
    def package(self) -> str:
        return self.plan.package

    @property
    def category(self) -> str:
        return self.plan.category

    @property
    def downloads(self) -> str:
        return self.plan.downloads

    @property
    def packed(self) -> bool:
        return self.plan.packed

    def build(self) -> ApkPackage:
        return build_apk(build_app(self.plan))


def _category_sequence(count: int, rng: random.Random) -> List[str]:
    """Assign categories: the paper's known headcounts first, the rest
    spread across the remaining 22 categories."""
    sequence: List[str] = []
    for category, weight in CATEGORY_WEIGHTS.items():
        sequence.extend([category] * weight)
    rest = [c for c in CATEGORIES if c not in CATEGORY_WEIGHTS]
    while len(sequence) < count:
        sequence.append(rest[len(sequence) % len(rest)])
    rng.shuffle(sequence)
    return sequence[:count]


def generate_market(count: int = 217, seed: int = 2018) -> List[MarketApp]:
    """Deterministically generate the study population: draw each app's
    plan from the seed's RNG; nothing is built here."""
    rng = random.Random(seed)
    categories = _category_sequence(count, rng)
    n_fragment_apps = round(count * FRAGMENT_SHARE)
    fragment_flags = [True] * n_fragment_apps + [False] * (
        count - n_fragment_apps
    )
    rng.shuffle(fragment_flags)
    apps: List[MarketApp] = []
    for index in range(count):
        uses_fragments = fragment_flags[index]
        packed = rng.random() < PACKED_SHARE
        downloads = rng.choice(
            ["500,000+", "1,000,000+", "5,000,000+", "10,000,000+",
             "50,000,000+"]
        )
        plan = AppPlan(
            package=f"com.market.app{index:03d}",
            downloads=downloads,
            category=categories[index],
            visited_activities=rng.randint(2, 6),
            login_locked=rng.randint(0, 1),
            popup_locked=rng.randint(0, 1),
            visited_fragments=rng.randint(1, 5) if uses_fragments else 0,
            unmanaged_fragments=(1 if uses_fragments and rng.random() < 0.1
                                 else 0),
            packed=packed,
        )
        apps.append(MarketApp(plan, uses_fragments))
    return apps
