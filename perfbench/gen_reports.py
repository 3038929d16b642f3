"""Seeded generator of report-level SV datasets for the benchmark.

Every record is `A <template words> bug <fillers and marker phrases>`.
Each (task, class) pair owns a two-word marker phrase, so the markers
alone determine every label.  Filler words come from a lexicon that
grows each year: a base pool shared by all years plus words that first
appear in one year and stay in use afterwards.  All of these words use
only CONSONANTS and VOWELS (and the template word "bug").

Optionally, some records of the final year are "planted": their text is
made only of OOV_LETTERS, which no other word uses, so a feature model
fitted on earlier years maps them to all-zero vectors.
"""

from __future__ import annotations

import json
import random

TASK_CLASSES = {
    "Confidentiality": ("None", "Partial", "Complete"),
    "Integrity": ("None", "Partial", "Complete"),
    "Availability": ("None", "Partial", "Complete"),
    "Access Vector": ("Local", "Network"),
    "Access Complexity": ("Low", "Medium", "High"),
    "Authentication": ("None", "Single"),
    "Severity": ("Low", "Medium", "High"),
}

# Consonant-only letters: Porter stemming leaves such words unchanged,
# and none of them occurs in any other generated word.
OOV_LETTERS = "jkqvwxz"
CONSONANTS = "bcdfghlmnprst"
VOWELS = "aeiou"


def _word(rng: random.Random, syllables: int, end: str) -> str:
    core = "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(syllables))
    return core + end


def _distinct_words(rng, count, make, taken: set[str]) -> list[str]:
    out = []
    while len(out) < count:
        w = make()
        if w not in taken:
            taken.add(w)
            out.append(w)
    return out


def _oov_word(rng: random.Random) -> str:
    return "".join(rng.choice(OOV_LETTERS) for _ in range(rng.randint(4, 7)))


class ReportGenerator:
    """Lexicon and markers for one seed; `records()` draws the corpus."""

    def __init__(
        self,
        seed: int,
        years: range,
        per_year: int,
        base_words: int,
        new_words_per_year: int,
        fillers_per_record: int,
        planted: int = 0,
    ):
        if per_year < 3:
            raise ValueError("per_year must cover every class of every task")
        self.rng = random.Random(seed)
        self.years = years
        self.per_year = per_year
        self.fillers_per_record = fillers_per_record
        self.planted = planted
        taken: set[str] = set()
        rng = self.rng
        # markers end in a consonant pair, fillers in a vowel, so a marker
        # never shares a stem with a filler
        self.markers = {}
        for task, classes in TASK_CLASSES.items():
            for cls in classes:
                a, b = _distinct_words(
                    rng, 2, lambda: _word(rng, 2, rng.choice("dgmnpt") + rng.choice("bdgmnpt")), taken
                )
                self.markers[(task, cls)] = f"{a} {b}"
        make_filler = lambda: _word(rng, rng.randint(2, 3), rng.choice("ao"))
        self.template = _distinct_words(rng, 4, make_filler, taken)
        self.base = _distinct_words(rng, base_words, make_filler, taken)
        self.new_by_year = {
            y: _distinct_words(rng, new_words_per_year, make_filler, taken) for y in years
        }
        self.new_by_year[years[0]] = []  # the first year only uses the base pool

    def _labels_for_year(self, n: int) -> list[dict[str, str]]:
        """n label dicts in which every class of every task occurs."""
        columns = {}
        for task, classes in TASK_CLASSES.items():
            col = [classes[i % len(classes)] for i in range(n)]
            self.rng.shuffle(col)
            columns[task] = col
        return [{task: columns[task][i] for task in TASK_CLASSES} for i in range(n)]

    def _description(self, labels: dict[str, str], pool: list[str], fresh: list[str]) -> str:
        rng = self.rng
        words = []
        for _ in range(self.fillers_per_record):
            src = fresh if fresh and rng.random() < 0.3 else pool
            words.append(rng.choice(src))
        chunks = words + [self.markers[(t, labels[t])] for t in TASK_CLASSES]
        rng.shuffle(chunks)
        head = f"A {rng.choice(self.template)} {rng.choice(self.template)} bug"
        return " ".join([head] + chunks)

    def records(self) -> tuple[list[dict], list[str]]:
        """(records in date order, ids of the planted all-OOV records)."""
        rng = self.rng
        out, planted_ids = [], []
        pool = list(self.base)
        last = self.years[-1]
        for year in self.years:
            fresh = self.new_by_year[year]
            pool.extend(fresh)
            for serial, labels in enumerate(self._labels_for_year(self.per_year)):
                rid = f"SV-{year}-{serial:05d}"
                plant = year == last and serial < self.planted
                if plant:
                    text = " ".join(_oov_word(rng) for _ in range(6))
                    planted_ids.append(rid)
                else:
                    text = self._description(labels, pool, fresh)
                month = 1 + serial % 12
                day = 1 + rng.randrange(28)
                out.append({
                    "id": rid,
                    "description": text,
                    "date": f"{year:04d}-{month:02d}-{day:02d}",
                    "labels": labels,
                })
        return out, planted_ids

    def held_out(self, n: int) -> list[dict]:
        """Records after the corpus's last year, built from words it uses."""
        pool = self.base + [w for y in self.years for w in self.new_by_year[y]]
        year = self.years[-1] + 1
        return [
            {"id": f"HO-{year}-{i:04d}", "description": self._description(labels, pool, []),
             "date": f"{year:04d}-06-01", "labels": labels}
            for i, labels in enumerate(self._labels_for_year(n))
        ]


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
