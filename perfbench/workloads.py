"""Seeded inputs for the verify, orbit and words workloads.

A plan is a JSON-ready dict: the instance files the workload parses during
set-up, and the batch of ``ietkit`` CLI calls that one pass runs.  Each call
names its throughput kind, the work units it adds to that kind, and the
facts its output check needs.  Those facts come from code in this file that
shares nothing with ietkit: naive rotation sorts, a direct discrete exchange
and closed-form language counts.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
LETTERS = "abcd"

# Fixed instances, not seeded: seeded 4-interval sqrt(2) draws swung between
# 1.3 and 26 s at max-len 5, and the share of time in bwt with them, so a
# seed would change which layer the workload measures.
VERIFY_INSTANCES = (("golden.iet", 10), ("sqrt2_even.iet", 6))
ORBIT_INSTANCES = ("golden.iet", "sqrt2_even.iet")
KEANE_DEPTH = 5000
TRAJ_STEPS = 10_000
LANGUAGE_MAX_LEN = 60
TRAJ_PREFIX = 40
TRAJ_WINDOW = 12

BWT_SIZES = (300, 700, 1200, 2000)
EBWT_LETTERS = 3001
# Multisets are the orbits of discrete exchanges with the symmetric
# permutation, whose compositions are drawn until there are three orbits of
# 500 to 1030 letters: ebwt's time and memory grow with the longest entry,
# so a narrow range keeps them steady from seed to seed.
EBWT_ENTRIES = 3
EBWT_ENTRY_RANGE = (500, 1030)
PERIODIC_SIZES = (60, 90, 120)


def read_instance(path: Path) -> dict[str, str]:
    """The key = value pairs of one of the instance files in ``data``."""
    values: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
    return values


def number(text: str) -> tuple[int, int, int]:
    """(p, q, r) of a literal (p, q, r) meaning (p + q*sqrt(d)) / r."""
    p, q, r = (int(x) for x in text.strip("()").split(","))
    return p, q, r


def instance_facts(path: Path) -> tuple[int, int, float]:
    """(radicand, number of intervals, domain length as a float) of an
    instance file; the float only places seeded start points well inside."""
    values = read_instance(path)
    d = int(values["d"])
    total = 0.0
    for c in values["alphabet"]:
        p, q, r = number(values[f"len.{c}"])
        total += (p + q * math.sqrt(d)) / r
    return d, len(values["alphabet"]), total


def complexity(k_intervals: int, k: int) -> int:
    """Number of factors of length k of a regular exchange of that many intervals."""
    return (k_intervals - 1) * k + 1


def naive_bwt(w: str) -> str:
    """Last letters of the directly sorted rotations; letters sort as the alphabet."""
    n = len(w)
    doubled = w + w
    return "".join(doubled[i + n - 1] for i in sorted(range(n), key=lambda i: doubled[i : i + n]))


def naive_ebwt(entries: list[str]) -> str:
    """Rotations of all entries sorted by their infinite powers, compared on
    twice the longest entry (two distinct powers differ within |u| + |v|)."""
    span = 2 * max(len(w) for w in entries)
    rotations = [w[i:] + w[:i] for w in entries for i in range(len(w))]
    rotations.sort(key=lambda u: (u * (span // len(u) + 1))[:span])
    return "".join(u[-1] for u in rotations)


def runs(s: str) -> list[str]:
    out: list[str] = []
    for c in s:
        if not out or out[-1] != c:
            out.append(c)
    return out


def least_rotation(w: str) -> str:
    return min(w[i:] + w[:i] for i in range(len(w)))


def is_primitive(w: str) -> bool:
    return (w + w).find(w, 1) == len(w)


def diet_orbits(parts: list[int], image: list[int]) -> list[str]:
    """Orbit words of the discrete exchange of a composition, read directly
    from each orbit's smallest point.  ``image`` lists the block indices in
    image order."""
    n = sum(parts)
    starts = [0]
    for part in parts:
        starts.append(starts[-1] + part)
    image_start = [0] * len(parts)
    offset = 0
    for i in image:
        image_start[i] = offset
        offset += parts[i]
    block = [i for i, part in enumerate(parts) for _ in range(part)]
    seen = [False] * n
    words = []
    for start in range(n):
        k = start
        spelled = []
        while not seen[k]:
            seen[k] = True
            spelled.append(LETTERS[block[k]])
            k += image_start[block[k]] - starts[block[k]]
        if spelled:
            words.append("".join(spelled))
    return words


def _irreducible_image(rng: random.Random, d: int) -> list[int]:
    while True:
        image = rng.sample(range(d), d)
        if all(set(image[:k]) != set(range(k)) for k in range(1, d)):
            return image


def _composition(rng: random.Random, n: int, d: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, n), d - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


def _diet_multiset(rng: random.Random, n: int, draw_image, accept) -> tuple[list[int], list[int], list[str]]:
    """A seeded composition of n and an image order from ``draw_image()``
    whose orbit lengths pass ``accept``, with the orbit words as Lyndon
    words, sorted."""
    for _ in range(100_000):
        image = draw_image()
        parts = _composition(rng, n, len(image))
        words = diet_orbits(parts, image)
        if accept([len(w) for w in words]) and all(is_primitive(w) for w in words):
            return parts, image, sorted(least_rotation(w) for w in words)
    raise RuntimeError(f"no discrete exchange of {n} points passed the orbit filter")


def _random_word(rng: random.Random, n: int, letters: str) -> str:
    while True:
        w = "".join(rng.choice(letters) for _ in range(n))
        if set(w) == set(letters):
            return w


def _factor_count(entries: list[str], depth: int) -> int:
    """Factors of length <= depth of the periodic words, the empty word included."""
    found = {""}
    for w in entries:
        reps = w * (depth // len(w) + 2)
        for k in range(1, depth + 1):
            found.update(reps[i : i + k] for i in range(len(w)))
    return len(found)


def _call(kind: str, argv: list[str], units: int, **expect) -> dict:
    return {"kind": kind, "argv": argv, "units": units, "expect": expect}


def verify_plan(rng: random.Random) -> dict:
    del rng  # fixed instances; see VERIFY_INSTANCES
    calls = []
    for name, max_len in VERIFY_INSTANCES:
        path = DATA / name
        _, k_intervals, _ = instance_facts(path)
        words = sum(complexity(k_intervals, k) for k in range(1, max_len + 1))
        argv = ["verify", str(path), "--max-len", str(max_len), "--format", "json"]
        calls.append(_call("verify", argv, words, intervals=k_intervals, max_len=max_len))
    return {"instances": [str(DATA / name) for name, _ in VERIFY_INSTANCES], "calls": calls}


def orbit_plan(rng: random.Random) -> dict:
    calls = []
    for name in ORBIT_INSTANCES:
        path = str(DATA / name)
        d, k_intervals, length = instance_facts(DATA / name)
        calls.append(
            _call(
                "check",
                ["iet", "check", path, "--depth", str(KEANE_DEPTH)],
                (k_intervals - 1) * KEANE_DEPTH,
                depth=KEANE_DEPTH,
            )
        )
        # An exact start point (p + q*sqrt(d))/r within 0.5/r of a seeded
        # target that sits well inside the domain.
        r = rng.randrange(101, 998)
        q = rng.randrange(-r, r + 1)
        target = rng.uniform(0.05, 0.95) * length
        p = round(target * r - q * math.sqrt(d))
        calls.append(
            _call(
                "traj",
                ["iet", "traj", path, "--point", f"({p}, {q}, {r})", "--steps", str(TRAJ_STEPS)],
                TRAJ_STEPS,
                file=path,
                point=[p, q, r, d],
                steps=TRAJ_STEPS,
                windows=sorted(rng.sample(range(TRAJ_STEPS - TRAJ_WINDOW), 3)),
            )
        )
        printed = 1 + sum(complexity(k_intervals, k) for k in range(1, LANGUAGE_MAX_LEN + 1))
        calls.append(
            _call(
                "language",
                ["iet", "language", path, "--max-len", str(LANGUAGE_MAX_LEN)],
                printed,
                intervals=k_intervals,
                max_len=LANGUAGE_MAX_LEN,
            )
        )
    return {"instances": [str(DATA / name) for name in ORBIT_INSTANCES], "calls": calls}


def words_plan(rng: random.Random) -> dict:
    calls = []
    for kind in ("bwt", "cluster"):
        for n in BWT_SIZES:
            letters = LETTERS[: rng.choice((3, 4))]
            w = _random_word(rng, n, letters)
            transform = naive_bwt(w)
            calls.append(
                _call(
                    "bwt",
                    [kind, "--alphabet", letters, w],
                    n,
                    command=kind,
                    transform=transform,
                    blocks=runs(transform),
                    support=len(set(w)),
                )
            )

    def long_orbits(lengths: list[int]) -> bool:
        low, high = EBWT_ENTRY_RANGE
        return len(lengths) == EBWT_ENTRIES and low <= min(lengths) and max(lengths) <= high

    for d in (3, 4):
        letters = LETTERS[:d]
        parts, image, multiset = _diet_multiset(rng, EBWT_LETTERS, lambda: list(range(d))[::-1], long_orbits)
        transform = naive_ebwt(multiset)
        calls.append(
            _call("ebwt", ["ebwt", "--alphabet", letters, *multiset], EBWT_LETTERS, transform=transform)
        )
        calls.append(
            _call(
                "inverse",
                ["ebwt-inverse", "--alphabet", letters, transform],
                EBWT_LETTERS,
                words=multiset,
            )
        )
        pi = "".join(letters[i] for i in image)
        calls.append(
            _call(
                "diet",
                ["diet", "--composition", ",".join(map(str, parts)), "--pi", pi, "--words"],
                EBWT_LETTERS,
                words=multiset,
                composition=parts,
            )
        )

    # Periodic sources: one clustering orbit word classified under its own
    # block order (expected yes), and random words under a seeded order.
    for n, clustering in zip(PERIODIC_SIZES, (False, True, False)):
        d = rng.choice((3, 4))
        letters = LETTERS[:d]
        if clustering:
            _, _, (w,) = _diet_multiset(
                rng, n, lambda: _irreducible_image(rng, d), lambda lengths: len(lengths) == 1
            )
            order = "".join(runs(naive_bwt(w)))
        else:
            w = _random_word(rng, n, letters)
            order = "".join(rng.sample(letters, d))
        expected = runs(naive_bwt(w)) == list(order)
        calls.append(
            _call(
                "classify",
                ["classify", "--source", f"periodic:{w}", "--depth", str(n), "--orders", f"{order}:A"],
                _factor_count([w], n),
                ordered_alsinic=expected,
            )
        )
    # Multiset sources: orbit multisets of small discrete exchanges cluster,
    # so their language is ordered alsinic under the derived pi order.
    for d in (3, 4):
        _, _, multiset = _diet_multiset(
            rng, rng.randrange(40, 61), lambda: _irreducible_image(rng, d), lambda lengths: 2 <= len(lengths) <= 4
        )
        depth = max(len(w) for w in multiset)
        calls.append(
            _call(
                "classify",
                ["classify", "--source", "multiset:" + ",".join(multiset), "--depth", str(depth), "--orders", "pi:A"],
                _factor_count(multiset, depth),
                ordered_alsinic=True,
            )
        )
    return {"instances": [], "calls": calls}


PLANS = {"verify": verify_plan, "orbit": orbit_plan, "words": words_plan}


def build(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    plan = PLANS[workload](rng)
    plan["workload"] = workload
    return plan
