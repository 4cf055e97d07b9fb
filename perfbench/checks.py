"""Output checks for the benchmark's CLI calls.

Each check reads one call's captured output against the facts the plan
computed without ietkit, and returns a list of problems (empty when the
output is right).  Only the trajectory check uses ietkit, and it uses the
cylinder construction, not the orbit stepping that printed the trajectory.
``verify`` calls also report how many factor words failed.
"""

from __future__ import annotations

import json

from workloads import TRAJ_PREFIX, TRAJ_WINDOW, complexity, number, read_instance


def load_instance(path: str):
    """An instance file of ``data`` built through ietkit's public API; these
    files have origin 0."""
    from ietkit import Iet, OrderedAlphabet, Permutation, QuadNum

    values = read_instance(path)
    d = int(values["d"])
    alphabet = OrderedAlphabet(values["alphabet"])
    lengths = {c: QuadNum(*number(values[f"len.{c}"]), d) for c in alphabet}
    return Iet(alphabet, Permutation.from_one_line_letters(values["pi"], alphabet), lengths)


def _line(out: str, prefix: str) -> str | None:
    for line in out.splitlines():
        if line.startswith(prefix):
            return line[len(prefix) :]
    return None


def check_verify(expect: dict, code: int, out: str) -> tuple[int, list[str]]:
    """(failed factor words, problems).  A word fails when the report holds a
    failure record for it; each failure must come from the scan horizon."""
    d, max_len = expect["intervals"], expect["max_len"]
    words = sum(complexity(d, k) for k in range(1, max_len + 1))
    try:
        report = json.loads(out)
    except ValueError:
        return words, [f"exit {code}, no JSON report"]
    problems = []
    if report["words_checked"] != words:
        problems.append(f"words_checked {report['words_checked']}, complexity gives {words}")
    if len(report["records"]) != words:
        problems.append(f"{len(report['records'])} records for {words} words")
    short = [r["word"] for r in report["records"] if len(r["return_words"]) != d]
    if short:
        problems.append(f"records without {d} return words: {short[:5]}")
    reasons: dict[str, list[str]] = {}
    for failure in report["failures"]:
        reasons.setdefault(failure["word"], []).append(failure["reason"])
    for word, why in reasons.items():
        horizon = any(r.startswith("scan incomplete") for r in why)
        if not horizon or not all(r.startswith(("scan incomplete", "methods disagree")) for r in why):
            problems.append(f"{word}: failure not explained by the scan horizon: {why}")
    if code != (1 if reasons else 0):
        problems.append(f"exit {code} with {len(reasons)} failed words")
    return len(reasons), problems


def check_check(expect: dict, code: int, out: str) -> list[str]:
    if code == 0 and _line(out, "keane: ") == f"no connection up to depth {expect['depth']}":
        return []
    return [f"exit {code}, connection check said {_line(out, 'keane: ')!r}"]


def check_traj(expect: dict, code: int, out: str) -> list[str]:
    from ietkit import QuadNum

    word = out.strip()
    if code != 0 or len(word) != expect["steps"]:
        return [f"exit {code}, trajectory of {len(word)} letters"]
    iet = load_instance(expect["file"])
    start = QuadNum(*expect["point"])
    problems = []
    if not iet.cylinder(word[:TRAJ_PREFIX]).contains(start):
        problems.append(f"start point outside the cylinder of the {TRAJ_PREFIX}-letter prefix")
    for i in expect["windows"]:
        if iet.cylinder(word[i : i + TRAJ_WINDOW]).is_empty:
            problems.append(f"factor at {i} is not in the language")
    return problems


def check_language(expect: dict, code: int, out: str) -> list[str]:
    d, max_len = expect["intervals"], expect["max_len"]
    levels: list[set[str]] = [{""}]
    for k in range(1, max_len + 1):
        row = _line(out, f"length {k} (")
        if row is None:
            return [f"no words of length {k}"]
        count, _, body = row.partition("): ")
        found = set(body.split())
        want = complexity(d, k)
        if int(count) != want or len(found) != want or any(len(w) != k for w in found):
            return [f"length {k}: {count} words printed, complexity gives {want}"]
        if any(w[:-1] not in levels[-1] or w[1:] not in levels[-1] for w in found):
            return [f"length {k}: a word whose prefix or suffix is not a factor"]
        levels.append(found)
    return [] if code == 0 else [f"exit {code}"]


def check_bwt(expect: dict, code: int, out: str) -> list[str]:
    transform = _line(out, "transform: ")
    problems = [] if transform == expect["transform"] else ["transform differs from the naive rotation sort"]
    if expect["command"] == "cluster":
        clustering = len(expect["blocks"]) == expect["support"]
        if _line(out, "blocks: ") != " ".join(expect["blocks"]):
            problems.append("blocks differ from the runs of the naive transform")
        if (_line(out, "clustering: ") or "").startswith("yes") != clustering:
            problems.append(f"clustering verdict should be {clustering}")
    return problems if code == 0 else [f"exit {code}"]


def check_ebwt(expect: dict, code: int, out: str) -> list[str]:
    if code == 0 and _line(out, "transform: ") == expect["transform"]:
        return []
    return [f"exit {code}, transform differs from the naive omega-order sort"]


def check_inverse(expect: dict, code: int, out: str) -> list[str]:
    if code == 0 and _line(out, "words: ") == " ".join(expect["words"]):
        return []
    return [f"exit {code}, inverse of the transform is not the multiset"]


def check_diet(expect: dict, code: int, out: str) -> list[str]:
    words = (_line(out, "orbit words: ") or "").split()
    problems = [] if words == expect["words"] else ["orbit words differ from the direct orbits"]
    letters = sorted(set("".join(words)))
    counts = ["".join(words).count(c) for c in letters]
    if counts != expect["composition"]:
        problems.append(f"orbit words spell {counts}, composition is {expect['composition']}")
    return problems if code == 0 else [f"exit {code}"]


def check_classify(expect: dict, code: int, out: str) -> list[str]:
    verdict = _line(out, "ordered_alsinic: ")
    if code == 0 and verdict is not None and verdict.startswith("yes") == expect["ordered_alsinic"]:
        return []
    return [f"exit {code}, ordered_alsinic {verdict!r}, clustering says {expect['ordered_alsinic']}"]


CHECKS = {
    "check": check_check,
    "traj": check_traj,
    "language": check_language,
    "bwt": check_bwt,
    "ebwt": check_ebwt,
    "inverse": check_inverse,
    "diet": check_diet,
    "classify": check_classify,
}
