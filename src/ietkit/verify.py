"""Verification harness: every return word of a regular exchange is clustering.

:func:`verify_return_words` checks, for every factor of an exchange's language
up to a length bound, that two independent constructions of its return words
agree and that every return word is clustering, deciding that once per
conjugacy class, since rotations share one transform.  The first
construction is Rauzy induction.  The second is a trajectory scan for the
letters and the fresh words, from a cylinder that the scan computes itself,
and an exact derivation from a shorter word's set for every other word.
The report is ok exactly when no failure was recorded.  :func:`emit_report`
serializes it as text or as JSON with sorted keys, so identical inputs give
identical bytes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii

from .bwt import clustering_report
from .iet import DEFAULT_KEANE_DEPTH, Iet, IncompleteScanError
from .rauzy import InductionCapError, InductionTrace, induce_to_cylinder


class KeaneCheckFailed(RuntimeError):
    """The instance has a connection, so verification is refused."""


@dataclass(frozen=True)
class ReturnWordCheck:
    word: str
    transform: str
    is_clustering: bool
    blocks: str
    matches_instance_permutation: bool


@dataclass(frozen=True)
class WordRecord:
    word: str
    method_agreement: bool
    return_words: tuple[str, ...]
    checks: tuple[ReturnWordCheck, ...]
    theta: tuple[tuple[str, str], ...] | None = None


@dataclass(frozen=True)
class Failure:
    word: str
    return_word: str | None
    transform: str | None
    reason: str


@dataclass(frozen=True)
class VerificationReport:
    instance: str
    max_len: int
    keane_depth: int
    words_checked: int
    failures: tuple[Failure, ...]
    records: tuple[WordRecord, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _instance_description(iet: Iet) -> str:
    lens = " ".join(f"{c}={iet.length(c).literal()}" for c in iet.alphabet)
    return (
        f"alphabet={iet.alphabet} pi={''.join(iet.image_order_letters())} "
        f"{lens} origin={iet.origin.literal()}"
    )


def verify_return_words(
    iet: Iet,
    max_len: int,
    keane_depth: int = DEFAULT_KEANE_DEPTH,
    cap: int | None = None,
    trace: bool = False,
) -> VerificationReport:
    """Check the clustering property of all return words up to ``max_len``.

    For every nonempty factor w of the language: compute the return words by
    induction and by a second method, require the two sets to be equal, and
    require every return word to be clustering.  The return words of w are
    the pieces between consecutive starts of its occurrences, and the second
    method derives them from a shorter word's set where the extensions of the
    language force them:

    - if ``w[:-1]`` has one right extension, every occurrence of ``w[:-1]``
      is one of w, so w has the return words of ``w[:-1]``;
    - otherwise, if ``w[1:]`` has one left extension ``b = w[0]``, every
      occurrence of ``w[1:]`` is preceded by b, so the occurrences of w start
      one place earlier: each return word u of ``w[1:]`` ends in b, and w
      has the words ``b + u[:-1]``.

    Every other word is *fresh*: a letter, or ``bva`` with v bispecial.  A
    fresh word's set is scanned from a trajectory that starts in its
    cylinder, which the scan computes itself.  A derivation reads only
    a source set that is complete: scanned with all ``d`` words found, or
    derived from such a set.  So a word whose source scan was incomplete, or
    whose source induction failed, is scanned itself, and it records the same
    failures as under a scan of every word.  Neither the scan nor the
    derivation reads the induction, so the two methods stay independent.

    The clustering permutation of each return word is also compared against
    the instance permutation restricted to its support; that comparison is
    recorded, never judged.  ``cap`` bounds each word's chain of Rauzy steps
    (see :func:`~ietkit.rauzy.induce_to_cylinder`).  With ``trace`` each
    record keeps the letter images of its induction morphism.

    Refuses instances whose finite-depth connection check fails.
    """
    verdict = iet.check_keane(keane_depth)
    if not verdict.is_regular:
        c = verdict.failure
        raise KeaneCheckFailed(
            f"connection found: T^{c.n}({c.x}) = {c.y}; "
            f"the return-word analysis needs a connection-free instance"
        )
    alphabet = iet.alphabet
    key = lambda w: (len(w), alphabet.key(w))
    words = [w for row in iet.language(max_len).by_length[1:] for w in row]
    # Each word's number of right and of left extensions, for all but the longest.
    rights, lefts = Counter(w[:-1] for w in words), Counter(w[1:] for w in words)
    failures: list[Failure] = []
    records: list[WordRecord] = []
    # Each return word is checked once, reusing the check of a conjugate: u
    # is a rotation of v exactly when |u| = |v| and u is a factor of vv.
    checked: dict[str, ReturnWordCheck] = {}
    classes: dict[int, dict[str, ReturnWordCheck]] = {}  # by length: vv -> the check of v
    # Each walk resumes from its prefix's trace, except under ``trace``: the
    # resumed final map names its letters differently, and the printed theta
    # is keyed by letter.  Traces and complete second-method sets (see above)
    # are kept for the previous length only.
    traces: dict[str, InductionTrace] = {}
    complete: dict[str, frozenset[str]] = {}
    for w in words:
        if len(next(iter(traces), w)) < len(w) - 1:
            traces = {u: t for u, t in traces.items() if len(u) == len(w) - 1}
            complete = {u: s for u, s in complete.items() if len(u) == len(w) - 1}
        try:
            start = None if trace else traces.get(w[:-1])
            try:
                trace_result = induce_to_cylinder(iet, w, cap=cap, start=start)
            except InductionCapError:
                if start is None:
                    raise
                # A resumed chain can be a few steps longer than the word's
                # own walk from the instance; fail only if that walk fails.
                trace_result = induce_to_cylinder(iet, w, cap=cap)
        except InductionCapError as exc:
            failures.append(Failure(w, None, None, f"induction failed: {exc}"))
            records.append(WordRecord(w, False, (), ()))
            continue
        traces[w] = trace_result
        images = tuple((c, trace_result.theta(c)) for c in trace_result.theta.source)
        induced = frozenset(u for _, u in images)
        if w[:-1] in complete and rights[w[:-1]] == 1:
            second = complete[w] = complete[w[:-1]]
        elif w[1:] in complete and lefts[w[1:]] == 1:
            second = complete[w] = frozenset(w[0] + u[:-1] for u in complete[w[1:]])
        else:
            try:
                second = complete[w] = iet.return_words_scan(w)
            except IncompleteScanError as exc:
                failures.append(Failure(w, None, None, f"scan incomplete: {exc}"))
                second = exc.words
        agreement = second == induced
        if not agreement:
            reason = f"methods disagree: scan {sorted(second)} vs induction {sorted(induced)}"
            failures.append(Failure(w, None, None, reason))
        return_words = tuple(sorted(induced, key=key))
        checks = []
        for u in return_words:
            check = checked.get(u)
            if check is None:
                same = classes.setdefault(len(u), {})
                check = next((c for vv, c in same.items() if u in vv), None)
                if check is None:
                    report = clustering_report(u, alphabet)
                    blocks = "".join(report.block_order)
                    # The block order against the image order of pi restricted to the support.
                    matches = report.is_clustering and blocks == "".join(
                        c for c in iet.image_order_letters() if c in report.support)
                    check = same[u + u] = ReturnWordCheck(u, report.transform, report.is_clustering, blocks, matches)
                check = checked[u] = replace(check, word=u)
            if not check.is_clustering:
                failures.append(Failure(w, u, check.transform, "return word not clustering"))
            checks.append(check)
        records.append(
            WordRecord(
                word=w,
                method_agreement=agreement,
                return_words=return_words,
                checks=tuple(checks),
                theta=images if trace else None,
            )
        )
    return VerificationReport(
        instance=_instance_description(iet),
        max_len=max_len,
        keane_depth=keane_depth,
        words_checked=len(words),
        failures=tuple(failures),
        records=tuple(records),
    )


def _block(items: list[str], pad: str, brackets: str = "[]") -> str:
    """A JSON array (or object) of ``items`` as ``json.dumps(indent=2)`` lays it out at ``pad``."""
    sep = ",\n  " + pad
    return brackets[0] + sep[1:] + sep.join(items) + "\n" + pad + brackets[1] if items else brackets


def _structured(report: VerificationReport) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)`` for the report's fixed
    schema: keys in sorted order, strings through the C escaper, and each
    distinct check rendered once, since return words recur across words."""
    s = encode_basestring_ascii
    obj = lambda pad, fields: _block([f"{s(k)}: {v}" for k, v in fields.items()], pad, "{}")
    null = lambda v: "null" if v is None else s(v)
    flag = lambda v: "true" if v else "false"
    seen: dict[ReturnWordCheck, str] = {}
    records = []
    for r in report.records:
        for c in r.checks:
            if c not in seen:
                seen[c] = obj(8 * " ", dict(
                    blocks=s(c.blocks), clustering=flag(c.is_clustering),
                    matches_instance_permutation=flag(c.matches_instance_permutation),
                    transform=s(c.transform), word=s(c.word)))
        theta = {} if r.theta is None else {
            "theta": obj(6 * " ", {a: s(u) for a, u in sorted(dict(r.theta).items())})}
        records.append(obj(4 * " ", dict(
            checks=_block([seen[c] for c in r.checks], 6 * " "), method_agreement=flag(r.method_agreement),
            return_words=_block([s(u) for u in r.return_words], 6 * " "), **theta, word=s(r.word))))
    failures = [obj(4 * " ", dict(reason=s(f.reason), return_word=null(f.return_word),
                                  transform=null(f.transform), word=s(f.word))) for f in report.failures]
    return obj("", dict(
        failures=_block(failures, "  "), instance=s(report.instance), keane_depth=str(report.keane_depth),
        max_len=str(report.max_len), records=_block(records, "  "), words_checked=str(report.words_checked)))


def emit_report(report: VerificationReport, fmt: str = "text") -> bytes:
    """Deterministic serialization; ``structured`` is JSON with sorted keys."""
    if fmt == "structured":
        return (_structured(report) + "\n").encode()
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = [
        f"instance: {report.instance}",
        f"max word length: {report.max_len}",
        f"connection check depth: {report.keane_depth}",
        f"words checked: {report.words_checked}",
        f"failures: {len(report.failures)}",
    ]
    for f in report.failures:
        where = f" return_word={f.return_word}" if f.return_word else ""
        lines.append(f"FAIL {f.word}:{where} {f.reason}")
    for r in report.records:
        agree = "yes" if r.method_agreement else "NO"
        ok = "yes" if all(c.is_clustering for c in r.checks) and r.checks else "NO"
        pi_match = "yes" if r.checks and all(c.matches_instance_permutation for c in r.checks) else "no"
        lines.append(
            f"word {r.word}: returns={{{', '.join(r.return_words)}}} "
            f"agree={agree} clustering={ok} matches_pi={pi_match}"
        )
        if r.theta is not None:
            body = ", ".join(f"{a}:{img}" for a, img in r.theta)
            lines.append(f"  theta: {body}")
    return ("\n".join(lines) + "\n").encode()
