"""The ``ietkit`` executable: argument parsing and printing over the library.

Subcommands are ``bwt``, ``ebwt``, ``ebwt-inverse``, ``cluster``,
``morphism apply``, ``diet``, ``iet check|traj|language|rauzy|returns``,
``extgraph``, ``classify`` and ``verify``.  Instance files are read by
:mod:`ietkit.instance`, and ``verify`` runs :mod:`ietkit.verify`.  A bad
input, or a request over a work budget, is refused before any work with one
``error:`` line on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys

from .arith import QuadNum
from .bwt import ClusteringReport, clustering_report, inverse_ebwt, multiset_clustering_report
from .diet import Diet, diet_action, diet_cylinder, orbit_words
from .extgraph import (
    LanguageSample,
    SampleTooLargeError,
    classify,
    extension_graph,
    is_compatible,
    is_forest,
    is_tree,
    sample_from_iet,
    sample_from_multiset,
    sample_from_periodic,
)
from .iet import DEFAULT_KEANE_DEPTH, Iet, IncompleteScanError
from .instance import parse_iet_file
from .morphisms import Morphism
from .rauzy import InductionCapError, induce_to_cylinder, rauzy_left, rauzy_right, step_morphism
from .verify import KeaneCheckFailed, emit_report, verify_return_words
from .words import OrderedAlphabet, Permutation

# Up-front work budgets of the commands that follow orbits, in orbit steps
# and in letters of the language.  Each is over 100 times the largest call
# of the benchmark (`iet traj --steps 10000`, `iet check --depth 5000` on
# four letters, `diet --words` on 3001 points, `iet language --max-len 60` on
# four letters).
MAX_ORBIT_STEPS = 2_000_000
MAX_LANGUAGE_LETTERS = 10**8
# Budgets of the commands whose output outgrows their input: an explicit
# `iet rauzy --steps` word (the coordinates gain about a tenth of a digit a
# step, so time and output grow about quadratically; 4096 steps `rlrl...` on
# golden.iet print 10 MB) and the letters that `morphism apply` prints.
MAX_RAUZY_STEPS = 4096
MAX_IMAGE_LETTERS = 10**8
# Return words a `verify` report may hold, d for each word of the language:
# over 100 times the benchmark's largest call (`verify --max-len 10` on
# golden.iet, 120 words of three return words each).
MAX_RETURN_SLOTS = 50_000


def _require_nonnegative(flag: str, value: int) -> None:
    """Refuse, before any work, a negative count given to ``flag``."""
    if value < 0:
        raise ValueError(f"{flag} must be nonnegative, got {value}")


def _require_steps(what: str, steps: int) -> None:
    """Refuse, before any work, a request of more than MAX_ORBIT_STEPS orbit steps."""
    if steps > MAX_ORBIT_STEPS:
        raise ValueError(f"{what} would take {steps} orbit steps, more than {MAX_ORBIT_STEPS}")


def _require_letters(what: str, iet: Iet, n: int) -> None:
    """Refuse, before any work, a language of words up to length ``n`` that
    could spell more than MAX_LANGUAGE_LETTERS letters: words of length k
    number at most (d - 1) k + 1 in any exchange."""
    letters = (iet.d - 1) * n * (n + 1) * (2 * n + 1) // 6 + n * (n + 1) // 2
    if letters > MAX_LANGUAGE_LETTERS:
        raise ValueError(f"{what} would spell {letters} letters, more than {MAX_LANGUAGE_LETTERS}")


def _require_slots(what: str, iet: Iet, n: int) -> None:
    """Refuse, before any work, a ``verify`` report of more than
    MAX_RETURN_SLOTS return words: d for each of the at most (d - 1) k + 1
    words of each length k = 1..n."""
    slots = iet.d * ((iet.d - 1) * n * (n + 1) // 2 + n)
    if slots > MAX_RETURN_SLOTS:
        raise ValueError(f"{what} would report {slots} return words, more than {MAX_RETURN_SLOTS}")


# -- small shared helpers -----------------------------------------------------


def _word_arg(text: str) -> str:
    """Accept the visible epsilon for the empty word."""
    return "" if text in ("ε", "eps") else text


def _cluster_payload(word_display: str, report: ClusteringReport) -> dict:
    return {
        "input": word_display,
        "transform": report.transform,
        "blocks": list(report.block_order),
        "permutation": "".join(report.block_order) if report.is_clustering else None,
        "perfect": report.is_perfect,
    }


def _print_with_json(lines: list[str], path: str | None, payload: dict) -> int:
    """Print ``lines``, then write ``payload`` as JSON to ``path`` ('-' for
    stdout, None for no record).  The file is opened before the first line
    is printed, so a path that cannot be written prints only the error."""
    to_file = path is not None and path != "-"
    with open(path, "w", encoding="utf-8") if to_file else contextlib.nullcontext(sys.stdout) as handle:
        print("\n".join(lines))
        if path is not None:
            handle.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def _cluster_lines(report: ClusteringReport) -> list[str]:
    lines = [f"transform: {report.transform}", f"blocks: {' '.join(report.block_order)}"]
    if report.is_clustering:
        lines.append(f"clustering: yes (permutation {''.join(report.block_order)} on support {report.support})")
        lines.append(f"perfect: {'yes' if report.is_perfect else 'no'}")
    else:
        lines += ["clustering: no", "perfect: no"]
    return lines


def _parse_source(text: str, alphabet_text: str | None, max_len: int):
    """Build a LanguageSample from 'periodic:w', 'multiset:w1,w2' or 'iet:file'.

    Returns (sample, entries, image_order): the word list for word sources,
    and the instance's image order of letters for interval exchange sources.
    """
    if ":" not in text:
        raise ValueError(f"bad source {text!r}, expected periodic:..., multiset:... or iet:...")
    kind, _, body = text.partition(":")
    try:
        if kind in ("periodic", "multiset"):
            entries = [body] if kind == "periodic" else [w for w in body.split(",") if w]
            if not entries:
                raise ValueError("empty multiset source")
            alphabet = OrderedAlphabet(sorted(set("".join(entries))) if alphabet_text is None else alphabet_text)
            if kind == "periodic":
                return sample_from_periodic(body, alphabet, max_len), entries, None
            return sample_from_multiset(entries, alphabet, max_len), entries, None
    except SampleTooLargeError as exc:
        raise ValueError(f"--depth is too large for this source: {exc}") from None
    if kind == "iet":
        if alphabet_text is not None:
            raise ValueError(
                "--alphabet applies to word sources only: an iet: source takes its alphabet from its instance file"
            )
        iet = parse_iet_file(body)
        _require_letters(f"--depth is too large for this source: a sample of depth {max_len}", iet, max_len)
        return sample_from_iet(iet, max_len, label=text), None, iet.image_order_letters()
    raise ValueError(f"unknown source kind {kind!r}")


def _orders_for(sample: LanguageSample, entries, image_order, spec: str):
    """Resolve an order pair 'left:right'; each side is A, pi, or explicit letters."""
    left_text, _, right_text = spec.partition(":")
    if not right_text:
        raise ValueError(f"bad orders {spec!r}, expected e.g. pi:A")

    def resolve(token: str):
        if token == "A":
            return sample.alphabet.letters
        if token == "pi":
            if image_order is not None:
                return image_order
            if len(entries) > 1:
                report = multiset_clustering_report(entries, sample.alphabet)
            else:
                report = clustering_report(entries[0], sample.alphabet)
            if not report.is_clustering or report.support != sample.alphabet:
                raise ValueError(
                    f"source is not clustering over {sample.alphabet}, cannot derive the pi order"
                )
            return report.block_order
        return OrderedAlphabet(token).letters

    return resolve(left_text), resolve(right_text)


# -- subcommand handlers --------------------------------------------------------


def _cmd_bwt(args) -> int:
    report = clustering_report(args.word, OrderedAlphabet(args.alphabet))
    return _print_with_json([f"transform: {report.transform}"], args.json, _cluster_payload(args.word, report))


def _cmd_ebwt(args) -> int:
    report = multiset_clustering_report(args.words, OrderedAlphabet(args.alphabet))
    payload = _cluster_payload(" ".join(args.words), report)
    return _print_with_json([f"transform: {report.transform}"], args.json, payload)


def _cmd_ebwt_inverse(args) -> int:
    words = inverse_ebwt(args.string, OrderedAlphabet(args.alphabet))
    payload = {"input": args.string, "words": list(words)}
    return _print_with_json([f"words: {' '.join(words)}"], args.json, payload)


def _cmd_cluster(args) -> int:
    report = clustering_report(args.word, OrderedAlphabet(args.alphabet))
    lines = [f"input: {args.word}", *_cluster_lines(report)]
    return _print_with_json(lines, args.json, _cluster_payload(args.word, report))


def _cmd_morphism_apply(args) -> int:
    images = {}
    for piece in args.spec.split(","):
        if ":" not in piece:
            raise ValueError(f"bad image {piece!r}, expected letter:word")
        letter, _, image = (part.strip() for part in piece.partition(":"))
        if letter in images:
            raise ValueError(f"letter {letter!r} is given twice in --spec")
        images[letter] = image
    source = OrderedAlphabet(images.keys() if args.alphabet is None else args.alphabet)
    target_letters = sorted(set("".join(images.values())) | set(source.letters))
    target = source if set(target_letters) == set(source.letters) else OrderedAlphabet(target_letters)
    morphism = Morphism(source, target, images)
    word = source.require(_word_arg(args.word))
    letters = sum(word.count(c) * len(image) for c, image in morphism.images.items())
    if letters > MAX_IMAGE_LETTERS:
        raise ValueError(f"the image of the word would spell {letters} letters, more than {MAX_IMAGE_LETTERS}")
    print(morphism(word))
    return 0


def _cmd_diet(args) -> int:
    try:
        parts = [int(s) for s in args.composition.split(",") if s]
    except ValueError:
        raise ValueError(f"--composition must be comma-separated integers, got {args.composition!r}") from None
    if not parts:
        raise ValueError(f"--composition must have at least one part, got {args.composition!r}")
    alphabet = OrderedAlphabet("abcdefghijklmnopqrstuvwxyz"[: len(parts)] if args.alphabet is None else args.alphabet)
    pi = Permutation.parse(args.pi, alphabet)
    diet = Diet(parts, pi)
    # The action and the orbits take n steps, and the cylinder walk one per letter.
    cylinder = None if args.cylinder is None else _word_arg(args.cylinder)
    _require_steps(f"--composition {args.composition}", diet.n + len(cylinder or ""))
    mu = diet_action(diet)
    cells = None if cylinder is None else diet_cylinder(diet, cylinder, alphabet)
    print(f"composition: {','.join(map(str, parts))}")
    print(f"pi: {pi.one_line_letters(alphabet)}")
    print(f"shifts: {','.join(map(str, diet.shifts))}")
    print(f"action: {mu.cycle_string()}")
    if args.orbits:
        cycles = " ".join("(" + ",".join(str(i + 1) for i in cyc) + ")" for cyc in mu.cycles())
        print(f"orbits: {cycles}")
    if args.words:
        print(f"orbit words: {' '.join(orbit_words(diet, alphabet))}")
    if cells is not None:
        shown = "{" + ",".join(map(str, sorted(cells))) + "}"
        print(f"cylinder {args.cylinder or 'ε'}: {shown}")
    return 0


def _print_iet(iet: Iet, indent: str = "") -> None:
    lens = " ".join(f"{c}={iet.length(c).literal()}" for c in iet.alphabet)
    print(f"{indent}alphabet: {iet.alphabet}  pi: {''.join(iet.image_order_letters())}")
    print(f"{indent}lengths: {lens}")
    print(f"{indent}domain: [{iet.domain.left.literal()}, {iet.domain.right.literal()})")


def _cmd_iet_check(args) -> int:
    _require_nonnegative("--depth", args.depth)
    iet = parse_iet_file(args.file)
    # The connection check follows d - 1 orbits for --depth steps each.
    _require_steps(f"--depth {args.depth}", (iet.d - 1) * args.depth)
    _print_iet(iet)
    verdict = iet.check_keane(args.depth)
    if verdict.is_regular:
        print(f"keane: no connection up to depth {verdict.regular_to_depth}")
    else:
        c = verdict.failure
        kind = "0-connection" if c.is_zero_connection else "connection"
        print(f"keane: {kind} T^{c.n}({c.x.literal()}) = {c.y.literal()}")
    return 0


def _cmd_iet_traj(args) -> int:
    _require_nonnegative("--steps", args.steps)
    _require_steps(f"--steps {args.steps}", args.steps)
    iet = parse_iet_file(args.file)
    point = QuadNum.parse(args.point, iet.radicand)
    iet.letter_at(point)  # refuses a point outside the domain, --steps 0 included
    print(iet.trajectory(point, args.steps))
    return 0


def _cmd_iet_language(args) -> int:
    _require_nonnegative("--max-len", args.max_len)
    iet = parse_iet_file(args.file)
    _require_letters(f"--max-len {args.max_len}", iet, args.max_len)
    for k, row in enumerate(iet.language(args.max_len).by_length):
        label = " ".join(row) if k else "ε"
        print(f"length {k} ({len(row)}): {label}")
    return 0


def _describe_step(i: int, record, morphism) -> str:
    images = ", ".join(f"{c}:{morphism.images[c]}" for c in morphism.source if morphism.images[c] != c)
    return (
        f"step {i}: {record.kind} {record.case} pivot={record.pivot_letter} "
        f"partner={record.partner_letter} morphism {images or 'identity'}"
    )


def _cmd_iet_rauzy(args) -> int:
    if args.steps == "auto" and args.word is None:
        raise ValueError("--steps auto needs --word")
    if args.steps != "auto" and not set(args.steps) <= {"r", "l"}:
        raise ValueError(f"steps must be a word over 'r'/'l' or 'auto', got {args.steps!r}")
    if args.steps != "auto" and len(args.steps) > MAX_RAUZY_STEPS:
        raise ValueError(f"--steps has {len(args.steps)} steps, more than {MAX_RAUZY_STEPS}")
    iet = parse_iet_file(args.file)
    if args.steps == "auto":
        trace = induce_to_cylinder(iet, _word_arg(args.word), cap=args.cap)
        steps = zip(trace.steps, trace.states[1:])
    else:
        steps = _explicit_steps(iet, args.steps)
    first = list(itertools.islice(steps, 1))  # a first step that fails prints nothing
    print("start:")
    _print_iet(iet, indent="  ")
    for i, (record, state) in enumerate(itertools.chain(first, steps), start=1):
        print(_describe_step(i, record, step_morphism(record)))
        _print_iet(state, indent="  ")
    return 0


def _explicit_steps(iet, letters: str):
    """(record, state) of each step, taken when read: a failing step leaves the earlier ones printed."""
    for letter in letters:
        iet, record = rauzy_right(iet) if letter == "r" else rauzy_left(iet)
        yield record, iet


def _cmd_iet_returns(args) -> int:
    iet = parse_iet_file(args.file)
    word = _word_arg(args.word)
    key = lambda u: (len(u), iet.alphabet.key(u))
    # Every requested method runs before anything is printed.
    trace = induce_to_cylinder(iet, word, cap=args.cap) if args.method in ("induction", "both") else None
    scanned = iet.return_words_scan(word) if args.method in ("scan", "both") else None
    induced = None
    if trace is not None:
        images = [(c, trace.theta(c)) for c in trace.theta.source]
        induced = frozenset(u for _, u in images)
        if args.trace:
            print(f"steps: {' '.join(r.kind for r in trace.steps) or '(none)'}")
            print(f"theta: {', '.join(f'{c}:{u}' for c, u in images)}")
        print(f"induction returns: {' '.join(sorted(induced, key=key))}")
    if scanned is not None:
        print(f"scan returns: {' '.join(sorted(scanned, key=key))}")
    if args.method == "both":
        print(f"agreement: {'yes' if scanned == induced else 'NO'}")
        return 0 if scanned == induced else 1
    return 0


def _cmd_extgraph(args) -> int:
    if args.depth < 1:
        raise ValueError(f"--depth must be at least 1, got {args.depth}")
    sample, entries, image_order = _parse_source(args.source, args.alphabet, args.depth)
    word = _word_arg(args.word)
    graph = extension_graph(sample, word)
    order1, order2 = _orders_for(sample, entries, image_order, args.orders)
    compatible = is_compatible(graph, order1, order2)  # raises, before any output, on an unranked vertex
    print(f"source: {sample.source}")
    print(f"word: {word or 'ε'}")
    print(f"left ({' < '.join(order1)}): {' '.join(c for c in order1 if c in graph.left)}")
    print(f"right ({' < '.join(order2)}): {' '.join(c for c in order2 if c in graph.right)}")
    shown = sorted(graph.edges, key=lambda e: (order1.index(e[0]), order2.index(e[1])))
    print("edges: " + " ".join(f"({a},{b})" for a, b in shown))
    print(f"tree: {'yes' if is_tree(graph) else 'no'}")
    print(f"forest: {'yes' if is_forest(graph) else 'no'}")
    print(f"compatible: {'yes' if compatible else 'no'}")
    if args.layout:
        print("layout:")
        for a in order1:
            if a in graph.left:
                print(f"  {a} | {' '.join(b for x, b in shown if x == a)}")
    return 0


def _cmd_classify(args) -> int:
    if args.depth < 0:
        # The message classify() itself gives, before the sample depth
        # args.depth + 2 can fail on its own terms.
        raise ValueError(f"classification depth must be nonnegative, got {args.depth}")
    sample, entries, image_order = _parse_source(args.source, args.alphabet, args.depth + 2)
    order1, order2 = _orders_for(sample, entries, image_order, args.orders)
    report = classify(sample, order1, order2, args.depth)
    print(f"source: {sample.source}")
    print(f"checked words up to length {report.checked_up_to} (bounded-depth verdicts)")
    if entries is not None and len(entries) > 1:
        print("note: multiset classification is checked empirically at this depth only")
    for flag in ("dendric", "alsinic", "ordered_dendric", "ordered_alsinic"):
        value = getattr(report, flag)
        witness = report.witnesses.get(flag)
        extra = "" if value else f" (witness: {witness or 'ε'})"
        print(f"{flag}: {'yes' if value else 'no'}{extra}")
    return 0


def _cmd_verify(args) -> int:
    _require_nonnegative("--keane-depth", args.keane_depth)
    _require_nonnegative("--max-len", args.max_len)
    iet = parse_iet_file(args.file)
    _require_steps(f"--keane-depth {args.keane_depth}", (iet.d - 1) * args.keane_depth)
    _require_letters(f"--max-len {args.max_len}", iet, args.max_len)
    _require_slots(f"--max-len {args.max_len}", iet, args.max_len)
    try:
        report = verify_return_words(iet, args.max_len, args.keane_depth, cap=args.cap, trace=args.trace)
    except KeaneCheckFailed as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    fmt = "structured" if args.format == "json" else "text"
    payload = emit_report(report, fmt)
    if args.output and args.output != "-":
        with open(args.output, "wb") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload.decode())
    return 0 if report.ok else 1


def _env_int(name: str) -> int | None:
    """The nonnegative integer in environment variable ``name``, or None
    when it is unset or empty."""
    text = os.environ.get(name, "").strip()
    if not text:
        return None
    if not text.isdecimal():
        raise ValueError(f"{name} must be a nonnegative integer, got {text!r}")
    return int(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ietkit",
        description="Exact interval exchanges, Rauzy induction, and clustering analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bwt", help="Burrows-Wheeler transform of a word")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--json", default=None, help="write a JSON record to this path ('-' for stdout)")
    p.add_argument("word")
    p.set_defaults(func=_cmd_bwt)

    p = sub.add_parser("ebwt", help="extended transform of a Lyndon multiset")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--json", default=None)
    p.add_argument("words", nargs="+")
    p.set_defaults(func=_cmd_ebwt)

    p = sub.add_parser("ebwt-inverse", help="invert the extended transform")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--json", default=None)
    p.add_argument("string")
    p.set_defaults(func=_cmd_ebwt_inverse)

    p = sub.add_parser("cluster", help="clustering analysis of a word")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--json", default=None)
    p.add_argument("word")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("morphism", help="substitution morphisms")
    msub = p.add_subparsers(dest="subcommand", required=True)
    m = msub.add_parser("apply", help="apply a letter-to-word substitution")
    m.add_argument("--spec", required=True, help='images, e.g. "a:ab,b:b,c:c"')
    m.add_argument("--alphabet", default=None, help="source alphabet order (defaults to spec order)")
    m.add_argument("word")
    m.set_defaults(func=_cmd_morphism_apply)

    p = sub.add_parser("diet", help="discrete interval exchange")
    p.add_argument("--composition", required=True, help="comma-separated parts, e.g. 4,2,1")
    p.add_argument("--pi", required=True, help="one-line letters or cycles")
    p.add_argument("--alphabet", default=None)
    p.add_argument("--orbits", action="store_true")
    p.add_argument("--words", action="store_true")
    p.add_argument("--cylinder", default=None, metavar="WORD")
    p.set_defaults(func=_cmd_diet)

    p = sub.add_parser("iet", help="interval exchange from an instance file")
    isub = p.add_subparsers(dest="subcommand", required=True)

    c = isub.add_parser("check", help="validate and run the connection check")
    c.add_argument("file")
    c.add_argument("--depth", type=int, default=None)
    c.set_defaults(func=_cmd_iet_check)

    c = isub.add_parser("traj", help="orbit coding of a point")
    c.add_argument("file")
    c.add_argument("--point", required=True, help="number literal, e.g. (0) or (3, -1, 2)")
    c.add_argument("--steps", type=int, required=True)
    c.set_defaults(func=_cmd_iet_traj)

    c = isub.add_parser("language", help="factors up to a length bound")
    c.add_argument("file")
    c.add_argument("--max-len", type=int, required=True)
    c.set_defaults(func=_cmd_iet_language)

    c = isub.add_parser("rauzy", help="run induction steps")
    c.add_argument("file")
    c.add_argument("--steps", required=True, help="word over r/l, or 'auto' with --word")
    c.add_argument("--word", default=None)
    c.set_defaults(func=_cmd_iet_rauzy)

    c = isub.add_parser("returns", help="return words of a factor")
    c.add_argument("file")
    c.add_argument("--word", required=True)
    c.add_argument("--method", choices=("scan", "induction", "both"), default="both")
    c.add_argument("--trace", action="store_true")
    c.set_defaults(func=_cmd_iet_returns)

    p = sub.add_parser("extgraph", help="extension graph of a word in a sampled language")
    p.add_argument("--source", required=True, help="periodic:w, multiset:w1,w2 or iet:file")
    p.add_argument("--word", required=True)
    p.add_argument("--orders", default="A:A", help="left:right, each A, pi, or explicit letters")
    p.add_argument("--alphabet", default=None)
    p.add_argument("--depth", type=int, default=None, help="sample depth (default |word| + 2)")
    p.add_argument("--layout", action="store_true", help="print a two-column text layout")
    p.set_defaults(func=_cmd_extgraph)

    p = sub.add_parser("classify", help="dendric/alsinic classification of a sampled language")
    p.add_argument("--source", required=True)
    p.add_argument("--depth", type=int, required=True, help="check words up to this length")
    p.add_argument("--orders", default="A:A")
    p.add_argument("--alphabet", default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="return-word clustering verification of an instance")
    p.add_argument("file")
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--keane-depth", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default=None, help="write the report to this path")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        keane_depth = _env_int("IETKIT_KEANE_DEPTH")
        cap = _env_int("IETKIT_INDUCTION_CAP")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args = _build_parser().parse_args(argv)
    args.cap = cap
    # Defaults that depend on the environment or on another argument are
    # filled here, so the parser is built once per process.
    if keane_depth is None:
        keane_depth = DEFAULT_KEANE_DEPTH
    if args.command == "verify" and args.keane_depth is None:
        args.keane_depth = keane_depth
    elif args.command == "iet" and args.subcommand == "check" and args.depth is None:
        args.depth = keane_depth
    elif args.command == "extgraph" and args.depth is None:
        args.depth = len(_word_arg(args.word)) + 2
    try:
        return args.func(args)
    except (ValueError, InductionCapError, IncompleteScanError, OSError) as exc:
        message = str(exc)
        if message.splitlines() != [message]:  # a line break among the symbols of an argument
            message = message.encode("unicode_escape").decode("ascii")
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
