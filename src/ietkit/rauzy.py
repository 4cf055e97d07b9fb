"""Two-sided Rauzy induction and return words through its morphism calculus.

A right step induces the transformation on the domain cut at the rightmost
interior division point of either partition; a left step mirrors this at the
left end.  Each step involves two letters of the transformation it acts on:

* the *pivot*: the last alphabet letter (right step) or the first (left step);
* the *partner*: the last letter in image order (right) or the first (left).

Comparing the two pieces gives the case: "top_longer" when the pivot piece
is longer, "top_shorter" when it is shorter; equal lengths mean a
zero-connection and the step refuses.  One rule then updates both cases:

* the longer piece loses the shorter piece's length;
* the shorter piece's letter moves next to the longer piece's letter, after
  it for a right step and before it for a left step: in image order when
  the partner is shorter, in alphabet order when the pivot is;
* a left step also moves the origin right by the shorter length.

The rule runs on integer pairs.  It is an invertible integer change of the
origin and the lengths, so every state keeps the lattice of the instance
(see :mod:`ietkit.iet`) with the same least common denominator ``R``.

The updated transformation is re-derived from first principles after every
step: the first-return time and landing point of each new piece are checked
exactly against the original dynamics, so a wrong update cannot survive.
A step changes one piece, the moved letter's; every other piece is its old
piece or that piece cut short.  A piece that lies in the old piece of its
letter, has that piece's translation and has its image in the new domain is
certified whole, since each of its points returns in one step.  The moved
piece is followed from its left end (pieces are left-closed) by
:meth:`Iet.first_return` and must land at that end plus its translation.
Both tests read the lattice pairs of the two maps.

Each step contributes one of the paper's substitutions (see
:mod:`ietkit.morphisms`): ``alpha(partner, pivot)``, partner -> partner
pivot, for top_longer, and ``alpha~(pivot, partner)``, pivot -> partner
pivot, for top_shorter.  The composition over a step sequence that shrinks
the domain onto the cylinder of a word w maps letters to the return words
of w.  The composition order puts the earliest step outermost; the morphism
of a step is read off the transformation the step acts on (not the one it
produces).

The step sequence onto a cylinder is a walk that takes, at each state, a
step whose cut keeps the cylinder inside the domain.  Cylinders of a regular
transformation are admissible intervals (Dolce and Perrin, 2017), so such a
step exists and never leads to a dead end: every step built is kept.  The
instance's irreducibility is tested once, before a walk's first new step;
every state of the chain keeps it.

Because ``cyl(wa)`` lies inside ``cyl(w)``, the walk onto ``cyl(wa)`` may
resume from the final state of the walk onto ``cyl(w)``.  That state is the
first-return map on ``cyl(w)``, and each further step is verified against
the state it acts on exactly as before, so the chain of steps from the
original transformation, and the morphism composed along it, stays
certified end to end.  Should no step keep the smaller cylinder, the walk
raises instead of answering.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import QuadNum, _lt
from .iet import Iet, _at
from .morphisms import Morphism, _valid, compose, identity
from .words import OrderedAlphabet

RIGHT = "right"
LEFT = "left"
TOP_LONGER = "top_longer"
TOP_SHORTER = "top_shorter"


class ZeroConnectionError(ValueError):
    """The pivot and partner pieces have equal length; the step is undefined."""


class InductionCapError(RuntimeError):
    """The induction walk took ``cap`` steps, or got stuck on a connection."""


@dataclass(frozen=True)
class StepRecord:
    kind: str  # RIGHT or LEFT
    case: str  # TOP_LONGER or TOP_SHORTER
    pivot_letter: str
    partner_letter: str
    pre_alphabet: OrderedAlphabet
    post_alphabet: OrderedAlphabet


@dataclass(frozen=True)
class InductionTrace:
    """A certified step sequence: states[0] is the input, states[-1] == final."""

    steps: tuple[StepRecord, ...]
    states: tuple[Iet, ...]
    final: Iet
    theta: Morphism


def _moved(seq: tuple[str, ...], x: str, y: str, after: bool) -> tuple[str, ...]:
    """``seq`` with ``x`` taken out and put back just after (or before) ``y``."""
    rest = [c for c in seq if c != x]
    i = rest.index(y) + after
    return tuple(rest[:i] + [x] + rest[i:])


def _contains(outer, R: int, inner, S: int, d: int) -> bool:
    """Whether ``[inner[0], inner[-1])`` lies in ``[outer[0], outer[-1])``,
    given as pairs over the denominators ``S`` and ``R``."""
    ((ap, aq), *_, (bp, bq)), ((xp, xq), *_, (yp, yq)) = outer, inner
    return not _lt(xp * R - ap * S, xq * R - aq * S, d) and not _lt(bp * S - yp * R, bq * S - yq * R, d)


def _verify_induced(base: Iet, induced: Iet) -> None:
    """Check the induced map against exact first returns of the base map.

    The induced domain must lie in the base domain, its ends' pairs compared
    across two lattices of one radicand that need not share ``R``.  When the
    maps share ``(R, d)``, a piece inside its letter's base piece, with that
    piece's translation and its image in the induced domain, returns whole in
    one step.  Every other piece must come back from its left end in one or
    two steps of the base map, landing where the induced translation says,
    both read off the induced lattice.
    """
    (base_R, base_d, outer, base_rows), (R, d, bounds, rows) = base._grid, induced._grid
    if not _contains(outer, base_R, bounds, R, d or base_d):
        raise AssertionError("induced domain escapes the base domain")
    sub = induced.domain
    rank = base.alphabet._rank if (base_R, base_d) == (R, d) else {}
    for (P, Q), (c, rp, rq, tp, tq) in zip(bounds, rows):
        i = rank.get(c)
        if (
            i is not None
            and base_rows[i][3:] == (tp, tq)
            and _contains(outer[i : i + 2], R, ((P, Q), (rp, rq)), R, d)
            and _contains(bounds, R, ((P + tp, Q + tq), (rp + tp, rq + tq)), R, d)
        ):
            continue
        landing, steps = base.first_return(sub, QuadNum(P, Q, R, d), cap=4)
        # It must be (P + tp + (Q + tq) sqrt(d))/R; first_return refuses two radicands.
        if steps > 2 or landing.p * R != (P + tp) * landing.r or landing.q * R != (Q + tq) * landing.r:
            raise AssertionError(
                f"induced map disagrees with first return on piece {c!r}"
            )


def _inducible(iet: Iet) -> Iet:
    """``iet``, refused unless a walk may start from it (a step keeps both conditions)."""
    if len(iet.alphabet.letters) < 2:
        raise ValueError("induction needs at least two intervals")
    if not iet.permutation.is_irreducible:
        raise ValueError("induction needs an irreducible permutation")
    return iet


def _step(iet: Iet, kind: str) -> tuple[Iet, StepRecord]:
    alphabet = iet.alphabet
    letters = alphabet.letters
    image = iet.image_order_letters()
    end = -1 if kind == RIGHT else 0
    # Irreducibility already rules out pivot == partner.
    pivot, partner = letters[end], image[end]
    R, d, bounds, _ = iet._grid
    lengths = dict(iet._lens)
    piv, par = lengths[pivot], lengths[partner]
    if piv == par:
        raise ZeroConnectionError(
            f"{kind} step undefined: pieces {pivot!r} and {partner!r} have equal length {iet.length(pivot)}"
        )

    top_longer = _lt(par[0] - piv[0], par[1] - piv[1], d)
    case, longer, (sp, sq) = (TOP_LONGER, pivot, par) if top_longer else (TOP_SHORTER, partner, piv)
    (P, Q), (oP, oQ) = lengths[longer], bounds[0]
    lengths[longer] = P - sp, Q - sq
    after = kind == RIGHT
    if case == TOP_LONGER:
        image = _moved(image, partner, pivot, after)
    else:
        letters = _moved(letters, pivot, partner, after)
    post_alphabet = alphabet if case == TOP_LONGER else OrderedAlphabet._reordered(letters)
    induced = Iet.__new__(Iet)
    induced._place(post_alphabet, image, R, d, (oP, oQ) if after else (oP + sp, oQ + sq), lengths)
    _verify_induced(iet, induced)
    return induced, StepRecord(kind, case, pivot, partner, alphabet, post_alphabet)


def rauzy_right(iet: Iet) -> tuple[Iet, StepRecord]:
    """Induce on the domain cut at the rightmost interior division point."""
    return _step(_inducible(iet), RIGHT)


def rauzy_left(iet: Iet) -> tuple[Iet, StepRecord]:
    """Induce on the domain cut at the leftmost interior division point."""
    return _step(_inducible(iet), LEFT)


def step_morphism(record: StepRecord) -> Morphism:
    """The substitution contributed by one step.

    top_longer is ``alpha(partner, pivot)``, partner -> partner pivot, and
    top_shorter is ``alpha~(pivot, partner)``, pivot -> partner pivot.  The
    source is the post-step alphabet and the target the pre-step alphabet,
    so the morphisms of consecutive steps compose.  It is ``substitution``'s
    morphism, built unchecked: both alphabets hold the same letters.
    """
    a = record.partner_letter if record.case == TOP_LONGER else record.pivot_letter
    images = {c: c for c in record.post_alphabet} | {a: record.partner_letter + record.pivot_letter}
    return _valid(record.post_alphabet, record.pre_alphabet, images)


def _keeps(iet: Iet, kind: str, target: tuple[tuple[int, int], tuple[int, int]]) -> bool:
    """Whether a ``kind`` step keeps ``target``, two ends on the lattice of
    ``iet``, inside the domain: on a right step its right end must not pass
    the larger last cut of the two partitions, on a left step the smaller
    first cut must not pass its left end.  Equal cuts are a zero
    connection, where no step is defined."""
    _, d, bounds, _ = iet._grid
    i, s, (tp, tq) = (-2, 1, target[1]) if kind == RIGHT else (1, -1, target[0])
    a, b = bounds[i], iet._image_cuts[i]
    return a != b and any(not _lt(s * (P - tp), s * (Q - tq), d) for P, Q in (a, b))


def induce_to_cylinder(
    iet: Iet,
    w: str,
    cap: int | None = None,
    prefer_left: bool = False,
    start: InductionTrace | None = None,
) -> InductionTrace:
    """Certified induction of ``iet`` onto the cylinder of ``w``.

    Each step takes the preferred side when it keeps the cylinder inside
    the domain, and the other side otherwise; ``cap`` bounds the steps
    taken.  The caller is responsible for regularity (see
    ``Iet.check_keane``); on a transformation with connections the walk
    fails honestly with :class:`InductionCapError` instead of producing a
    wrong answer.

    With ``start``, a trace of ``iet`` whose final domain contains the
    cylinder of ``w`` (for example the trace of a prefix of ``w``, since
    ``cyl(wa)`` lies inside ``cyl(w)``), the walk resumes from
    ``start.final`` instead of from ``iet``.  The returned trace still runs
    from ``iet``: its steps, states and ``theta`` extend those of
    ``start``, ``cap`` bounds the whole step chain, and every new step is
    verified like any other.  The final map has the same pieces as the
    walk from ``iet``, though its letters may be named differently.
    """
    target = iet.cylinder(w)
    if target.is_empty:
        raise ValueError(f"{w!r} is not in the language of this transformation")
    if cap is None:
        cap = 64 * (len(w) + 1)
    if start is None:
        start = InductionTrace((), (iet,), iet, identity(iet.alphabet))
    elif start.states[0] != iet:
        raise ValueError("the start trace belongs to another transformation")
    # Every state of the walk keeps the lattice of ``iet``, the start's too.
    R, d, bounds, _ = start.final._grid
    ends = (_at(target.left, R), _at(target.right, R))
    if not _contains(bounds, R, ends, R, d):
        raise ValueError(f"the start trace's domain does not contain the cylinder of {w!r}")
    steps, states, theta = list(start.steps), list(start.states), start.theta
    order = (LEFT, RIGHT) if prefer_left else (RIGHT, LEFT)
    # A start chain already longer than ``cap`` fails even when no step is left.
    while (states[-1]._grid[2][0], states[-1]._grid[2][-1]) != ends or len(steps) > cap:
        if len(steps) >= cap:
            raise InductionCapError(
                f"no step sequence onto the cylinder of {w!r} within {cap} steps"
            )
        kind = next((k for k in order if _keeps(states[-1], k, ends)), None)
        if kind is None:
            raise InductionCapError(
                f"no step keeps the cylinder of {w!r} inside the domain "
                f"(steps taken: {len(steps)}); the transformation has a connection"
            )
        if len(steps) == len(start.steps):
            _inducible(iet)
        state, record = _step(states[-1], kind)
        steps.append(record)
        states.append(state)
        theta = compose(theta, step_morphism(record))
    return InductionTrace(tuple(steps), tuple(states), states[-1], theta)


def return_words_induction(iet: Iet, w: str, cap: int | None = None) -> frozenset[str]:
    """Return words of ``w`` as the letter images of the induction morphism."""
    trace = induce_to_cylinder(iet, w, cap=cap)
    return frozenset(trace.theta(c) for c in trace.theta.source)
