"""Outside-in tracing of ietkit: spans and counters patched in from here.

Nothing in ietkit knows about this module.  :class:`Tracer` replaces public
functions and methods with wrappers for one pass and restores them after.

* A span records calls and self time: its duration minus the part covered by
  the spans it called.
* A counter counts calls of a frequent function, such as ``QuadNum``
  construction.  Counters run in their own pass, because their wrappers
  would inflate the self time of every span around them.

A module-level function is replaced under every name that binds it in every
loaded ietkit module, since ``from .bwt import clustering_report`` gives
``ietkit.cli`` its own binding.  Modules are fetched with
``importlib.import_module``: the attribute ``bwt`` of the package is the
function, not the module.  A function is looked up first in its home module
and then in every loaded ietkit module, so moving it to another module keeps
its span.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

# (span name, home module, attribute, workloads that must call it)
SPANS = (
    ("cli.main", "ietkit.cli", "main", "verify orbit words"),
    ("cli.parse_iet_file", "ietkit.cli", "parse_iet_file", "verify orbit"),
    ("cli.verify_return_words", "ietkit.cli", "verify_return_words", "verify"),
    ("cli.emit_report", "ietkit.cli", "emit_report", "verify"),
    ("iet.check_keane", "ietkit.iet", "Iet.check_keane", "verify orbit"),
    ("iet.trajectory", "ietkit.iet", "Iet.trajectory", "orbit"),
    ("iet.language", "ietkit.iet", "Iet.language", "verify orbit"),
    ("iet.cylinder", "ietkit.iet", "Iet.cylinder", "verify"),
    ("iet.return_words_scan", "ietkit.iet", "Iet.return_words_scan", "verify"),
    ("iet.first_return", "ietkit.iet", "Iet.first_return", "verify"),
    ("rauzy.induce_to_cylinder", "ietkit.rauzy", "induce_to_cylinder", "verify"),
    ("morphisms.compose", "ietkit.morphisms", "compose", "verify"),
    ("bwt.bwt", "ietkit.bwt", "bwt", "verify words"),
    ("bwt.ebwt", "ietkit.bwt", "ebwt", "words"),
    ("bwt.inverse_ebwt", "ietkit.bwt", "inverse_ebwt", "words"),
    ("bwt.clustering_report", "ietkit.bwt", "clustering_report", "verify words"),
    ("words.lyndon_representative", "ietkit.words", "lyndon_representative", "words"),
    ("diet.orbit_words", "ietkit.diet", "orbit_words", "words"),
    ("diet.diet_action", "ietkit.diet", "diet_action", "words"),
    ("extgraph.sample", "ietkit.extgraph", "sample_from_periodic", "words"),
    ("extgraph.sample", "ietkit.extgraph", "sample_from_multiset", "words"),
    ("extgraph.sample", "ietkit.extgraph", "sample_from_iet", ""),
    ("extgraph.extension_graph", "ietkit.extgraph", "extension_graph", "words"),
    ("extgraph.classify", "ietkit.extgraph", "classify", "words"),
)

# (counter name, home module, attribute, workloads that must call it)
COUNTERS = (
    ("arith.quadnum_new", "ietkit.arith", "QuadNum.__init__", "verify orbit"),
    ("iet.letter_at", "ietkit.iet", "Iet.letter_at", "verify orbit"),
    ("iet.new", "ietkit.iet", "Iet.__init__", "verify orbit"),
    ("morphisms.apply", "ietkit.morphisms", "Morphism.__call__", "verify"),
)

# The scan horizon that Iet.return_words_scan uses when none is given.
SCAN_HORIZON_PER_LETTER = 200


def _ietkit_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "ietkit" or name.startswith("ietkit.")]


def resolve(home: str, path: str):
    """(owner, attribute name, original) for ``path`` in ``home`` or, failing
    that, in any loaded ietkit module; None when it is nowhere."""
    try:
        modules = [importlib.import_module(home)]
    except ImportError:
        modules = []
    modules += _ietkit_modules()
    head, _, method = path.partition(".")
    for module in modules:
        owner = vars(module).get(head)
        if owner is None:
            continue
        if not method:
            if callable(owner) and not isinstance(owner, type):
                return module, head, owner
        elif isinstance(owner, type) and method in vars(owner):
            return owner, method, vars(owner)[method]
    return None


class Tracer:
    """One traced pass: ``with Tracer().install(counters) as tracer:``, run
    the workload inside the block, then read the results."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._active: Counter[str] = Counter()
        self._children: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def _patch(self, home: str, path: str, make) -> None:
        found = resolve(home, path)
        if found is None:
            return
        owner, name, original = found
        wrapper = functools.wraps(original)(make(original))
        if isinstance(owner, type):
            targets = [(owner, name)]
        else:
            targets = [
                (module, attr)
                for module in _ietkit_modules()
                for attr, value in list(vars(module).items())
                if value is original
            ]
        for target, attr in targets:
            self._undo.append((target, attr, getattr(target, attr)))
            setattr(target, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def install(self, counters: bool) -> "Tracer":
        """Patch every span, and with ``counters`` every counter as well."""
        for name, home, path, _ in SPANS:
            self._patch(home, path, lambda fn, name=name: self._span(name, fn))
        if counters:
            for name, home, path, _ in COUNTERS:
                self._patch(home, path, lambda fn, name=name: self._counter(name, fn))
        return self

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self._note_call(name, args, kwargs)
            self._active[name] += 1
            self._children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                inner = self._children.pop()
                self._active[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += elapsed - inner
                if self._children:
                    self._children[-1] += elapsed
            if name == "rauzy.induce_to_cylinder":
                self.counts["rauzy.steps_kept"] += len(result.steps)
            return result

        return wrapper

    def _note_call(self, name: str, args, kwargs) -> None:
        if name == "bwt.bwt":
            self.counts["bwt.bwt.letters"] += len(args[0])
        elif name == "iet.return_words_scan":
            iet, w = args[0], args[1]
            horizon = kwargs.get("horizon", args[2] if len(args) > 2 else None)
            if horizon is None:
                horizon = SCAN_HORIZON_PER_LETTER * len(w) * iet.d
            self.counts["iet.scan_horizon"] += horizon

    def _counter(self, name: str, fn):
        active = self._active
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if name == "iet.letter_at" and active["iet.return_words_scan"]:
                counts["iet.scan_steps"] += 1
            elif name == "iet.new" and active["rauzy.induce_to_cylinder"]:
                counts["rauzy.states_built"] += 1
            return fn(*args, **kwargs)

        return wrapper


def missing_hits(workload: str, spans: Tracer, counters: Tracer) -> list[str]:
    """Spans and counters that should have fired on ``workload`` but did not,
    which means a patch missed its target."""
    missing = []
    for name, _, path, workloads in SPANS:
        if workload in workloads.split() and not spans.calls[name]:
            missing.append(f"span {name} ({path})")
    for name, _, path, workloads in COUNTERS:
        if workload in workloads.split() and not counters.counts[name]:
            missing.append(f"counter {name} ({path})")
    return missing
