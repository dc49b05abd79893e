"""DET — determinism rules for serialization, checkpoint, merge, and hashing.

Why this family exists: every sketch in the reproduction is a *linear*
summary built from shared randomness (paper Section 4; same discipline as
the dynamic-stream sketches of arXiv:1706.03887).  Checkpoint bytes, merge
results, and hash values must be bit-identical functions of ``(params,
seed, event multiset)`` — regardless of sharding, batching, process
boundaries, or a checkpoint round-trip.  A single unseeded draw, wall-clock
read, identity-ordered structure, or float-truncated threshold silently
breaks that contract in ways unit tests rarely catch (the
``exact_field_threshold`` bug fixed in PR 5 survived every test until a
70-bit universe was tried).

Codes
-----
DET101  call into an unseeded / global random source (``random.*``, legacy
        ``np.random.*`` globals, ``default_rng()`` with no seed)
DET102  wall-clock read (``time.time``/``monotonic``/``perf_counter``,
        ``datetime.now``) feeding values that must be replayable
DET103  ``id()`` / builtin ``hash()`` — object identity is allocation- and
        (for str/bytes) PYTHONHASHSEED-dependent, never stable across runs
DET104  iterating a dict view / set in a scope whose output is serialized:
        order is insertion- or hash-history-dependent; wrap in ``sorted()``
        or annotate why the insertion order is canonical
DET105  ``int()`` over a float product/quotient involving a key,
        fingerprint, threshold, phi, or prime — float64 has 53 mantissa
        bits, the field elements here can have 70+ (the PR 5 bug class)
"""

from __future__ import annotations

import ast

from repro.analysis_lint.core import Finding, Rule, attr_chain

__all__ = ["DeterminismRule"]

#: Legacy numpy global-state RNG entry points (np.random.<fn> without a
#: Generator).  ``default_rng`` / ``Generator`` / ``SeedSequence`` are the
#: sanctioned, seedable API and stay allowed — except a bare
#: ``default_rng()`` with no arguments, which seeds from the OS.
_NP_RANDOM_GLOBALS = frozenset({
    "seed", "random", "rand", "randn", "randint", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "bytes", "get_state", "set_state",
})

_WALL_CLOCK = (
    ("time", "time"), ("time", "time_ns"), ("time", "monotonic"),
    ("time", "monotonic_ns"), ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
)

#: Identifier substrings marking exact-integer quantities (field elements,
#: encoded point keys, sampling thresholds) that must never round-trip
#: through float arithmetic.
_EXACT_NAMES = ("key", "fingerprint", "threshold", "phi", "prime")


def _names_in(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _is_dict_view_or_set(node) -> bool:
    """An expression that iterates in insertion/hash order: a dict view call
    (``.items()``/``.keys()``/``.values()``), a ``set(...)`` call, or a set
    literal/comprehension."""
    if isinstance(node, ast.Call) and not node.args and not node.keywords \
            and isinstance(node.func, ast.Attribute) \
            and node.func.attr in ("items", "keys", "values"):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    return isinstance(node, (ast.Set, ast.SetComp))


def _unordered_iter_target(node):
    """If ``node`` (a loop/comprehension iterable) is an unordered-iteration
    hazard, return the offending node; ``sorted(...)`` wrappers clear it and
    ``enumerate``/``list``/``tuple``/``reversed`` wrappers are transparent."""
    while isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("enumerate", "list", "tuple", "reversed") \
            and node.args:
        node = node.args[0]
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("sorted", "min", "max", "sum", "len", "any",
                                 "all"):
        return None  # order-insensitive or explicitly canonicalized
    return node if _is_dict_view_or_set(node) else None


class DeterminismRule(Rule):
    family = "DET"
    description = ("bit-identical sketches: no unseeded randomness, "
                   "wall-clock, identity ordering, unordered iteration, or "
                   "float-truncated exact values in codec/merge/hash code")
    codes = {
        "DET101": "unseeded or global random source",
        "DET102": "wall-clock read in deterministic code",
        "DET103": "id()/hash() — identity is not stable across runs",
        "DET104": "dict/set iteration without sorted() in serialized scope",
        "DET105": "float-truncated arithmetic on an exact integer value",
    }
    #: Serialization, checkpoint, merge, and hashing modules (ISSUE 8);
    #: fixtures opt in with ``# repro-lint: scope=det``.
    path_patterns = (
        "repro/hashing/",
        "repro/service/state.py",
        "repro/service/protocol.py",
        "repro/streaming/merge.py",
        "repro/streaming/storing.py",
        "repro/streaming/sketch.py",
        "repro/streaming/l0sampler.py",
        "repro/streaming/streaming_coreset.py",
        "repro/core/io.py",
        "repro/utils/rng.py",
    )

    def check_file(self, sf):
        findings = []

        def emit(node, code, message):
            findings.append(Finding(path=sf.rel, line=node.lineno,
                                    col=node.col_offset, code=code,
                                    message=message))

        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Call):
                self._check_call(node, emit)
            if isinstance(node, (ast.For, ast.comprehension)):
                it = node.iter
                bad = _unordered_iter_target(it)
                if bad is not None:
                    anchor = node if isinstance(node, ast.For) else bad
                    emit(anchor, "DET104",
                         "iteration order of a dict view / set is "
                         "insertion- or hash-history-dependent; wrap in "
                         "sorted() (or annotate why this order is part of "
                         "the bit-identity contract)")
        return findings

    def _check_call(self, node, emit) -> None:
        chain = attr_chain(node.func)
        if chain[:1] == ("random",) and len(chain) == 2:
            emit(node, "DET101",
                 f"'random.{chain[1]}' draws from the global, unseeded RNG; "
                 "derive a Generator via repro.utils.rng instead")
        elif chain[:2] in (("np", "random"), ("numpy", "random")) \
                and len(chain) == 3 and chain[2] in _NP_RANDOM_GLOBALS:
            emit(node, "DET101",
                 f"'{'.'.join(chain)}' uses numpy's global RNG state; "
                 "use np.random.default_rng(seed) / spawn_rng")
        elif chain and chain[-1] == "default_rng" and not node.args \
                and not node.keywords:
            emit(node, "DET101",
                 "default_rng() with no seed draws entropy from the OS; "
                 "pass an explicit seed")
        elif chain in _WALL_CLOCK or (
                len(chain) >= 2 and chain[-2:] in (("datetime", "now"),
                                                   ("datetime", "utcnow"))):
            emit(node, "DET102",
                 f"'{'.'.join(chain)}' reads the wall clock; deterministic "
                 "replay code must not depend on it")
        elif isinstance(node.func, ast.Name) and node.func.id in ("id", "hash") \
                and len(node.args) == 1:
            emit(node, "DET103",
                 f"builtin '{node.func.id}()' depends on allocation order / "
                 "PYTHONHASHSEED; use a stable key instead")
        elif isinstance(node.func, ast.Name) and node.func.id == "int" \
                and len(node.args) == 1 \
                and isinstance(node.args[0], ast.BinOp) \
                and isinstance(node.args[0].op, (ast.Mult, ast.Div)):
            names = set(_names_in(node.args[0]))
            hits = sorted(n for n in names
                          if any(tag in n.lower() for tag in _EXACT_NAMES))
            if hits:
                emit(node, "DET105",
                     f"int() over a product/quotient of {', '.join(hits)} "
                     "truncates through float64 (53-bit mantissa); compute "
                     "exactly (see hashing.kwise.exact_field_threshold)")
