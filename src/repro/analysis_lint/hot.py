"""HOT — no per-event Python in the vectorized ingest hot path.

The AST-accurate successor of the regex loop guard that used to live in
``tests/test_vectorized_identity.py``: PR 5 vectorized the whole ingest
path (numpy Horner sweeps, columnar IBLT scatters, batched storing
updates) for an ~18x serial throughput win, and a single per-event Python
loop creeping back in silently undoes it long before any benchmark fails.

Every ``for``/``while`` **statement** and every ``.tolist()`` call in the
hot files must carry a ``# scalar-ok: <reason>`` marker — the reviewable
assertion that the code is *not* per-event work (decode, construction,
per-coefficient, per-shard, snapshot views, ...).  Comprehensions and
generator expressions are exempt: the guard targets statement loops, where
per-event mutation lives.  Being AST-based, the rule sees multi-line loop
headers and is immune to strings or comments that merely look like loops.

HOT203 covers the whole package: ``json.dump`` streams through the
pure-Python encoder, ~10x slower than the C one-shot encoder ``json.dumps``
uses, and checkpoint writes spent almost all their time there.

Codes
-----
HOT201  un-annotated ``for``/``while`` statement in a hot file
HOT202  un-annotated ``.tolist()`` materialization in a hot file
HOT203  ``json.dump`` call anywhere under ``repro/``
"""

from __future__ import annotations

import ast

from repro.analysis_lint.core import Finding, Rule, attr_chain

__all__ = ["HOT_FILES", "HotPathRule", "MARKER"]

#: The marker a hot-file loop / .tolist() must carry on its header line.
MARKER = "scalar-ok"

#: The six vectorized hot files (the ingest path end to end: hashing →
#: sketches → storing → ℓ₀ sampler → driver → shard router).
HOT_FILES = (
    "repro/hashing/kwise.py",
    "repro/streaming/sketch.py",
    "repro/streaming/storing.py",
    "repro/streaming/l0sampler.py",
    "repro/streaming/streaming_coreset.py",
    "repro/service/shards.py",
)


class HotPathRule(Rule):
    family = "HOT"
    description = ("per-event Python loops and .tolist() in the vectorized "
                   "hot files need an explicit '# scalar-ok: <reason>'; "
                   "the package encodes JSON with json.dumps, never json.dump")
    codes = {
        "HOT201": "un-annotated statement loop in a vectorized hot file",
        "HOT202": "un-annotated .tolist() in a vectorized hot file",
        "HOT203": "json.dump (pure-Python streaming encoder) in the package",
    }
    # HOT201/202 apply to the hot files, HOT203 to every module.
    path_patterns = HOT_FILES + ("repro/",)

    def check_file(self, sf):
        findings = _json_dump_calls(sf)
        if not sf.in_scope(self.family.lower(), HOT_FILES):
            return findings
        for node in ast.walk(sf.tree):
            if isinstance(node, (ast.For, ast.While)):
                # The header spans the `for`/`while` line through the line
                # before the first body statement (multi-line conditions).
                header_end = max(node.lineno, node.body[0].lineno - 1)
                if not sf.span_has_marker(node.lineno, header_end, MARKER):
                    kind = "for" if isinstance(node, ast.For) else "while"
                    findings.append(Finding(
                        path=sf.rel, line=node.lineno, col=node.col_offset,
                        code="HOT201",
                        message=f"'{kind}' statement in a vectorized hot "
                                f"file: batch it, or mark the header with "
                                f"'# {MARKER}: <reason>' asserting it is "
                                f"not per-event work"))
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "tolist" and not node.args:
                line = node.func.end_lineno or node.lineno
                if not sf.span_has_marker(node.lineno, line, MARKER):
                    findings.append(Finding(
                        path=sf.rel, line=line, col=node.col_offset,
                        code="HOT202",
                        message=".tolist() materializes one Python object "
                                "per element; keep the hot path in numpy, "
                                f"or mark the line with '# {MARKER}: "
                                "<reason>'"))
        return findings


def _json_dump_calls(sf) -> list:
    """HOT203: ``json.dump(...)`` through the module (or an alias of it)
    or through a name imported with ``from json import dump``."""
    modules, names = {"json"}, set()
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names
                           if a.name == "json" and a.asname)
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            names.update(a.asname or a.name for a in node.names
                         if a.name == "dump")
    findings = []
    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.Call):
            continue
        chain = attr_chain(node.func)
        if (len(chain) == 2 and chain[0] in modules and chain[1] == "dump") \
                or (len(chain) == 1 and chain[0] in names):
            findings.append(Finding(
                path=sf.rel, line=node.lineno, col=node.col_offset,
                code="HOT203",
                message="json.dump streams through the pure-Python encoder "
                        "(~10x slower than the C one); encode with "
                        "json.dumps, then write the string in one call"))
    return findings
