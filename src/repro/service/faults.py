"""Deterministic, seeded fault injection for the service stack.

The paper's recovery story rests on linearity: sketches merge exactly, so
any site process or connection that dies can be rebuilt from its last
checkpoint and replayed without changing the answer.  This module is how
we *prove* that in tests and chaos runs: a :class:`FaultPlan` is a seeded
schedule of failures — site kills (SIGKILL of a fleet site), connection
resets, slow and short replies, checkpoint write errors —
injected at named **fault points** wired through the service code.

Design constraints:

- **Zero cost when off.**  Every hook site calls :func:`fault_point`,
  which is a single global-``None`` check when no plan is installed.  A
  production server never pays more than that.
- **Deterministic.**  Each rule carries its own counter and its own
  ``random.Random`` seeded from ``(plan seed, rule index)``; two runs of
  the same plan against the same request schedule fire identically.  The
  chaos acceptance test relies on this to compare a faulted run against a
  fault-free reference bit for bit.
- **Activation on a stock server.**  ``repro serve --fault-plan plan.json``
  (or the ``REPRO_FAULT_PLAN`` environment variable, pointing at a file or
  holding inline JSON) installs a plan process-wide, so chaos runs drive
  the exact binaries production runs.

Fault points currently wired (see docs/SERVICE.md "Failure modes and
recovery" for the full table):

================== ========================================================
``server.reset``    after a request is executed, before its reply is
                    written (``mode``: ``"pre"`` drops the request before
                    execution instead)
``server.short``    the reply is truncated mid-frame, then the connection
                    closes — the client sees garbage JSON
``server.slow``     the reply is delayed by ``delay_s`` seconds
``checkpoint.write``the checkpoint write raises ``OSError`` before any
                    bytes reach disk (the previous checkpoint survives)
``site.kill``       fleet driver: before a batch is sent to a site, the
                    site's ``repro serve`` process is SIGKILLed
                    (``match={"site": j}``); the feeder recovers it from
                    checkpoint + journal replay (distributed/fleet.py)
================== ========================================================
"""

from __future__ import annotations

import json
import os
import random
import threading
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "ENV_FAULT_PLAN",
    "FaultAction",
    "FaultPlan",
    "FaultRule",
    "active_plan",
    "fault_point",
    "install",
    "load_plan",
    "plan_from_spec",
    "uninstall",
]

#: Environment variable holding a plan file path or inline JSON.
ENV_FAULT_PLAN = "REPRO_FAULT_PLAN"

#: Hard bound on injected delays — a typo'd plan must not wedge a server.
MAX_DELAY_S = 30.0


@dataclass(frozen=True)
class FaultAction:
    """What a fired rule asks the hook site to do."""

    point: str
    mode: str | None = None
    delay_s: float = 0.0
    rule_index: int = 0


@dataclass
class FaultRule:
    """One scheduled failure.

    Parameters
    ----------
    point:
        Fault-point name this rule matches (exact string).
    after:
        Skip the first ``after`` matching hits before considering firing.
    times:
        Fire at most this many times; ``None`` = no limit.
    prob:
        Per-hit firing probability once past ``after`` (evaluated with the
        rule's own seeded RNG, so the schedule is reproducible).
    mode:
        Point-specific variant (e.g. ``"pre"`` for ``server.reset``).
    delay_s:
        Delay for ``server.slow`` (clamped to :data:`MAX_DELAY_S`).
    match:
        Context-equality filters: ``{"site": 0}`` only hits site 0,
        ``{"op": "insert"}`` only insert requests.  Keys absent from the
        hook's context never match.
    """

    point: str
    after: int = 0
    times: int | None = 1
    prob: float = 1.0
    mode: str | None = None
    delay_s: float = 0.0
    match: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.point or not isinstance(self.point, str):
            raise ValueError("fault rule needs a non-empty 'point' name")
        if self.after < 0:
            raise ValueError(f"'after' must be >= 0, got {self.after}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"'times' must be >= 1 or null, got {self.times}")
        if not (0.0 <= self.prob <= 1.0):
            raise ValueError(f"'prob' must be in [0, 1], got {self.prob}")
        if self.delay_s < 0:
            raise ValueError(f"'delay_s' must be >= 0, got {self.delay_s}")


class FaultPlan:
    """A seeded set of :class:`FaultRule`\\ s plus their firing state.

    Thread-safe: hook sites live on the event loop, in handler threads,
    and in the ingest parent, so hits are counted under one lock.  The
    plan records every fired action in :attr:`fired` (bounded) for test
    assertions and the ``stats`` op.
    """

    _MAX_FIRED_RECORDS = 1000

    def __init__(self, rules: list[FaultRule], seed: int = 0):
        self.rules = list(rules)
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._hits = [0] * len(self.rules)
        self._fires = [0] * len(self.rules)
        # One RNG per rule: rules fire independently of each other's
        # schedules and of dict/iteration order.
        self._rngs = [random.Random((self.seed << 16) ^ (0x9E3779B9 + i))
                      for i in range(len(self.rules))]
        self.fired: list[dict] = []

    # ------------------------------------------------------------- decisions
    def decide(self, point: str, ctx: dict) -> FaultAction | None:
        """First matching rule that fires wins; ``None`` = no fault here."""
        with self._lock:
            for i, rule in enumerate(self.rules):  # few rules; hot path is the None check in fault_point
                if rule.point != point:
                    continue
                if any(ctx.get(k) != v for k, v in rule.match.items()):
                    continue
                self._hits[i] += 1
                if self._hits[i] <= rule.after:
                    continue
                if rule.times is not None and self._fires[i] >= rule.times:
                    continue
                if rule.prob < 1.0 and self._rngs[i].random() >= rule.prob:
                    continue
                self._fires[i] += 1
                action = FaultAction(point=point, mode=rule.mode,
                                     delay_s=min(rule.delay_s, MAX_DELAY_S),
                                     rule_index=i)
                if len(self.fired) < self._MAX_FIRED_RECORDS:
                    self.fired.append({"point": point, "rule": i,
                                       "mode": rule.mode, "ctx": dict(ctx)})
                return action
        return None

    def fire_counts(self) -> dict[str, int]:
        """Total fires per point name (for assertions and ``stats``)."""
        out: dict[str, int] = {}
        with self._lock:
            for rule, fires in zip(self.rules, self._fires):
                out[rule.point] = out.get(rule.point, 0) + fires
        return out

    def summary(self) -> dict:
        """JSON-safe snapshot surfaced by the servers' ``stats`` op."""
        with self._lock:
            return {
                "seed": self.seed,
                "rules": len(self.rules),
                "hits": list(self._hits),
                "fires": list(self._fires),
            }


# --------------------------------------------------------------- global hook
_ACTIVE: FaultPlan | None = None


def install(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` process-wide (replacing any previous plan)."""
    global _ACTIVE
    _ACTIVE = plan
    return plan


def uninstall() -> None:
    """Remove the active plan; every fault point becomes a no-op again."""
    global _ACTIVE
    _ACTIVE = None


def active_plan() -> FaultPlan | None:
    """The installed plan, if any."""
    return _ACTIVE


def fault_point(point: str, **ctx) -> FaultAction | None:
    """Evaluate one named fault point.

    This is the zero-cost hook the service code calls: with no plan
    installed it is one global load and a ``None`` check.  With a plan, it
    returns the :class:`FaultAction` to perform (or ``None``).
    """
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.decide(point, ctx)


# ----------------------------------------------------------------- plan I/O
def plan_from_spec(spec: dict) -> FaultPlan:
    """Build a plan from a parsed JSON spec: ``{"seed": 7, "rules": [...]}``."""
    if not isinstance(spec, dict):
        raise ValueError("fault plan must be a JSON object")
    raw_rules = spec.get("rules")
    if not isinstance(raw_rules, list) or not raw_rules:
        raise ValueError("fault plan needs a non-empty 'rules' list")
    rules = []
    known = {"point", "after", "times", "prob", "mode", "delay_s", "match"}
    for i, raw in enumerate(raw_rules):
        if not isinstance(raw, dict):
            raise ValueError(f"rule {i} must be an object")
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"rule {i} has unknown keys {sorted(unknown)}")
        rules.append(FaultRule(**raw))
    return FaultPlan(rules, seed=int(spec.get("seed", 0)))


def load_plan(source: str) -> FaultPlan:
    """Load a plan from a JSON file path or an inline JSON string.

    This is what ``--fault-plan`` and :data:`ENV_FAULT_PLAN` accept: a
    value starting with ``{`` is parsed as inline JSON, anything else is
    treated as a path.
    """
    text = source.strip()
    if not text.startswith("{"):
        text = Path(source).read_text(encoding="utf-8")
    return plan_from_spec(json.loads(text))


def install_from_env() -> FaultPlan | None:
    """Install a plan from :data:`ENV_FAULT_PLAN` if the variable is set."""
    source = os.environ.get(ENV_FAULT_PLAN)
    if not source:
        return None
    return install(load_plan(source))
