"""Declarative alert rules over live counter and indicator streams.

A watch session (``python -m repro watch``) streams two kinds of scalar
signals: raw performance-counter samples (``AvailableBytes``, …) and the
monitor's indicator points (``indicator``).  This module evaluates a
user-declared rule set against those signals as they arrive:

* ``threshold`` — fire when the value crosses a fixed bound (re-arms
  once the signal returns in bounds, with an optional cooldown);
* ``rate`` — fire on the per-second rate of change between consecutive
  samples (leak-slope alarms);
* ``sustained`` — fire only when an excursion persists continuously for
  at least ``window`` seconds (debounced thresholds: one paging burst
  is weather, ten minutes of paging is aging).

Rules are plain data (:class:`AlertRule`), loadable from a TOML or JSON
file (:func:`load_rules`)::

    [[rule]]
    name = "low-available"
    signal = "AvailableBytes"
    kind = "threshold"
    op = "lt"
    value = 50e6
    severity = "critical"

The engine itself is pure — :meth:`AlertEngine.observe` maps a sample to
zero or more :class:`AlertFiring`\\ s — so the live watcher owns the
side effects: each firing becomes an ``alert`` annotation in the watch
session's timeline and a ``watch.alerts_fired.<rule>`` counter in the
session metrics.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..exceptions import ValidationError

__all__ = [
    "ALERT_KINDS",
    "ALERT_OPS",
    "ALERT_SEVERITIES",
    "AlertRule",
    "AlertFiring",
    "AlertEngine",
    "parse_rules",
    "load_rules",
]

ALERT_KINDS = ("threshold", "rate", "sustained")
ALERT_OPS = ("lt", "le", "gt", "ge")
ALERT_SEVERITIES = ("info", "warning", "critical")

_OP_FUNCS = {
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}

_OP_SYMBOLS = {"lt": "<", "le": "<=", "gt": ">", "ge": ">="}


@dataclass(frozen=True)
class AlertRule:
    """One declarative rule over one signal.

    Attributes
    ----------
    name:
        Unique label; appears in events, metrics and dashboards.
    signal:
        Counter name (e.g. ``"AvailableBytes"``) or ``"indicator"``.
    kind:
        ``"threshold"``, ``"rate"`` or ``"sustained"``.
    op, value:
        The excursion condition: sample ``op`` value (for ``rate``, the
        per-second derivative ``op`` value).
    window:
        ``sustained`` only — seconds the excursion must persist.
    cooldown:
        Minimum seconds between consecutive firings of this rule
        (0 = every re-entry into excursion fires).
    severity:
        ``"info"``, ``"warning"`` or ``"critical"``.
    description:
        Free-form text carried into events and dashboards.
    """

    name: str
    signal: str
    kind: str
    op: str
    value: float
    window: float = 0.0
    cooldown: float = 0.0
    severity: str = "warning"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("alert rule name must be non-empty")
        if not self.signal:
            raise ValidationError(f"rule {self.name!r}: signal must be non-empty")
        if self.kind not in ALERT_KINDS:
            raise ValidationError(
                f"rule {self.name!r}: unknown kind {self.kind!r} "
                f"(choose from {ALERT_KINDS})"
            )
        if self.op not in ALERT_OPS:
            raise ValidationError(
                f"rule {self.name!r}: unknown op {self.op!r} "
                f"(choose from {ALERT_OPS})"
            )
        if self.severity not in ALERT_SEVERITIES:
            raise ValidationError(
                f"rule {self.name!r}: unknown severity {self.severity!r} "
                f"(choose from {ALERT_SEVERITIES})"
            )
        if self.kind == "sustained" and self.window <= 0:
            raise ValidationError(
                f"rule {self.name!r}: sustained rules need window > 0"
            )
        if self.window < 0 or self.cooldown < 0:
            raise ValidationError(
                f"rule {self.name!r}: window/cooldown must be non-negative"
            )
        float(self.value)  # must be numeric

    @property
    def condition(self) -> str:
        """Human-readable excursion condition."""
        quantity = {"threshold": self.signal, "sustained": self.signal,
                    "rate": f"d({self.signal})/dt"}[self.kind]
        text = f"{quantity} {_OP_SYMBOLS[self.op]} {self.value:g}"
        if self.kind == "sustained":
            text += f" for {self.window:g}s"
        return text


@dataclass(frozen=True)
class AlertFiring:
    """One rule firing: what fired, when, on what value."""

    rule: str
    signal: str
    severity: str
    time: float
    value: float
    message: str


@dataclass
class _RuleState:
    """Per-rule evaluation state (the engine owns one per rule)."""

    in_excursion: bool = False
    excursion_start: Optional[float] = None
    fired_this_excursion: bool = False
    last_fired: Optional[float] = None
    prev_time: Optional[float] = None
    prev_value: Optional[float] = None


class AlertEngine:
    """Evaluate a rule set against arriving (signal, time, value) samples."""

    def __init__(self, rules: Sequence[AlertRule]) -> None:
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate alert rule names: {names}")
        self.rules = list(rules)
        self._by_signal: Dict[str, List[AlertRule]] = {}
        for rule in self.rules:
            self._by_signal.setdefault(rule.signal, []).append(rule)
        self._states: Dict[str, _RuleState] = {
            rule.name: _RuleState() for rule in self.rules
        }
        self._counts: Dict[str, int] = {rule.name: 0 for rule in self.rules}

    @property
    def signals(self) -> tuple:
        """Signals at least one rule listens to."""
        return tuple(self._by_signal)

    def counts(self) -> Dict[str, int]:
        """Firings per rule so far (includes zero-count rules)."""
        return dict(self._counts)

    @property
    def total_fired(self) -> int:
        """Total firings across all rules."""
        return sum(self._counts.values())

    def observe(self, signal: str, time: float, value: float) -> List[AlertFiring]:
        """Feed one sample; returns the firings it triggered (often none)."""
        rules = self._by_signal.get(signal)
        if not rules:
            return []
        firings = []
        for rule in rules:
            firing = self._evaluate(rule, self._states[rule.name], time, value)
            if firing is not None:
                self._counts[rule.name] += 1
                firings.append(firing)
        return firings

    # -- evaluation ------------------------------------------------------------

    def _evaluate(
        self, rule: AlertRule, state: _RuleState, time: float, value: float,
    ) -> Optional[AlertFiring]:
        if rule.kind == "rate":
            monitored = self._rate(state, time, value)
            if monitored is None:
                return None  # first sample: no rate yet
        else:
            monitored = value

        excursion = _OP_FUNCS[rule.op](monitored, rule.value)
        if not excursion:
            state.in_excursion = False
            state.excursion_start = None
            state.fired_this_excursion = False
            return None

        if not state.in_excursion:
            state.in_excursion = True
            state.excursion_start = time
            state.fired_this_excursion = False

        if rule.kind == "sustained":
            if time - state.excursion_start < rule.window:
                return None
        if state.fired_this_excursion:
            return None
        if (state.last_fired is not None
                and time - state.last_fired < rule.cooldown):
            return None

        state.fired_this_excursion = True
        state.last_fired = time
        return AlertFiring(
            rule=rule.name, signal=rule.signal, severity=rule.severity,
            time=time, value=monitored,
            message=f"{rule.condition} (observed {monitored:g})",
        )

    @staticmethod
    def _rate(state: _RuleState, time: float, value: float) -> Optional[float]:
        prev_t, prev_v = state.prev_time, state.prev_value
        state.prev_time, state.prev_value = time, value
        if prev_t is None or time <= prev_t:
            return None
        return (value - prev_v) / (time - prev_t)


# -- loading -------------------------------------------------------------------

def parse_rules(payload: Mapping) -> List[AlertRule]:
    """Build rules from a parsed config mapping.

    Accepts ``{"rule": [{...}, ...]}`` (the TOML array-of-tables shape)
    or ``{"rules": [...]}``; unknown keys in a rule entry are an error —
    a typoed ``windw`` silently ignored is a rule that never debounces.
    """
    if not isinstance(payload, Mapping):
        raise ValidationError("alert config must be a mapping")
    entries = payload.get("rule", payload.get("rules"))
    if not isinstance(entries, list) or not entries:
        raise ValidationError(
            "alert config needs a non-empty [[rule]] list "
            "(or a 'rules' array in JSON)"
        )
    known = {f.name for f in AlertRule.__dataclass_fields__.values()}
    rules = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            raise ValidationError(f"rule #{i}: expected a table/object")
        unknown = set(entry) - known
        if unknown:
            raise ValidationError(
                f"rule #{i}: unknown field(s) {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        try:
            rules.append(AlertRule(**entry))
        except TypeError as exc:
            raise ValidationError(f"rule #{i}: {exc}") from exc
    names = [r.name for r in rules]
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate alert rule names: {names}")
    return rules


def load_rules(path: str | os.PathLike) -> List[AlertRule]:
    """Load alert rules from a ``.toml`` or ``.json`` file."""
    path = os.fspath(path)
    suffix = os.path.splitext(path)[1].lower()
    if suffix == ".toml":
        import tomllib

        with open(path, "rb") as handle:
            try:
                payload = tomllib.load(handle)
            except tomllib.TOMLDecodeError as exc:
                raise ValidationError(f"bad TOML in {path}: {exc}") from exc
    elif suffix == ".json":
        with open(path, "r") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"bad JSON in {path}: {exc}") from exc
    else:
        raise ValidationError(
            f"unsupported alert-rule file type {suffix!r} in {path} "
            "(use .toml or .json)"
        )
    return parse_rules(payload)
