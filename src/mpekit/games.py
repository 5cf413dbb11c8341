"""Data model for finite Markov games, MDPs, strategies, and value functions.

All containers freeze their arrays after construction, so instances are
immutable and safe to share across threads. Construction only enforces shape
consistency; probabilistic invariants (row stochasticity, discount range,
metric axioms) are checked by :func:`validate_game` / :func:`validate_mdp`,
which report violations as data instead of raising. Invalid rows are never
silently renormalized.

Joint actions are ordered lexicographically by player index and then by
per-player action index. This fixes both iteration order and the key order
of the JSON file format.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

#: Tolerance for probability rows summing to one.
STOCHASTIC_ATOL = 1e-9


class GameFormatError(ValueError):
    """A game or profile document is malformed (bad JSON, missing keys)."""


class GameValidationError(ValueError):
    """A structurally well-formed document violates the model invariants."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__(
            "invalid game: " + "; ".join(self.violations[:5])
            + ("; ..." if len(self.violations) > 5 else "")
        )


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MarkovGame:
    """A finite discounted Markov game.

    Attributes:
        states: Ordered state identifiers.
        action_sets: Per-player ordered action identifiers.
        transitions: Array of shape ``(S, A, S)`` where ``A`` is the number
            of joint actions in lexicographic order; ``transitions[s, a]``
            is the next-state distribution.
        rewards: Array of shape ``(N, S, A)`` with per-player stage rewards.
        discount: Discount factor, required in (0, 1) for a valid game.
        metric: Optional ``(S, S)`` state metric.
    """

    states: tuple[str, ...]
    action_sets: tuple[tuple[str, ...], ...]
    transitions: np.ndarray
    rewards: np.ndarray
    discount: float
    metric: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(
            self, "action_sets", tuple(tuple(a) for a in self.action_sets)
        )
        s, a = len(self.states), self.num_joint_actions
        n = len(self.action_sets)
        trans = _frozen_array(self.transitions)
        rew = _frozen_array(self.rewards)
        if trans.shape != (s, a, s):
            raise ValueError(
                f"transitions shape {trans.shape} != expected {(s, a, s)}"
            )
        if rew.shape != (n, s, a):
            raise ValueError(f"rewards shape {rew.shape} != expected {(n, s, a)}")
        object.__setattr__(self, "transitions", trans)
        object.__setattr__(self, "rewards", rew)
        object.__setattr__(self, "discount", float(self.discount))
        if self.metric is not None:
            metric = _frozen_array(self.metric)
            if metric.shape != (s, s):
                raise ValueError(f"metric shape {metric.shape} != expected {(s, s)}")
            object.__setattr__(self, "metric", metric)

    @property
    def num_players(self) -> int:
        return len(self.action_sets)

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def action_counts(self) -> tuple[int, ...]:
        return tuple(len(acts) for acts in self.action_sets)

    @property
    def num_joint_actions(self) -> int:
        count = 1
        for acts in self.action_sets:
            count *= len(acts)
        return count

    def joint_actions(self):
        """Iterate joint actions as index tuples, in lexicographic order."""
        return itertools.product(*(range(c) for c in self.action_counts))

    def joint_action_index(self, actions: tuple[int, ...]) -> int:
        """Map a per-player action index tuple to its lexicographic rank."""
        if len(actions) != self.num_players:
            raise ValueError(
                f"joint action has {len(actions)} entries for "
                f"{self.num_players} players"
            )
        index = 0
        for count, act in zip(self.action_counts, actions):
            if not 0 <= act < count:
                raise ValueError(f"action index {act} out of range [0, {count})")
            index = index * count + act
        return index

    def joint_action_label(self, index: int) -> str:
        """Comma-separated action names for a joint action rank."""
        names = []
        for count, acts in zip(reversed(self.action_counts),
                               reversed(self.action_sets)):
            names.append(acts[index % count])
            index //= count
        return ",".join(reversed(names))


@dataclass(frozen=True, eq=False)
class Mdp:
    """A finite discounted Markov decision process."""

    states: tuple[str, ...]
    actions: tuple[str, ...]
    transitions: np.ndarray
    rewards: np.ndarray
    discount: float
    metric: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "actions", tuple(self.actions))
        s, a = len(self.states), len(self.actions)
        trans = _frozen_array(self.transitions)
        rew = _frozen_array(self.rewards)
        if trans.shape != (s, a, s):
            raise ValueError(
                f"transitions shape {trans.shape} != expected {(s, a, s)}"
            )
        if rew.shape != (s, a):
            raise ValueError(f"rewards shape {rew.shape} != expected {(s, a)}")
        object.__setattr__(self, "transitions", trans)
        object.__setattr__(self, "rewards", rew)
        object.__setattr__(self, "discount", float(self.discount))
        if self.metric is not None:
            metric = _frozen_array(self.metric)
            if metric.shape != (s, s):
                raise ValueError(f"metric shape {metric.shape} != expected {(s, s)}")
            object.__setattr__(self, "metric", metric)

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_actions(self) -> int:
        return len(self.actions)


@dataclass(frozen=True, eq=False)
class MarkovStrategy:
    """A randomized state-feedback strategy: ``probabilities[s, a]``.

    Rows must be probability distributions; construction rejects anything
    else outright (there is no meaningful use for an invalid strategy).
    """

    probabilities: np.ndarray

    def __post_init__(self):
        probs = _frozen_array(self.probabilities)
        if probs.ndim != 2:
            raise ValueError(f"strategy must be 2-D, got shape {probs.shape}")
        if np.any(probs < 0):
            s, a = np.argwhere(probs < 0)[0]
            raise ValueError(f"negative probability at state {s}, action {a}")
        sums = probs.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > STOCHASTIC_ATOL)
        if bad.size:
            raise ValueError(
                f"strategy row for state {bad[0]} sums to {sums[bad[0]]!r}, "
                f"not 1 within {STOCHASTIC_ATOL}"
            )
        object.__setattr__(self, "probabilities", probs)

    @property
    def num_states(self) -> int:
        return self.probabilities.shape[0]

    @property
    def num_actions(self) -> int:
        return self.probabilities.shape[1]


@dataclass(frozen=True, eq=False)
class StrategyProfile:
    """One Markov strategy per player."""

    strategies: tuple[MarkovStrategy, ...]

    def __post_init__(self):
        object.__setattr__(self, "strategies", tuple(self.strategies))

    @property
    def num_players(self) -> int:
        return len(self.strategies)


@dataclass(frozen=True, eq=False)
class ValueFunction:
    """A real vector indexed by state."""

    values: np.ndarray

    def __post_init__(self):
        vals = _frozen_array(self.values)
        if vals.ndim != 1:
            raise ValueError(f"value function must be 1-D, got shape {vals.shape}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


def default_line_metric(num_states: int) -> np.ndarray:
    """The index-distance metric d(s, s') = |index(s) - index(s')|."""
    idx = np.arange(num_states)
    return np.abs(idx[:, None] - idx[None, :]).astype(np.float64)


def effective_metric(model: MarkovGame | Mdp) -> np.ndarray:
    """The model's metric, defaulting to index distance when absent."""
    if model.metric is not None:
        return model.metric
    return default_line_metric(model.num_states)


def metric_violations(metric: np.ndarray, atol: float = 1e-12) -> list[str]:
    """Check metric axioms; returns one message per violated rule."""
    out = []
    metric = np.asarray(metric, dtype=np.float64)
    if metric.ndim != 2 or metric.shape[0] != metric.shape[1]:
        return [f"metric is not square: shape {metric.shape}"]
    bad = ~np.isfinite(metric)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        return [f"metric entry ({i}, {j}) is not finite"]
    n = metric.shape[0]
    diag = np.abs(np.diag(metric))
    if np.any(diag > atol):
        s = int(np.argmax(diag > atol))
        out.append(f"metric d(s,s) != 0 at state index {s}")
    asym = np.abs(metric - metric.T)
    if np.any(asym > atol):
        i, j = np.argwhere(asym > atol)[0]
        out.append(f"metric not symmetric at ({i}, {j})")
    off = metric + np.eye(n)  # exclude the diagonal from positivity
    if np.any(off <= 0):
        i, j = np.argwhere(off <= 0)[0]
        out.append(f"metric d(s,s') <= 0 for distinct states ({i}, {j})")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if metric[i, k] > metric[i, j] + metric[j, k] + atol:
                    out.append(
                        f"metric triangle inequality fails on ({i}, {j}, {k})"
                    )
                    return out
    return out


def _stochastic_violations(transitions, row_name) -> list[str]:
    out = []
    for s in range(transitions.shape[0]):
        for a in range(transitions.shape[1]):
            row = transitions[s, a]
            if not np.all(np.isfinite(row)):
                out.append(f"transition row {row_name(s, a)} has non-finite entries")
                continue
            if np.any(row < 0):
                out.append(f"transition row {row_name(s, a)} has negative entries")
            total = float(row.sum())
            if abs(total - 1.0) > STOCHASTIC_ATOL:
                out.append(
                    f"transition row {row_name(s, a)} sums to {total!r}, "
                    f"not 1 within {STOCHASTIC_ATOL}"
                )
    return out


def _discount_violations(gamma: float) -> list[str]:
    # NaN and infinities fail the comparison, so they are rejected too.
    if 0.0 < gamma < 1.0:
        return []
    return [f"discount {gamma!r} outside the open interval (0, 1)"]


def validate_game(game: MarkovGame) -> list[str]:
    """Check every model invariant; returns an empty list iff all hold.

    Each violation names the offending index and the rule it breaks.
    Violations are data, not failures: this never raises.
    """
    out = _discount_violations(game.discount)
    for i in range(game.num_players):
        bad = ~np.isfinite(game.rewards[i])
        if np.any(bad):
            s, a = np.argwhere(bad)[0]
            out.append(
                f"reward of player {i} at (state {game.states[s]!r}, "
                f"action ({game.joint_action_label(int(a))})) is not finite"
            )

    def row_name(s, a):
        return (f"(state {game.states[s]!r}, "
                f"action ({game.joint_action_label(a)}))")

    out.extend(_stochastic_violations(game.transitions, row_name))
    if game.metric is not None:
        out.extend(metric_violations(game.metric))
    return out


def validate_mdp(mdp: Mdp) -> list[str]:
    """Same stochasticity and range checks as :func:`validate_game`."""
    out = _discount_violations(mdp.discount)
    bad = ~np.isfinite(mdp.rewards)
    if np.any(bad):
        s, a = np.argwhere(bad)[0]
        out.append(
            f"reward at (state {mdp.states[s]!r}, action {mdp.actions[a]!r}) "
            "is not finite"
        )

    def row_name(s, a):
        return f"(state {mdp.states[s]!r}, action {mdp.actions[a]!r})"

    out.extend(_stochastic_violations(mdp.transitions, row_name))
    if mdp.metric is not None:
        out.extend(metric_violations(mdp.metric))
    return out


def check_discount(gamma: float) -> None:
    """Raise ``ValueError`` unless gamma lies in the open interval (0, 1)."""
    violations = _discount_violations(gamma)
    if violations:
        raise ValueError(violations[0])


def check_profile(game: MarkovGame, profile: StrategyProfile) -> None:
    """Raise ``ValueError`` unless the profile's dimensions match the game."""
    if profile.num_players != game.num_players:
        raise ValueError(
            f"profile has {profile.num_players} strategies for "
            f"{game.num_players} players"
        )
    for i, strat in enumerate(profile.strategies):
        expected = (game.num_states, game.action_counts[i])
        if strat.probabilities.shape != expected:
            raise ValueError(
                f"strategy of player {i} has shape "
                f"{strat.probabilities.shape}, expected {expected}"
            )


def induced_mdp(game: MarkovGame, profile: StrategyProfile, player: int) -> Mdp:
    """The single-agent problem a player faces when the others fix strategies.

    The returned MDP keeps the player's own action set; its transitions and
    rewards average the game's over the other players' randomization:
    mixing two opponent strategies mixes the induced model with the same
    weights.
    """
    check_profile(game, profile)
    if not 0 <= player < game.num_players:
        raise ValueError(f"player {player} out of range [0, {game.num_players})")
    s_count = game.num_states
    a_count = game.action_counts[player]
    trans = np.zeros((s_count, a_count, s_count))
    rew = np.zeros((s_count, a_count))
    for j, joint in enumerate(game.joint_actions()):
        weight = np.ones(s_count)
        for q, act in enumerate(joint):
            if q != player:
                weight = weight * profile.strategies[q].probabilities[:, act]
        own = joint[player]
        trans[:, own, :] += weight[:, None] * game.transitions[:, j, :]
        rew[:, own] += weight * game.rewards[player, :, j]
    return Mdp(
        states=game.states,
        actions=game.action_sets[player],
        transitions=trans,
        rewards=rew,
        discount=game.discount,
        metric=game.metric,
    )


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------
#
# A game document is UTF-8 JSON with fields:
#   players      integer
#   states       array of strings
#   actions      array (one per player) of arrays of strings
#   gamma        number
#   transitions  object: "state|action1,action2,..." -> array in state order
#   rewards      array (one per player) of objects with the same keys
#   metric       optional square array
#
# Keys appear in state order, then lexicographic joint-action order, so that
# serialize(parse(doc)) == doc for canonical documents.


def _transition_key(game: MarkovGame, state: int, joint_index: int) -> str:
    return f"{game.states[state]}|{game.joint_action_label(joint_index)}"


def serialize_game(game: MarkovGame) -> str:
    """Render a game as a canonical JSON document (trailing newline)."""
    transitions = {}
    rewards: list[dict[str, float]] = [{} for _ in range(game.num_players)]
    for s in range(game.num_states):
        for j in range(game.num_joint_actions):
            key = _transition_key(game, s, j)
            transitions[key] = [float(x) for x in game.transitions[s, j]]
            for i in range(game.num_players):
                rewards[i][key] = float(game.rewards[i, s, j])
    doc = {
        "players": game.num_players,
        "states": list(game.states),
        "actions": [list(acts) for acts in game.action_sets],
        "gamma": float(game.discount),
        "transitions": transitions,
        "rewards": rewards,
    }
    if game.metric is not None:
        doc["metric"] = [[float(x) for x in row] for row in game.metric]
    return json.dumps(doc, indent=2) + "\n"


def _require(doc: dict, field: str, kind, kind_name: str):
    if field not in doc:
        raise GameFormatError(f"missing field '{field}'")
    value = doc[field]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise GameFormatError(f"field '{field}' must be {kind_name}")
    return value


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GameFormatError(f"{where} must be a number")
    return float(value)


def parse_game(text: str, *, validate: bool = True) -> MarkovGame:
    """Parse a game document.

    Raises:
        GameFormatError: malformed JSON, or missing, unknown or ill-typed
            fields or keys; the message carries the offending line or key.
        GameValidationError: the document parses but violates invariants
            (only when ``validate`` is true; violations are listed, never
            silently repaired).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise GameFormatError("top-level value must be an object")

    players = _require(doc, "players", int, "an integer")
    if players < 1:
        raise GameFormatError("field 'players' must be a positive integer")
    states = _require(doc, "states", list, "an array")
    if not states or not all(isinstance(s, str) for s in states):
        raise GameFormatError("field 'states' must be a non-empty string array")
    if len(set(states)) != len(states):
        raise GameFormatError("field 'states' has duplicate identifiers")
    actions = _require(doc, "actions", list, "an array")
    if len(actions) != players:
        raise GameFormatError(
            f"field 'actions' has {len(actions)} entries for {players} players"
        )
    for i, acts in enumerate(actions):
        if (not isinstance(acts, list) or not acts
                or not all(isinstance(a, str) for a in acts)):
            raise GameFormatError(
                f"actions of player {i + 1} must be a non-empty string array"
            )
        if len(set(acts)) != len(acts):
            raise GameFormatError(f"actions of player {i + 1} have duplicates")
    if "gamma" not in doc:
        raise GameFormatError("missing field 'gamma'")
    gamma = _number(doc["gamma"], "field 'gamma'")

    trans_doc = _require(doc, "transitions", dict, "an object")
    rew_doc = _require(doc, "rewards", list, "an array")
    if len(rew_doc) != players:
        raise GameFormatError(
            f"field 'rewards' has {len(rew_doc)} entries for {players} players"
        )

    s_count = len(states)
    labels = [",".join(combo)
              for combo in itertools.product(*(list(a) for a in actions))]
    a_count = len(labels)
    trans = np.zeros((s_count, a_count, s_count))
    rew = np.zeros((players, s_count, a_count))
    for s in range(s_count):
        for j in range(a_count):
            key = f"{states[s]}|{labels[j]}"
            if key not in trans_doc:
                raise GameFormatError(f"transitions missing key '{key}'")
            row = trans_doc[key]
            if not isinstance(row, list) or len(row) != s_count:
                raise GameFormatError(
                    f"transition row '{key}' must be an array of {s_count} numbers"
                )
            trans[s, j] = [_number(x, f"transitions['{key}']") for x in row]
            for i in range(players):
                if not isinstance(rew_doc[i], dict):
                    raise GameFormatError(
                        f"rewards of player {i + 1} must be an object"
                    )
                if key not in rew_doc[i]:
                    raise GameFormatError(
                        f"rewards of player {i + 1} missing key '{key}'"
                    )
                rew[i, s, j] = _number(rew_doc[i][key],
                                       f"rewards[{i + 1}]['{key}']")
    known = {f"{state}|{label}" for state in states for label in labels}
    fields = {"transitions": trans_doc}
    fields.update((f"rewards of player {i + 1}", entries)
                  for i, entries in enumerate(rew_doc))
    for where, entries in fields.items():
        for key in entries:
            if key not in known:
                raise GameFormatError(f"{where} has unknown key '{key}'")

    metric = None
    if "metric" in doc:
        metric_doc = doc["metric"]
        if (not isinstance(metric_doc, list) or len(metric_doc) != s_count
                or any(not isinstance(r, list) or len(r) != s_count
                       for r in metric_doc)):
            raise GameFormatError(
                f"field 'metric' must be a {s_count}x{s_count} array"
            )
        metric = [[_number(x, "metric entry") for x in row] for row in metric_doc]

    game = MarkovGame(
        states=states,
        action_sets=[tuple(a) for a in actions],
        transitions=trans,
        rewards=rew,
        discount=gamma,
        metric=metric,
    )
    if validate:
        violations = validate_game(game)
        if violations:
            raise GameValidationError(violations)
    return game


def serialize_profile(profile: StrategyProfile) -> str:
    """Render a strategy profile as JSON (per-player arrays of state rows)."""
    doc = {
        "players": profile.num_players,
        "strategies": [
            [[float(p) for p in row] for row in strat.probabilities]
            for strat in profile.strategies
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_profile(text: str) -> StrategyProfile:
    """Parse a strategy-profile document; raises ``GameFormatError``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise GameFormatError("top-level value must be an object")
    strategies = _require(doc, "strategies", list, "an array")
    if "players" in doc and doc["players"] != len(strategies):
        raise GameFormatError(
            f"field 'players' is {doc['players']} but 'strategies' has "
            f"{len(strategies)} entries"
        )
    if not strategies:
        raise GameFormatError("field 'strategies' must be non-empty")
    parsed = []
    for i, rows in enumerate(strategies):
        if not isinstance(rows, list) or not rows:
            raise GameFormatError(
                f"strategy of player {i + 1} must be a non-empty array of rows"
            )
        try:
            parsed.append(MarkovStrategy(np.array(rows, dtype=np.float64)))
        except ValueError as exc:
            raise GameFormatError(f"strategy of player {i + 1}: {exc}") from exc
    return StrategyProfile(tuple(parsed))


def read_game(path, *, validate: bool = True) -> MarkovGame:
    with open(path, encoding="utf-8") as handle:
        return parse_game(handle.read(), validate=validate)


def read_profile(path) -> StrategyProfile:
    with open(path, encoding="utf-8") as handle:
        return parse_profile(handle.read())


def bundled_game(name: str) -> MarkovGame:
    """Load one of the games shipped with the package (``data/*.json``)."""
    text = (resources.files("mpekit") / "data" / f"{name}.json").read_text("utf-8")
    return parse_game(text)
