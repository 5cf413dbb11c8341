"""Data model for finite Markov games, strategies, and value functions.

An MDP is a one-player :class:`MarkovGame`.
All containers freeze their arrays after construction, so instances are
immutable and safe to share across threads. Each is checked once, when it
is built: a :class:`MarkovGame` raises :class:`GameValidationError`, listing
every broken invariant (discount range, finite rewards, row stochasticity,
metric axioms), and a :class:`MarkovStrategy` rejects rows that are not
distributions. Every function that takes one relies on that check alone.

One row rule serves games, strategies and the metrics: a row is a
distribution when every entry is finite and at least -STOCHASTIC_ATOL and
its sum is within STOCHASTIC_ATOL of 1. Invalid rows are never silently
renormalized.

Joint actions are ordered lexicographically by player index and then by
per-player action index. This fixes both iteration order and the key order
of the JSON file format.
"""

from __future__ import annotations

import contextlib
import itertools
import json
from collections import Counter
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

#: Tolerance of the row rule: for a negative entry and for a row's sum.
STOCHASTIC_ATOL = 1e-9
#: Tolerance of the metric axioms (zero diagonal, symmetry, triangle).
_METRIC_ATOL = 1e-12
#: Most (i, j, k) entries one block of the triangle check holds: 8 MB.
_TRIANGLE_ENTRIES = 2 ** 20


class GameFormatError(ValueError):
    """A game or profile document is malformed (bad JSON, missing keys)."""


class GameValidationError(ValueError):
    """A game of well-formed shapes violates the model invariants;
    ``violations`` lists one message per broken rule."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__(
            "invalid game: " + "; ".join(self.violations[:5])
            + ("; ..." if len(self.violations) > 5 else "")
        )


def _check_names(states, action_sets):
    """The names as tuples; ``ValueError`` for the first name rule broken:
    a string or a set where an ordered collection of names belongs, no
    player, no state, a non-string name, a repeated state, no or repeated
    actions."""
    _check_ordered(states, "states")
    _check_ordered(action_sets, "action_sets")
    states, action_sets = tuple(states), tuple(action_sets)
    for i, acts in enumerate(action_sets):
        _check_ordered(acts, f"actions of player {i + 1}")
    action_sets = tuple(tuple(acts) for acts in action_sets)
    if not action_sets:
        raise ValueError("a game needs at least one player")
    if not states:
        raise ValueError("a game needs at least one state")
    for name in itertools.chain(states, *action_sets):
        if not isinstance(name, str):
            raise ValueError(f"state or action name {name!r} is not a string")
    if len(set(states)) != len(states):
        raise ValueError("states have duplicate identifiers")
    for i, acts in enumerate(action_sets):
        if not acts:
            raise ValueError(f"player {i + 1} has no actions")
        if len(set(acts)) != len(acts):
            raise ValueError(f"actions of player {i + 1} have duplicates")
    return states, action_sets


def _check_ordered(names, field: str) -> None:
    """A string would be split into characters, and a set iterates in hash
    order, which can differ from one process to the next."""
    if isinstance(names, (str, bytes, set, frozenset)):
        raise ValueError(f"{field} must be an ordered collection, got "
                         f"{type(names).__name__} {names!r}")


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
        discount: Discount factor in (0, 1).
        metric: Optional ``(S, S)`` state metric.

    A game is checked when it is built, ``dataclasses.replace`` included:
    a string or a set in place of the states or an action set, no player,
    no state, a player without actions, a name that is no string or
    repeats, a wrong shape or a string discount raises ``ValueError``, and
    then every broken invariant is listed by one ``GameValidationError``,
    in this order: a discount outside (0, 1), each player's first reward
    that is not finite, each transition row that breaks the row rule
    (naming its state and joint action and the rule), then the metric
    axioms.
    """

    states: tuple[str, ...]
    action_sets: tuple[tuple[str, ...], ...]
    transitions: np.ndarray
    rewards: np.ndarray
    discount: float
    metric: np.ndarray | None = None

    def __post_init__(self):
        states, action_sets = _check_names(self.states, self.action_sets)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "action_sets", action_sets)
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
        if isinstance(self.discount, (str, bytes)):
            raise ValueError(
                f"discount must be a number, got {self.discount!r}")
        object.__setattr__(self, "discount", float(self.discount))
        if self.metric is not None:
            metric = _frozen_array(self.metric)
            if metric.shape != (s, s):
                raise ValueError(f"metric shape {metric.shape} != expected {(s, s)}")
            object.__setattr__(self, "metric", metric)
        violations = _violations(self)
        if violations:
            raise GameValidationError(violations)

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
            _check_count(act, "action index", minimum=0)
            if act >= count:
                raise ValueError(f"action index {act} out of range [0, {count})")
            index = index * count + act
        return index

    def joint_action_label(self, index: int) -> str:
        """Comma-separated action names for a joint action rank."""
        _check_count(index, "joint action rank", minimum=0)
        if index >= self.num_joint_actions:
            raise ValueError(f"joint action rank {index} out of range "
                             f"[0, {self.num_joint_actions})")
        names = []
        for count, acts in zip(reversed(self.action_counts),
                               reversed(self.action_sets)):
            names.append(acts[index % count])
            index //= count
        return ",".join(reversed(names))


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
        non_finite, negative, off_sum, sums = _row_problems(probs)
        if non_finite.any():
            s, a = np.argwhere(~np.isfinite(probs))[0]
            raise ValueError(f"non-finite probability at state {s}, action {a}")
        if negative.any():
            s, a = np.argwhere(probs < -STOCHASTIC_ATOL)[0]
            raise ValueError(f"negative probability at state {s}, action {a}")
        if off_sum.any():
            s = np.flatnonzero(off_sum)[0]
            raise ValueError(
                f"strategy row for state {s} sums to {float(sums[s])!r}, "
                f"not 1 within {STOCHASTIC_ATOL}"
            )
        object.__setattr__(self, "probabilities", probs)


@dataclass(frozen=True, eq=False)
class StrategyProfile:
    """One Markov strategy per player."""

    strategies: tuple[MarkovStrategy, ...]

    def __post_init__(self):
        strategies = tuple(self.strategies)
        for i, strategy in enumerate(strategies):
            if not isinstance(strategy, MarkovStrategy):
                raise ValueError(f"strategies[{i}] must be a MarkovStrategy, "
                                 f"got {type(strategy).__name__}")
        object.__setattr__(self, "strategies", strategies)

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


def _finite_values(values, name: str, num_states: int | None = None
                   ) -> np.ndarray:
    """A :class:`ValueFunction` or array as a float array with no NaN or
    infinite entry; a vector of ``num_states`` entries unless that is None."""
    arr = np.asarray(getattr(values, "values", values), dtype=np.float64)
    if num_states is not None and arr.shape != (num_states,):
        raise ValueError(
            f"{name} has shape {arr.shape} for {num_states} states")
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        raise ValueError(f"{name} is not finite at entry {bad[0].tolist()}")
    return arr


def default_line_metric(num_states: int) -> np.ndarray:
    """The index-distance metric d(s, s') = |index(s) - index(s')|."""
    _check_count(num_states, "num_states")
    idx = np.arange(num_states)
    return np.abs(idx[:, None] - idx[None, :]).astype(np.float64)


def metric_violations(metric: np.ndarray) -> list[str]:
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
    if np.any(diag > _METRIC_ATOL):
        s = int(np.argmax(diag > _METRIC_ATOL))
        out.append(f"metric d(s,s) != 0 at state index {s}")
    asym = np.abs(metric - metric.T)
    if np.any(asym > _METRIC_ATOL):
        i, j = np.argwhere(asym > _METRIC_ATOL)[0]
        out.append(f"metric not symmetric at ({i}, {j})")
    off = metric + np.eye(n)  # exclude the diagonal from positivity
    if np.any(off <= 0):
        i, j = np.argwhere(off <= 0)[0]
        out.append(f"metric d(s,s') <= 0 for distinct states ({i}, {j})")
    size = max(1, _TRIANGLE_ENTRIES // (n * n))
    for start in range(0, n, size):
        rows = metric[start:start + size]
        # bad[i, j, k]: d(i, k) > d(i, j) + d(j, k) + 1e-12, summed in that
        # order, for the block's i; argwhere finds the first in (i, j, k)
        # order.
        bad = rows[:, None, :] > rows[:, :, None] + metric + _METRIC_ATOL
        if np.any(bad):
            i, j, k = np.argwhere(bad)[0]
            out.append(f"metric triangle inequality fails on "
                       f"({start + i}, {j}, {k})")
            return out
    return out


def _row_problems(rows: np.ndarray):
    """Per-row masks (rows on the last axis): a non-finite entry (flagged
    for nothing else), an entry below -STOCHASTIC_ATOL, a sum off 1 by more
    than STOCHASTIC_ATOL; and the row sums."""
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite row
        sums = rows.sum(-1)
    non_finite = ~np.isfinite(rows).all(-1)
    negative = ~non_finite & (rows < -STOCHASTIC_ATOL).any(-1)
    off_sum = ~non_finite & (np.abs(sums - 1.0) > STOCHASTIC_ATOL)
    return non_finite, negative, off_sum, sums


def _discount_violations(gamma: float) -> list[str]:
    # NaN and infinities fail the comparison, so they are rejected too.
    if 0.0 < gamma < 1.0:
        return []
    return [f"discount {gamma!r} outside the open interval (0, 1)"]


def _violations(game: MarkovGame) -> list[str]:
    """Every broken invariant of a game of well-formed shapes, one message
    per rule, in the order the :class:`MarkovGame` docstring gives."""
    out = _discount_violations(game.discount)
    finite = np.isfinite(game.rewards)
    for i in np.flatnonzero(~finite.all(axis=(1, 2))):
        s, a = np.argwhere(~finite[i])[0]
        out.append(
            f"reward of player {i + 1} at (state {game.states[s]!r}, "
            f"action ({game.joint_action_label(int(a))})) is not finite"
        )
    non_finite, negative, off_sum, sums = _row_problems(game.transitions)
    for s, a in np.argwhere(non_finite | negative | off_sum):
        row = (f"transition row (state {game.states[s]!r}, "
               f"action ({game.joint_action_label(a)}))")
        if non_finite[s, a]:
            out.append(f"{row} has non-finite entries")
        if negative[s, a]:
            out.append(f"{row} has negative entries")
        if off_sum[s, a]:
            out.append(f"{row} sums to {float(sums[s, a])!r}, "
                       f"not 1 within {STOCHASTIC_ATOL}")
    if game.metric is not None:
        out.extend(metric_violations(game.metric))
    return out


def check_discount(gamma: float) -> None:
    """Raise ``ValueError`` unless gamma lies in the open interval (0, 1)."""
    violations = _discount_violations(gamma)
    if violations:
        raise ValueError(violations[0])


def _check_count(value, name: str, minimum: int = 1) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer of at least
    ``minimum`` (0 or 1). A numpy integer counts; a bool or a float does not.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum):
        kind = "positive" if minimum == 1 else "nonnegative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


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
                f"strategy of player {i + 1} has shape "
                f"{strat.probabilities.shape}, expected {expected}"
            )


def _joint_weights(strategies, num_states: int) -> np.ndarray:
    """Weights (S, J) of the joint actions of a sequence of (S, A_q)
    probability arrays, lexicographic: their probabilities' product in
    sequence order, formed from the first array (ones if there is none)."""
    if not strategies:
        return np.ones((num_states, 1))
    joint = strategies[0]
    for probs in strategies[1:]:
        joint = (joint[:, :, None] * probs[:, None, :]).reshape(num_states, -1)
    return joint


def _induced_model(game: MarkovGame, strategies, player: int):
    """The player's induced (S, A_i, S) transitions and (S, A_i) rewards,
    each entry summed as a loop over joint actions would sum it: from zero,
    the others' joint actions in lexicographic order, each weighted by
    ``_joint_weights``."""
    s_count, counts = game.num_states, game.action_counts
    transitions = game.transitions.reshape(s_count, *counts, s_count)
    rewards = game.rewards[player].reshape(s_count, *counts)
    weight = _joint_weights(
        [probs for q, probs in enumerate(strategies) if q != player], s_count)
    trans = np.zeros((s_count, counts[player], s_count))
    rew = np.zeros(trans.shape[:2])
    for w, joint in zip(weight.T, itertools.product(
            *([slice(None)] if q == player else range(c)
              for q, c in enumerate(counts)))):
        trans += w[:, None, None] * transitions[(slice(None), *joint)]
        rew += w[:, None] * rewards[(slice(None), *joint)]
    return trans, rew


def induced_mdp(game: MarkovGame, profile: StrategyProfile,
                player: int) -> MarkovGame:
    """The single-agent problem a player faces when the others fix strategies.

    The returned MDP is a one-player game with the player's own action set
    and rewards of shape ``(1, S, A_player)``; its transitions and rewards
    average the game's over the other players' profiles, in lexicographic
    order, each weighted by a product in player order: mixing two opponent
    strategies mixes the induced model with the same weights. It is checked
    when built, like any game: game rows and strategy rows that each sum to
    within the row rule's tolerance of 1 can average to a row beyond it.
    A player that is not an integer in [0, N) raises ``ValueError``.
    """
    check_profile(game, profile)
    _check_count(player, "player", minimum=0)
    if player >= game.num_players:
        raise ValueError(
            f"player index {player} out of range [0, {game.num_players})")
    trans, rew = _induced_model(
        game, [strat.probabilities for strat in profile.strategies], player)
    return replace(game, action_sets=(game.action_sets[player],),
                   transitions=trans, rewards=rew[None])


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
# serialize(parse(doc)) == doc for canonical documents. Profiles are
# {"players": N, "strategies": [per-player state rows]}. In both, a number
# is a JSON number within the float range, never a bool or a string (1e400
# reads as infinity, which the game's own check reports), and no object
# repeats a key.


def _document_keys(states, action_sets) -> list[str]:
    """The transition and reward keys "state|a1,a2,..." in canonical order.

    Names may hold '|' and ',', but two (state, joint action) pairs that
    give one key raise ``GameFormatError``: one row would serve both.
    """
    labels = [",".join(joint) for joint in itertools.product(*action_sets)]
    keys = [f"{state}|{label}" for state in states for label in labels]
    if len(set(keys)) < len(keys):
        key = next(k for k, n in Counter(keys).items() if n > 1)
        raise GameFormatError(f"two (state, joint action) pairs share the "
                              f"key '{key}'")
    return keys


def serialize_game(game: MarkovGame) -> str:
    """Render a game as a canonical JSON document (trailing newline)."""
    keys = _document_keys(game.states, game.action_sets)
    rows = game.transitions.reshape(len(keys), game.num_states).tolist()
    rewards = game.rewards.reshape(game.num_players, len(keys)).tolist()
    doc = {
        "players": game.num_players,
        "states": list(game.states),
        "actions": [list(acts) for acts in game.action_sets],
        "gamma": float(game.discount),
        "transitions": dict(zip(keys, rows)),
        "rewards": [dict(zip(keys, entries)) for entries in rewards],
    }
    if game.metric is not None:
        doc["metric"] = game.metric.tolist()
    return json.dumps(doc, indent=2) + "\n"


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise GameFormatError(f"duplicate key '{key}'")
    return obj


def _load_object(text: str) -> dict:
    """The object a JSON document holds; ``GameFormatError`` for invalid
    JSON (with its position), nesting too deep for the parser, a repeated
    key or a top-level non-object."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise GameFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise GameFormatError("JSON nests too deeply") from exc
    if not isinstance(doc, dict):
        raise GameFormatError("top-level value must be an object")
    return doc


def _require(doc: dict, field: str, kind, kind_name: str):
    if field not in doc:
        raise GameFormatError(f"missing field '{field}'")
    value = doc[field]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise GameFormatError(f"field '{field}' must be {kind_name}")
    return value


def _number(value, where: str) -> float:
    """A JSON int or float (never a bool) as a float; else a format error."""
    if type(value) is float:
        return value
    if type(value) is not int:
        raise GameFormatError(f"{where} must be a number")
    try:
        return float(value)
    except OverflowError as exc:
        raise GameFormatError(f"{where} is outside the float range") from exc


def _numbers(rows: list, where) -> np.ndarray | list:
    """Rows read as ``_number`` reads each entry, in one array call; else
    the first bad entry raises, named by ``where(row, column)``."""
    if set(map(type, itertools.chain.from_iterable(rows))) <= {float, int}:
        with contextlib.suppress(OverflowError, ValueError):  # 10**400; ragged
            return np.array(rows, np.float64)
    return [[_number(x, where(r, c)) for c, x in enumerate(row)]
            for r, row in enumerate(rows)]


def _keyed_values(entries, keys: list[str], where: str) -> list:
    """An object's values in key order. Raises ``GameFormatError`` for a
    non-object, the first missing key, then the first unknown key."""
    if not isinstance(entries, dict):
        raise GameFormatError(f"{where} must be an object")
    try:
        values = [entries[key] for key in keys]
    except KeyError as exc:
        raise GameFormatError(f"{where} missing key '{exc.args[0]}'") from exc
    if len(entries) > len(keys):
        known = set(keys)
        unknown = next(key for key in entries if key not in known)
        raise GameFormatError(f"{where} has unknown key '{unknown}'")
    return values


def parse_game(text: str) -> MarkovGame:
    """Parse a game document into a checked :class:`MarkovGame`.

    Raises:
        GameFormatError: malformed JSON, missing, unknown, repeated or
            ill-typed fields or keys, or names that break the game's name
            rules (in the constructor's words); the message names the line
            or entry.
        GameValidationError: the document parses but violates invariants,
            as the game's constructor lists them (never silently repaired).
    """
    doc = _load_object(text)
    players = _require(doc, "players", int, "an integer")
    if players < 1:
        raise GameFormatError("field 'players' must be a positive integer")
    states = _require(doc, "states", list, "an array")
    if not all(isinstance(s, str) for s in states):
        raise GameFormatError("field 'states' must be a string array")
    actions = _require(doc, "actions", list, "an array")
    if len(actions) != players:
        raise GameFormatError(
            f"field 'actions' has {len(actions)} entries for {players} players"
        )
    for i, acts in enumerate(actions):
        if (not isinstance(acts, list)
                or not all(isinstance(a, str) for a in acts)):
            raise GameFormatError(
                f"actions of player {i + 1} must be a string array")
    try:
        _check_names(states, actions)
    except ValueError as exc:
        raise GameFormatError(str(exc)) from exc
    gamma = _number(_require(doc, "gamma", (int, float), "a number"),
                    "field 'gamma'")

    trans_doc = _require(doc, "transitions", dict, "an object")
    rew_doc = _require(doc, "rewards", list, "an array")
    if len(rew_doc) != players:
        raise GameFormatError(
            f"field 'rewards' has {len(rew_doc)} entries for {players} players"
        )

    s_count = len(states)
    keys = _document_keys(states, actions)
    rows = _keyed_values(trans_doc, keys, "transitions")
    # Entries before the first malformed row are read, so reported, first.
    bad = next((r for r, row in enumerate(rows) if not isinstance(row, list)
                or len(row) != s_count), len(rows))
    trans = _numbers(rows[:bad], lambda r, c: f"transitions['{keys[r]}']")
    if bad < len(rows):
        raise GameFormatError(f"transition row '{keys[bad]}' must be an array "
                              f"of {s_count} numbers")
    rew = [_numbers([_keyed_values(row, keys, f"rewards of player {i + 1}")],
                    lambda r, c: f"rewards[{i + 1}]['{keys[c]}']")
           for i, row in enumerate(rew_doc)]

    metric = None
    if "metric" in doc:
        metric_doc = doc["metric"]
        if (not isinstance(metric_doc, list) or len(metric_doc) != s_count
                or any(not isinstance(r, list) or len(r) != s_count
                       for r in metric_doc)):
            raise GameFormatError(
                f"field 'metric' must be a {s_count}x{s_count} array"
            )
        metric = _numbers(metric_doc, lambda s, t: f"metric entry ({s}, {t})")

    return MarkovGame(
        states=states,
        action_sets=[tuple(a) for a in actions],
        transitions=np.reshape(trans, (s_count, -1, s_count)),
        rewards=np.reshape(rew, (players, s_count, -1)),
        discount=gamma,
        metric=metric,
    )


def serialize_profile(profile: StrategyProfile) -> str:
    """Render a strategy profile as JSON (per-player arrays of state rows)."""
    doc = {
        "players": profile.num_players,
        "strategies": [strat.probabilities.tolist()
                       for strat in profile.strategies],
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_profile(text: str) -> StrategyProfile:
    """Parse a strategy-profile document; raises ``GameFormatError``."""
    doc = _load_object(text)
    strategies = _require(doc, "strategies", list, "an array")
    if ("players" in doc and _require(doc, "players", int, "an integer")
            != len(strategies)):
        raise GameFormatError(
            f"field 'players' is {doc['players']} but 'strategies' has "
            f"{len(strategies)} entries"
        )
    if not strategies:
        raise GameFormatError("field 'strategies' must be non-empty")
    parsed = []
    for i, rows in enumerate(strategies):
        if (not isinstance(rows, list) or not rows
                or not all(isinstance(row, list) for row in rows)):
            raise GameFormatError(
                f"strategy of player {i + 1} must be a non-empty array of rows"
            )
        probs = _numbers(rows, lambda s, a:
                         f"probability of player {i + 1} at state {s}")
        try:
            parsed.append(MarkovStrategy(probs))
        except ValueError as exc:
            raise GameFormatError(f"strategy of player {i + 1}: {exc}") from exc
    return StrategyProfile(tuple(parsed))


def bundled_game(name: str) -> MarkovGame:
    """Load one of the games shipped with the package (``data/*.json``)."""
    text = (resources.files("mpekit") / "data" / f"{name}.json").read_text("utf-8")
    return parse_game(text)
