import json
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    per_row_triangle,
    random_game,
    random_profile,
    random_strategy,
    reference_check_distribution,
    reference_induced_mdp,
    reference_metric_violations,
    reference_parse_game,
    reference_parse_profile,
    reference_strategy_rows,
    reference_stochastic_violations,
    with_duplicate,
)
from mpekit import games
from mpekit.games import (
    STOCHASTIC_ATOL,
    GameFormatError,
    GameValidationError,
    MarkovGame,
    MarkovStrategy,
    StrategyProfile,
    ValueFunction,
    bundled_game,
    default_line_metric,
    induced_mdp,
    metric_violations,
    parse_game,
    parse_profile,
    serialize_game,
    serialize_profile,
)
from mpekit.mdp import bellman_policy, evaluate_policy
from mpekit.metrics import _check_distribution, comparison_metric

#: d(0, 2) is exactly (d(0, 1) + d(1, 2)) + 1e-12, the triangle bound at the
#: default atol; summed as d(0, 1) + (d(1, 2) + 1e-12) the bound rounds one
#: unit lower and d(0, 2) would exceed it.
_D01, _D12 = 3.850873528939438, 0.5307316087968483
_D02 = (_D01 + _D12) + 1e-12
TRIANGLE_EDGE = np.array([[0.0, _D01, _D02], [_D01, 0.0, _D12],
                          [_D02, _D12, 0.0]])


@st.composite
def serializable_games(draw):
    """Valid games of up to 4 states and 3 players with up to 3 actions
    each: stochastic rows from normalized positive weights, rewards over
    many magnitudes, and a line metric on distinct points or none."""
    num_states = draw(st.integers(1, 4))
    counts = tuple(draw(st.lists(st.integers(1, 3), min_size=1,
                                 max_size=3)))
    num_joint = int(np.prod(counts))
    weights = draw(arrays(np.float64, (num_states, num_joint, num_states),
                          elements=st.floats(0.01, 1.0)))
    rewards = draw(arrays(np.float64, (len(counts), num_states, num_joint),
                          elements=st.floats(-1e6, 1e6)))
    points = draw(st.none() | arrays(np.float64, num_states, unique=True,
                                     elements=st.floats(-100.0, 100.0)))
    return MarkovGame(
        states=tuple(f"s{k}" for k in range(num_states)),
        action_sets=tuple(tuple(f"a{k}" for k in range(c)) for c in counts),
        transitions=weights / weights.sum(axis=-1, keepdims=True),
        rewards=rewards,
        discount=draw(st.floats(0.01, 0.99)),
        metric=(None if points is None
                else np.abs(points[:, None] - points[None, :])),
    )


#: Names drawn mostly from the key separators, so that many games have two
#: (state, joint action) pairs with one key; the rest is any text.
NAMES = st.text(st.sampled_from("a|,") | st.characters(), max_size=3)


@st.composite
def named_games(draw):
    """Games of up to 3 states and 2 players whose state and action names
    are arbitrary text, distinct within each set (a game with a repeat
    cannot be built)."""
    states = tuple(draw(st.lists(NAMES, min_size=1, max_size=3, unique=True)))
    action_sets = tuple(
        tuple(draw(st.lists(NAMES, min_size=1, max_size=2, unique=True)))
        for _ in range(draw(st.integers(1, 2))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    joint = int(np.prod([len(acts) for acts in action_sets]))
    return MarkovGame(states, action_sets,
                      rng.dirichlet(np.ones(len(states)),
                                    size=(len(states), joint)),
                      rng.uniform(-1.0, 1.0, size=(len(action_sets),
                                                   len(states), joint)),
                      0.9)


def tiny_game(**overrides):
    base = dict(
        states=("a", "b"),
        action_sets=(("x", "y"),),
        transitions=[[[0.5, 0.5], [1.0, 0.0]], [[0.0, 1.0], [0.25, 0.75]]],
        rewards=[[[1.0, 2.0], [3.0, 4.0]]],
        discount=0.9,
    )
    base.update(overrides)
    return MarkovGame(**base)


#: The parts ``broken_part`` breaks, one at a time.
BROKEN_PARTS = ("row-nan", "row-negative", "row-short", "reward-nan",
                "reward-inf", "discount", "metric-asymmetric",
                "metric-triangle")


def row_name(game: MarkovGame):
    """Names rows as the row-loop reference expects: (state, joint action)."""
    return lambda s, a: (f"(state {game.states[s]!r}, "
                         f"action ({game.joint_action_label(a)}))")


def broken_part(rng, game: MarkovGame, part: str):
    """(field, broken value, intact value, expected violations): one part
    of a valid game with a line metric broken, a valid replacement for it,
    and the violations the references give for the broken value."""
    size = game.num_states
    s, a = int(rng.integers(size)), int(rng.integers(game.num_joint_actions))
    if part.startswith("row"):
        rows = game.transitions.copy()
        k = int(rng.integers(size))
        if part == "row-nan":
            rows[s, a, k] = np.nan
        elif part == "row-negative":
            rows[s, a, k] = -rng.uniform(1e-6, 1.0)
        else:
            rows[s, a] *= rng.uniform(0.1, 1.0 - 1e-6)
        intact = game.transitions.copy()
        intact[s, a] = rng.dirichlet(np.ones(size))
        return ("transitions", rows, intact,
                reference_stochastic_violations(rows, row_name(game)))
    if part.startswith("reward"):
        rewards = game.rewards.copy()
        player = int(rng.integers(game.num_players))
        rewards[player, s, a] = np.nan if part == "reward-nan" else np.inf
        intact = game.rewards.copy()
        intact[player, s, a] = rng.normal(scale=1e6)
        return ("rewards", rewards, intact, [
            f"reward of player {player + 1} at {row_name(game)(s, a)} is not "
            "finite"])
    if part == "discount":
        gamma = float(rng.choice([0.0, 1.0, -0.5, 1.5, np.nan, np.inf]))
        return ("discount", gamma, rng.uniform(1e-6, 1.0 - 1e-6), [
            f"discount {gamma!r} outside the open interval (0, 1)"])
    metric = game.metric.copy()
    if part == "metric-asymmetric":
        j = (s + 1 + int(rng.integers(size - 1))) % size
        metric[s, j] += rng.uniform(0.1, 1.0)
    else:
        metric[0, -1] = metric[-1, 0] = size - 1 + rng.uniform(0.5, 3.0)
    return ("metric", metric, rng.uniform(0.1, 10.0) * game.metric,
            reference_metric_violations(metric))


def build_violations(build, **fields) -> list[str]:
    """The violations ``build(**fields)`` raises; [] when the game builds."""
    try:
        build(**fields)
    except GameValidationError as exc:
        return exc.violations
    return []


class TestValidation:
    @pytest.mark.parametrize("states, action_sets, message", [
        (("a",), (), "a game needs at least one player"),
        ((), (("x",), ("y",)), "a game needs at least one state"),
        (("a",), ((),), "player 1 has no actions"),
        (("a", "a"), (("x",),), "states have duplicate identifiers"),
        (("a",), (("x",), ("y", "y")), "actions of player 2 have duplicates"),
    ], ids=["no-player", "no-state", "no-action", "repeated-state",
            "repeated-action"])
    def test_rejects_the_sets_the_reader_rejects(self, states, action_sets,
                                                 message):
        # A game built from one would fail later: in solve_optimal or
        # solve_mpe on an empty set, in serialize_game on a repeated name.
        # parse_game words each rule alike, as a format error, before any
        # key is built. A document states its player count, which is
        # checked as a field first.
        s = len(states)
        a = int(np.prod([len(acts) for acts in action_sets]))
        transitions = np.full((s, a, s), 1.0 / max(s, 1))
        rewards = np.zeros((len(action_sets), s, a))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MarkovGame(states, action_sets, transitions, rewards, 0.5)
        doc = json.loads(serialize_game(tiny_game()))
        doc["players"] = len(action_sets)
        doc["states"], doc["actions"] = list(states), list(action_sets)
        if not action_sets:
            message = "field 'players' must be a positive integer"
        with pytest.raises(GameFormatError, match=f"^{re.escape(message)}$"):
            parse_game(json.dumps(doc))

    @pytest.mark.parametrize("states, action_sets, message", [
        ((0, 1), (("x",),), "state or action name 0 is not a string"),
        (("a", "b"), (("x",), ("y", None)),
         "state or action name None is not a string"),
    ], ids=["state", "action"])
    def test_names_must_be_strings(self, states, action_sets, message):
        # Such a game would fail later with a bare TypeError: serialize_game
        # and a bad row's message join the names. A document's names are
        # checked as a field first, in the reader's own words.
        a = int(np.prod([len(acts) for acts in action_sets]))
        for transitions in (np.full((2, a, 2), 0.5), np.zeros((2, a, 2))):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                MarkovGame(states, action_sets, transitions,
                           np.zeros((len(action_sets), 2, a)), 0.5)

    def test_bundled_games_are_clean(self, original_game, perturbed_game):
        # Each was checked when it was parsed; building it again raises
        # nothing either.
        for game in (original_game, perturbed_game):
            replace(game)

    def test_bad_row_sum_is_one_violation(self):
        violations = build_violations(
            tiny_game,
            transitions=[[[0.5, 0.6], [1.0, 0.0]], [[0.0, 1.0], [0.25, 0.75]]]
        )
        assert len(violations) == 1
        assert "sums to" in violations[0]
        assert "'a'" in violations[0]

    def test_discount_boundaries_excluded(self):
        for gamma in (1.0, 0.0, -0.1, 1.5):
            violations = build_violations(tiny_game, discount=gamma)
            assert len(violations) == 1
            assert "discount" in violations[0]

    def test_nonfinite_reward_flagged(self):
        violations = build_violations(
            tiny_game, rewards=[[[1.0, np.inf], [3.0, 4.0]]])
        assert len(violations) == 1
        assert "finite" in violations[0]

    def test_negative_transition_flagged(self):
        assert any("negative" in v for v in build_violations(
            tiny_game,
            transitions=[[[1.2, -0.2], [1.0, 0.0]], [[0.0, 1.0], [0.25, 0.75]]]
        ))

    def test_metric_axioms(self):
        good = default_line_metric(3)
        assert metric_violations(good) == []
        assert any("symmetric" in v
                   for v in metric_violations([[0, 1], [2, 0]]))
        assert any("d(s,s)" in v
                   for v in metric_violations([[0.5, 1], [1, 0]]))
        assert any("distinct" in v
                   for v in metric_violations([[0, 0], [0, 0]]))
        skewed = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
        assert any("triangle" in v for v in metric_violations(skewed))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_metric_names_first_entry(self, bad):
        assert metric_violations(np.full((3, 3), bad)) == [
            "metric entry (0, 0) is not finite"]
        metric = default_line_metric(3)
        metric[2, 1] = bad
        assert metric_violations(metric) == [
            "metric entry (2, 1) is not finite"]

    @settings(max_examples=300, deadline=None)
    @example(TRIANGLE_EDGE, False)
    @given(st.integers(1, 7).flatmap(lambda n: arrays(
        np.float64, (n, n), elements=st.one_of(
            st.integers(0, 4).map(float),
            st.floats(0.0, 4.0, allow_nan=False),
            st.sampled_from([1.0 + 1e-12, 2.0 - 1e-12, 2e-12])))),
        st.booleans())
    def test_same_messages_as_the_triple_loop(self, metric, symmetrize):
        # Small integers give exact ties d(i, k) = d(i, j) + d(j, k); the
        # near-integers land within or just beyond atol of them. The example
        # pins the order of summation.
        if symmetrize:
            metric = np.triu(metric, 1) + np.triu(metric, 1).T
        assert metric_violations(metric) == reference_metric_violations(
            metric)

    @pytest.mark.parametrize("entries", [2 ** 20, 2 ** 10])
    def test_same_messages_as_the_per_row_check(self, monkeypatch, entries):
        # 2 ** 10 entries split every metric above 5 states into blocks of a
        # few rows i, so the first violation may sit in any block.
        monkeypatch.setattr(games, "_TRIANGLE_ENTRIES", entries)
        rng = np.random.default_rng(5)
        lattice = np.array([(r, c) for r in range(8) for c in range(5)])
        for size in range(2, 41):
            points = rng.uniform(size=(size, 2))
            planar = np.linalg.norm(points[:, None] - points[None], axis=2)
            cells = lattice[:size]
            grid = np.abs(cells[:, None] - cells[None]).sum(-1).astype(float)
            for metric in (planar, grid):
                assert metric_violations(metric) == []
                assert reference_metric_violations(
                    metric, triangle=per_row_triangle) == []
                if size < 3:
                    continue
                # One long edge, d(i, k) = d(k, i) > d(i, j) + d(j, k): the
                # first violation may be on another j, or on (k, ., i).
                i, j, k = rng.choice(size, 3, replace=False)
                planted = metric.copy()
                planted[i, k] = planted[k, i] = (
                    metric[i, j] + metric[j, k] + 10.0 ** rng.uniform(-9, 0))
                messages = metric_violations(planted)
                assert messages == reference_metric_violations(
                    planted, triangle=per_row_triangle)
                assert messages == reference_metric_violations(planted)
                assert len(messages) == 1 and "triangle" in messages[0]

    def test_game_with_bad_metric_reports_it(self):
        assert any("distinct" in v for v in build_violations(
            tiny_game, metric=[[0.0, 0.0], [0.0, 0.0]]))

    def test_validate_mdp_mirrors_game_checks(self):
        from helpers import random_mdp

        # An MDP is a one-player game, checked by the same constructor.
        random_mdp(np.random.default_rng(0))
        with pytest.raises(GameValidationError) as excinfo:
            random_mdp(np.random.default_rng(0), discount=1.0)
        assert any("discount" in v for v in excinfo.value.violations)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 6),
           st.sampled_from(BROKEN_PARTS))
    def test_replace_lists_what_the_references_list(self, seed, size, part):
        rng = np.random.default_rng(seed)
        game = replace(random_game(rng, size, (2, 3), 0.9),
                       metric=default_line_metric(size))
        field, broken, intact, expected = broken_part(rng, game, part)
        with pytest.raises(GameValidationError) as excinfo:
            replace(game, **{field: broken})
        assert excinfo.value.violations == expected
        replace(game, **{field: intact})  # a valid value in its place builds

    def test_rows_scaled_by_nine_tenths_are_rejected(self):
        # certify_profile once returned a gap for this game: it checked no
        # row, where other entry points did.
        game = random_game(np.random.default_rng(1), 100, (3, 3), 0.99)
        with pytest.raises(GameValidationError) as excinfo:
            replace(game, transitions=0.9 * game.transitions)
        violations = excinfo.value.violations
        assert violations == reference_stochastic_violations(
            0.9 * game.transitions, row_name(game))
        assert len(violations) == 900
        assert violations[0].startswith(
            "transition row (state '0', action (0,0)) sums to 0.89")


class TestParsing:
    def test_bundled_shape(self, original_game):
        assert original_game.num_states == 3
        assert original_game.action_counts == (2, 2)
        assert original_game.discount == 0.9
        assert original_game.num_joint_actions == 4

    def test_minimal_degenerate_game(self):
        doc = json.dumps({
            "players": 1,
            "states": ["only"],
            "actions": [["stay"]],
            "gamma": 0.5,
            "transitions": {"only|stay": [1.0]},
            "rewards": [{"only|stay": 0.0}],
        })
        game = parse_game(doc)
        assert game.num_joint_actions == 1

    def test_missing_transition_row_names_key(self):
        doc = json.loads(serialize_game(tiny_game()))
        del doc["transitions"]["b|y"]
        with pytest.raises(GameFormatError, match="b\\|y"):
            parse_game(json.dumps(doc))

    def test_missing_reward_key_names_player_and_key(self):
        doc = json.loads(serialize_game(tiny_game()))
        del doc["rewards"][0]["a|x"]
        with pytest.raises(GameFormatError, match="player 1.*a\\|x"):
            parse_game(json.dumps(doc))

    def test_unknown_transition_key_named(self):
        doc = json.loads(serialize_game(tiny_game()))
        doc["transitions"]["bogus|x,y"] = [1.0, 0.0]
        with pytest.raises(GameFormatError,
                           match="transitions .*unknown key 'bogus\\|x,y'"):
            parse_game(json.dumps(doc))

    def test_unknown_reward_key_names_player_and_key(self):
        doc = json.loads(serialize_game(tiny_game()))
        doc["rewards"][0]["bogus|x,y"] = 0.0
        with pytest.raises(GameFormatError,
                           match="player 1 .*unknown key 'bogus\\|x,y'"):
            parse_game(json.dumps(doc))

    def test_bad_json_reports_position(self):
        with pytest.raises(GameFormatError, match="line 1"):
            parse_game("{not json")

    def test_invalid_document_lists_violations(self):
        doc = json.loads(serialize_game(tiny_game()))
        doc["transitions"]["a|x"] = [0.5, 0.6]
        with pytest.raises(GameValidationError) as excinfo:
            parse_game(json.dumps(doc))
        assert any("sums to" in v for v in excinfo.value.violations)

    def test_discount_checked_when_parsed(self):
        doc = json.loads(serialize_game(tiny_game()))
        doc["gamma"] = 1.0
        with pytest.raises(GameValidationError) as excinfo:
            parse_game(json.dumps(doc))
        assert excinfo.value.violations == [
            "discount 1.0 outside the open interval (0, 1)"]

    @pytest.mark.parametrize("field", ["players", "states", "actions",
                                       "gamma", "transitions", "rewards"])
    def test_missing_field_named(self, field):
        doc = json.loads(serialize_game(tiny_game()))
        del doc[field]
        with pytest.raises(GameFormatError, match=field):
            parse_game(json.dumps(doc))

    def test_serialize_parse_is_identity_on_canonical_documents(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            game = random_game(rng, num_states=int(rng.integers(1, 4)),
                               action_counts=tuple(
                                   int(c) for c in rng.integers(
                                       1, 4, size=rng.integers(1, 4))))
            rounded = MarkovGame(
                states=game.states,
                action_sets=game.action_sets,
                transitions=np.round(game.transitions, 12),
                rewards=np.round(game.rewards, 12),
                discount=game.discount,
            )
            doc = serialize_game(rounded)
            reparsed = parse_game(doc)
            assert serialize_game(reparsed) == doc
            assert np.array_equal(reparsed.transitions, rounded.transitions)
            assert np.array_equal(reparsed.rewards, rounded.rewards)

    @settings(max_examples=150, deadline=None)
    @given(serializable_games())
    def test_parse_inverts_serialize(self, game):
        doc = serialize_game(game)
        reparsed = parse_game(doc)
        assert reparsed.states == game.states
        assert reparsed.action_sets == game.action_sets
        assert reparsed.discount == game.discount
        assert reparsed.transitions.tobytes() == game.transitions.tobytes()
        assert reparsed.rewards.tobytes() == game.rewards.tobytes()
        if game.metric is None:
            assert reparsed.metric is None
        else:
            assert reparsed.metric.tobytes() == game.metric.tobytes()
        assert serialize_game(reparsed) == doc

    @settings(max_examples=200, deadline=None)
    @given(named_games())
    @example(tiny_game(states=("a", "a|x"), action_sets=(("x|y", "y"),),
                       rewards=[[[0.0, 1.0], [2.0, 3.0]]]))
    def test_any_names_round_trip_or_fail_to_serialize(self, game):
        try:
            doc = serialize_game(game)
        except GameFormatError as exc:
            assert "share the key" in str(exc)
            return
        reparsed = parse_game(doc)
        assert reparsed.states == game.states
        assert reparsed.action_sets == game.action_sets
        assert reparsed.transitions.tobytes() == game.transitions.tobytes()
        assert reparsed.rewards.tobytes() == game.rewards.tobytes()

    def test_colliding_keys_are_named(self):
        game = tiny_game(states=("a", "a|x"), action_sets=(("x|y", "y"),))
        message = "two (state, joint action) pairs share the key 'a|x|y'"
        with pytest.raises(GameFormatError, match=re.escape(message)):
            serialize_game(game)
        doc = json.loads(serialize_game(tiny_game()))
        doc["states"], doc["actions"] = ["a", "a|x"], [["x|y", "y"]]
        doc["transitions"] = {"a|x|y": [1.0, 0.0], "a|y": [1.0, 0.0],
                              "a|x|x|y": [0.0, 1.0]}
        doc["rewards"] = [{"a|x|y": 0.0, "a|y": 1.0, "a|x|x|y": 3.0}]
        with pytest.raises(GameFormatError, match=re.escape(message)):
            parse_game(json.dumps(doc))

    def test_separators_in_names_round_trip(self):
        game = tiny_game(states=("a|b", "c,d"), action_sets=(("x,y", "|"),))
        reparsed = parse_game(serialize_game(game))
        assert reparsed.states == game.states
        assert reparsed.action_sets == game.action_sets
        assert reparsed.rewards.tobytes() == game.rewards.tobytes()

    def test_round_trip_preserves_metric(self):
        game = tiny_game(metric=default_line_metric(2))
        reparsed = parse_game(serialize_game(game))
        assert np.array_equal(reparsed.metric, game.metric)

    def test_profile_round_trip(self):
        rng = np.random.default_rng(3)
        profile = StrategyProfile((
            random_strategy(rng, 3, 2), random_strategy(rng, 3, 4)
        ))
        reparsed = parse_profile(serialize_profile(profile))
        for mine, theirs in zip(profile.strategies, reparsed.strategies):
            assert np.array_equal(mine.probabilities, theirs.probabilities)

    def test_profile_rejects_bad_rows(self):
        with pytest.raises(GameFormatError, match="player 1"):
            parse_profile(json.dumps({"strategies": [[[0.5, 0.4]]]}))

    def test_profile_rejects_nan_literal(self):
        # json.loads accepts the NaN literal.
        with pytest.raises(GameFormatError, match="player 2: non-finite"):
            parse_profile('{"strategies": [[[1.0, 0.0]], [[NaN, 1.0]]]}')


#: The values a reader must refuse as a number, by name.
NOT_NUMBERS = {"bool": True, "numeric string": "0.5", "400-digit integer":
               10 ** 399}


@st.composite
def faulty_game_documents(draw):
    """A serialized game with one fault in transitions, rewards, metric or
    gamma, and the key or entry its message must name."""
    game = draw(serializable_games())
    doc = json.loads(serialize_game(game))
    places = ["transitions", "rewards", "gamma"]
    if game.metric is not None:
        places.append("metric")
    place = draw(st.sampled_from(places))
    fault = draw(st.sampled_from(["missing key", "unknown key",
                                  "duplicated key", *NOT_NUMBERS]))
    keys = list(doc["transitions"])
    key = draw(st.sampled_from(keys))
    player = draw(st.integers(0, game.num_players - 1))
    s, t = draw(st.integers(0, game.num_states - 1)), draw(
        st.integers(0, game.num_states - 1))
    if place == "transitions":
        owner, occurrence, name = doc["transitions"], 0, f"transitions['{key}']"
    elif place == "rewards":
        owner, occurrence = doc["rewards"][player], player + 1
        name = f"rewards[{player + 1}]['{key}']"
    else:
        owner, occurrence, key = doc, 0, place
        name = ("field 'gamma'" if place == "gamma"
                else f"metric entry ({s}, {t})")
    if fault == "missing key":
        if place == "metric":
            doc["metric"][s].pop()
            return json.dumps(doc), "field 'metric'"
        del owner[key]
        return json.dumps(doc), f"'{key}'"
    if fault == "unknown key":
        # An unknown top-level field is allowed; put the key into the
        # transitions or rewards object instead.
        if place in ("gamma", "metric"):
            owner = doc["transitions"]
        owner["bogus|key"] = owner[keys[0]]
        return json.dumps(doc), "unknown key 'bogus|key'"
    if fault == "duplicated key":
        return (with_duplicate(doc, key, owner[key], occurrence),
                f"duplicate key '{key}'")
    bad = NOT_NUMBERS[fault]
    if place == "transitions":
        owner[key][t] = bad
    elif place == "rewards":
        owner[key] = bad
    elif place == "metric":
        doc["metric"][s][t] = bad
    else:
        doc["gamma"] = bad
    return json.dumps(doc), name


def serialized_profile(rng, num_players=2) -> dict:
    return json.loads(serialize_profile(StrategyProfile(tuple(
        random_strategy(rng, 3, 2) for _ in range(num_players)))))


@st.composite
def profiles(draw):
    """Profiles of up to 3 players, 4 states and 3 actions; rows are
    normalized weights, some entries as small as 1e-300."""
    num_states = draw(st.integers(1, 4))
    strategies = []
    for count in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)):
        weights = draw(arrays(np.float64, (num_states, count), elements=(
            st.floats(0.01, 1.0) | st.just(0.0)))) + 1e-300
        strategies.append(MarkovStrategy(
            weights / weights.sum(axis=1, keepdims=True)))
    return StrategyProfile(tuple(strategies))


class TestReader:
    """Games and profiles: one loader, one number rule."""

    @settings(max_examples=300, deadline=None)
    @given(faulty_game_documents())
    def test_each_game_fault_is_named(self, case):
        text, name = case
        with pytest.raises(GameFormatError) as excinfo:
            parse_game(text)
        assert name in str(excinfo.value)

    @pytest.mark.parametrize("fault", NOT_NUMBERS)
    def test_profile_numbers(self, fault):
        doc = serialized_profile(np.random.default_rng(5))
        doc["strategies"][1][2][0] = NOT_NUMBERS[fault]
        with pytest.raises(GameFormatError,
                           match="probability of player 2 at state 2"):
            parse_profile(json.dumps(doc))
        doc = serialized_profile(np.random.default_rng(5))
        doc["players"] = NOT_NUMBERS[fault]
        with pytest.raises(GameFormatError, match="field 'players'"):
            parse_profile(json.dumps(doc))

    def test_profile_players_true_is_not_one(self):
        doc = serialized_profile(np.random.default_rng(5), num_players=1)
        doc["players"] = True
        with pytest.raises(GameFormatError,
                           match="field 'players' must be an integer"):
            parse_profile(json.dumps(doc))

    @pytest.mark.parametrize("key", ["players", "strategies"])
    def test_profile_duplicate_key(self, key):
        doc = serialized_profile(np.random.default_rng(5))
        with pytest.raises(GameFormatError, match=f"duplicate key '{key}'"):
            parse_profile(with_duplicate(doc, key, doc[key]))

    @pytest.mark.parametrize("rows,message", [
        ([0.5, 0.5], "player 2 must be a non-empty array of rows"),
        ([[1.0, 0.0], 1.0], "player 2 must be a non-empty array of rows"),
        ([], "player 2 must be a non-empty array of rows"),
        ([[1.0, 0.0], [1.0]], "player 2: setting an array element"),
    ])
    def test_profile_rows_that_are_no_matrix(self, rows, message):
        doc = serialized_profile(np.random.default_rng(5))
        doc["strategies"][1] = rows
        with pytest.raises(GameFormatError, match=message):
            parse_profile(json.dumps(doc))

    @settings(max_examples=150, deadline=None)
    @given(profiles())
    def test_profile_round_trip_is_byte_identical(self, profile):
        doc = serialize_profile(profile)
        assert serialize_profile(parse_profile(doc)) == doc

    @pytest.mark.parametrize("text,message", [
        ('{"strategy": [[[1.0]]]}', "missing field 'strategies'"),
        ('{"strategies": [[[1.0]]], "strategies": [[[1.0]]]}',
         "duplicate key 'strategies'"),
        ('{"strategies": [1.0]}', "player 1 must be a non-empty array"),
        ('{"strategies": {"1": [[1.0]]}}',
         "field 'strategies' must be an array"),
        ('[[[1.0]]]', "top-level value must be an object"),
        ('{"strategies": [[[1.0]]', "invalid JSON at line 1"),
    ], ids=["missing", "duplicate", "flat", "object", "top-level", "json"])
    def test_profile_document_faults(self, text, message):
        with pytest.raises(GameFormatError, match=message):
            parse_profile(text)

    def test_non_finite_literals_reach_the_model_checks(self):
        # NaN, Infinity and a decimal beyond the float range are JSON
        # numbers here; the model checks, not the reader, reject them.
        doc = json.loads(serialize_game(tiny_game()))
        doc["rewards"][0]["a|x"] = "__"
        for literal in ("NaN", "Infinity", "1e400"):
            text = json.dumps(doc).replace('"__"', literal)
            with pytest.raises(GameValidationError, match="not finite"):
                parse_game(text)


#: Numbers that read in unusual ways: -0.0, subnormals, ints past 2^53 and
#: up to 1e300, and literals (bare text between << and >>) beyond the float
#: range or not finite, which the model checks, not the reader, reject.
ODD_NUMBERS = (st.floats(-1e6, 1e6) | st.integers(-10 ** 6, 10 ** 6)
               | st.integers(-10 ** 300, 10 ** 300)
               | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308,
                                  -1.5e-310])
               | st.sampled_from(["<<1e400>>", "<<-1e400>>", "<<NaN>>",
                                  "<<Infinity>>", "<<-Infinity>>"]))

#: Planted in place of an entry: its row loses its last entry (a reward
#: loses its key).
SHORT = object()

#: Entries that are no JSON number.
BAD_ENTRIES = [True, "0.5", None, [0.5], 10 ** 400]


def game_slots(doc: dict) -> list:
    """(owner, index) of each number in a game document's transitions,
    rewards and metric, in document order."""
    return ([(row, t) for row in doc["transitions"].values()
             for t in range(len(row))]
            + [(entries, key) for entries in doc["rewards"]
               for key in entries]
            + [(row, t) for row in doc.get("metric", [])
               for t in range(len(row))])


def profile_slots(doc: dict) -> list:
    return [(row, a) for rows in doc["strategies"] for row in rows
            for a in range(len(row))]


def plant(data, doc: dict, slots: list, values, count) -> str:
    """The document with ``count`` slots set to drawn values, as JSON text
    with each literal bare."""
    picks = data.draw(st.lists(st.integers(0, len(slots) - 1), unique=True,
                               min_size=count[0], max_size=count[1]))
    short = []
    for k in picks:
        owner, at = slots[k]
        value = data.draw(values)
        if value is SHORT:
            short.append(slots[k])
        else:
            owner[at] = value
    for owner, at in short:
        if isinstance(owner, dict):
            owner.pop(at, None)
        elif owner:
            owner.pop()
    return re.sub(r'"<<([^"]*)>>"', r"\1", json.dumps(doc))


def same_array_bits(mine, reference) -> bool:
    if mine is None or reference is None:
        return mine is reference
    mine, reference = (np.asarray(x, np.float64) for x in (mine, reference))
    return (mine.shape == reference.shape
            and mine.tobytes() == reference.tobytes())


def read_outcome(read, text):
    try:
        read(text)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return None


class TestBulkReader:
    """Each field's numbers convert in one array call, with the per-entry
    reader's bits and, on a fault, its message."""

    @settings(max_examples=200, deadline=None)
    @given(serializable_games(), st.data())
    def test_game_numbers_keep_their_bits(self, game, data):
        doc = json.loads(serialize_game(game))
        text = plant(data, doc, game_slots(doc), ODD_NUMBERS, (0, 8))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(games, "MarkovGame", dict)
            mine = parse_game(text)
        reference = reference_parse_game(text, build=dict)
        for field in ("transitions", "rewards", "metric"):
            assert same_array_bits(mine[field], reference[field]), field
        assert same_array_bits(mine["discount"], reference["discount"])

    @settings(max_examples=100, deadline=None)
    @given(profiles(), st.data())
    def test_profile_numbers_keep_their_bits(self, profile, data):
        doc = json.loads(serialize_profile(profile))
        text = plant(data, doc, profile_slots(doc), ODD_NUMBERS, (0, 4))
        # Unchecked strategies in a bare tuple, since a profile holds only
        # checked ones: no row rule drops a planted number before its bits
        # are compared.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(games, "MarkovStrategy", np.asarray)
            patch.setattr(games, "StrategyProfile", tuple)
            mine = parse_profile(text)
        reference = reference_parse_profile(text, build=np.asarray,
                                            profile=tuple)
        assert len(mine) == len(reference)
        assert all(map(same_array_bits, mine, reference))

    @settings(max_examples=400, deadline=None)
    @given(serializable_games(), st.data())
    def test_game_faults_get_the_per_entry_message(self, game, data):
        doc = json.loads(serialize_game(game))
        # A short row after a bad entry decides the order: draw it often.
        faults = st.sampled_from([*BAD_ENTRIES, SHORT, SHORT])
        text = plant(data, doc, game_slots(doc), faults, (1, 2))
        mine = read_outcome(parse_game, text)
        assert mine is not None and mine[0] == "GameFormatError"
        assert mine == read_outcome(reference_parse_game, text)

    @settings(max_examples=150, deadline=None)
    @given(profiles(), st.data())
    def test_profile_faults_get_the_per_entry_message(self, profile, data):
        doc = json.loads(serialize_profile(profile))
        # A short row can leave a valid profile, so none is planted here.
        text = plant(data, doc, profile_slots(doc),
                     st.sampled_from(BAD_ENTRIES), (1, 2))
        mine = read_outcome(parse_profile, text)
        assert mine is not None and mine[0] == "GameFormatError"
        assert mine == read_outcome(reference_parse_profile, text)

    @pytest.mark.parametrize("first, message", [
        ("entry", "transitions['a|y'] must be a number"),
        ("short", "transition row 'a|y' must be an array of 2 numbers"),
    ])
    def test_the_first_fault_in_row_order_wins(self, first, message):
        doc = json.loads(serialize_game(tiny_game()))
        rows = list(doc["transitions"].values())   # a|x, a|y, b|x, b|y
        entry, short = (1, 2) if first == "entry" else (2, 1)
        rows[entry][0] = True
        rows[short].pop()
        with pytest.raises(GameFormatError, match=f"^{re.escape(message)}$"):
            parse_game(json.dumps(doc))


class TestStrategies:
    def test_rows_must_be_distributions(self):
        with pytest.raises(ValueError, match="sums to"):
            MarkovStrategy([[0.5, 0.4]])
        with pytest.raises(ValueError, match="negative"):
            MarkovStrategy([[1.5, -0.5]])

    def test_off_sum_message_prints_a_plain_float(self):
        # Under numpy 2 the repr of a numpy scalar reads np.float64(0.9).
        with pytest.raises(ValueError) as excinfo:
            MarkovStrategy([[0.5, 0.4]])
        assert str(excinfo.value) == ("strategy row for state 0 sums to "
                                      "0.9, not 1 within 1e-09")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_named(self, bad):
        # NaN passes both "< 0" and "|sum - 1| > atol", so it needs its own
        # check.
        with pytest.raises(ValueError, match="state 1, action 0"):
            MarkovStrategy([[0.5, 0.5], [bad, bad]])

    def test_arrays_are_frozen(self):
        strategy = MarkovStrategy([[0.5, 0.5]])
        with pytest.raises(ValueError):
            strategy.probabilities[0, 0] = 1.0

    def test_joint_action_order_is_lexicographic(self):
        rng = np.random.default_rng(0)
        game = random_game(rng, num_states=2, action_counts=(2, 3))
        listed = list(game.joint_actions())
        assert listed == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        for rank, joint in enumerate(listed):
            assert game.joint_action_index(joint) == rank
        assert game.joint_action_label(1) == "0,1"
        # numpy integers, as np.argwhere hands them over, map the same way.
        assert game.joint_action_index((np.int64(1), np.int64(2))) == 5
        assert game.joint_action_label(np.int64(5)) == "1,2"


@st.composite
def signed_zero_profiles(draw, num_players):
    """A game of ``num_players`` players with 1-4 actions each and 1-6
    states, and a profile. Transition rows are mixed or one-hot with -0.0
    zeros; rewards come from a few values with both signed zeros, so a sum
    of -0.0 terms shows whether it started from 0.0. Strategy rows are
    mixed, one-hot with -0.0 zeros, or at the row rule's edge."""
    counts = tuple(draw(st.integers(1, 4)) for _ in range(num_players))
    num_states = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    joint = int(np.prod(counts))
    if draw(st.booleans()):
        transitions = rng.dirichlet(np.ones(num_states),
                                    size=(num_states, joint))
    else:
        hot = np.eye(num_states)[rng.integers(num_states,
                                              size=(num_states, joint))]
        transitions = np.where(hot > 0.0, 1.0, -0.0)
    rewards = rng.choice([-0.0, 0.0, 1.0, -2.5, 0.3],
                         size=(num_players, num_states, joint))
    game = MarkovGame(tuple(str(s) for s in range(num_states)),
                      tuple(tuple(str(a) for a in range(c)) for c in counts),
                      transitions, rewards, draw(st.floats(0.05, 0.99)))
    strategies = []
    for count in counts:
        probs = rng.dirichlet(np.ones(count), size=num_states)
        kind = draw(st.sampled_from(["mixed", "one-hot", "edge"]))
        if kind != "mixed":
            own = probs.argmax(axis=1)
            probs = np.where(np.eye(count)[own] > 0.0, 1.0, -0.0)
            if kind == "edge" and count > 1:
                states = np.arange(num_states)
                probs[states, own] = 1.0 + 1e-9
                probs[states, (own + 1) % count] = -1e-9
        strategies.append(MarkovStrategy(probs))
    return game, StrategyProfile(tuple(strategies))


class TestInducedMdp:
    @pytest.mark.parametrize("num_players", [1, 2, 3])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bits_match_the_joint_action_loop(self, num_players, data):
        # The induced model sums one joint action at a time from zero,
        # in lexicographic order; every bit, signed zeros included, is
        # the per-joint-action loop's. Two opponents' edge rows can
        # average to a row the row rule rejects; then both reject it alike.
        game, profile = data.draw(signed_zero_profiles(num_players))
        for player in range(num_players):
            try:
                theirs = reference_induced_mdp(game, profile, player)
            except GameValidationError as error:
                with pytest.raises(GameValidationError) as ours:
                    induced_mdp(game, profile, player)
                assert ours.value.violations == error.violations
                continue
            ours = induced_mdp(game, profile, player)
            assert ours.transitions.tobytes() == theirs.transitions.tobytes()
            assert ours.rewards.tobytes() == theirs.rewards.tobytes()

    def test_single_player_game_is_its_own_mdp(self):
        rng = np.random.default_rng(1)
        game = random_game(rng, num_states=3, action_counts=(3,))
        profile = random_profile(rng, game)
        mdp = induced_mdp(game, profile, 0)
        assert np.array_equal(mdp.transitions, game.transitions)
        assert np.array_equal(mdp.rewards, game.rewards)

    def test_deterministic_opponent_selects_slices(self):
        rng = np.random.default_rng(2)
        game = random_game(rng, num_states=2, action_counts=(2, 2))
        pick = MarkovStrategy([[0.0, 1.0], [0.0, 1.0]])  # player 2 plays b
        profile = StrategyProfile((random_strategy(rng, 2, 2), pick))
        mdp = induced_mdp(game, profile, 0)
        for a1 in range(2):
            j = game.joint_action_index((a1, 1))
            assert np.allclose(mdp.transitions[:, a1, :],
                               game.transitions[:, j, :])
            assert np.allclose(mdp.rewards[0, :, a1], game.rewards[0, :, j])

    def test_two_state_hand_computed_mix(self):
        # One state pair, opponent mixes 0.25/0.75 between the two columns.
        game = MarkovGame(
            states=("s0", "s1"),
            action_sets=(("u",), ("l", "r")),
            transitions=[
                [[1.0, 0.0], [0.0, 1.0]],
                [[0.6, 0.4], [0.2, 0.8]],
            ],
            rewards=[[[1.0, 3.0], [0.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]]],
            discount=0.9,
        )
        opponent = MarkovStrategy([[0.25, 0.75], [0.25, 0.75]])
        profile = StrategyProfile((MarkovStrategy([[1.0], [1.0]]), opponent))
        mdp = induced_mdp(game, profile, 0)
        assert np.allclose(mdp.transitions[0, 0], [0.25, 0.75])
        assert np.allclose(mdp.transitions[1, 0], [0.3, 0.7])
        assert np.allclose(mdp.rewards[0, :, 0], [2.5, 3.0])

    def test_linear_in_opponent_mixture(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            game = random_game(rng)
            own = random_strategy(rng, 3, 2)
            other_a = random_strategy(rng, 3, 2)
            other_b = random_strategy(rng, 3, 2)
            lam = rng.uniform()
            mixed = MarkovStrategy(lam * other_a.probabilities
                                   + (1 - lam) * other_b.probabilities)
            mdp_a = induced_mdp(game, StrategyProfile((own, other_a)), 0)
            mdp_b = induced_mdp(game, StrategyProfile((own, other_b)), 0)
            mdp_mix = induced_mdp(game, StrategyProfile((own, mixed)), 0)
            assert np.allclose(
                mdp_mix.transitions,
                lam * mdp_a.transitions + (1 - lam) * mdp_b.transitions,
                atol=1e-12,
            )
            assert np.allclose(
                mdp_mix.rewards,
                lam * mdp_a.rewards + (1 - lam) * mdp_b.rewards,
                atol=1e-12,
            )

    def test_rows_stay_stochastic(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            game = random_game(rng, num_states=4, action_counts=(2, 3, 2))
            profile = random_profile(rng, game)
            for player in range(3):
                mdp = induced_mdp(game, profile, player)
                sums = mdp.transitions.sum(axis=2)
                assert np.all(np.abs(sums - 1.0) <= 1e-12)
                assert np.all(mdp.transitions >= -1e-15)

    def test_dimension_mismatch_raises(self):
        rng = np.random.default_rng(0)
        game = random_game(rng)
        short = StrategyProfile((random_strategy(rng, 3, 2),))
        with pytest.raises(ValueError, match="strategies"):
            induced_mdp(game, short, 0)
        wrong = StrategyProfile((random_strategy(rng, 3, 3),
                                 random_strategy(rng, 3, 2)))
        with pytest.raises(ValueError, match="shape"):
            induced_mdp(game, wrong, 0)
        good = random_profile(rng, game)
        with pytest.raises(ValueError, match="player"):
            induced_mdp(game, good, 2)
        # A float player once raised IndexError, and True read as a mask.
        for player in (-1, 0.5, True):
            with pytest.raises(ValueError, match=(
                    "^player must be a nonnegative integer, got ")):
                induced_mdp(game, good, player)


def test_effective_metric_defaults_to_index_distance(original_game):
    metric = comparison_metric(original_game, original_game)
    assert np.array_equal(metric, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    carried = tiny_game(metric=[[0.0, 2.0], [2.0, 0.0]])
    assert np.array_equal(comparison_metric(carried, carried),
                          [[0, 2], [2, 0]])


def test_comparison_metric_rejects_two_different_metrics(original_game,
                                                         perturbed_game):
    # Taking the first game's metric would make the W1 delta of this pair
    # 0.10 or 0.15 depending on argument order.
    line = replace(original_game, metric=default_line_metric(3))
    skewed = replace(perturbed_game,
                     metric=[[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
    for pair in ((line, skewed), (skewed, line)):
        with pytest.raises(ValueError, match="different state metrics"):
            comparison_metric(*pair)
    assert np.array_equal(comparison_metric(perturbed_game, skewed),
                          skewed.metric)
    assert np.array_equal(comparison_metric(skewed, perturbed_game),
                          skewed.metric)
    same = replace(perturbed_game, metric=default_line_metric(3))
    assert np.array_equal(comparison_metric(line, same), line.metric)


#: Row kinds for the row-rule property; see ``row_tensors``.
ROW_KINDS = ("dirichlet", "one-hot", "non-finite", "negative",
             "negative, sum off", "sum off")


@st.composite
def row_tensors(draw):
    """An (S, A, S) tensor whose rows test the one row rule.

    Rows are Dirichlet draws or one-hot rows, or rows with a NaN or
    infinite entry, a negative entry of -2e-9, -5e-10 or -1e-11 (balanced
    by another entry when there is one, or also off in its sum), or a sum
    moved by +-2e-9 (rejected) or 5e-10 (accepted).
    """
    size = draw(st.integers(1, 5))
    joint = draw(st.integers(1, 4))
    # Most tensors mix only a few kinds, so that a rare kind (a NaN row
    # hides every other problem from the strategy check) does not swamp
    # the rest.
    allowed = sorted(draw(st.sets(st.sampled_from(ROW_KINDS), min_size=1)))
    kinds = draw(st.lists(st.sampled_from(allowed), min_size=size * joint,
                          max_size=size * joint))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.empty((size * joint, size))
    for row, kind in zip(rows, kinds):
        row[:] = rng.dirichlet(np.ones(size))
        k = rng.integers(size)
        if kind == "one-hot":
            row[:] = np.eye(size)[k]
        elif kind == "non-finite":
            row[k] = rng.choice([np.nan, np.inf, -np.inf])
        elif kind.startswith("negative"):
            entry = rng.choice([-2e-9, -5e-10, -1e-11])
            row[:] = np.eye(size)[k]
            row[(k + 1) % size] = entry
            if kind == "negative" and size > 1:
                row[k] -= entry
            elif size > 1:
                row[k] -= entry - rng.choice([2e-9, -2e-9])
        else:
            row[k] += rng.choice([2e-9, -2e-9, 5e-10])
    return rows.reshape(size, joint, size)


def _outcome(check, *args):
    """The message a check raises, or None when it accepts."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


class TestRowRule:
    """Games, strategies and the metrics decide rows by one rule."""

    @settings(max_examples=300, deadline=None)
    @given(row_tensors())
    def test_same_verdicts_and_messages_as_the_three_old_checks(self, rows):
        size, joint = rows.shape[:2]
        finite = np.isfinite(rows).all(-1, keepdims=True)
        # The one change: an entry in [-STOCHASTIC_ATOL, 0) of a finite row
        # now passes where the game and strategy checks rejected it.
        tolerated = finite & (rows < 0) & (rows >= -STOCHASTIC_ATOL)
        expected = []
        for s, a in np.ndindex(size, joint):
            name = f"(state '{s}', action ({a}))"
            messages = reference_stochastic_violations(
                rows[s:s + 1, a:a + 1], lambda *_: name)
            strict = (rows[s, a] < -STOCHASTIC_ATOL).any()
            if tolerated[s, a].any() and not strict:
                assert messages[0].endswith("has negative entries")
                messages = messages[1:]
            expected.extend(messages)
        assert build_violations(
            MarkovGame, states=tuple(map(str, range(size))),
            action_sets=[tuple(map(str, range(joint)))], transitions=rows,
            rewards=np.zeros((1, size, joint)), discount=0.9) == expected

        expected = _outcome(reference_check_distribution, "rows", rows)
        assert _outcome(_check_distribution, "rows", rows) == expected
        if expected is None:
            assert np.array_equal(_check_distribution("rows", rows),
                                  reference_check_distribution("rows", rows))

        matrix = rows.reshape(-1, size)
        zeroed = np.where(tolerated.reshape(matrix.shape), 0.0, matrix)
        expected = _outcome(reference_strategy_rows, zeroed)
        if expected is not None and "sums to" in expected:
            # A zeroed entry moves its row's sum; the message names the
            # strategy's own sum.
            s = int(expected.split()[4])
            expected = expected.replace(repr(float(zeroed[s].sum())),
                                        repr(float(matrix[s].sum())))
        assert _outcome(MarkovStrategy, matrix) == expected

    def test_opposite_infinities_raise_no_warning(self):
        # Summing inf and -inf warns "invalid value"; the row is reported as
        # non-finite, and nothing more.
        row = [np.inf, -np.inf]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert build_violations(
                tiny_game,
                transitions=[[row, [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]]) == [
                    "transition row (state 'a', action (x)) has non-finite "
                    "entries"]
            with pytest.raises(ValueError, match="non-finite probability"):
                MarkovStrategy([row])

    def test_entries_within_tolerance_pass_and_metrics_clip_them(self):
        for entry in (-5e-10, -1e-11, -STOCHASTIC_ATOL):
            row = [1.0 - entry, entry]
            tiny_game(transitions=[[row, [1.0, 0.0]], [[0.0, 1.0], row]])
            MarkovStrategy([row])
            assert _check_distribution("row", np.array(row))[1] == 0.0
        row = [1.0 + 2e-9, -2e-9]
        assert any("negative" in v for v in build_violations(
            tiny_game,
            transitions=[[row, [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]]))
        with pytest.raises(ValueError, match="negative probability"):
            MarkovStrategy([row])
        with pytest.raises(ValueError, match="not a probability"):
            _check_distribution("row", np.array(row))


def _game_text(**fields) -> str:
    """A two-player game document with some top-level fields replaced."""
    doc = json.loads(serialize_game(random_game(np.random.default_rng(0))))
    doc.update(fields)
    return json.dumps(doc)


@pytest.mark.parametrize("call, error, message", [
    (lambda: parse_game(_game_text(states=["0", 1, "2"])), GameFormatError,
     "field 'states' must be a string array"),
    (lambda: parse_game(_game_text(actions=[["0", "1"], ["0", 1]])),
     GameFormatError, "actions of player 2 must be a string array"),
    (lambda: parse_game(_game_text(actions=[["0", "1"]])), GameFormatError,
     "field 'actions' has 1 entries for 2 players"),
    (lambda: parse_game(_game_text(rewards=[{}])), GameFormatError,
     "field 'rewards' has 1 entries for 2 players"),
    (lambda: parse_game(_game_text(rewards=[[0.0], {}])), GameFormatError,
     "rewards of player 1 must be an object"),
    (lambda: parse_profile('{"players": 3, "strategies": [[[1.0]], [[1.0]]]}'),
     GameFormatError, "field 'players' is 3 but 'strategies' has 2 entries"),
    (lambda: parse_profile('{"strategies": []}'), GameFormatError,
     "field 'strategies' must be non-empty"),
    (lambda: tiny_game().joint_action_index((0, 0)), ValueError,
     "joint action has 2 entries for 1 players"),
    (lambda: tiny_game().joint_action_index((2,)), ValueError,
     "action index 2 out of range [0, 2)"),
    (lambda: bundled_game("two_player_original").joint_action_index((0.5, 0)),
     ValueError, "action index must be a nonnegative integer, got 0.5"),
    (lambda: bundled_game("two_player_original").joint_action_index((1, 1.0)),
     ValueError, "action index must be a nonnegative integer, got 1.0"),
    (lambda: bundled_game("two_player_original").joint_action_index((True, 1)),
     ValueError, "action index must be a nonnegative integer, got True"),
    (lambda: bundled_game("two_player_original").joint_action_label(4),
     ValueError, "joint action rank 4 out of range [0, 4)"),
    (lambda: bundled_game("two_player_original").joint_action_label(99),
     ValueError, "joint action rank 99 out of range [0, 4)"),
    (lambda: bundled_game("two_player_original").joint_action_label(-1),
     ValueError, "joint action rank must be a nonnegative integer, got -1"),
    (lambda: bundled_game("two_player_original").joint_action_label(1.0),
     ValueError, "joint action rank must be a nonnegative integer, got 1.0"),
    (lambda: default_line_metric(0), ValueError,
     "num_states must be a positive integer, got 0"),
    (lambda: default_line_metric(-1), ValueError,
     "num_states must be a positive integer, got -1"),
    (lambda: default_line_metric(2.5), ValueError,
     "num_states must be a positive integer, got 2.5"),
    (lambda: default_line_metric(True), ValueError,
     "num_states must be a positive integer, got True"),
    (lambda: tiny_game(transitions=np.ones((2, 2))), ValueError,
     "transitions shape (2, 2) != expected (2, 2, 2)"),
    (lambda: tiny_game(rewards=np.ones((2, 2))), ValueError,
     "rewards shape (2, 2) != expected (1, 2, 2)"),
    (lambda: tiny_game(metric=np.zeros((3, 3))), ValueError,
     "metric shape (3, 3) != expected (2, 2)"),
    (lambda: MarkovStrategy(np.ones(2)), ValueError,
     "strategy must be 2-D, got shape (2,)"),
    (lambda: ValueFunction(np.ones((2, 2))), ValueError,
     "value function must be 1-D, got shape (2, 2)"),
    (lambda: metric_violations(np.zeros((2, 3))), None,
     "metric is not square: shape (2, 3)"),
    (lambda: parse_profile('{"players": 1.0, "strategies": [[[1.0]]]}'),
     GameFormatError, "field 'players' must be an integer"),
    (lambda: StrategyProfile((np.ones((1, 1)),)), ValueError,
     "strategies[0] must be a MarkovStrategy, got ndarray"),
    (lambda: StrategyProfile([MarkovStrategy([[1.0]]), None]), ValueError,
     "strategies[1] must be a MarkovStrategy, got NoneType"),
    (lambda: evaluate_policy(tiny_game(), np.full((2, 2), 0.5)), ValueError,
     "strategies[0] must be a MarkovStrategy, got ndarray"),
    (lambda: evaluate_policy(tiny_game(), None), ValueError,
     "strategies[0] must be a MarkovStrategy, got NoneType"),
    (lambda: bellman_policy(tiny_game(), [[0.5, 0.5]] * 2, np.zeros(2)),
     ValueError, "strategies[0] must be a MarkovStrategy, got list"),
    (lambda: tiny_game(states="ab"), ValueError,
     "states must be an ordered collection, got str 'ab'"),
    (lambda: MarkovGame({"a"}, (("x",),), [[[1.0]]], [[[0.0]]], 0.9),
     ValueError, "states must be an ordered collection, got set {'a'}"),
    (lambda: tiny_game(action_sets="xy"), ValueError,
     "action_sets must be an ordered collection, got str 'xy'"),
    (lambda: tiny_game(action_sets=("xy",)), ValueError,
     "actions of player 1 must be an ordered collection, got str 'xy'"),
    (lambda: tiny_game(action_sets=(frozenset({"x"}),),
                       transitions=[[[0.5, 0.5]], [[0.0, 1.0]]],
                       rewards=[[[1.0], [3.0]]]),
     ValueError, "actions of player 1 must be an ordered collection, got "
     "frozenset frozenset({'x'})"),
    (lambda: tiny_game(discount="0.9"), ValueError,
     "discount must be a number, got '0.9'"),
    (lambda: tiny_game(discount=b"0.9"), ValueError,
     "discount must be a number, got b'0.9'"),
], ids=["states", "actions-of-player", "actions-count", "rewards-count",
        "rewards-of-player", "profile-players", "profile-empty",
        "joint-action-count", "joint-action-range", "joint-action-float",
        "joint-action-float-integral", "joint-action-bool",
        "joint-rank-at-count", "joint-rank-beyond", "joint-rank-negative",
        "joint-rank-float", "line-metric-zero", "line-metric-negative",
        "line-metric-float", "line-metric-bool", "transitions-shape",
        "rewards-shape", "metric-shape", "strategy-ndim", "values-ndim",
        "metric-square", "profile-players-float", "profile-array-entry",
        "profile-none-entry", "evaluate-array-strategy",
        "evaluate-none-strategy", "bellman-list-strategy", "states-str",
        "states-set", "action-sets-str", "action-set-str",
        "action-set-frozenset", "discount-str", "discount-bytes"])
def test_each_shape_and_type_fault_is_named(call, error, message):
    # The reader's type and count checks, the constructors' shape checks,
    # the joint-action maps' and default_line_metric's integer checks and
    # metric_violations' shape rule, each with its whole message; a None
    # error means the check returns its messages rather than raising.
    if error is None:
        assert call() == [message]
        return
    with pytest.raises(error) as excinfo:
        call()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


def test_names_and_discount_are_taken_as_given():
    # Ordered collections of any kind keep their order, and a numpy scalar
    # discount is a number.
    game = tiny_game(states=np.array(["b", "a"]),
                     action_sets=[(name for name in ("y", "x"))],
                     discount=np.float32(0.5))
    assert game.states == ("b", "a")
    assert game.action_sets == (("y", "x"),)
    assert game.discount == 0.5
