import json

import numpy as np
import pytest

from hzreach import ClosedLoopRnn, RnnLayer, load_model, save_model, simulate, step
from hzreach.model import model_from_dict, model_to_dict

from conftest import random_system


def test_zero_weights_output_bias(half):
    m = ClosedLoopRnn((RnnLayer(np.zeros((3, 3)), np.zeros((3, 2)), np.zeros(3)),),
                      Wy=np.zeros((2, 3)), vy=[1.0, 2.0])
    for x in ([0.0, 0.0], [5.0, -3.0]):
        nxt, _ = step(m, x, m.zero_hidden())
        assert np.array_equal(nxt, [1.0, 2.0])


def test_identity_on_nonnegatives():
    m = ClosedLoopRnn((RnnLayer(np.zeros((2, 2)), np.eye(2), np.zeros(2)),),
                      Wy=np.eye(2), vy=np.zeros(2))
    nxt, hidden = step(m, [0.3, 0.7], m.zero_hidden())
    assert np.array_equal(nxt, [0.3, 0.7])
    assert np.array_equal(hidden[0], [0.3, 0.7])


def test_half_system_step(half):
    nxt, _ = step(half, [0.8], half.zero_hidden())
    assert nxt[0] == pytest.approx(0.4, abs=0)


def test_simulate_half_system(half):
    traj = simulate(half, [0.8], 3)
    assert np.allclose(traj.states.ravel(), [0.8, 0.4, 0.2])


def test_simulate_horizon_one():
    m, _ = random_system(np.random.default_rng(0))
    x1 = np.full(m.state_dim, 0.25)
    traj = simulate(m, x1, 1)
    assert traj.states.shape == (1, m.state_dim)
    assert np.array_equal(traj.states[0], x1)


def test_simulate_matches_stepwise_replay():
    rng = np.random.default_rng(1)
    m, _ = random_system(rng, n=2, L=2)
    x1 = rng.uniform(0, 1, size=2)
    traj = simulate(m, x1, 6)
    x, hidden = x1, m.zero_hidden()
    for t in range(1, 6):
        x, hidden = step(m, x, hidden)
        assert np.array_equal(traj.states[t], x)
        for layer in range(1, m.num_layers + 1):
            assert np.array_equal(traj.hidden_at(t, layer), hidden[layer - 1])


def test_first_step_ignores_recurrent_weights():
    rng = np.random.default_rng(2)
    Wh = rng.normal(size=(3, 3))
    m = ClosedLoopRnn((RnnLayer(Wh, np.eye(3)[:, :2] + 0.0, [0.1, -0.2, 0.3]),),
                      Wy=rng.normal(size=(2, 3)), vy=np.zeros(2))
    x = np.array([0.5, 0.25])
    expected = np.maximum(m.layers[0].Wx @ x + m.layers[0].vh, 0.0)
    traj = simulate(m, x, 2)
    assert np.array_equal(traj.hidden_at(1, 1), expected)


def test_hidden_at_layer_zero_returns_state():
    m, _ = random_system(np.random.default_rng(3), n=2)
    traj = simulate(m, [0.1, 0.2], 4)
    assert np.array_equal(traj.hidden_at(1, 0), [0.1, 0.2])
    assert np.array_equal(traj.hidden_at(4, 0), traj.states[3])


def test_hidden_at_zero_weight_net():
    vh = np.array([0.5, -0.5])
    m = ClosedLoopRnn((RnnLayer(np.zeros((2, 2)), np.zeros((2, 2)), vh),),
                      Wy=np.zeros((2, 2)), vy=np.zeros(2))
    traj = simulate(m, [1.0, 1.0], 4)
    for t in range(1, 4):
        assert np.array_equal(traj.hidden_at(t, 1), np.maximum(vh, 0.0))


def test_hidden_at_out_of_range():
    m, _ = random_system(np.random.default_rng(4), n=1, L=1)
    traj = simulate(m, [0.5], 3)
    with pytest.raises(IndexError):
        traj.hidden_at(3, 1)
    with pytest.raises(IndexError):
        traj.hidden_at(1, 5)
    with pytest.raises(IndexError):
        traj.hidden_at(0, 0)


def test_trajectories_bitwise_deterministic():
    rng = np.random.default_rng(5)
    m, _ = random_system(rng, n=2, L=2)
    a = simulate(m, [0.3, 0.6], 8)
    b = simulate(m, [0.3, 0.6], 8)
    assert np.array_equal(a.states, b.states)


def test_model_json_round_trip(tmp_path, half):
    path = tmp_path / "half.json"
    save_model(half, path)
    back = load_model(path)
    assert np.array_equal(back.Wy, half.Wy)
    assert np.array_equal(back.layers[0].Wx, half.layers[0].Wx)
    traj = simulate(back, [0.8], 3)
    assert np.allclose(traj.states.ravel(), [0.8, 0.4, 0.2])


def test_model_json_round_trip_random_bitwise(tmp_path):
    m, _ = random_system(np.random.default_rng(6), n=2, L=2)
    path = tmp_path / "m.json"
    save_model(m, path)
    back = load_model(path)
    for la, lb in zip(m.layers, back.layers):
        assert np.array_equal(la.Wh, lb.Wh)
        assert np.array_equal(la.Wx, lb.Wx)
        assert np.array_equal(la.vh, lb.vh)
    assert np.array_equal(m.Wy, back.Wy) and np.array_equal(m.vy, back.vy)


def test_missing_field_names_offender(half):
    d = model_to_dict(half)
    del d["Wy"]
    with pytest.raises(ValueError, match="Wy"):
        model_from_dict(d)
    d = model_to_dict(half)
    del d["layers"][0]["vh"]
    with pytest.raises(ValueError, match="vh"):
        model_from_dict(d)


def test_dimension_inconsistency_rejected(half):
    d = model_to_dict(half)
    d["Wy"] = [[0.5, 0.5]]
    with pytest.raises(ValueError):
        model_from_dict(d)
    d = model_to_dict(half)
    d["state_dim"] = 3
    with pytest.raises(ValueError, match="state_dim"):
        model_from_dict(d)


@pytest.mark.parametrize("state_dim", [2.9, "2", True])
def test_state_dim_must_be_a_json_integer(tmp_path, capsys, state_dim):
    # int() took each of these: 2.9 and "2" loaded the 2-D demo model, and
    # true (== 1) the 1-D half system
    from hzreach.cli import main
    from hzreach.systems import demo_system, half_system
    m = half_system() if state_dim is True else demo_system(0)
    d = dict(model_to_dict(m), state_dim=state_dim)
    with pytest.raises(ValueError, match="state_dim"):
        model_from_dict(d)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(d))
    box = tmp_path / "box.json"
    box.write_text(json.dumps({"c": [0.5] * m.state_dim, "Gc": np.eye(m.state_dim).tolist()}))
    assert main(["forward", "--model", str(path), "--domain", str(box), "--initial", str(box),
                 "-T", "2", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("hzreach: error: model JSON field 'state_dim'")


def test_non_finite_weights_rejected(tmp_path, half):
    d = model_to_dict(half)
    d["vy"] = [float("nan")]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError):
        load_model(path)
