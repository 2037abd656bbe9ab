"""Environment semantics, PPO math, and the search baselines."""
import hashlib

import numpy as np
import pytest

from passforge import passes
from passforge.agent import (
    ACTIONS, Evaluator, N_ACTIONS, PassEnv, PpoConfig, STOP_ACTION,
    gae_advantages, infer, init_actor_critic, policy_probs, ppo_loss_grad,
    reward, rollout_episode, search_baseline, search_genetic, search_greedy,
    search_random, train,
)
from passforge.agent import baselines, env as env_module
from passforge.corpus import corpus_gen
from passforge.dataset import dataset_gen
from passforge.embedder import featurize_baseline
from passforge.ir import IrModule, parse_module, print_module
from passforge.passes import PassError, PassId, apply_pass
from passforge.qor import EstimateError


def test_reward_formula_instances():
    assert reward(100, 80, 100) == pytest.approx(0.2)
    assert reward(100, 100, 100) == 0.0
    assert reward(80, 100, 80) == pytest.approx(-0.25)


def test_reward_telescopes_with_frozen_best():
    # With the denominator frozen at L0, the episode return telescopes.
    trace = [100.0, 90.0, 95.0, 60.0]
    l0 = trace[0]
    total = sum((trace[t] - trace[t + 1]) / l0 for t in range(len(trace) - 1))
    assert total == pytest.approx((trace[0] - trace[-1]) / l0)
    # With the running best, each all-improving step divides by a smaller or
    # equal denominator, so the return only grows.
    improving = [100.0, 90.0, 70.0, 50.0]
    best = improving[0]
    running = 0.0
    for t in range(len(improving) - 1):
        running += reward(improving[t], improving[t + 1], best)
        best = min(best, improving[t + 1])
    assert running >= (improving[0] - improving[-1]) / improving[0] - 1e-12


def _obs_fn(dim=16):
    return lambda g: featurize_baseline(g, "opcode_histogram", dim)


@pytest.fixture
def adce_env():
    m = parse_module("""
top func @f(%a: i32, %b: i32) -> i32 {
block entry:
  %d1 = mul i32 %a, %b
  %d2 = mul i32 %d1, %b
  %d3 = mul i32 %d2, %a
  %live = add i32 %a, %b
  ret i32 %live
}
""")
    return PassEnv("adce_fixture", m, _obs_fn(), max_steps=4)


def test_stop_at_t0_gives_empty_episode(adce_env):
    state = adce_env.reset()
    new_state, r, done = adce_env.step(state, STOP_ACTION)
    assert done and r == 0.0 and new_state.t == 0


def test_adce_step_gives_nonnegative_reward(adce_env):
    state = adce_env.reset()
    action = ACTIONS.index(PassId.ADCE)
    new_state, r, done = adce_env.step(state, action)
    assert r >= 0.0
    assert new_state.cycles_history[-1] <= state.cycles_history[-1]
    assert r == pytest.approx(
        (state.cycles_history[-1] - new_state.cycles_history[-1])
        / state.best_cycles)


def test_observation_recomputed_each_step(adce_env):
    state = adce_env.reset()
    new_state, _r, _done = adce_env.step(state, ACTIONS.index(PassId.ADCE))
    assert not np.array_equal(state.obs, new_state.obs)


def test_best_cycles_non_increasing(adce_env, rng):
    state = adce_env.reset()
    best = state.best_cycles
    for _ in range(4):
        a = int(rng.integers(0, N_ACTIONS))
        state, _r, done = adce_env.step(state, a)
        assert state.best_cycles <= best
        best = state.best_cycles
        if done:
            break


def test_policy_outputs_distribution():
    params = init_actor_critic(8, N_ACTIONS, (16, 16), seed=0)
    obs = np.random.default_rng(1).normal(size=8)
    p = policy_probs(params, obs)
    assert abs(p.sum() - 1.0) < 1e-9
    assert (p >= 0).all()
    entropy = -(p * np.log(p)).sum()
    assert entropy >= 0.0


def test_gae_lambda_one_closed_form():
    rewards = [1.0, 0.5, 2.0]
    values = [0.3, 0.2, 0.1]
    gamma = 0.9
    adv, rets = gae_advantages(rewards, values, gamma, lam=1.0)
    discounted = []
    acc = 0.0
    for r in reversed(rewards):
        acc = r + gamma * acc
        discounted.append(acc)
    discounted.reverse()
    for t in range(3):
        assert adv[t] == pytest.approx(discounted[t] - values[t])
        assert rets[t] == pytest.approx(adv[t] + values[t])


def test_ppo_clip_arithmetic():
    # ratio 1.5 with positive advantage and eps 0.2 uses the clipped 1.2
    adv = 2.0
    assert min(1.5 * adv, np.clip(1.5, 0.8, 1.2) * adv) == pytest.approx(2.4)


def test_ppo_gradient_unclipped_matches_policy_gradient():
    cfg = PpoConfig(hidden=(6, 5), entropy_coef=0.0, value_coef=0.0)
    params = init_actor_critic(4, 3, cfg.hidden, seed=2)
    rng = np.random.default_rng(3)
    obs = rng.normal(size=(6, 4))
    actions = rng.integers(0, 3, size=6)
    # old_logp equal to current logp makes every ratio exactly 1 (unclipped).
    from passforge.agent.nets import _mlp_forward
    logits, _ = _mlp_forward(params, "actor", obs)
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    old_logp = logp[np.arange(6), actions]
    adv = rng.normal(size=6)
    batch = {"obs": obs, "actions": actions, "old_logp": old_logp,
             "advantages": adv, "returns": np.zeros(6)}
    loss, grads = ppo_loss_grad(params, batch, cfg)
    # at ratio exactly 1 the surrogate is -mean(adv * ratio); the analytic
    # policy gradient is -mean(adv * dlogp)
    h = 1e-6
    key = "actor/w3"
    flat = params[key].reshape(-1)
    gflat = grads[key].reshape(-1)
    idx = 5
    old = flat[idx]
    flat[idx] = old + h
    lp, _ = ppo_loss_grad(params, batch, cfg)
    flat[idx] = old - h
    lm, _ = ppo_loss_grad(params, batch, cfg)
    flat[idx] = old
    assert abs(gflat[idx] - (lp - lm) / (2 * h)) < 1e-6


def test_noop_steps_on_trivial_function_run_to_step_limit():
    # Passes with nothing to change on a one-block function still step the
    # environment, each with a zero reward, until the step limit ends the
    # episode.  A failing pass would raise instead: a PassError propagates
    # (test_pass_error_propagates_estimate_error_recovers).
    m = parse_module("""
top func @f(%a: i32) -> i32 {
block entry:
  ret i32 %a
}
""")
    env = PassEnv("tiny", m, _obs_fn(), max_steps=3)
    state = env.reset()
    for a in range(3):
        state, r, done = env.step(state, a)
        assert r == 0.0 and done == (a == 2)
    assert state.t == 3 and state.cycles_history == [state.best_cycles] * 4


def test_env_expands_pragmas_once_over_many_resets(monkeypatch, dot_module):
    calls = [0]
    expand = env_module.apply_pragma_passes

    def counted(module):
        calls[0] += 1
        return expand(module)

    monkeypatch.setattr(env_module, "apply_pragma_passes", counted)
    env = PassEnv("dot", dot_module, _obs_fn(), max_steps=2)
    for _ in range(4):
        state, done = env.reset(), False
        while not done:
            state, _r, done = env.step(state, 0)
    assert calls[0] == 1


def test_env_step_on_a_seen_transition_runs_no_pass(monkeypatch, dot_module):
    env = PassEnv("dot", dot_module, _obs_fn())
    action = ACTIONS.index(PassId.LOOP_UNROLL_PARTIAL)
    first, r1, _done = env.step(env.reset(), action)

    def broken(_module):
        raise AssertionError("a seen transition ran a pass")

    for p in ACTIONS:
        monkeypatch.setitem(passes._IMPLS, p, broken)
    again, r2, _done = env.step(env.reset(), action)
    assert again.module is first.module and again.digest == first.digest
    assert r2 == r1


def test_evaluator_raises_a_memoized_estimate_error_every_time(monkeypatch,
                                                               case2):
    # simplifycfg's result on ``case2`` cannot be estimated (UnknownTrip).
    calls = [0]
    price = env_module.estimate

    def counted(*args):
        calls[0] += 1
        return price(*args)

    ev = Evaluator(case2)
    monkeypatch.setattr(env_module, "estimate", counted)
    result = apply_pass(ev.base, PassId.SIMPLIFYCFG)
    for _ in range(3):
        with pytest.raises(EstimateError, match="UnknownTrip"):
            ev.cycles(result)
    assert calls[0] == 1


#: sha256 of ``train``'s parameters and curve on three small designs and
#: ``case2``, whose episodes hit estimate errors; taken before ``PassEnv``
#: priced through the shared ``Evaluator``.
PINNED_TRAIN = \
    "ed93bd284620832c1a73f71c7ae3355f72bacaaed860a5a7d2508c6318afd5ab"


def test_train_is_pinned(small_corpus, case2):
    cfg = PpoConfig(iterations=4, episodes_per_iteration=8,
                    max_episode_len=6, minibatch_size=16, seed=0)
    params, curve = train(small_corpus[:3] + [("case2", case2)], _obs_fn(),
                          cfg, seed=0, obs_dim=16)
    h = hashlib.sha256()
    for k in sorted(params):
        h.update(k.encode())
        h.update(np.ascontiguousarray(params[k]).tobytes())
    h.update(repr([(p.iteration, p.mean_return, p.mean_cycles_ratio)
                   for p in curve]).encode())
    assert h.hexdigest() == PINNED_TRAIN


def test_rollout_and_train_deterministic(small_corpus):
    designs = small_corpus[:3]
    cfg = PpoConfig(iterations=3, episodes_per_iteration=3,
                    max_episode_len=4, minibatch_size=16, seed=0)
    p1, c1 = train(designs, _obs_fn(), cfg, seed=0, obs_dim=16)
    p2, c2 = train(designs, _obs_fn(), cfg, seed=0, obs_dim=16)
    for k in p1:
        assert np.array_equal(p1[k], p2[k])
    assert [(p.mean_return, p.mean_cycles_ratio) for p in c1] == \
        [(p.mean_return, p.mean_cycles_ratio) for p in c2]


def test_greedy_on_single_profitable_pass():
    # A dead load sits on the critical path: store-free, so dse and mem2reg
    # cannot touch it, and the pure-cleanup sweeps in other passes skip
    # loads; only adce removes it.
    m = parse_module("""
top func @f(%a: i32[8], %i: i32) -> i32 {
block entry:
  %p = getelementptr %a, 0
  %dead = load i32 %p
  %live = add i32 %i, 1
  ret i32 %live
}
""")
    result = search_greedy(m, max_len=4)
    assert result.sequence == [PassId.ADCE]
    assert result.cycles <= result.baseline_cycles


def test_greedy_never_regresses(small_corpus):
    for _name, m in small_corpus[:5]:
        r = search_greedy(m, max_len=5)
        assert r.cycles <= r.baseline_cycles


def test_random_reproducible(small_corpus):
    _name, m = small_corpus[0]
    a = search_random(m, budget_sequences=5, seed=42)
    b = search_random(m, budget_sequences=5, seed=42)
    assert [p.value for p in a.sequence] == [p.value for p in b.sequence]
    assert a.cycles == b.cycles


def test_genetic_elitism_monotone(small_corpus):
    _name, m = small_corpus[1]
    r = search_genetic(m, population=6, generations=4, seed=7, genome_len=5)
    assert r.cycles <= r.baseline_cycles


#: sha256 of (sequence, cycles, baseline_cycles, evaluations) per design of
#: ``corpus_gen(6, 0)``, taken before searches reused shared prefixes; a
#: search may save work, never change what it finds or what it charges.
PINNED_SEARCH = {
    "random": "408678aeb09f5270428dae021573f61602f7df91e2e6965c33c51b3acb922f25",
    "greedy": "a1880faae7722c1f763dd55d73b36d9e80f466d8ea59fe999db4a09645759790",
    "genetic": "3b195adcab7df28110747c450ba1449979e83d0e6b9b1d28c9db993b57ebafaf",
}
SEARCHES = {
    "random": lambda m: search_random(m, budget_sequences=8, seed=0),
    "greedy": search_greedy,
    "genetic": lambda m: search_genetic(m, population=6, generations=3,
                                        seed=0),
}


@pytest.fixture(scope="module")
def corpus_searches():
    """method -> [(SearchResult, apply_pass calls it made)] over
    ``corpus_gen(6, 0)``."""
    calls = [0]
    apply_pass = passes.apply_pass

    def counted(*args, **kwargs):
        calls[0] += 1
        return apply_pass(*args, **kwargs)

    designs = [parse_module(text) for _name, text in corpus_gen(6, 0)]
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(passes, "apply_pass", counted)
        for method, search in SEARCHES.items():
            out[method] = []
            for m in designs:
                calls[0] = 0
                out[method].append((search(m), calls[0]))
    return out


@pytest.mark.parametrize("method", SEARCHES)
def test_search_results_are_pinned(corpus_searches, method):
    h = hashlib.sha256()
    for r, _calls in corpus_searches[method]:
        h.update(repr(([p.value for p in r.sequence], r.cycles,
                       r.baseline_cycles, r.evaluations)).encode())
    assert h.hexdigest() == PINNED_SEARCH[method]


@pytest.mark.parametrize("method", SEARCHES)
def test_search_budget_counts_every_pass_application(corpus_searches, method):
    # One ``apply_pass`` call per pass of each sequence evaluated, memo hits
    # included, is what the budget charges; the passes really run are fewer.
    for r, calls in corpus_searches[method]:
        assert calls == r.evaluations
        assert 0 < r.passes_run <= r.evaluations
    if method == "greedy":
        assert sum(r.passes_run for r, _ in corpus_searches[method]) < \
            sum(r.evaluations for r, _ in corpus_searches[method]) / 2


def test_search_table_holds_one_entry_per_pass_run(monkeypatch,
                                                   small_corpus):
    # Each search call runs every sequence against one transition table that
    # starts empty and ends with one entry per pass run, fewer than charged.
    calls = []
    run = baselines.apply_sequence

    def recorded(module, seq, memo, digest):
        calls.append((memo, len(memo)))
        return run(module, seq, memo, digest)

    monkeypatch.setattr(baselines, "apply_sequence", recorded)
    tables = []
    for _ in range(2):
        calls.clear()
        r = search_random(small_corpus[0][1], budget_sequences=30, seed=0,
                          max_len=4)
        table = calls[0][0]
        assert calls[0][1] == 0
        assert all(memo is table for memo, _size in calls)
        assert len(table) == r.passes_run < r.evaluations
        tables.append(table)
    assert tables[0] is not tables[1]


def test_search_prints_each_executed_pass_once(monkeypatch):
    # Each executed pass prints its output only; a design's pragma-expanded
    # base may print once more.
    prints = [0]
    print_module = passes.print_module

    def counted(m):
        prints[0] += 1
        return print_module(m)

    monkeypatch.setattr(passes, "print_module", counted)
    designs = [parse_module(text) for _name, text in corpus_gen(6, 0)]
    ran = sum(search_greedy(m).passes_run for m in designs)
    assert prints[0] <= ran + len(designs)


def test_search_copies_and_refreshes_only_for_passes_that_write(monkeypatch):
    # Counted with this driver on ``corpus_gen(12, 0)``: greedy runs 1,292
    # passes, plus two pragma passes per design, and 371 of those outputs
    # differ from their input.  Only those refresh their loops; a pass that
    # leaves its copy equal to its input hands it to the next pass on that
    # input, so 451 copies serve 1,316 passes.  A driver that cloned and
    # refreshed for every pass counted 1,316 of each.
    calls = {"clone": 0, "refresh": 0}
    clone, refresh = IrModule.clone, passes.refresh_loop_annotations

    def counted_clone(m):
        calls["clone"] += 1
        return clone(m)

    def counted_refresh(fn):
        calls["refresh"] += 1
        return refresh(fn)

    monkeypatch.setattr(IrModule, "clone", counted_clone)
    monkeypatch.setattr(passes, "refresh_loop_annotations", counted_refresh)
    ran = sum(search_greedy(parse_module(text)).passes_run
              for _name, text in corpus_gen(12, 0))
    assert ran == 1292
    assert calls == {"clone": 451, "refresh": 371}


def test_search_baseline_dispatch(small_corpus):
    _name, m = small_corpus[2]
    for method in ("random", "greedy", "genetic"):
        r = search_baseline(m, method, seed=1, budget=4)
        assert r.method == method
        assert r.cycles <= r.baseline_cycles


def _scripted(script):
    """Identity actor over one-hot observations, so the greedy action is the
    observed index; each new module observed shows the next scripted action,
    then Stop.  Returns (params, obs_fn)."""
    params = init_actor_critic(N_ACTIONS, N_ACTIONS, (N_ACTIONS, N_ACTIONS), 0)
    params.update({f"actor/w{i}": 4.0 * np.eye(N_ACTIONS) for i in (1, 2, 3)})
    actions = iter([ACTIONS.index(p) for p in script] + [STOP_ACTION])
    return params, lambda _graph: np.eye(N_ACTIONS)[next(actions)]


def test_infer_returns_best_prefix_and_trace(dot_module, case2):
    lup, cfg = PassId.LOOP_UNROLL_PARTIAL, PassId.SIMPLIFYCFG
    # The last pass regresses (34 -> 36), so the best prefix drops it.
    out = infer(dot_module, *_scripted([lup, cfg, lup, PassId.REASSOCIATE]))
    assert out == ([lup, cfg, lup], [72.0, 60.0, 40.0, 34.0, 36.0], 3)
    # simplifycfg loses the pipelined loop's static trip count: the episode
    # ends in an incident and the trace stops at the last priced module.
    out = infer(case2, *_scripted([lup, PassId.INSTCOMBINE, cfg]))
    assert out == ([lup, PassId.INSTCOMBINE], [11608.0, 9208.0, 9207.0], 2)


def test_pass_error_propagates_estimate_error_recovers(monkeypatch, case2,
                                                       dot_module):
    # simplifycfg's result on ``case2`` cannot be estimated (UnknownTrip):
    # search prices it inf, the environment records an incident.
    greedy = search_greedy(case2, max_len=1)
    assert greedy.sequence == [PassId.LOOP_UNROLL_PARTIAL]
    env = PassEnv("case2", case2, _obs_fn())
    state = env.reset()
    assert env.step(state, ACTIONS.index(PassId.SIMPLIFYCFG)) == \
        (state, 0.0, True)
    assert len(env.incidents) == 1 and "UnknownTrip" in env.incidents[0]

    def broken(_module):
        raise PassError(PassId.ADCE, ["injected"])

    for p in ACTIONS:
        monkeypatch.setitem(passes._IMPLS, p, broken)
    env = PassEnv("dot", dot_module, _obs_fn())
    with pytest.raises(PassError):
        env.step(env.reset(), 0)
    with pytest.raises(PassError):
        search_greedy(dot_module, max_len=1)
    with pytest.raises(PassError):
        dataset_gen([("dot", print_module(dot_module))], 2, 2, seed=0)
