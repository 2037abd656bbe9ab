"""Environment semantics, PPO math, and the search baselines."""
import hashlib

import numpy as np
import pytest

from passforge import passes
from passforge.agent import (
    ACTIONS, Evaluator, N_ACTIONS, PassEnv, PpoConfig, STOP_ACTION,
    gae_advantages, infer, init_actor_critic, policy_probs, ppo_loss_grad,
    reward, rollout_episode, search_genetic, search_greedy, search_random,
    train,
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
#: ``corpus_gen(6, 0)``.  The triples were taken before searches reused
#: shared prefixes, and the counts are the passes each search ran when each
#: was charged per pass of every sequence it evaluated; a search may save
#: work, never change what it finds.
PINNED_SEARCH = {
    "random": "5ac0d9ca9744a1f4a52e52d274cd332f4075595f9076460f85d6f33423c1bd08",
    "greedy": "a69b6da32a84ab8ab7a93f12c26027c327e0bf3c6fa7d055d5f66961d4aec0aa",
    "genetic": "0a6b721b92d7e0df46ec1ad0aea551388e7dc7ea56292e5053c851df1429b39d",
}
SEARCHES = {
    "random": lambda m: search_random(m, budget_sequences=8, seed=0),
    "greedy": search_greedy,
    "genetic": lambda m: search_genetic(m, population=6, generations=3,
                                        seed=0),
}


def _searched(searches: dict, corpus) -> dict:
    """method -> [(SearchResult, apply_pass calls it made, its evaluator)]
    over ``corpus``, counting calls through both ``apply_pass`` bindings:
    ``Evaluator.step`` calls the one ``agent.env`` imports, and
    ``apply_sequence`` the one ``passes`` defines."""
    calls = [0]
    evaluators = []

    def counted(apply_pass):
        def call(*args, **kwargs):
            calls[0] += 1
            return apply_pass(*args, **kwargs)
        return call

    def recorded(*args, **kwargs):
        evaluators.append(Evaluator(*args, **kwargs))
        return evaluators[-1]

    designs = [parse_module(text) for _name, text in corpus]
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for owner in (passes, env_module):
            mp.setattr(owner, "apply_pass", counted(owner.apply_pass))
        mp.setattr(baselines, "Evaluator", recorded)
        for method, search in searches.items():
            out[method] = []
            for m in designs:
                calls[0] = 0
                evaluators.clear()
                r = search(m)
                (ev,) = evaluators
                out[method].append((r, calls[0], ev))
    return out


@pytest.fixture(scope="module")
def corpus_searches():
    return _searched(SEARCHES, corpus_gen(6, 0))


@pytest.mark.parametrize("method", SEARCHES)
def test_search_results_are_pinned(corpus_searches, method):
    h = hashlib.sha256()
    for r, _calls, _ev in corpus_searches[method]:
        h.update(repr(([p.value for p in r.sequence], r.cycles,
                       r.baseline_cycles, r.evaluations)).encode())
    assert h.hexdigest() == PINNED_SEARCH[method]


@pytest.mark.parametrize("method", SEARCHES)
def test_search_evaluations_are_the_passes_run(corpus_searches, method):
    # A search is charged one evaluation per pass it ran, an entry of its
    # evaluator's table.  Greedy steps from the module it holds, so each of
    # its ``apply_pass`` calls runs a pass; random and genetic replay the
    # prefixes their sequences share through the table.
    for r, calls, ev in corpus_searches[method]:
        assert 0 < r.evaluations == len(ev.table)
        assert calls == r.evaluations if method == "greedy" else \
            calls >= r.evaluations


#: sha256 of (sequence, cycles, baseline_cycles, evaluations) per design of
#: ``corpus_gen(12, 0)``, the benchmark's corpus, with each method's
#: defaults.  The triples were taken when greedy replayed each candidate's
#: prefix from the base and every search kept a per-sequence memo; the
#: counts are the passes each search ran then.
PINNED_DEFAULT_SEARCH = {
    "random": "17421384a0352a5e90f62c9a86878604b5e21ced0f977f9dd63af3b3c19e820b",
    "greedy": "fc2809e68a6bbc884da649f0825fe967c9461e52beef6df4959c2539d3d3401a",
    "genetic": "a403391cdce5d8ef387b7b9455374c3544d3797d34830d104ebe8c12e4f09c29",
}
DEFAULT_SEARCHES = {
    "random": lambda m: search_random(m, budget_sequences=64, seed=0),
    "greedy": search_greedy,
    "genetic": lambda m: search_genetic(m, seed=0),
}


def test_default_searches_are_pinned_on_the_benchmark_corpus():
    searched = _searched(DEFAULT_SEARCHES, corpus_gen(12, 0))
    ran = {}
    for method, runs in searched.items():
        h = hashlib.sha256()
        for r, calls, ev in runs:
            h.update(repr(([p.value for p in r.sequence], r.cycles,
                           r.baseline_cycles, r.evaluations)).encode())
            assert r.evaluations == len(ev.table)
            if method == "greedy":
                assert calls == r.evaluations
        assert h.hexdigest() == PINNED_DEFAULT_SEARCH[method], method
        ran[method] = sum(r.evaluations for r, _calls, _ev in runs)
    assert ran == {"random": 2427, "greedy": 1292, "genetic": 2225}


def test_search_table_holds_one_entry_per_pass_run(monkeypatch,
                                                   small_corpus):
    # Each search call runs every sequence against a transition table of its
    # own, which starts empty and ends with one entry per pass body run.
    runs = [0]

    def counted(impl):
        def run(module):
            runs[0] += 1
            impl(module)
        return run

    for p in ACTIONS:
        monkeypatch.setitem(passes._IMPLS, p, counted(passes._IMPLS[p]))
    evaluators = []

    def recorded(*args, **kwargs):
        evaluators.append(Evaluator(*args, **kwargs))
        assert len(evaluators[-1].table) == 0
        return evaluators[-1]

    monkeypatch.setattr(baselines, "Evaluator", recorded)
    for _ in range(2):
        runs[0] = 0
        r = search_random(small_corpus[0][1], budget_sequences=30, seed=0,
                          max_len=4)
        assert len(evaluators[-1].table) == runs[0] == r.evaluations > 0
    assert evaluators[0].table is not evaluators[1].table


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
    ran = sum(search_greedy(m).evaluations for m in designs)
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
    ran = sum(search_greedy(parse_module(text)).evaluations
              for _name, text in corpus_gen(12, 0))
    assert ran == 1292
    assert calls == {"clone": 451, "refresh": 371}


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
