"""Tests for the batched query pipeline (BatchQuerySession / connected_many).

The randomized cross-check asserts that the batched path agrees pairwise with
both single-query engines and with BFS ground truth across graph families and
fault budgets — the batched session must be a pure refactoring of the query
semantics, never a change to them.
"""

import random

import pytest

from repro.core import (BatchQuerySession, FTCConfig, FTCLabeling,
                        FTConnectivityOracle, SchemeVariant, canonical_fault_key)
from repro.workloads import FaultModel, GraphFamily, make_graph
from repro.workloads.faults import sample_fault_sets


def _shared_fault_queries(graph, fault_count, num_pairs, seed):
    faults = sample_fault_sets(graph, 1, fault_count,
                               model=FaultModel.TREE_BIASED, seed=seed)[0]
    rng = random.Random(seed + 1)
    vertices = sorted(graph.vertices())
    pairs = [tuple(rng.sample(vertices, 2)) for _ in range(num_pairs)]
    return list(faults), pairs


@pytest.mark.parametrize("family", [GraphFamily.GRID, GraphFamily.TREE_PLUS_CHORDS,
                                    GraphFamily.ERDOS_RENYI])
@pytest.mark.parametrize("fault_count", [1, 2, 4])
def test_connected_many_cross_check(family, fault_count):
    """connected_many == fast engine == basic engine == BFS, everywhere."""
    graph = make_graph(family, n=30, seed=60 + fault_count, density=1.8)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=4))
    for round_index in range(3):
        faults, pairs = _shared_fault_queries(
            graph, fault_count, num_pairs=12, seed=100 * fault_count + round_index)
        batched = labeling.connected_many(pairs, faults)
        for (s, t), answer in zip(pairs, batched):
            assert answer == graph.connected(s, t, removed=faults)
            assert answer == labeling.connected(s, t, faults, use_fast_engine=True)
            assert answer == labeling.connected(s, t, faults, use_fast_engine=False)


def test_session_zero_faults_and_identical_vertices():
    graph = make_graph(GraphFamily.GRID, n=16, seed=1)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=2))
    vertices = sorted(graph.vertices())
    pairs = [(vertices[0], vertices[0]), (vertices[0], vertices[-1])]
    assert labeling.connected_many(pairs, faults=()) == [True, True]
    session = labeling.batch_session(())
    assert session.num_fragments() == 1
    assert session.num_components() == 1


def test_session_cache_shares_canonical_fault_sets():
    """Permutations and redundant restatements of a fault set share a session."""
    graph = make_graph(GraphFamily.TREE_PLUS_CHORDS, n=24, seed=5, density=1.5)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=3))
    faults, _ = _shared_fault_queries(graph, 3, num_pairs=1, seed=9)
    session = labeling.batch_session(faults)
    assert labeling.batch_session(list(reversed(faults))) is session
    # Restating one fault twice dedups to the same canonical key.
    assert labeling.batch_session([faults[0]] + faults[:2]) is not session
    duplicated = labeling.batch_session(faults[:2] + [faults[0]])
    assert duplicated is labeling.batch_session(faults[:2])


def test_canonical_key_matches_fragment_structure_dedup():
    """The cache key and FragmentStructure must dedup the same way."""
    graph = make_graph(GraphFamily.ERDOS_RENYI, n=24, seed=8)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=4))
    faults, _ = _shared_fault_queries(graph, 4, num_pairs=1, seed=12)
    fault_labels = [labeling.edge_label(u, v) for u, v in faults]
    session = BatchQuerySession(labeling.outdetect, labeling.instance.codec,
                                fault_labels)
    key = canonical_fault_key(fault_labels)
    assert session.key == key
    # The number of deduplicated faults is the number of non-root fragments.
    assert len(key) == session.structure.num_fragments() - 1
    # Duplicating labels changes neither the key nor the decomposition size.
    doubled = BatchQuerySession(labeling.outdetect, labeling.instance.codec,
                                fault_labels + fault_labels)
    assert doubled.key == key
    assert doubled.num_fragments() == session.num_fragments()
    assert doubled.num_components() == session.num_components()


def test_decoder_session_is_labels_only():
    """The decoder-side batched API works from detached label objects."""
    graph = make_graph(GraphFamily.GRID, n=25, seed=3)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=2))
    decoder = labeling.decoder()
    faults, pairs = _shared_fault_queries(graph, 2, num_pairs=10, seed=21)
    fault_labels = [labeling.edge_label(u, v) for u, v in faults]
    label_pairs = [(labeling.vertex_label(s), labeling.vertex_label(t))
                   for s, t in pairs]
    answers = decoder.connected_many(label_pairs, fault_labels)
    for (s, t), answer in zip(pairs, answers):
        assert answer == graph.connected(s, t, removed=faults)
    session = decoder.session(fault_labels)
    assert session.connected_many(label_pairs) == answers
    assert session.queries_answered == len(pairs)


def test_oracle_counts_queries_once():
    """Satellite: connected delegating to a cached session must count each
    query exactly once (no double counting)."""
    graph = make_graph(GraphFamily.TREE_PLUS_CHORDS, n=20, seed=14, density=1.4)
    oracle = FTConnectivityOracle(graph, max_faults=2)
    faults, pairs = _shared_fault_queries(graph, 2, num_pairs=6, seed=31)
    assert oracle.queries_answered == 0
    oracle.connected(*pairs[0], faults)
    assert oracle.queries_answered == 1
    oracle.connected_many(pairs, faults)
    assert oracle.queries_answered == 1 + len(pairs)
    # Repeated single queries reuse the cached session and still count.
    for s, t in pairs:
        oracle.connected(s, t, faults)
    assert oracle.queries_answered == 1 + 2 * len(pairs)


def test_oracle_basic_engine_escape_hatch():
    graph = make_graph(GraphFamily.GRID, n=16, seed=2)
    oracle = FTConnectivityOracle(graph, max_faults=2, use_fast_engine=False)
    faults, pairs = _shared_fault_queries(graph, 2, num_pairs=5, seed=17)
    answers = oracle.connected_many(pairs, faults)
    assert answers == [graph.connected(s, t, removed=faults) for s, t in pairs]


def test_connected_many_accepts_fault_iterator():
    """The fault iterable must be materialized once, not consumed twice."""
    graph = make_graph(GraphFamily.GRID, n=16, seed=9)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=2))
    faults, pairs = _shared_fault_queries(graph, 2, num_pairs=4, seed=8)
    answers = labeling.connected_many(pairs, iter(faults))
    assert answers == [graph.connected(s, t, removed=faults) for s, t in pairs]


def test_budget_check_applies_to_deduplicated_faults():
    """Restating a fault (in either orientation) must not blow the budget."""
    graph = make_graph(GraphFamily.GRID, n=16, seed=11)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=2))
    faults, pairs = _shared_fault_queries(graph, 2, num_pairs=3, seed=13)
    (u, v) = faults[0]
    restated = faults + [(v, u)]
    assert len(restated) == 3
    answers = labeling.connected_many(pairs, restated)
    assert answers == [graph.connected(s, t, removed=faults) for s, t in pairs]
    assert labeling.connected(*pairs[0], restated) == answers[0]


def test_practical_threshold_rule_batched_answers_or_fails_loudly():
    """With heuristic PRACTICAL thresholds the batched path must either match
    ground truth or raise QueryFailure — never silently mis-answer."""
    from repro.core import QueryFailure
    from repro.hierarchy.config import ThresholdRule

    graph = make_graph(GraphFamily.ERDOS_RENYI, n=40, seed=21)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=2,
                                            threshold_rule=ThresholdRule.PRACTICAL))
    for seed in range(4):
        faults, pairs = _shared_fault_queries(graph, 2, num_pairs=6, seed=seed)
        try:
            answers = labeling.connected_many(pairs, faults)
        except QueryFailure:
            continue
        assert answers == [graph.connected(s, t, removed=faults) for s, t in pairs]


def test_connected_many_rejects_fault_budget_violation():
    graph = make_graph(GraphFamily.GRID, n=16, seed=4)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=1))
    faults, pairs = _shared_fault_queries(graph, 2, num_pairs=2, seed=3)
    assert len(faults) == 2
    with pytest.raises(ValueError):
        labeling.connected_many(pairs, faults)


def test_sketch_variant_batched_queries_mostly_correct():
    """The batched path works for randomized sketch labels too (with the
    per-query fallback when the eager decomposition cannot decode)."""
    graph = make_graph(GraphFamily.GRID, n=25, seed=43)
    labeling = FTCLabeling(graph, FTCConfig(
        max_faults=2, variant=SchemeVariant.SKETCH_FULL, random_seed=3))
    wrong = 0
    for seed in range(6):
        faults, pairs = _shared_fault_queries(graph, 2, num_pairs=8, seed=seed)
        try:
            answers = labeling.connected_many(pairs, faults)
        except Exception:
            wrong += 1
            continue
        wrong += sum(1 for (s, t), answer in zip(pairs, answers)
                     if answer != graph.connected(s, t, removed=faults))
    assert wrong <= 2


def test_fast_engine_alive_counter_large_fault_set():
    """Satellite: the merge loop must stay correct with many faults (the
    quadratic alive-scan fix must not change any answers)."""
    graph = make_graph(GraphFamily.TREE_PLUS_CHORDS, n=60, seed=77, density=1.3)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=8))
    faults, pairs = _shared_fault_queries(graph, 8, num_pairs=15, seed=55)
    batched = labeling.connected_many(pairs, faults)
    for (s, t), answer in zip(pairs, batched):
        expected = graph.connected(s, t, removed=faults)
        assert answer == expected
        assert labeling.connected(s, t, faults, use_fast_engine=True) == expected


def test_session_cache_threaded_stress():
    """Satellite: the session LRU must survive concurrent access — threaded
    executors and the query server share one oracle, so hammering
    ``batch_session`` / ``connected_many`` from many threads over more fault
    sets than the cache holds (constant eviction churn) must corrupt nothing
    and change no answers."""
    import threading

    graph = make_graph(GraphFamily.ERDOS_RENYI, n=30, seed=19)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=3))
    labeling.SESSION_CACHE_SIZE = 3  # force eviction churn
    workloads = []
    for seed in range(9):  # 3x more distinct fault sets than cache slots
        faults, pairs = _shared_fault_queries(graph, 3, num_pairs=6, seed=seed)
        expected = [graph.connected(s, t, removed=faults) for s, t in pairs]
        workloads.append((faults, pairs, expected))

    errors = []
    barrier = threading.Barrier(8)

    def worker(worker_index):
        rng = random.Random(worker_index)
        barrier.wait()
        try:
            for _ in range(30):
                faults, pairs, expected = workloads[rng.randrange(len(workloads))]
                if rng.random() < 0.5:
                    session = labeling.batch_session(faults)
                    # A cached session must always be the right decomposition.
                    assert session.key == canonical_fault_key(
                        [labeling.edge_label(u, v) for u, v in faults])
                else:
                    assert labeling.connected_many(pairs, faults) == expected
        except Exception as error:  # pragma: no cover - only on regression
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    info = labeling.session_cache_info()
    assert info["size"] <= info["max_size"] == 3
    assert info["evictions"] > 0
    # The cache still works normally after the stampede.
    faults, pairs, expected = workloads[0]
    assert labeling.connected_many(pairs, faults) == expected
    assert labeling.batch_session(faults) is labeling.batch_session(list(reversed(faults)))


# ---------------------------------------------------------------- build_sessions

def _session_workload(seed=11, n=30, num_sets=4, max_faults=3):
    graph = make_graph(GraphFamily.ERDOS_RENYI, n=n, seed=seed, density=1.8)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=max_faults))
    fault_sets = [list(faults) for faults in sample_fault_sets(
        graph, num_sets, max_faults, model=FaultModel.TREE_BIASED, seed=seed)]
    rng = random.Random(seed + 1)
    vertices = sorted(graph.vertices())
    pairs = [tuple(rng.sample(vertices, 2)) for _ in range(25)]
    return graph, labeling, fault_sets, pairs


@pytest.mark.parametrize("jobs", [None, 2], ids=["serial", "process:2"])
def test_build_sessions_executors_agree(jobs):
    """Serial and process-built sessions hold the decompositions a warm cache
    would hold."""
    graph, labeling, fault_sets, pairs = _session_workload()
    reference = [labeling.batch_session(faults) for faults in fault_sets]
    expected = [labeling.connected_many(pairs, faults) for faults in fault_sets]

    labeling._session_cache.clear()
    sessions = labeling.build_sessions(fault_sets, jobs=jobs)
    assert len(sessions) == len(fault_sets)
    for faults, session, ref, answers in zip(fault_sets, sessions,
                                             reference, expected):
        assert session._component_of == ref._component_of
        assert labeling.connected_many(pairs, faults) == answers
        # The freshly built session is now the cached one.
        assert labeling.batch_session(faults) is session


def test_build_sessions_dedups_and_reuses_cache():
    _, labeling, fault_sets, _ = _session_workload(seed=13)
    sessions = labeling.build_sessions(fault_sets)
    # A second call with duplicates returns cached objects in input order.
    again = labeling.build_sessions(
        [fault_sets[0]] + fault_sets + [list(reversed(fault_sets[0]))])
    assert again[0] is sessions[0]
    assert again[1:-1] == sessions
    assert again[-1] is sessions[0]
    assert labeling.build_sessions([]) == []
    with pytest.raises(ValueError):
        labeling.build_sessions(fault_sets, jobs=0)


def test_batch_session_builds_each_fault_set_once(monkeypatch):
    """Threads racing on one novel fault set share one build."""
    import threading
    import time

    _, labeling, fault_sets, _ = _session_workload(seed=19)
    built = []
    original = BatchQuerySession.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        time.sleep(0.05)  # every racer arrives while the build is in flight
        original(self, *args, **kwargs)

    monkeypatch.setattr(BatchQuerySession, "__init__", counting)
    barrier = threading.Barrier(8)
    sessions = []

    def worker():
        barrier.wait(timeout=30)
        sessions.append(labeling.batch_session(fault_sets[0]))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert len(built) == 1
    assert len(sessions) == 8
    assert all(session is sessions[0] for session in sessions)


def test_prewarm_sessions_primes_the_server_cache():
    import asyncio

    from repro.server.session_manager import SessionManager

    _, labeling, fault_sets, pairs = _session_workload(seed=17)
    labeling._session_cache.clear()

    async def scenario():
        manager = SessionManager(labeling)
        try:
            count = await manager.prewarm_sessions(fault_sets)
            assert count == len(fault_sets)
            assert await manager.prewarm_sessions([]) == 0
            await manager.session(fault_sets[0])
            return manager.stats()
        finally:
            manager.close()

    stats = asyncio.run(scenario())
    assert stats["sessions"]["hits"] >= 1
