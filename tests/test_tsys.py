from collections import deque

import numpy as np

from symctrl import (FiniteSystem, accessible_part, check_bisimulation,
                     check_simulation, compose, is_deterministic,
                     nonblocking_part, subsystem)


def make_system(outputs, initials, n_inputs, transitions, input_dim=1):
    outputs = np.asarray(outputs, dtype=float)
    if outputs.ndim != 2:
        outputs = outputs.reshape(len(outputs), -1)
    inputs = np.arange(n_inputs, dtype=float).reshape(-1, 1)
    if input_dim == 0:
        inputs = np.zeros((n_inputs, 0))
    return FiniteSystem(outputs, initials, inputs, transitions)


def brute_nonblocking_survivors(s):
    """Independent fixpoint over original indices."""
    alive = set(range(s.n_states))
    changed = True
    while changed:
        changed = False
        for i in sorted(alive):
            if not any(int(r[2]) in alive for r in s.successors(i)):
                alive.remove(i)
                changed = True
    return alive


def brute_accessible_states(s):
    """Independent breadth-first search from the initial states."""
    seen = set(int(i) for i in s.initials)
    queue = deque(seen)
    while queue:
        for row in s.successors(queue.popleft()):
            if int(row[2]) not in seen:
                seen.add(int(row[2]))
                queue.append(int(row[2]))
    return seen


def brute_compose(s1, s2, eps):
    """Independent composition, built pair by pair."""
    pairs = [(i, j) for i in range(s1.n_states) for j in range(s2.n_states)
             if np.max(np.abs(s1.outputs[i] - s2.outputs[j])) <= eps]
    index = {p: k for k, p in enumerate(pairs)}
    init1, init2 = set(s1.initials.tolist()), set(s2.initials.tolist())
    rows = []
    for k, (i, j) in enumerate(pairs):
        for r1 in s1.successors(i):
            for r2 in s2.successors(j):
                dst = index.get((int(r1[2]), int(r2[2])))
                if dst is not None:
                    rows.append([k, int(r1[1]) * s2.n_inputs + int(r2[1]),
                                 dst])
    inputs = [np.concatenate([u1, u2]) for u1 in s1.inputs for u2 in s2.inputs]
    return FiniteSystem(
        np.asarray([s1.outputs[i] for i, _ in pairs]).reshape(
            len(pairs), s1.output_dim),
        [k for k, (i, j) in enumerate(pairs) if i in init1 and j in init2],
        np.asarray(inputs).reshape(len(inputs), -1),
        np.asarray(rows, dtype=np.int64).reshape(-1, 3))


def _refine(s1, s2, pairs, symmetric):
    """Greatest fixpoint removing pairs that violate transition matching
    (forward for simulation; both directions for bisimulation)."""
    changed = True
    while changed:
        changed = False
        for (a, b) in sorted(pairs):
            ok = True
            for row in s1.successors(a):
                a2 = int(row[2])
                if not any((a2, int(rb[2])) in pairs for rb in s2.successors(b)):
                    ok = False
                    break
            if ok and symmetric:
                for row in s2.successors(b):
                    b2 = int(row[2])
                    if not any((int(ra[2]), b2) in pairs
                               for ra in s1.successors(a)):
                        ok = False
                        break
            if not ok:
                pairs.discard((a, b))
                changed = True
    return pairs


def _covers_initials(pairs, init1, init2, flipped=False):
    """Every state of init1 must be related to some state of init2."""
    partners = {}
    for (p, q) in pairs:
        x, y = (q, p) if flipped else (p, q)
        partners.setdefault(x, set()).add(y)
    init2_set = set(int(i) for i in init2)
    return all(partners.get(int(a), set()) & init2_set for a in init1)


def brute_relation(s1, s2, eps, symmetric):
    """Independent maximal (bi)simulation relation: every output-compatible
    pair, rescanned until stable, then the initial-state conditions."""
    pairs = {(i, j) for i in range(s1.n_states) for j in range(s2.n_states)
             if np.max(np.abs(s1.outputs[i] - s2.outputs[j])) <= eps}
    pairs = _refine(s1, s2, pairs, symmetric)
    if not _covers_initials(pairs, s1.initials, s2.initials):
        return None
    if symmetric and not _covers_initials(pairs, s2.initials, s1.initials,
                                          flipped=True):
        return None
    return pairs


def random_system(rng, max_states=8, max_inputs=3, grid=3, dim=2,
                  deterministic=False, min_initials=1):
    ns = int(rng.integers(1, max_states + 1))
    ni = int(rng.integers(1, max_inputs + 1))
    outputs = rng.integers(0, grid, size=(ns, dim)).astype(float)
    initials = rng.choice(ns, size=int(rng.integers(min_initials, ns + 1)),
                          replace=False)
    rows = []
    for s in range(ns):
        for u in range(ni):
            if deterministic:
                if rng.random() < 0.8:
                    rows.append([s, u, int(rng.integers(0, ns))])
            else:
                for t in range(ns):
                    if rng.random() < 0.25:
                        rows.append([s, u, t])
    return make_system(outputs, initials, ni,
                       np.asarray(rows, dtype=np.int64).reshape(-1, 3))


def random_pair(rng, **kwargs):
    """Two random systems over one output space of 1, 2 or 3 dimensions."""
    dim = int(rng.integers(1, 4))
    return (random_system(rng, dim=dim, **kwargs),
            random_system(rng, dim=dim, **kwargs))


# ---- composition -----------------------------------------------------------

def test_compose_identity_self_loops():
    s1 = make_system([[0.0]], [0], 1, [[0, 0, 0]])
    s2 = make_system([[0.0]], [0], 1, [[0, 0, 0]])
    c = compose(s1, s2, 0.0)
    assert c.n_states == 1
    assert c.n_transitions == 1
    assert np.array_equal(c.transitions, [[0, 0, 0]])


def test_compose_distance_filter_empties():
    s1 = make_system([[0.0]], [0], 1, [[0, 0, 0]])
    s2 = make_system([[0.3]], [0], 1, [[0, 0, 0]])
    c = compose(s1, s2, 0.2)
    assert c.n_states == 0
    assert c.n_transitions == 0


def test_compose_output_is_first_component():
    s1 = make_system([[0.0], [1.0]], [0], 1, [[0, 0, 1]])
    s2 = make_system([[0.05], [1.05]], [0], 1, [[0, 0, 1]])
    c = compose(s1, s2, 0.1)
    assert np.array_equal(c.outputs, [[0.0], [1.0]])
    assert c.n_transitions == 1


def test_compose_inputs_are_pairs():
    s1 = make_system([[0.0]], [0], 2, [[0, 1, 0]])
    s2 = make_system([[0.0]], [0], 3, [[0, 2, 0]])
    c = compose(s1, s2, 0.0)
    assert c.n_inputs == 6
    assert np.array_equal(c.transitions, [[0, 1 * 3 + 2, 0]])


def test_compose_state_count_bounded_by_product():
    rng = np.random.default_rng(1)
    for _ in range(100):
        s1, s2 = random_pair(rng)
        eps = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        c = compose(s1, s2, eps)
        assert c.n_states <= s1.n_states * s2.n_states


def test_compose_pairs_respect_distance():
    rng = np.random.default_rng(2)
    for _ in range(100):
        s1, s2 = random_pair(rng)
        eps = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        assert compose(s1, s2, eps).same_as(brute_compose(s1, s2, eps))


def test_compose_matches_signed_zero_outputs():
    s1 = make_system([[0.0, -0.0], [1.0, 1.0]], [0, 1], 1, [[0, 0, 1]])
    s2 = make_system([[-0.0, 0.0]], [0], 1, [[0, 0, 0]])
    for eps in (0.0, 0.5):
        c = compose(s1, s2, eps)
        assert c.same_as(brute_compose(s1, s2, eps))
        assert c.n_states == 1


# ---- non-blocking and accessible parts -------------------------------------

def test_nonblocking_keeps_self_loop_chain():
    s = make_system([[0.0], [1.0]], [0], 1, [[0, 0, 1], [1, 0, 1]])
    nb = nonblocking_part(s)
    assert nb.same_as(s)


def test_nonblocking_cascade_deletion():
    s = make_system([[0.0], [1.0]], [0], 1, [[0, 0, 1]])
    nb = nonblocking_part(s)
    assert nb.n_states == 0
    assert nb.n_transitions == 0


def test_nonblocking_prunes_dead_branch():
    # cycle a<->b plus dead branch a->c
    s = make_system([[0.0], [1.0], [2.0]], [0], 1,
                    [[0, 0, 1], [1, 0, 0], [0, 0, 2]])
    nb = nonblocking_part(s)
    assert nb.n_states == 2
    assert nb.n_transitions == 2
    assert np.array_equal(nb.outputs, [[0.0], [1.0]])


def test_accessible_drops_isolated():
    s = make_system([[0.0], [1.0], [2.0]], [0], 1, [[0, 0, 1], [2, 0, 2]])
    ac = accessible_part(s)
    assert ac.n_states == 2
    assert np.array_equal(ac.outputs, [[0.0], [1.0]])


def test_accessible_identity_when_all_reachable():
    s = make_system([[0.0], [1.0]], [0], 1, [[0, 0, 1], [1, 0, 0]])
    assert accessible_part(s).same_as(s)


def test_accessible_empty_initials():
    s = make_system([[0.0]], [], 1, [[0, 0, 0]])
    ac = accessible_part(s)
    assert ac.n_states == 0


def test_nonblocking_and_accessible_idempotent_and_maximal():
    rng = np.random.default_rng(3)
    for _ in range(100):
        s = random_system(rng)
        nb = nonblocking_part(s)
        assert nonblocking_part(nb).same_as(nb)
        ac = accessible_part(s)
        assert accessible_part(ac).same_as(ac)
        # every nonblocking-part state really has a successor
        if nb.n_states:
            assert np.all(nb.out_degree() > 0)
        # agreement with independent references over original indices
        assert ac.same_as(subsystem(s, sorted(brute_accessible_states(s))))
        survivors = brute_nonblocking_survivors(s)
        assert nb.same_as(subsystem(s, sorted(survivors)))
        # maximality: re-adding any deleted state (with its original
        # transitions into the kept set) gets deleted again
        deleted = sorted(set(range(s.n_states)) - survivors)
        for d in deleted[:3]:
            again = nonblocking_part(subsystem(s, sorted(survivors | {d})))
            assert again.n_states == len(survivors)


# ---- simulation and bisimulation checkers ----------------------------------

def test_self_simulation_contains_identity():
    rng = np.random.default_rng(4)
    for _ in range(20):
        s = random_system(rng)
        rel = check_simulation(s, s, 0.0)
        assert rel is not None
        assert all((i, i) in rel for i in range(s.n_states))


def test_self_bisimulation_succeeds():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = random_system(rng)
        assert check_bisimulation(s, s, 0.0) is not None


def test_duplicated_state_is_bisimilar():
    s1 = make_system([[0.0]], [0], 1, [[0, 0, 0]])
    s2 = make_system([[0.0], [0.0]], [0, 1], 1,
                     [[0, 0, 1], [1, 0, 0]])
    assert check_bisimulation(s1, s2, 0.0) is not None


def test_unmatchable_transition_breaks_bisimulation():
    s1 = make_system([[0.0], [1.0]], [0], 1, [[0, 0, 1], [1, 0, 1]])
    s2 = make_system([[0.0]], [0], 1, [[0, 0, 0]])
    assert check_bisimulation(s1, s2, 0.0) is None


def test_distant_outputs_give_absent():
    s1 = make_system([[0.0]], [0], 1, [[0, 0, 0]])
    s2 = make_system([[5.0]], [0], 1, [[0, 0, 0]])
    assert check_simulation(s1, s2, 1.0) is None


def test_composition_is_simulated_by_second_component():
    # on any pair of systems, the composition at eps is eps-simulated by the
    # controller-side component
    rng = np.random.default_rng(6)
    for _ in range(100):
        s1, s2 = random_pair(rng)
        eps = float(rng.choice([0.0, 0.5, 1.0]))
        c = compose(s1, s2, eps)
        assert check_simulation(c, s2, eps) is not None


def test_simulation_relation_is_sound():
    # verify the returned relation satisfies the transition-matching and
    # output-distance conditions, independently of the fixpoint code
    rng = np.random.default_rng(7)
    for _ in range(50):
        s1, s2 = random_pair(rng)
        eps = float(rng.choice([0.0, 1.0]))
        rel = check_simulation(s1, s2, eps)
        if rel is None:
            continue
        for (a, b) in rel:
            assert np.max(np.abs(s1.outputs[a] - s2.outputs[b])) <= eps
            for row in s1.successors(a):
                assert any((int(row[2]), int(rb[2])) in rel
                           for rb in s2.successors(b))


def test_bisimulation_relation_is_simulation_both_ways():
    rng = np.random.default_rng(8)
    for _ in range(50):
        s1, s2 = random_pair(rng, deterministic=True)
        eps = float(rng.choice([0.0, 1.0]))
        rel = check_bisimulation(s1, s2, eps)
        if rel is None:
            continue
        inv = {(b, a) for (a, b) in rel}
        for (a, b) in rel:
            for row in s1.successors(a):
                assert any((int(row[2]), int(rb[2])) in rel
                           for rb in s2.successors(b))
        for (b, a) in inv:
            for row in s2.successors(b):
                assert any((int(ra[2]), int(row[2])) in rel
                           for ra in s1.successors(a))


def test_relations_equal_brute_force_maximal_relation():
    # each draw is checked as drawn and with no initial states, where the
    # initial-state conditions hold and the whole fixpoint is returned
    rng = np.random.default_rng(10)
    seen = {"none": 0, "pruned": 0, "kept": 0}
    for n in range(240):
        drawn = random_pair(rng, deterministic=n % 2 == 0,
                            min_initials=0 if n % 3 == 0 else 1)
        bare = tuple(FiniteSystem(s.outputs, [], s.inputs, s.transitions)
                     for s in drawn)
        eps = float(rng.choice([0.0, 0.5, 1.0]))
        for s1, s2 in (drawn, bare):
            compatible = sum(
                np.max(np.abs(s1.outputs[i] - s2.outputs[j])) <= eps
                for i in range(s1.n_states) for j in range(s2.n_states))
            for symmetric, check in ((False, check_simulation),
                                     (True, check_bisimulation)):
                expected = brute_relation(s1, s2, eps, symmetric)
                assert check(s1, s2, eps) == expected
                seen["none" if expected is None else "pruned"
                     if len(expected) < compatible else "kept"] += 1
    # the draws reach every outcome: no relation, a relation the fixpoint
    # pruned, and one it kept whole
    assert min(seen.values()) >= 50, seen


def test_bisimulation_implies_mutual_simulation():
    rng = np.random.default_rng(9)
    for _ in range(100):
        s1, s2 = random_pair(rng)
        eps = float(rng.choice([0.0, 1.0]))
        if check_bisimulation(s1, s2, eps) is not None:
            assert check_simulation(s1, s2, eps) is not None
            assert check_simulation(s2, s1, eps) is not None


def test_deterministic_helper():
    det = make_system([[0.0], [1.0]], [0], 2, [[0, 0, 1], [0, 1, 0]])
    assert is_deterministic(det)
    nondet = make_system([[0.0], [1.0]], [0], 1, [[0, 0, 1], [0, 0, 0]])
    assert not is_deterministic(nondet)


def test_empty_system_is_legal():
    s = make_system(np.zeros((0, 1)), [], 1, np.zeros((0, 3), dtype=np.int64))
    assert nonblocking_part(s).n_states == 0
    assert accessible_part(s).n_states == 0
    assert is_deterministic(s)
    c = compose(s, s, 0.0)
    assert c.n_states == 0
