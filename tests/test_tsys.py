import tracemalloc
import warnings
from collections import deque

import numpy as np
import pytest

from symctrl import (FiniteSystem, accessible_part, check_bisimulation,
                     check_simulation, compose, is_deterministic,
                     nonblocking_part, subsystem, tsys)


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


@pytest.mark.parametrize("eps", [-1.0, float("nan")])
@pytest.mark.parametrize("operator", [compose, check_simulation,
                                      check_bisimulation])
def test_a_negative_or_nan_eps_is_refused(operator, eps):
    s = make_system([[0.0], [1.0]], [0], 1, [[0, 0, 1], [1, 0, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no cast of NaN before the refusal
        with pytest.raises(ValueError, match="eps"):
            operator(s, s, eps)


def test_an_infinite_eps_makes_every_pair_compatible():
    rng = np.random.default_rng(11)
    for _ in range(20):
        s1, s2 = random_pair(rng)
        c = compose(s1, s2, float("inf"))
        assert c.n_states == s1.n_states * s2.n_states
        assert c.same_as(brute_compose(s1, s2, float("inf")))
        for symmetric, check in ((False, check_simulation),
                                 (True, check_bisimulation)):
            assert check(s1, s2, float("inf")) == brute_relation(
                s1, s2, float("inf"), symmetric)


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


def relabel(s):
    """s's transitions, each moved to the next input."""
    t = s.transitions.copy()
    t[:, 1] = (t[:, 1] + 1) % s.n_inputs
    return t


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
        # every edge repeated under another input, which changes no relation
        repeated = tuple(FiniteSystem(s.outputs, s.initials, s.inputs,
                                      np.vstack([s.transitions, relabel(s)]))
                         for s in drawn)
        eps = float(rng.choice([0.0, 0.5, 1.0]))
        for s1, s2 in (drawn, bare, repeated):
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


def test_sortedness_check_in_slices_equals_whole_array_check(monkeypatch):
    # slices of 4 rows, overlapping by one: a violation between the last row
    # of a slice and the first of the next must still be caught, and so must
    # a row out of range only in a later slice
    def whole(t):
        d0, d1, d2 = (np.diff(t[:, k]) for k in range(3))
        return bool(np.all((d0 > 0) | ((d0 == 0) & ((d1 > 0)
                                                   | ((d1 == 0) & (d2 > 0))))))

    monkeypatch.setattr(tsys, "_SLICE_ROWS", 4)
    rng = np.random.default_rng(11)
    seen = {True: 0, False: 0}
    for trial in range(400):
        t = np.unique(rng.integers(0, 4, (int(rng.integers(0, 30)), 3)),
                      axis=0).astype(np.int32)
        if trial % 4 and t.shape[0] > 4:
            # rows i - 1 and i out of order or equal, with i mostly on a
            # slice boundary
            i = (4 * int(rng.integers(1, (t.shape[0] - 1) // 4 + 1))
                 if trial % 4 != 3 else int(rng.integers(1, t.shape[0])))
            if rng.integers(2):
                t[i] = t[i - 1]
            else:
                t[[i - 1, i]] = t[[i, i - 1]]
        got = tsys._check_rows(t, 4, 4)
        assert got == whole(t), t
        seen[got] += 1
        if t.shape[0] > 5:
            bad = t.copy()
            bad[int(rng.integers(5, t.shape[0])), int(rng.choice([0, 2]))] = 4
            with pytest.raises(ValueError, match="endpoint out of range"):
                tsys._check_rows(bad, 4, 4)
            bad = t.copy()
            bad[int(rng.integers(5, t.shape[0])), 1] = 4
            with pytest.raises(ValueError, match="input out of range"):
                tsys._check_rows(bad, 4, 4)
    assert min(seen.values()) > 100


def test_slices_change_no_result(monkeypatch):
    # compose, the sub-systems of its results and _indptr in slices of 4
    # rows equal their results at the default size, which holds each of
    # these systems in one slice
    rng = np.random.default_rng(12)
    draws = [(random_pair(rng), float(rng.choice([0.0, 0.5, 1.0])))
             for _ in range(80)]
    composed = [compose(s1, s2, eps) for (s1, s2), eps in draws]
    keeps = [np.flatnonzero(rng.random(c.n_states) < 0.7) for c in composed]
    parts = [(subsystem(c, keep), nonblocking_part(c), accessible_part(c))
             for c, keep in zip(composed, keeps)]
    rows = [rng.integers(0, 20, int(rng.integers(0, 60))) for _ in range(40)]
    pointers = [tsys._indptr(r, 20) for r in rows]
    monkeypatch.setattr(tsys, "_SLICE_ROWS", 4)
    for ((s1, s2), eps), c in zip(draws, composed):
        assert compose(s1, s2, eps).same_as(c)
    for c, keep, (sub, nb, acc) in zip(composed, keeps, parts):
        assert subsystem(c, keep).same_as(sub)
        assert nonblocking_part(c).same_as(nb)
        assert accessible_part(c).same_as(acc)
    for r, indptr in zip(rows, pointers):
        assert np.array_equal(tsys._indptr(r, 20), indptr)
    # most first systems, and many compositions, span several slices
    assert sum(s1.n_transitions > 4 for (s1, _), _ in draws) > 40
    assert sum(c.n_transitions > 4 for c in composed) > 20


def test_join_copies_parts_in_order_and_empties_the_list():
    rng = np.random.default_rng(14)
    parts = [rng.integers(0, 9, (n, 3)).astype(np.int32) for n in (3, 0, 5)]
    whole = np.concatenate(parts)
    got = tsys._join(parts)
    assert got.dtype == np.int32 and np.array_equal(got, whole)
    assert parts == []
    one = [whole]
    assert tsys._join(one) is whole and one == []
    none = tsys._join([])
    assert none.dtype == np.int32 and none.shape == (0, 3)


_GOOD_ROWS = [[0, 0, 1], [1, 1, 2], [2, 0, 0]]


def _rows_with(row, col, value, dtype=np.int64):
    t = np.array(_GOOD_ROWS, dtype=dtype)
    t[row, col] = value
    return t


def _bad_in_second_slice():
    t = np.tile(np.array([[0, 0, 1]], dtype=np.int64),
                (tsys._SLICE_ROWS + 5, 1))
    t[-1, 2] = 3
    return t


@pytest.mark.parametrize("rows, refusal", [
    (_rows_with(1, 2, -1), "endpoint"),
    (_rows_with(1, 2, 3), "endpoint"),
    (_rows_with(2, 0, 3), "endpoint"),
    (_rows_with(0, 1, 2), "input"),
    (_rows_with(0, 1, -1), "input"),
    (_rows_with(1, 2, 2 ** 31), "endpoint"),
    (_rows_with(1, 2, np.nan, float), "endpoint"),
    (_rows_with(1, 2, 1.5, float), None),
    (np.array([[0, 0, 1.2], [0, 0, 1.5]]), None),
    (_bad_in_second_slice(), "endpoint"),
    (np.zeros((0, 3)), None),
], ids=["dst-1", "dst-ns", "src-ns", "input-ni", "input-1", "int64-2^31",
        "nan", "fraction", "equal-once-truncated", "second-slice",
        "empty-float"])
def test_malformed_rows(rows, refusal):
    # 3 states and 2 inputs; a fraction is truncated, as by a cast to int32,
    # and rows that become equal then are one row
    def build():
        return FiniteSystem(np.zeros((3, 1)), [0], np.zeros((2, 1)), rows)

    if refusal is None:
        s = build()
        assert s.transitions.dtype == np.int32
        assert np.array_equal(s.transitions, np.unique(
            np.trunc(rows).astype(np.int32), axis=0))
    else:
        with pytest.raises(ValueError, match=f"{refusal} out of range"):
            build()


_TOP = 2 ** 31 - 1


@pytest.mark.parametrize("states, inputs, row, refused", [
    (2 ** 31 + 2, 1, [2 ** 31, 0, 0], True),
    (3, 2 ** 31 + 2, [0, 2 ** 31 + 1, 0], True),
    (2 ** 31, 2 ** 31, [_TOP, _TOP, 0], False),
], ids=["states", "inputs", "2^31-both"])
def test_int32_rows_index_every_state_and_input(states, inputs, row, refused):
    # zero-width outputs and inputs hold no memory; past 2^31 states or
    # inputs, the row is in range but an int32 row would wrap its index
    def build():
        return FiniteSystem(np.zeros((states, 0)), [], np.zeros((inputs, 0)),
                            np.array([row]))

    if refused:
        with pytest.raises(ValueError,
                           match=r"more than 2\^31 states or inputs"):
            build()
    else:
        assert build().transitions.tolist() == [row]


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _million_rows():
    """A deterministic system of 10,000 states x 100 inputs: 1M sorted
    int32 rows."""
    ns, ni = 10_000, 100
    rng = np.random.default_rng(13)
    src, u = np.divmod(np.arange(ns * ni), ni)
    rows = np.column_stack([src, u, rng.integers(0, ns, ns * ni)]
                           ).astype(np.int32)
    outputs = np.arange(ns, dtype=float).reshape(-1, 1)
    return outputs, np.arange(ni, dtype=float).reshape(-1, 1), rows


def test_row_passes_hold_slices_not_copies():
    # traced peaks as a fraction of the rows' bytes; a whole-array copy of
    # one int32 column is a third, and its intp cast two thirds
    outputs, inputs, rows = _million_rows()
    size = rows.nbytes
    assert _traced_peak(lambda: FiniteSystem(outputs, [0], inputs, rows)
                        ) < 0.4 * size
    s = FiniteSystem(outputs, [0], inputs, rows)
    assert _traced_peak(s.out_degree) < 0.2 * size
    ns = outputs.shape[0]
    partner = FiniteSystem(outputs, [0], np.zeros((1, 0)), np.column_stack(
        [np.arange(ns), np.zeros(ns, dtype=int), (np.arange(ns) + 1) % ns]))
    assert _traced_peak(lambda: compose(s, partner, 0.0)) < 2 * size
    # rows that all go to their source's successor, as in the partner, so
    # that all 1M compose: the result and its parts, but no int64 staging
    # copy of them, fit under 2.5 times the rows' bytes, and so does the
    # non-blocking part, which keeps every row
    rows[:, 2] = (rows[:, 0] + 1) % ns
    s = FiniteSystem(outputs, [0], inputs, rows)
    assert _traced_peak(lambda: compose(s, partner, 0.0)) < 2.5 * size
    c = compose(s, partner, 0.0)
    assert c.n_transitions == rows.shape[0]
    assert _traced_peak(lambda: nonblocking_part(c)) < 2.5 * size
    assert nonblocking_part(c).same_as(c)


def test_relation_over_repeated_edges_stays_small():
    # 400 states whose 100 inputs all lead to one successor: one witness
    # per pair, not 100 x 100
    ns, ni = 400, 100
    src, u = np.divmod(np.arange(ns * ni), ni)
    s = make_system(np.arange(ns), [0], ni,
                    np.column_stack([src, u, (src + 1) % ns]))
    peak = _traced_peak(lambda: check_bisimulation(s, s, 0.0))
    assert peak < 16 * 2 ** 20
    assert check_bisimulation(s, s, 0.0) == {(i, i) for i in range(ns)}


def as_rows(s):
    """s held as its transition rows, whatever form it has."""
    return FiniteSystem(s.outputs, s.initials, s.inputs, s.transitions)


def matrix_system(rng, ns, ni, outputs, landing=0.7):
    """A deterministic system held as its successor matrix: each entry a
    random state with probability `landing`, else -1."""
    succ = np.where(rng.random((ns, ni)) < landing,
                    rng.integers(0, max(ns, 1), (ns, ni)), -1)
    return FiniteSystem(np.asarray(outputs, dtype=float).reshape(ns, 1),
                        rng.choice(ns, size=min(ns, 2), replace=False),
                        np.arange(ni, dtype=float).reshape(-1, 1),
                        successors=succ)


def test_a_successor_matrix_is_its_sorted_rows(monkeypatch):
    # blocks of 4 entries, so that every pass spans several
    monkeypatch.setattr(tsys, "_SLICE_ROWS", 4)
    rng = np.random.default_rng(21)
    for ns, ni in ((0, 1), (1, 1), (7, 3), (40, 5), (9, 0)):
        s = matrix_system(rng, ns, ni, np.arange(ns))
        hit = np.argwhere(s.matrix >= 0)
        ref = FiniteSystem(s.outputs, s.initials, s.inputs, np.column_stack(
            [hit, s.matrix[s.matrix >= 0]]))
        assert s.matrix.dtype == np.int32 and ref.matrix is None
        assert s.same_as(ref) and s.n_transitions == ref.n_transitions
        assert np.array_equal(s.out_degree(), ref.out_degree())
        assert is_deterministic(s)
        keep = np.flatnonzero(rng.random(ns) < 0.6)
        sub = subsystem(s, keep)
        assert sub.matrix is None and sub.same_as(subsystem(ref, keep))
        assert accessible_part(s).same_as(accessible_part(ref))


@pytest.mark.parametrize("successors, refusal", [
    (np.array([[0], [3], [1]]), "successor out of range"),
    (np.array([[0], [-2], [1]]), "successor out of range"),
    (np.array([[0, 1, 2]]), r"a \(S, I\) matrix"),
], ids=["past-S", "below-1", "shape"])
def test_malformed_successor_matrices(successors, refusal):
    with pytest.raises(ValueError, match=refusal):
        FiniteSystem(np.zeros((3, 1)), [0], np.zeros((1, 1)),
                     successors=successors)


def test_a_system_takes_rows_or_a_matrix():
    for kwargs in ({}, {"transitions": [[0, 0, 0]],
                        "successors": [[0]]}):
        with pytest.raises(ValueError, match="either transitions or"):
            FiniteSystem(np.zeros((1, 1)), [0], np.zeros((1, 1)), **kwargs)


def test_matrix_composition_and_pruning_equal_the_join(monkeypatch):
    # two random deterministic systems on integer outputs: where each state
    # of the first has at most one partner (distinct outputs on the second
    # side, at eps = 0), `compose` gathers, otherwise it joins; either way
    # it returns rows, and the pruning runs the one fixpoint over them
    monkeypatch.setattr(tsys, "_SLICE_ROWS", 4)
    rng = np.random.default_rng(22)
    seen = {"gathered": 0, "joined": 0, "functional": 0, "pruned": 0}
    for _ in range(300):
        n1, n2 = rng.integers(1, 12, size=2)
        eps = float(rng.choice([0.0, 0.0, 1.0]))
        s1 = matrix_system(rng, n1, int(rng.integers(1, 4)),
                           rng.choice(12, n1, replace=rng.random() < 0.3))
        s2 = matrix_system(rng, n2, int(rng.integers(1, 3)),
                           rng.choice(12, n2, replace=rng.random() < 0.3))
        c = compose(s1, s2, eps)
        ref = compose(as_rows(s1), as_rows(s2), eps)
        assert c.matrix is None and ref.matrix is None and c.same_as(ref)
        assert np.array_equal(c.out_degree(), ref.out_degree())
        pair_i, _ = tsys._pair_candidates(s1, s2, eps)
        gathered = bool(np.all(np.diff(pair_i) > 0))
        seen["gathered" if gathered else "joined"] += 1
        nb = nonblocking_part(c)
        assert nb.matrix is None and nb.same_as(nonblocking_part(ref))
        assert nb.same_as(subsystem(c, sorted(brute_nonblocking_survivors(
            ref))))
        # every row of a pair leads to one pair, as on the baseline's
        # composition, and some of those compositions lose states
        t = c.transitions
        if gathered and not np.any((np.diff(t[:, 0]) == 0)
                                    & (np.diff(t[:, 2]) != 0)):
            seen["functional"] += 1
            seen["pruned"] += 0 < nb.n_states < c.n_states
        # a matrix whose rows lead to several states prunes as its rows do
        assert nonblocking_part(s1).same_as(nonblocking_part(as_rows(s1)))
    assert min(seen.values()) > 10, seen


def test_a_sparse_composition_holds_its_rows_not_its_entries():
    # a plant of 10,000 states x 500 inputs and a one-input partner on the
    # same outputs, as the baseline composes them: an entry composes where
    # it meets the partner's successor, 4% of them.  The first half of the
    # partner's states lead into the first half; a tenth of the second
    # half have no plant successor, and pruning removes them and the states
    # that lead to them, over several waves.  The composition's rows take 12
    # bytes per kept entry, and a dense pair matrix alone would take 4 per
    # entry, about 9 times the rows' bytes
    ns, ni = 10_000, 500
    rng = np.random.default_rng(23)
    first = np.arange(ns) < ns // 2
    q = np.where(first, rng.integers(0, ns // 2, ns),
                 rng.integers(0, ns, ns)).astype(np.int32)
    p = rng.integers(0, ns, (ns, ni), dtype=np.int32)
    hit = rng.random((ns, ni), dtype=np.float32) < 0.04
    p[hit] = np.broadcast_to(q[:, None], p.shape)[hit]
    p[~first & (rng.random(ns) < 0.1)] = -1
    outputs = np.arange(ns, dtype=float).reshape(-1, 1)
    s1 = FiniteSystem(outputs, [0], np.arange(ni, dtype=float).reshape(-1, 1),
                      successors=p)
    s2 = FiniteSystem(outputs, [0], np.zeros((1, 0)), successors=q[:, None])
    c = compose(s1, s2, 0.0)
    size = c.transitions.nbytes
    assert 0.03 < c.n_transitions / p.size < 0.04
    nb = nonblocking_part(c)
    assert 0.85 * c.n_states < nb.n_states < 0.95 * c.n_states
    assert _traced_peak(lambda: nonblocking_part(compose(s1, s2, 0.0))
                        ) < 5 * size
