"""Finite transition systems with metric outputs and the system operators:
approximate composition, non-blocking part, accessible part, and the
approximate (bi)simulation relation checkers.

States, inputs and transitions are index-based and array-backed so that
systems with tens of millions of transitions stay affordable.  Transitions
are (T, 3) int32 (source, input, target) rows that every producer, in any
module, fills in place with `_rows`; the passes that build them a slice at
a time join the slices with `_join`.  A deterministic system may instead be
held as its (state x input) int32 successor matrix, -1 where a row has no
successor, the form the abstractions are built in; its rows are derived
when first asked for.  Every operator returns rows.  A pass over rows or
matrix entries (the row check, `_indptr`'s counts, `compose`'s join and
gathers, `subsystem`'s remap) holds `_SLICE_ROWS` of them at a time.
Distances are infinity norms.

Operators are array code on two helpers; only fixpoint waves and slices loop:

- one CSR index: `_indptr` gives row pointers over entries sorted by row,
  and `_ranges` the flattened entries of a batch of rows.  Transitions are
  kept sorted, so they are their own successor index.
- one greatest fixpoint, `_greatest_fixpoint`: every node owes
  obligations, every obligation has witness nodes, and a node dies as soon
  as one of its obligations has no live witness left.  Each obligation
  counts its live witnesses, and each wave of deaths counts them down
  through an index of the witnesses by node, the counter scheme of
  Henzinger, Henzinger and Kopke for maximal simulations.

The non-blocking part is that fixpoint with one obligation per state,
witnessed by its transitions.  The (bi)simulation checkers run it on the
composition of the systems with input labels dropped, one product for both
sides: a pair owes one obligation per edge of its first state (and, for
bisimulation, of its second), and each composed edge leaving the pair
witnesses the obligation of the edge it takes on each side.  The accessible
part is a forward wave; output-compatible pairs come from one sorted-key join.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

import numpy as np

# rows a pass over transitions holds at once
_SLICE_ROWS = 1 << 16


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointers of n rows over entries sorted by their row.  The
    counts add up slice by slice, since bincount casts its input to intp."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    for a in range(0, rows.size, _SLICE_ROWS):
        indptr[1:] += np.bincount(rows[a:a + _SLICE_ROWS], minlength=n)
    np.cumsum(indptr, out=indptr)
    return indptr


def _ranges(indptr: np.ndarray,
            rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The entries of a batch of CSR rows, flattened row by row: (k, e)
    where entry e belongs to row rows[k]."""
    start = indptr[rows]
    counts = indptr[rows + 1] - start
    k = np.repeat(np.arange(rows.size), counts)
    return k, np.arange(k.size) + np.repeat(start - np.cumsum(counts) + counts,
                                            counts)


def _mask(n: int, index) -> np.ndarray:
    """Boolean mask of length n, true at `index`."""
    mask = np.zeros(n, dtype=bool)
    mask[index] = True
    return mask


def _find(sorted_codes: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Position of each code in sorted_codes, or -1 where it is absent."""
    pos = np.minimum(np.searchsorted(sorted_codes, codes),
                     sorted_codes.size - 1)
    return np.where(sorted_codes[pos] == codes, pos, -1)


def _greatest_fixpoint(n_nodes: int, owner: np.ndarray, wit_ob: np.ndarray,
                       wit_node: np.ndarray) -> np.ndarray:
    """Alive mask of the largest node set in which every obligation of a
    live node keeps a live witness.  Obligation o belongs to node owner[o];
    witness w discharges obligation wit_ob[w] while node wit_node[w] lives."""
    live = np.diff(_indptr(wit_ob, owner.size))
    order = np.argsort(wit_node, kind="stable")
    by_node = _indptr(wit_node, n_nodes)
    alive = np.ones(n_nodes, dtype=bool)
    dying = np.unique(owner[live == 0])
    while dying.size:
        alive[dying] = False
        ob, lost = np.unique(wit_ob[order[_ranges(by_node, dying)[1]]],
                             return_counts=True)
        live[ob] -= lost
        dying = np.unique(owner[ob[live[ob] == 0]])
        dying = dying[alive[dying]]
    return alive


def _blocks(n: int, width: int):
    """Bounds (a, b) of blocks of n rows of `width` entries each,
    _SLICE_ROWS entries at a time."""
    step = max(1, _SLICE_ROWS // max(1, width))
    for a in range(0, n, step):
        yield a, min(a + step, n)


def _rows(src, inp, dst) -> np.ndarray:
    """(T, 3) int32 rows from T-entry arrays or scalars, column by column.
    The casts do not check: a system has at most 2^31 states and inputs."""
    t = np.empty((np.broadcast(src, inp, dst).size, 3), dtype=np.int32)
    t[:, 0], t[:, 1], t[:, 2] = src, inp, dst
    return t


def _join(parts: list) -> np.ndarray:
    """The int32 rows of `parts` in order, releasing each part once it is
    copied (a lone part is returned as it is); empties the list."""
    if len(parts) == 1:
        return parts.pop()
    ends = np.cumsum([0] + [len(p) for p in parts])
    out = np.empty((ends[-1], 3), dtype=np.int32)
    for a, b in zip(ends[:-1], ends[1:]):
        out[a:b] = parts.pop(0)
    return out


def _check_rows(t: np.ndarray, ns: int, ni: int) -> bool:
    """True when the (src, input, dst) rows cast to int32 strictly increase,
    i.e. are sorted and unique.  Raises ValueError on an endpoint outside
    [0, ns) or an input outside [0, ni), NaN included.  Slices overlap by 1."""
    ordered = True
    for a in range(0, t.shape[0], _SLICE_ROWS):
        part = t[a:a + _SLICE_ROWS + 1]
        if not (part[:, ::2].min() >= 0 and part[:, ::2].max() < ns):
            raise ValueError("transition endpoint out of range")
        if not (part[:, 1].min() >= 0 and part[:, 1].max() < ni):
            raise ValueError("transition input out of range")
        d0, d1, d2 = (np.diff(part[:, k].astype(np.int32)) for k in range(3))
        ordered &= bool(np.all((d0 > 0) | ((d0 == 0) & (
            (d1 > 0) | ((d1 == 0) & (d2 > 0))))))
    return ordered


class FiniteSystem:
    """Explicit finite transition system.

    outputs       (S, d) float array; row i is the output point of state i
    initials      sorted int array of initial-state indices
    inputs        (I, mi) float array of input points (mi may be 0)
    transitions   (T, 3) int32 array of (source, input, target), kept sorted
                  lexicographically and deduplicated; S, I <= 2^31
    matrix        None, or for a deterministic system given by its
                  `successors`, the (S, I) int32 successor matrix: entry
                  (i, u) is the target of (i, u), -1 where there is none.
                  Its transitions are derived when first asked for: they
                  are its entries >= 0 in row-major order, so sorted.
    """

    def __init__(self, outputs, initials, inputs, transitions=None, *,
                 successors=None):
        outputs = np.asarray(outputs, dtype=float)
        if outputs.ndim != 2:
            raise ValueError("outputs must be a (S, d) array")
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 2:
            raise ValueError("inputs must be a (I, mi) array")
        initials = np.unique(np.asarray(initials, dtype=np.int64).reshape(-1))
        ns, ni = outputs.shape[0], inputs.shape[0]
        if max(ns, ni) > 2 ** 31:
            raise ValueError("more than 2^31 states or inputs")
        if (transitions is None) == (successors is None):
            raise ValueError("give either transitions or successors")
        self.matrix: Optional[np.ndarray] = None
        if successors is not None:
            matrix = np.asarray(successors)
            if matrix.shape != (ns, ni):
                raise ValueError("successors must be a (S, I) matrix")
            if matrix.size and not (matrix.min() >= -1
                                    and matrix.max() < ns):
                raise ValueError("successor out of range")
            self.matrix = matrix.astype(np.int32, copy=False)
        else:
            transitions = np.asarray(transitions).reshape(-1, 3)
            ordered = _check_rows(transitions, ns, ni)
            transitions = transitions.astype(np.int32, copy=False)
            if not ordered:
                order = np.lexsort((transitions[:, 2], transitions[:, 1],
                                    transitions[:, 0]))
                transitions = transitions[order]
                keep = np.ones(transitions.shape[0], dtype=bool)
                keep[1:] = np.any(np.diff(transitions, axis=0) != 0, axis=1)
                transitions = transitions[keep]
        if initials.size and (initials[0] < 0 or initials[-1] >= ns):
            raise ValueError("initial state index out of range")
        self.outputs = outputs
        self.initials = initials
        self.inputs = inputs
        self._transitions: Optional[np.ndarray] = transitions
        self._succ: Optional[np.ndarray] = None
        self._degree: Optional[np.ndarray] = None

    @property
    def transitions(self) -> np.ndarray:
        if self._transitions is None:
            rows = np.empty((self.n_transitions, 3), dtype=np.int32)
            at = 0
            for a, b in _blocks(*self.matrix.shape):
                block = self.matrix[a:b]
                src, inp = np.nonzero(block >= 0)
                rows[at:at + src.size] = _rows(src + a, inp, block[src, inp])
                at += src.size
            self._transitions = rows
        return self._transitions

    @property
    def n_states(self) -> int:
        return self.outputs.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_transitions(self) -> int:
        if self.matrix is None:
            return self._transitions.shape[0]
        return int(self.out_degree().sum())

    @property
    def output_dim(self) -> int:
        return self.outputs.shape[1]

    def same_as(self, other: "FiniteSystem") -> bool:
        """Exact equality of state outputs, initials, inputs and transitions."""
        return (np.array_equal(self.outputs, other.outputs)
                and np.array_equal(self.initials, other.initials)
                and np.array_equal(self.inputs, other.inputs)
                and np.array_equal(self.transitions, other.transitions))

    def _succ_index(self) -> np.ndarray:
        """CSR row pointers of the (sorted) transition rows by source."""
        if self._succ is None:
            self._succ = _indptr(self.transitions[:, 0], self.n_states)
        return self._succ

    def successors(self, state: int) -> np.ndarray:
        """Transitions (rows) leaving `state`."""
        indptr = self._succ_index()
        return self.transitions[indptr[state]:indptr[state + 1]]

    def out_degree(self) -> np.ndarray:
        if self.matrix is None:
            return np.diff(self._succ_index())
        if self._degree is None:
            self._degree = np.concatenate(
                [np.zeros(0, dtype=np.int64)]
                + [np.count_nonzero(self.matrix[a:b] >= 0, axis=1)
                   for a, b in _blocks(*self.matrix.shape)])
        return self._degree


def is_deterministic(s: FiniteSystem) -> bool:
    """True iff no (state, input) pair has two outgoing transitions."""
    t = s.transitions
    same = (np.diff(t[:, 0]) == 0) & (np.diff(t[:, 1]) == 0)
    return not np.any(same)


def subsystem(s: FiniteSystem, keep_states) -> FiniteSystem:
    """Restriction of `s` to a subset of states (indices), keeping all
    transitions whose endpoints survive.  State order is preserved."""
    alive = _mask(s.n_states, np.asarray(keep_states, dtype=np.int64))
    remap = np.cumsum(alive) - 1  # new index of each kept state
    initials = remap[s.initials[alive[s.initials]]]
    parts = []
    for a in range(0, s.n_transitions, _SLICE_ROWS):
        t = s.transitions[a:a + _SLICE_ROWS]
        t = t[alive[t[:, 0]] & alive[t[:, 2]]]
        parts.append(_rows(remap[t[:, 0]], t[:, 1], remap[t[:, 2]]))
    return FiniteSystem(s.outputs[alive], initials, s.inputs, _join(parts))


def _row_codes(keys: np.ndarray) -> np.ndarray:
    """Dense integer codes of the rows of keys: equal rows, equal codes.
    (A lexsort: np.unique(axis=0) is many times slower.)"""
    order = (np.lexsort(keys.T[::-1]) if keys.shape[1]
             else np.arange(keys.shape[0]))
    ranked = keys[order]
    new = np.ones(keys.shape[0], dtype=np.int64)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    codes = np.empty(keys.shape[0], dtype=np.int64)
    codes[order] = np.cumsum(new) - 1
    return codes


def _pair_candidates(s1: FiniteSystem, s2: FiniteSystem,
                     eps: float) -> Tuple[np.ndarray, np.ndarray]:
    """Output-compatible state pairs, d(H1(i), H2(j)) <= eps in the infinity
    norm, as index arrays (i, j) in lexicographic order.

    One sorted-key join.  At eps = 0 a state's key is its output.  Otherwise
    it is its grid cell floor(o / eps): s1 offers its cell and the 3^d
    neighbours, and the joined pairs are filtered by distance.  A negative
    or NaN eps raises ValueError.
    """
    o1, o2 = s1.outputs, s2.outputs
    n1, d = o1.shape
    if not eps >= 0:
        raise ValueError(f"eps must be 0 or more, not {eps}")
    if eps == 0.0:
        k1, k2, src = o1, o2, np.arange(n1)
    else:
        shifts = np.stack(np.meshgrid(*([[-1, 0, 1]] * d), indexing="ij"),
                          axis=-1).reshape(1, -1, d)
        k1 = (np.floor(o1 / eps).astype(np.int64)[:, None] + shifts
              ).reshape(-1, d)
        k2 = np.floor(o2 / eps).astype(np.int64)
        src = np.repeat(np.arange(n1), shifts.shape[1])
    codes = _row_codes(np.concatenate([k1, k2]))
    c1, c2 = codes[:len(k1)], codes[len(k1):]
    e, pos = _ranges(_indptr(c2, codes.size), c1)
    i, j = src[e], np.argsort(c2, kind="stable")[pos]
    if eps != 0.0:
        close = np.max(np.abs(o1[i] - o2[j]), axis=1) <= eps
        i, j = i[close], j[close]
    order = np.lexsort((j, i))
    return i[order], j[order]


def compose(s1: FiniteSystem, s2: FiniteSystem, eps: float) -> FiniteSystem:
    """Approximate composition of s1 and s2 at precision eps.

    States are the pairs of states with outputs within eps of each other;
    a pair steps exactly when both components step; the output of a pair is
    the output of its first (plant-side) component.

    The composed inputs are (u, v) pairs, numbered u * |V| + v.  When both
    systems are held as successor matrices and each state of s1 has at most
    one partner, as at eps = 0 with distinct outputs, the target of pair
    k = (i, j) under inputs (u, v) is the pair of P[i, u], kept when that
    pair's partner is Q[j, v]: two gathers per entry, whose kept entries
    are written out as rows in (k, u * |V| + v) order, `_SLICE_ROWS`
    entries at a time.  Otherwise the transitions are joined.  Either way
    the composition is held as rows, since few of its entries hold one.
    """
    if s1.output_dim != s2.output_dim:
        raise ValueError("systems must share the output space")
    pair_i, pair_j = _pair_candidates(s1, s2, eps)
    initials = np.flatnonzero(_mask(s1.n_states, s1.initials)[pair_i]
                              & _mask(s2.n_states, s2.initials)[pair_j])
    inputs = np.hstack([np.repeat(s1.inputs, s2.n_inputs, axis=0),
                        np.tile(s2.inputs, (s1.n_inputs, 1))])
    outputs = s1.outputs[pair_i]
    if (s1.matrix is not None and s2.matrix is not None
            and np.all(np.diff(pair_i) > 0)):
        # per s1 state, and one more that the entries -1 read, its pair and
        # its partner; -2, which no entry equals, where there is none
        pair_of = np.full(s1.n_states + 1, -1, dtype=np.int32)
        pair_of[pair_i] = np.arange(pair_i.size)
        partner = np.full(s1.n_states + 1, -2, dtype=np.int64)
        partner[pair_i] = pair_j
        parts = []
        for a, b in _blocks(pair_i.size, inputs.shape[0]):
            ti = s1.matrix[pair_i[a:b], :, None]
            tj = s2.matrix[pair_j[a:b], None]
            dst = np.where(partner[ti] == tj, pair_of[ti], -1
                           ).reshape(b - a, -1)
            k, uv = np.nonzero(dst >= 0)
            parts.append(_rows(k + a, uv, dst[k, uv]))
        return FiniteSystem(outputs, initials, inputs, _join(parts))

    # join transitions: each s1 transition meets the composed pairs sharing
    # its source, then the s2 transitions of the partner state; rows whose
    # target pair is itself a composed state are kept
    n2, i2 = np.int64(s2.n_states), np.int64(s2.n_inputs)
    pair_code = pair_i * n2 + pair_j  # ascending, as the pairs are sorted
    pairs_by_i = _indptr(pair_i, s1.n_states)
    t1, t2 = s1.transitions, s2.transitions
    widest = int(np.diff(pairs_by_i).max(initial=1))
    chunk = max(1, _SLICE_ROWS // widest)
    parts = []
    for a in range(0, t1.shape[0], chunk):
        rows = t1[a:a + chunk]
        r, k = _ranges(pairs_by_i, rows[:, 0])
        q, e2 = _ranges(s2._succ_index(), pair_j[k])
        r, k = r[q], k[q]
        dst = _find(pair_code, rows[r, 2] * n2 + t2[e2, 2])
        ok = dst >= 0
        parts.append(_rows(k[ok], rows[r[ok], 1] * i2 + t2[e2[ok], 1],
                           dst[ok]))
    return FiniteSystem(outputs, initials, inputs, _join(parts))


def nonblocking_part(s: FiniteSystem) -> FiniteSystem:
    """Maximal sub-system in which every state has an outgoing transition:
    the greatest fixpoint with one obligation per state, witnessed by the
    targets of its transitions."""
    t = s.transitions
    alive = _greatest_fixpoint(s.n_states, np.arange(s.n_states), t[:, 0],
                               t[:, 2])
    return subsystem(s, np.flatnonzero(alive))


def accessible_part(s: FiniteSystem) -> FiniteSystem:
    """Sub-system of the states reachable from some initial state."""
    seen = np.zeros(s.n_states, dtype=bool)
    wave = s.initials
    while wave.size:
        seen[wave] = True
        reached = np.unique(
            s.transitions[_ranges(s._succ_index(), wave)[1], 2])
        wave = reached[~seen[reached]]
    return subsystem(s, np.flatnonzero(seen))


def _label_free(s: FiniteSystem) -> FiniteSystem:
    """s with its input labels dropped: one input, and one transition per
    distinct (src, dst) edge."""
    n = np.int64(s.n_states)
    code = np.unique(s.transitions[:, 0] * n + s.transitions[:, 2])
    return FiniteSystem(s.outputs, s.initials, np.zeros((1, 0)),
                        _rows(code // n, 0, code % n))


def _relation(s1: FiniteSystem, s2: FiniteSystem, eps: float,
              symmetric: bool) -> Optional[Set[Tuple[int, int]]]:
    """Maximal eps-approximate simulation relation from s1 to s2 (both ways
    when symmetric), or None when some initial state is unrelated to every
    initial state of the other side (s2's side only when symmetric).  The
    relations ignore input labels, so they run on the composition of the
    label-free systems, whose states are the candidate pairs."""
    s1, s2 = _label_free(s1), _label_free(s2)
    t = compose(s1, s2, eps).transitions
    pair_i, pair_j = _pair_candidates(s1, s2, eps)
    sides = [(s1, pair_i, s2, pair_j)]
    if symmetric:
        sides.append((s2, pair_j, s1, pair_i))
    owner, wit_ob = [], []
    for s, mine, _, _ in sides:
        # pair k owes a match for each edge of its own state, to x; the
        # composed edges k -> k' with mine[k'] = x witness it
        n = np.int64(s.n_states)
        k, e = _ranges(s._succ_index(), mine)
        wit_ob.append(sum(map(len, owner)) + _find(
            k * n + s.transitions[e, 2], t[:, 0] * n + mine[t[:, 2]]))
        owner.append(k)
    alive = _greatest_fixpoint(pair_i.size, np.concatenate(owner),
                               np.concatenate(wit_ob),
                               np.tile(t[:, 2], len(sides)))
    for s, mine, other, theirs in sides:
        # every initial state is related to some initial state of the other
        related = mine[alive & _mask(other.n_states, other.initials)[theirs]]
        if not _mask(s.n_states, related)[s.initials].all():
            return None
    return set(zip(pair_i[alive].tolist(), pair_j[alive].tolist()))


def check_simulation(s1: FiniteSystem, s2: FiniteSystem,
                     eps: float) -> Optional[Set[Tuple[int, int]]]:
    """Maximal eps-approximate simulation relation from s1 to s2, or None
    when some initial state of s1 cannot be related to an initial of s2."""
    return _relation(s1, s2, eps, symmetric=False)


def check_bisimulation(s1: FiniteSystem, s2: FiniteSystem,
                       eps: float) -> Optional[Set[Tuple[int, int]]]:
    """Maximal eps-approximate bisimulation relation between s1 and s2, or
    None when the mutual initial-state conditions fail."""
    return _relation(s1, s2, eps, symmetric=True)
