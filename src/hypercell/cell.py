"""Exact construction of the K-cell of a sampled hyperplane process.

The K-cell is the intersection of all halfspaces that contain the body
and are bounded by process hyperplanes missing it.  Although the process
is infinite, only hyperplanes near the body matter: the construction
samples hyperplanes in growing annuli between the body and a window, and
stops once every cell vertex lies strictly inside the window.  Then no
hyperplane outside the window can cut the cell, so the result equals the
K-cell of the full process exactly; the final window radius is the
certificate.

Windows grow through the fixed schedule rho_0 * growth^k.  Ring k holds
the hyperplanes whose offset t exceeds h(body, u) by a gap in
(rho_{k-1}, rho_k] ((0, rho_0] for k = 0), so it is sampled from the body
and its two radii alone.  Each ring gets its own keyed substream, so
enlarging the window extends a sampled configuration instead of
resampling it.  That makes the certificate property testable: building
again with extra rings reproduces the same vertices.  Along an increasing intensity grid the window is certified
once, for the cell at the smallest intensity; each further level adds an
independent Poisson band of the intensity increment, sampled only as far
from the body as the current cell reaches, since no hyperplane farther
out can cut it.

The cell is computed inside an axis box that only has to hold it.  A
build for ring r starts from the box corners with all rings so far, in
the box of window round r + 2; the next rings that fit are inserted into
the current cell, and a ring past that round starts again in a larger
box.  This is exact: a vertex on a box face lies at distance at least the
box radius >= rho_r from the body, so it never passes the window test at
rho_r, and a certified cell lies strictly inside body + rho_r * B, inside
every box used.  So the round count and the certified cell are those of
a build in the box of each round's own window, and within one box a
halfspace that cuts no vertex stays redundant as constraints are added.

The planar fast path intersects halfplanes through polar duality (the
convex hull of the points u/t).  One loop on Python floats turns each
hull edge into a vertex, with the IEEE operations of the equivalent
array code and without its per-call cost on some 20 rows; only a cell
with two adjacent vertices that an exact screen cannot keep apart goes
to the array merge.  A planar rebuild of more than 2 * SCREEN_NEAR lines
first intersects its SCREEN_NEAR nearest lines in the same box and hands
the hull only those and the lines that cut a vertex of that larger cell,
in row order (a throw-away step in the spirit of Akl & Toussaint 1978):
a line that cuts no vertex of a larger cell is redundant for every
smaller one, so the hull and the active constraints stay those of the
whole input.  For d >= 3 an incremental vertex
enumerator starts from the box corners and inserts the halfspaces by
increasing offset.  A new vertex ends an edge that leaves a cut vertex,
and that edge lies on d-1 planes through the cut vertex (the adjacency
step of the double description method: Motzkin, Raiffa, Thompson &
Thrall 1953; Fukuda & Prodon 1996).  So each halfspace that cuts a
current vertex is solved together with the (d-1)-subsets of the planes
incident to a cut vertex, all in one stacked `np.linalg.solve`.  The
subsets are listed from each cut vertex's incidence row: the
`itertools.combinations` of its planes, simple and degenerate vertices
alike, go into one Python set, and its sorted tuples come in
`itertools.combinations` order.  So an insertion costs by its cut
vertices, not by the planes of the cell.  A stack that holds exactly
singular systems (planes through a degenerate vertex, or both box planes
+e_j and -e_j of a thin box) is solved again without them, in one stacked
call, the rows masked by the sign of their determinant.  The final merge
of nearly equal vertices compares only the vertices the insertions added
(those of a given start cell already lie apart), and of those only the
pairs that one sort along a fixed direction puts within reach of each
other, so it costs a sort where nearly equal vertices are rare.  Window
rings inside the box and intensity bands insert their cutting halfspaces
into the current cell: d >= 3 starts from its vertices, the planar path
computes its dual hull again from the active constraints and the new ones.
A brute-force subset enumerator, which shares no code with either path
(its merge of nearly equal vertices included), is kept as the oracle for
both: with `debug_oracle=True` every intersection a cell build computes,
in any dimension, is checked against it.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from hypercell import _kernels
from hypercell.errors import WindowOverflow
# the sampler is a module attribute of its own, so a tracer or a test can wrap it here
from hypercell.process import ProcessParams, sample_annulus as _sample_annulus_arrays
from hypercell.rng import as_keyed_stream, is_count, poisson_variate

FEAS_TOL = 1e-9
MERGE_TOL = 1e-9  # vertices closer than MERGE_TOL * (1 + |v|) are one vertex
SOLVE_RESIDUAL_TOL = 1e-7
ORACLE_CHUNK = 2048  # d-subsets per stacked solve in the brute-force oracle
# a build for window round r uses the axis box of round r + _LOOK_AHEAD, so the next
# rings go into the current cell; a 3-d unit ball at intensity 8 certifies in 2 or
# 3 rounds (129 and 71 of 200 cells), all within the first box
_LOOK_AHEAD = 2
# a planar rebuild of more than 2 * SCREEN_NEAR lines first intersects its SCREEN_NEAR
# nearest; a `rate` cell keeps 29.6 active lines on average (seed 1)
SCREEN_NEAR = 32

__all__ = [
    "WindowPolicy",
    "CellStats",
    "CellPolytope",
    "Intersection",
    "halfspace_intersection",
    "halfspace_intersection_bruteforce",
    "k_cell",
    "cells_along_intensity",
]


@dataclass(frozen=True)
class WindowPolicy:
    """Adaptive window schedule for cell construction.

    `initial_radius` defaults to half the body diameter; radii then grow
    geometrically.  Overflowing `max_rounds` raises instead of returning
    a truncated (downward-biased) cell.
    """

    initial_radius: float | None = None
    growth_factor: float = 2.0
    max_rounds: int = 40

    def __post_init__(self):
        # a string would otherwise fail in a comparison below, and a bool pass as 0 or 1
        radius = 1.0 if self.initial_radius is None else self.initial_radius
        for name, value in (("initial radius", radius), ("growth factor", self.growth_factor)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a number, got {value!r}")
        if self.initial_radius is not None and not self.initial_radius > 0:
            raise ValueError(f"initial radius must be positive, got {self.initial_radius}")
        if not self.growth_factor > 1.0:
            raise ValueError("growth factor must exceed 1")
        if not is_count(self.max_rounds, 1):
            raise ValueError(f"max_rounds must be an integer >= 1, got {self.max_rounds!r}")

    def radius(self, body, round_index: int) -> float:
        rho0 = self.initial_radius if self.initial_radius is not None else body.diameter / 2.0
        return rho0 * self.growth_factor**round_index


@dataclass
class CellStats:
    sampled: int = 0
    active: int = 0
    rounds: int = 0
    hausdorff: float = math.nan  # largest vertex distance from the body


@dataclass
class CellPolytope:
    """The K-cell: active halfspaces, vertices, and the window certificate."""

    normals: np.ndarray  # (m, d) active constraint normals
    offsets: np.ndarray  # (m,)
    vertices: np.ndarray  # (k, d)
    defining: np.ndarray  # (k, d) indices into the active constraints
    window_radius: float
    stats: CellStats = field(default_factory=CellStats)

    def to_json(self) -> dict:
        return {
            "halfspaces": np.column_stack([self.normals, self.offsets]).tolist(),
            "vertices": self.vertices.tolist(),
            "defining": self.defining.tolist(),
            "window_radius": self.window_radius,
            "stats": {
                "sampled": self.stats.sampled,
                "active": self.stats.active,
                "rounds": self.stats.rounds,
                "hausdorff": self.stats.hausdorff,
            },
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CellPolytope":
        hs = np.asarray(obj["halfspaces"], dtype=np.float64)
        stats = obj.get("stats", {})
        return cls(
            normals=hs[:, :-1],
            offsets=hs[:, -1],
            vertices=np.asarray(obj["vertices"], dtype=np.float64),
            defining=np.asarray(obj["defining"], dtype=np.int64),
            window_radius=float(obj["window_radius"]),
            stats=CellStats(
                stats.get("sampled", 0),
                stats.get("active", 0),
                stats.get("rounds", 0),
                stats.get("hausdorff", math.nan),
            ),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json())


# ---------------------------------------------------------------------------
# halfspace intersection kernels


@dataclass
class Intersection:
    """Vertex description of an intersection of halfspaces and an axis box.

    `defining` indexes the concatenated constraint array: the halfspaces,
    then the box planes e_1, ..., e_d, -e_1, ..., -e_d; `n_halfspaces`
    marks the split.  A vertex supported by a box plane signals that the
    bare halfspace intersection recedes there (unbounded without the box).
    """

    vertices: np.ndarray
    defining: np.ndarray
    n_halfspaces: int


def _axis_box(body, rho: float) -> np.ndarray:
    """Offsets of the axis box of the window body + rho*B, along `_box_normals`."""
    return body.support_batch(_box_normals(body.dim)) + rho


def halfspace_intersection(normals, offsets, box_offsets, start: Intersection | None = None) -> Intersection:
    """Vertices of the intersection of halfspaces {<u,x> <= t} with an axis box.

    The box is {<e_j, x> <= box_offsets[j], <-e_j, x> <= box_offsets[d + j]},
    its 2d planes `_box_normals(d)`, so d = len(box_offsets) // 2; an odd
    count or fewer than 4 offsets raises ValueError.  All offsets must be
    positive (origin interior), and every halfspace normal and offset
    finite.  The planar path uses polar duality.  Higher dimensions run
    the incremental enumerator: halfspaces are inserted by increasing
    offset, exact copies of an earlier halfspace are skipped, and each
    insertion that cuts a vertex solves, in one stacked solve
    (`_solve_subsets`), the (d-1)-subsets of the planes through a cut
    vertex (its defining planes and those with slack at most FEAS_TOL
    (1 + |t|), t the plane's offset), in `itertools.combinations` order.
    They are listed per cut vertex, the combinations of its row of
    incident planes, into one set that sorts them, so the cost of an
    insertion grows with its cut vertices, not with the planes of the
    cell.  Subsets whose system is singular or whose solution leaves a
    residual above SOLVE_RESIDUAL_TOL are skipped.  The final merge
    compares only the pairs of vertices that a sort along a fixed
    direction puts within reach of each other (`_kernels.keep_first`).

    `start`, the intersection of the first `start.n_halfspaces`
    halfspaces with the same box, as this function returned it, lets
    d >= 3 begin from its vertices instead of the box corners and insert
    only the remaining halfspaces; its vertices lie pairwise apart, so
    the final merge compares only the vertices added since.  The planar
    path computes the whole dual hull either way.
    """
    U = np.atleast_2d(np.asarray(normals, dtype=np.float64))
    T = np.asarray(offsets, dtype=np.float64)
    BT = np.asarray(box_offsets, dtype=np.float64)
    d = _box_dim(BT)
    if not (np.isfinite(U).all() and np.isfinite(T).all()):
        raise ValueError("halfspace normals and offsets must be finite")
    if U.shape[0] and T.min() <= 0 or not BT.min() > 0:  # a NaN box offset fails too
        raise ValueError("halfspace offsets must be positive (origin interior)")
    if d == 2:
        return _intersect_dual_2d(U, T, BT)
    return _intersect_incremental(U, T, BT, start)


def _box_dim(BT: np.ndarray) -> int:
    """The dimension d of an axis box given by its 2d offsets, d >= 2."""
    if BT.ndim != 1 or len(BT) % 2 or len(BT) < 4:
        raise ValueError(f"a box takes 2d >= 4 offsets, for e_1, ..., e_d, -e_1, ..., -e_d; got shape {BT.shape}")
    return len(BT) // 2


def _intersect_dual_2d(U, T, BT) -> Intersection:
    A = np.vstack([U, _box_normals(2)])
    b = np.concatenate([T, BT])
    D = A / b[:, None]
    hull, xs, ys = _kernels.hull_chain(D)
    # one vertex per hull edge, on Python floats: they round each operation as
    # float64 arrays do, without the per-call cost of NumPy on some 20 rows
    defin, flat = [], []
    for i, j in zip(hull, hull[1:] + hull[:1]):
        x0, y0, x1, y1 = xs[i], ys[i], xs[j], ys[j]
        det = x0 * y1 - y0 * x1
        if abs(det) >= 1e-14:  # else coincident directions: tangency, no vertex
            defin.append((i, j))
            flat += ((y1 - y0) / det, (x0 - x1) / det)
    V = np.array(flat, dtype=np.float64).reshape(-1, 2)
    defin = np.array(defin, dtype=np.int64).reshape(-1, 2)
    if _may_merge(flat):
        V, defin = _merge_adjacent(V, defin)
    return Intersection(V, defin, len(T))


def _may_merge(flat: list) -> bool:
    """Whether some planar vertex may lie within MERGE_TOL of its cyclic predecessor.

    `flat` holds the coordinates x0, y0, x1, y1, ...  Since hypot(dx, dy)
    >= max(|dx|, |dy|) and hypot(px, py) <= |px| + |py|, a gap with
    max(|dx|, |dy|) > MERGE_TOL (1 + |px| + |py|) merges nothing; the
    factor 2 on that bound absorbs the rounding of both sides.  Only a
    pair that fails this screen sends the cell to `_merge_adjacent`,
    whose `np.hypot` decides.
    """
    if not flat:
        return False
    px, py = flat[-2], flat[-1]
    for k in range(0, len(flat), 2):
        x, y = flat[k], flat[k + 1]
        if max(abs(x - px), abs(y - py)) <= 2.0 * MERGE_TOL * (1.0 + abs(px) + abs(py)):
            return True
        px, py = x, y
    return False


def _merge_adjacent(V: np.ndarray, D: np.ndarray):
    """Merge each planar vertex into its cyclic predecessor when within MERGE_TOL.

    Three lines concurrent only up to rounding can leave a dual point a
    hair outside the segment of its hull neighbours, which yields two
    vertices a few ulps apart, next to each other in hull order.  A pair
    across the wrap merges the last vertex into the first, so V[0] stays.
    """
    prev = V[np.arange(-1, len(V) - 1)]
    dup = np.hypot(*(V - prev).T) <= MERGE_TOL * (1.0 + np.hypot(*prev.T))
    if not dup.any():
        return V, D
    dup[-1] |= dup[0]
    dup[0] = False
    return V[~dup], D[~dup]


def _intersect_incremental(U, T, BT, start: Intersection | None = None) -> Intersection:
    d = len(BT) // 2
    n = len(T)
    A = np.vstack([U, _box_normals(d)])
    b = np.concatenate([T, BT])
    touch = FEAS_TOL * (1.0 + np.abs(b))  # the slack within which a plane passes through a vertex
    if start is None:
        corners = n + _corner_planes(d)
        X, ok = _solve_subsets(A, b, corners)
        V, D, n_old, apart = X[ok], corners[ok], 0, 0
    else:
        # the box plane ids of the given cell follow the new constraint count;
        # its vertices, a result of this function, lie pairwise apart
        n_old = start.n_halfspaces
        V, D = start.vertices, start.defining + (n - n_old) * (start.defining >= n_old)
        apart = len(V)
    # a later exact copy of a halfspace adds nothing; inserted, a vertex it
    # cuts by rounding would come back with points solved from both copies
    copy = _exact_copies(np.column_stack([U, T]))
    # the planes of the current cell: the start's, the box's, and each one inserted
    present = np.concatenate([~copy[:n_old], np.zeros(n - n_old, dtype=bool), np.ones(2 * d, dtype=bool)])
    order = n_old + np.argsort(T[n_old:])
    for i in order[~copy[order]].tolist():
        u, t = A[i], b[i]
        viol = V @ u > t
        if not viol.any():
            continue
        # a new vertex ends an edge that leaves a cut vertex, and that edge
        # lies on d - 1 planes through the cut vertex: those its `defining`
        # row names, and any other plane of the cell with slack at most
        # FEAS_TOL (1 + |t|) there, since where more than d planes meet
        # `defining` names only d of them
        cur = present.nonzero()[0]
        A_cur, b_cur, cut = A[cur].T, b[cur], V[viol]
        inc = b_cur - cut @ A_cur <= touch[cur]
        inc[np.arange(len(cut))[:, None], cur.searchsorted(D[viol])] = True
        sub = _vertex_subsets(inc, d - 1)
        idx = np.empty((len(sub), d), dtype=np.int64)
        idx[:, 0] = i
        idx[:, 1:] = cur[sub]
        X, ok = _solve_subsets(A, b, idx)
        new = X[ok]
        slack = b_cur - new @ A_cur
        ok[ok] = (slack.min(axis=1) >= -FEAS_TOL * (1.0 + abs(t))) & (new @ u <= t + FEAS_TOL)
        if apart:  # the start's vertices stay in front
            apart -= np.count_nonzero(viol[:apart])
        kept = ~viol
        V = np.concatenate([V[kept], X[ok]])
        D = np.concatenate([D[kept], idx[ok]])
        present[i] = True
        if len(V) == 0:
            break
    V, D = _dedupe_after(V, D, apart)
    return Intersection(V, D, n)


@functools.cache
def _box_normals(d: int) -> np.ndarray:
    return np.vstack([np.eye(d), -np.eye(d)])


@functools.cache
def _corner_planes(d: int) -> np.ndarray:
    """Box plane ids, less the halfspace count, of the 2^d box corners.

    Plane j is +e_j and d + j is -e_j; the corners run from (-1, ..., -1)
    to (1, ..., 1) in product order.
    """
    return np.arange(d) + d * np.array(list(itertools.product((1, 0), repeat=d)))


def _exact_copies(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows equal to an earlier row.

    One stable `lexsort` puts equal rows next to each other in input
    order, so an adjacent-row compare marks all but the first of each
    group, the one `np.unique(rows, axis=0, return_index=True)` returns.
    """
    order = np.lexsort(rows.T[::-1])
    srt = rows[order]
    copy = np.zeros(len(rows), dtype=bool)
    copy[order[1:][(srt[1:] == srt[:-1]).all(axis=1)]] = True
    return copy


def _vertex_subsets(inc: np.ndarray, k: int) -> np.ndarray:
    """The k-subsets of the columns of `inc` that hold True together in some row.

    Rows are vertices and columns planes, so these are the plane subsets
    through a common vertex, listed vertex by vertex: each row's sorted
    column ids give their `itertools.combinations`, simple and degenerate
    vertices alike, into one Python set.  Sorted, the tuples come in
    `itertools.combinations` order.  Returns them as rows of sorted ids.
    """
    sub = set()
    for row in inc:
        sub.update(itertools.combinations(row.nonzero()[0].tolist(), k))
    return np.fromiter(itertools.chain.from_iterable(sorted(sub)), np.int64, k * len(sub)).reshape(-1, k)


def _solve_subsets(A: np.ndarray, b: np.ndarray, idx: np.ndarray):
    """Solve A[idx[k]] x = b[idx[k]] for every row k.

    One stacked `np.linalg.solve` covers all rows; it runs the same LAPACK
    routine per system as a lone solve, so the solutions are the same.  An
    exactly singular system makes the stack raise; then the sign of
    `np.linalg.slogdet`, from the same LU factorization, is 0 (a zero
    pivot) exactly for the systems a lone solve refuses, and one stacked
    solve of the others cannot raise.  A refused row stays NaN.  Returns
    the solutions and a mask of those kept (finite, residual within
    SOLVE_RESIDUAL_TOL * (1 + max|b|)); the residual runs on the whole
    stack unless some solution is not finite.
    """
    M, r = A[idx], b[idx]
    try:
        X = np.linalg.solve(M, r[..., None])[..., 0]
    except np.linalg.LinAlgError:
        with np.errstate(invalid="ignore"):  # a NaN pivot warns, and gives sign 0 or NaN
            regular = np.abs(np.linalg.slogdet(M)[0]) == 1.0
        X = np.full(r.shape, np.nan)
        X[regular] = np.linalg.solve(M[regular], r[regular][..., None])[..., 0]
    ok = np.isfinite(X).all(axis=1)
    rows = slice(None) if ok.all() else ok
    residual = np.abs(np.matmul(M[rows], X[rows][..., None])[..., 0] - r[rows]).max(axis=1)
    ok[rows] = residual <= SOLVE_RESIDUAL_TOL * (1.0 + np.abs(r[rows]).max(axis=1))
    return X, ok


def _dedupe_after(V: np.ndarray, D: np.ndarray, apart: int):
    """Drop each vertex within MERGE_TOL * (1 + |w|) of an earlier kept vertex w.

    Greedy keep-first in row order; the first `apart` rows, known to lie
    pairwise apart, are all kept.  `_kernels.keep_first` compares only the
    pairs that one sort along a fixed direction puts near each other, so
    the merge costs a sort where nearly equal vertices are rare, with the
    greedy result of comparing every pair.
    """
    if len(V) <= max(apart, 1):
        return V, D
    keep = _kernels.keep_first(V, MERGE_TOL * (1.0 + np.linalg.norm(V, axis=1)), apart)
    return V[keep], D[keep]


def halfspace_intersection_bruteforce(normals, offsets, box_offsets) -> Intersection:
    """Oracle: enumerate every d-subset, solve, filter by feasibility.

    The box is that of `halfspace_intersection`, its normals spelled here.
    Every d-subset of the halfspace and box planes is enumerated, in
    `itertools.combinations` order and in chunks of ORACLE_CHUNK: each
    chunk is solved by one stacked `np.linalg.solve` and filtered for
    feasibility by one matmul against all constraints.  The batch keeps
    the per-subset rules: a subset that `np.linalg.solve` rejects as
    singular is skipped, a non-finite solution or one with residual above
    SOLVE_RESIDUAL_TOL * (1 + max|b|) is dropped, and a kept vertex
    satisfies A x <= b + FEAS_TOL (1 + |b|).  Later exact copies of a
    halfspace are left out; `defining` indexes the full input.  Nearly
    equal vertices merge by `_merge_pairwise`.  It uses nothing from
    `_intersect_dual_2d`, `_intersect_incremental` or `_kernels`, so it
    stays an independent check of both fast paths.
    """
    U = np.atleast_2d(np.asarray(normals, dtype=np.float64))
    T = np.asarray(offsets, dtype=np.float64)
    BT = np.asarray(box_offsets, dtype=np.float64)
    d = _box_dim(BT)
    BU = np.vstack([np.eye(d), -np.eye(d)])
    # only the first of exact copies of a halfspace takes part: the system of
    # two copies is singular only up to rounding, and its solution can be a
    # feasible point inside an edge
    first = np.sort(np.unique(np.column_stack([U, T]), axis=0, return_index=True)[1])
    rows = np.concatenate([first, len(T) + np.arange(len(BT))])
    A = np.vstack([U, BU])[rows]
    b = np.concatenate([T, BT])[rows]
    bound = b + FEAS_TOL * (1.0 + np.abs(b))
    combos = itertools.combinations(range(len(b)), d)
    verts = []
    defin = []
    while True:
        flat = itertools.chain.from_iterable(itertools.islice(combos, ORACLE_CHUNK))
        idx = np.fromiter(flat, dtype=np.int64).reshape(-1, d)
        if len(idx) == 0:
            break
        X, ok = _solve_each(A[idx], b[idx])
        ok[ok] = np.all(X[ok] @ A.T <= bound, axis=1)
        verts.append(X[ok])
        defin.append(idx[ok])
    if not verts:  # fewer constraints than dimensions
        return Intersection(np.empty((0, d)), np.empty((0, d), dtype=np.int64), len(T))
    V, D = _merge_pairwise(np.concatenate(verts), np.concatenate(defin))
    return Intersection(V, rows[D], len(T))


def _merge_pairwise(V: np.ndarray, D: np.ndarray):
    """The oracle's merge: `_dedupe_after(V, D, 0)` by plain keep-first in row order.

    Row i goes when it lies within MERGE_TOL * (1 + |w|) of a kept row w
    before it; each row is compared with every row kept so far, so memory
    grows with the rows kept, not with the pairs.
    """
    thr = MERGE_TOL * (1.0 + np.linalg.norm(V, axis=1))
    kept = []
    for i in range(len(V)):
        if not (np.linalg.norm(V[i] - V[kept], axis=1) <= thr[kept]).any():
            kept.append(i)
    return V[kept], D[kept]


def _solve_each(M: np.ndarray, r: np.ndarray):
    """Solve every system M[i] x = r[i] as a lone `np.linalg.solve` would.

    Returns the solutions and a mask of those kept.  One singular system
    makes a stacked solve raise, so systems whose determinant is
    negligible against the product of their row norms are solved one at a
    time and skipped where LAPACK rejects them; should the stack raise
    anyway, the whole chunk takes that loop.  Every system goes through
    the same LAPACK routine either way, so the solutions do not depend on
    the split.
    """
    X = np.full(r.shape, np.nan)
    row_scale = np.prod(np.linalg.norm(M, axis=2), axis=1)
    lone = np.abs(np.linalg.det(M)) <= 1e-8 * row_scale
    try:
        X[~lone] = np.linalg.solve(M[~lone], r[~lone][..., None])[..., 0]
    except np.linalg.LinAlgError:
        lone[:] = True
    for i in np.flatnonzero(lone):
        try:
            X[i] = np.linalg.solve(M[i], r[i])
        except np.linalg.LinAlgError:
            pass  # stays NaN and is dropped below
    ok = np.all(np.isfinite(X), axis=1)
    residual = np.abs(np.matmul(M[ok], X[ok][..., None])[..., 0] - r[ok]).max(axis=1)
    ok[ok] = residual <= SOLVE_RESIDUAL_TOL * (1.0 + np.abs(r[ok]).max(axis=1))
    return X, ok


# ---------------------------------------------------------------------------
# K-cell construction


class _CellBuilder:
    """Exact cell state: the active constraints and their intersection with one axis box.

    `rebuild` starts from the box corners; `add_incremental` inserts into
    the current cell, in the same box, so cells only shrink between
    rebuilds.  The box only has to hold the cell: a vertex on a box face
    lies at distance at least the box radius from the body, so a box of
    radius at least rho never lets a vertex pass the window test at rho,
    and a cell that passes it lies strictly inside body + rho * B, which
    lies inside the box.  So the certification decision and the certified
    cell do not depend on which such box is used.
    """

    def __init__(self, body, dim: int, debug_oracle: bool = False):
        self.body = body
        self.dim = dim
        self.debug_oracle = debug_oracle
        self.U = self.T = self._box = None  # set by `rebuild`
        self.inter: Intersection | None = None
        self._margins: np.ndarray | None = None  # of `inter`, once computed

    def rebuild(self, U, T, box):
        """Build the cell of constraints U, T from scratch inside the axis box of offsets `box`.

        In the plane, more than 2 * SCREEN_NEAR lines are screened first:
        the lines with the SCREEN_NEAR smallest offsets, ties included,
        are intersected in the same box, and only they and the lines that
        cut a vertex of that larger cell go on to the dual hull, in their
        row order.  A line that cuts no vertex of a larger cell in the box
        is redundant for every smaller one (the rule `add_incremental`
        relies on), so the hull, its vertices and the active constraints
        are those of the unscreened call.  A `rate` rebuild at intensity
        2^8 has on average 512 (ball) or 724 (square) lines and its cell
        keeps about 30, so most lines never reach the hull.
        """
        self._box = box
        if self.dim == 2 and len(T) > 2 * SCREEN_NEAR:
            near = T <= np.partition(T, SCREEN_NEAR - 1)[SCREEN_NEAR - 1]
            keep = near | _kernels.cut_mask(U, T, self._checked(U[near], T[near], None).vertices)
            U, T = U[keep], T[keep]
        self.U, self.T = U, T
        self._intersect(None)

    def add_incremental(self, U_new, T_new):
        """Insert the constraints that cut the current cell into it, in the same box.

        A halfspace that cuts no vertex is redundant for the cell within
        the box, and stays so as constraints are added; the others go into
        the current cell (`start=` in d >= 3, the dual hull of the compacted
        constraints in the plane).
        """
        if len(T_new) == 0:
            return
        cutting = _kernels.cut_mask(U_new, T_new, self.inter.vertices)
        if not cutting.any():
            return
        self.U = np.vstack([self.U, U_new[cutting]])
        self.T = np.concatenate([self.T, T_new[cutting]])
        self._intersect(self.inter)

    def _intersect(self, start: Intersection | None):
        self.inter = self._checked(self.U, self.T, start)
        self._margins = None
        self._compact()

    def _checked(self, U, T, start: Intersection | None) -> Intersection:
        """`halfspace_intersection` of U, T in the current box, checked against the oracle if asked."""
        inter = halfspace_intersection(U, T, self._box, start)
        if self.debug_oracle:
            self._cross_check(inter, U, T)
        return inter

    def _cross_check(self, inter: Intersection, U, T):
        oracle = halfspace_intersection_bruteforce(U, T, self._box)
        if not _vertex_sets_match(inter.vertices, oracle.vertices, 1e-7):
            raise AssertionError("fast-path intersection deviates from the subset oracle")

    def _compact(self):
        """Keep only the constraints through some vertex (the active set).

        In d >= 3 a constraint also counts when its slack at a vertex is
        within FEAS_TOL (1 + |t|): where more than d planes meet at a
        vertex, `defining` names only d of them.  The planar dual hull names
        both lines of every edge, and a line that touches the cell at one
        vertex only is redundant.
        """
        # the halfspaces that define a vertex; box plane ids come after len(T)
        named = np.bincount(self.inter.defining.ravel(), minlength=len(self.T))[: len(self.T)] > 0
        if self.dim > 2:
            slack = self.T - self.inter.vertices @ self.U.T
            named |= (slack <= FEAS_TOL * (1.0 + np.abs(self.T))).any(axis=0)
        act = np.flatnonzero(named)
        remap = -np.ones(len(self.T) + 2 * self.dim, dtype=np.int64)
        remap[act] = np.arange(len(act))
        # box plane ids shift to follow the new constraint count
        remap[len(self.T):] = np.arange(len(act), len(act) + 2 * self.dim)
        self.inter = Intersection(
            self.inter.vertices, remap[self.inter.defining], len(act)
        )
        self.U = self.U[act]
        self.T = self.T[act]

    def margins(self) -> np.ndarray:
        """Distance from the body to each current vertex.

        Kept until the cell changes, so the window test, the cell's
        Hausdorff distance and the next band's reach share one evaluation.
        """
        if self._margins is None:
            V = self.inter.vertices
            self._margins = self.body.distance_batch(V) if len(V) else np.empty(0)
        return self._margins


def _vertex_sets_match(A: np.ndarray, B: np.ndarray, tol: float) -> bool:
    """Whether each row a of A, in order, has a nearest unused row of B within tol * (1 + |a|).

    The distance matrix is computed once; the greedy matching then runs
    row by row on it.
    """
    if len(A) != len(B):
        return False
    if len(A) == 0:
        return True
    dist = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
    match = np.empty(len(A), dtype=np.int64)
    used = np.zeros(len(B), dtype=bool)
    for i, row in enumerate(dist):
        match[i] = np.argmin(np.where(used, np.inf, row))
        used[match[i]] = True
    return not np.any(dist[np.arange(len(A)), match] > tol * (1.0 + np.linalg.norm(A, axis=1)))


def _finalize(builder: _CellBuilder, rho: float, sampled: int, rounds: int) -> CellPolytope:
    inter = builder.inter
    stats = CellStats(
        sampled=sampled,
        active=len(builder.T),
        rounds=rounds,
        hausdorff=float(builder.margins().max()),
    )
    return CellPolytope(
        normals=builder.U.copy(),
        offsets=builder.T.copy(),
        vertices=inter.vertices.copy(),
        defining=inter.defining.copy(),
        window_radius=rho,
        stats=stats,
    )


def cells_along_intensity(
    params_base: ProcessParams,
    body,
    gamma_grid,
    policy: WindowPolicy | None = None,
    stream_key=0,
    debug_oracle: bool = False,
    extra_rings: int = 0,
) -> list[CellPolytope]:
    """Coupled K-cells for every intensity in an increasing grid.

    One realization of the embedded process serves all intensities: the
    process at gamma_j is the one at gamma_1 plus independent Poisson
    bands of intensity gamma_i - gamma_{i-1}, i <= j, so the cells are
    nested.  The cell at gamma_1 fixes the window certificate: window
    ring r (gaps in (rho_{r-1}, rho_r]) is sampled at gamma_1 from its
    own keyed substream, and rings are added until every vertex lies
    strictly inside the window radius rho (`extra_rings` adds more, used
    by certificate tests).  Band j is sampled only up to reach_j, the
    largest vertex distance of the cell at gamma_{j-1} plus FEAS_TOL:
    that cell lies in body + reach_j * B, so a hyperplane at a larger gap
    misses it and cannot cut any later cell.  The band's hyperplanes with
    gap in (reach_j, rho] are counted but never placed: their Poisson
    counts are drawn after all bands, so `stats.sampled` is still the
    number of process hyperplanes in the window born by gamma_j, and
    extra rings leave every cell unchanged.  Each cell records its
    Hausdorff distance from the body, its largest vertex distance, as
    `stats.hausdorff`; one evaluation of those distances also serves the
    window test and the next band's reach.  `stream_key` is an int seed
    or KeyedStream.
    """
    grid = [float(g) for g in gamma_grid]
    if not all(g > 0 for g in grid) or not all(b > a for a, b in zip(grid, grid[1:])):
        raise ValueError("gamma grid must be positive and strictly increasing")
    policy = policy or WindowPolicy()
    key = as_keyed_stream(stream_key)
    params_1 = params_base.with_gamma(grid[0])
    rings_U, rings_T = [], []
    builder = _CellBuilder(body, body.dim, debug_oracle)
    box_round = -1  # the window round whose axis box holds the current cell

    def add_ring(r: int):
        nonlocal box_round
        r_in = 0.0 if r == 0 else policy.radius(body, r - 1)
        r_out = policy.radius(body, r)
        U, T = _sample_annulus_arrays(params_1, body, r_in, r_out, key.child("ring", r))
        rings_U.append(U)
        rings_T.append(T)
        if r <= box_round:
            builder.add_incremental(U, T)
        else:
            # a box that holds window r must grow: start again from all rings
            box_round = r + _LOOK_AHEAD
            box = _axis_box(body, policy.radius(body, box_round))
            builder.rebuild(np.vstack(rings_U), np.concatenate(rings_T), box)

    # phase 1: certify the largest cell (smallest intensity)
    for r in range(policy.max_rounds):
        add_ring(r)
        margins = builder.margins()
        if len(margins) and margins.max() < policy.radius(body, r) - FEAS_TOL:
            break
    else:
        raise WindowOverflow(policy.max_rounds, policy.radius(body, policy.max_rounds - 1))
    rounds = r + 1 + extra_rings
    for r in range(r + 1, rounds):
        add_ring(r)

    rho_final = policy.radius(body, rounds - 1)
    sampled = sum(len(T) for T in rings_T)
    cells = [_finalize(builder, rho_final, sampled, rounds)]

    # phase 2: each band only adds constraints, within the reach of the cell
    rng = key.child("bands")
    beyond = []
    for g_prev, g in zip(grid, grid[1:]):
        reach = min(builder.margins().max() + FEAS_TOL, rho_final)
        U, T = _sample_annulus_arrays(params_base.with_gamma(g - g_prev), body, 0.0, reach, rng)
        sampled += len(T)
        builder.add_incremental(U, T)
        cells.append(_finalize(builder, rho_final, sampled, rounds))
        beyond.append(2.0 * (g - g_prev) * (rho_final - reach))
    # drawn last: the masses depend on rho_final, so an extra window ring
    # changes these counts but no placed hyperplane
    unplaced = 0
    for z, mass in zip(cells[1:], beyond):
        unplaced += poisson_variate(rng, mass)
        z.stats.sampled += unplaced
    return cells


def k_cell(
    params: ProcessParams,
    body,
    policy: WindowPolicy | None = None,
    stream_key=0,
    debug_oracle: bool = False,
    extra_rings: int = 0,
) -> CellPolytope:
    """Exact K-cell at a single intensity (see `cells_along_intensity`)."""
    return cells_along_intensity(
        params,
        body,
        [params.gamma],
        policy,
        stream_key,
        debug_oracle,
        extra_rings,
    )[0]
