"""Convex bodies with closed-form support functions.

One body model: every body is K = conv(V) + rB, a polytope core plus a
ball of radius r >= 0.  `Polytope` has r = 0, `Ball` has the point core
{0}, and `BallSum` has any core (polytope, segment or point) and r > 0;
each carries its core `vertices` and `radius`, and a planar one its
core's CCW hull `hull_vertices`.  The family is closed under outer
parallel sets (h(K + rB, u) = h(K, u) + r, which is how
`process.sample_annulus` bounds an annulus by two distances from K),
every member has an exactly evaluable support function, and the
boundary of a planar member decomposes into arcs and segments, which
the rest of the package leans on heavily.  Code that needs the shape
reads (V, r), never the class.

Constructors translate each body so the vertex centroid (or ball center)
sits at the origin; all downstream code assumes an interior origin.
A ball exists in every dimension; a polytope or polytope + ball sum in
d = 2 and 3 only (`UnsupportedBody` beyond).  Distances and projections
to a polytope core go through one kernel, `_kernels.polygon_project`,
which returns the distance and the nearest point together: in the plane
on the core polygon itself, in R^3 on each planar face of the core in
the face's own 2-d frame (`_Faces`), its facets found by polar duality
with the package's d >= 3 enumerator (`_facet_planes`), not scipy.  A
ball keeps its closed forms h = r and dist = max(0, |x| - r).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from hypercell import _kernels
from hypercell.errors import ContainmentViolated, UnsupportedBody

UNIT_NORM_TOL = 1e-12
FEASIBILITY_TOL = 1e-9

__all__ = [
    "Polytope",
    "Ball",
    "BallSum",
    "SurfaceMeasure",
    "as_unit_vector",
    "support",
    "extension_support",
    "distance",
    "surface_measure",
    "hausdorff_containing",
    "project",
    "retract",
    "kink_angles",
    "boundary_path",
    "sphere_area",
    "body_to_json",
    "body_from_json",
]


def as_unit_vector(u, dim: int | None = None) -> np.ndarray:
    """Validate and return a unit vector as a float array."""
    v = np.asarray(u, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 2:
        raise ValueError(f"unit vector must be 1-d with dimension >= 2, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {v.shape[0]}")
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= UNIT_NORM_TOL:  # fails on NaN
        raise ValueError(f"vector norm {norm!r} deviates from 1 beyond {UNIT_NORM_TOL}")
    return v


def sphere_area(dim: int) -> float:
    """Surface measure of the unit sphere in R^dim."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def _dedupe_rows(arr: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """The rows of arr less each within tol of an earlier kept row (keep-first, `_kernels.keep_first`)."""
    return arr[_kernels.keep_first(arr, tol)]


# ---------------------------------------------------------------------------
# body classes


class _BodyBase:
    """The one body model: conv(`vertices`) + `radius` B about an interior origin.

    `radius` is 0.0 for a `Polytope`; a `Ball`'s core is its centre, also
    its planar `hull_vertices`.  `_project_core` gives each point's
    distance to the core and its nearest core point; `project` steps
    `radius` on from there.
    """

    dim: int
    radius: float
    vertices: np.ndarray

    def support(self, u) -> float:
        return float(self.support_batch(np.asarray(u, dtype=np.float64)[None, :])[0])

    # subclasses implement support_batch / distance_batch / _project_core /
    # inradius_origin and set diameter / circumradius

    def distance(self, x) -> float:
        return float(self.distance_batch(np.asarray(x, dtype=np.float64)[None, :])[0])


class _CoreBody(_BodyBase):
    """`Polytope` and `BallSum`: a polytope core of rank `_rank`, d = 2 or 3."""

    _faces: _Faces | None = None
    _inradius: float | None = None

    def _init_core(self, vertices, kind: str, radius: float):
        """Distinct vertices recentred on their mean, and the data every core body keeps."""
        V = np.atleast_2d(np.asarray(vertices, dtype=np.float64))
        if V.shape[1] < 2:
            raise ValueError(f"{kind} vertices need dimension >= 2, got d = {V.shape[1]}")
        if V.shape[1] > 3:
            raise UnsupportedBody(f"{kind} bodies are supported in d = 2 and 3 only, got d = {V.shape[1]}")
        V = _dedupe_rows(V)
        V = self.vertices = V - V.mean(axis=0)
        self.radius = radius
        self.dim = V.shape[1]
        self._rank = int(np.linalg.matrix_rank(V, tol=1e-12))
        # row blocks of some 2^18 differences: the per-pair values of one (n, n, d) tensor, not its memory
        step = max(1, 2**18 // V.size)
        sq = max(((V[a : a + step, None, :] - V[None, :, :]) ** 2).sum(-1).max() for a in range(0, len(V), step))
        self.diameter = float(np.sqrt(sq)) + 2.0 * radius
        self.circumradius = float(np.linalg.norm(V, axis=1).max()) + radius
        if self.dim == 2:
            self._hull = _kernels.convex_hull_2d(V)
            self.hull_vertices = V[self._hull]

    def _face_data(self) -> _Faces:
        if self._faces is None:
            self._faces = _Faces(self.vertices, self._rank == 3)
        return self._faces

    def _project_core(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distance from each row of X to the core, and the nearest core point."""
        if self.dim == 2:
            return _kernels.polygon_project(self.hull_vertices, X)
        return self._face_data().project(X)

    @property
    def facets(self):
        """(outward normal, offset, area, vertex indices) of each facet of a full-dimensional core.

        Planar facets are the hull edges (`_polygon_edges`); in R^3 they
        come from `_facet_planes` on first use, each area from the facet's
        polygon (`_Faces`).
        """
        if self.dim == 3:
            return self._face_data().facets
        ids = np.column_stack([self._hull, np.roll(self._hull, -1)])
        return [(n, float(a @ n), ln, i) for (a, _, n, ln), i in zip(_polygon_edges(self.hull_vertices), ids)]

    def inradius_origin(self) -> float:
        # a lower-dimensional core has no interior, so only the ball is inscribed
        if self._inradius is None:
            core = min(off for _, off, _, _ in self.facets) if self._rank == self.dim else 0.0
            self._inradius = core + self.radius
        return self._inradius


class Polytope(_CoreBody):
    """Convex hull of finitely many points with nonempty interior, d = 2 or 3; radius 0."""

    def __init__(self, vertices):
        self._init_core(vertices, "polytope", 0.0)
        if self._rank < self.dim:
            raise ValueError("polytope vertices must affinely span R^d")

    def support_batch(self, U: np.ndarray) -> np.ndarray:
        return (U @ self.vertices.T).max(axis=1)

    def distance_batch(self, X: np.ndarray) -> np.ndarray:
        return self._project_core(X)[0]


class Ball(_BodyBase):
    """Euclidean ball in any dimension d >= 2: a point core at the origin plus radius B."""

    def __init__(self, center, radius: float):
        c = np.asarray(center, dtype=np.float64)
        if c.ndim != 1 or c.shape[0] < 2:
            raise ValueError("ball center must be a vector of dimension >= 2")
        if not radius > 0:  # fails on NaN
            raise ValueError(f"ball radius must be positive, got {radius}")
        self.center = np.zeros_like(c)
        self.vertices = self.center[None, :]
        self.radius = float(radius)
        self.dim = c.shape[0]
        self.diameter = 2.0 * self.radius
        self.circumradius = self.radius
        if self.dim == 2:
            self.hull_vertices = self.vertices

    # the centre is the origin, so h(B, u) = r and dist(x, B) = max(0, |x| - r)
    def support_batch(self, U: np.ndarray) -> np.ndarray:
        return np.full(len(U), self.radius)

    def distance_batch(self, X: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, np.linalg.norm(X, axis=1) - self.radius)

    def _project_core(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.norm(X, axis=1), np.zeros_like(X)

    def inradius_origin(self) -> float:
        # still reads the centre, on Python floats: the samplers refuse a
        # ball whose centre was moved off the origin by hand (`OriginOutside`)
        return self.radius - math.hypot(*self.center.tolist())


class BallSum(_CoreBody):
    """Minkowski sum of a (possibly lower-dimensional) polytope and a ball, d = 2 or 3.

    Realizes bodies in which a ball of the given radius slides freely.
    The core may degenerate to a segment or a point.
    """

    def __init__(self, vertices, radius: float):
        if not radius > 0:  # fails on NaN
            raise ValueError(f"ballsum radius must be positive, got {radius}")
        self._init_core(vertices, "ballsum", float(radius))

    def support_batch(self, U: np.ndarray) -> np.ndarray:
        return (U @ self.vertices.T).max(axis=1) + self.radius

    def distance_batch(self, X: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, self._project_core(X)[0] - self.radius)


Body = Polytope | Ball | BallSum


# ---------------------------------------------------------------------------
# exact projection onto a polytope core in R^3, one planar face at a time


class _Faces:
    """Planar faces of a polytope core in R^3, each in its own 2-d frame.

    A face has an origin o, an orthonormal in-plane basis B (2 x 3, from an
    SVD of its centred points), the normal n = B[0] x B[1] and its CCW
    polygon in frame coordinates, so dist(x, F)^2 = dist(B (x - o),
    polygon)^2 + <x - o, n>^2: one `_kernels.polygon_project` call.  A
    full-dimensional core has one face per facet (`_facet_planes`), framed
    on the facet's vertices and oriented outward; `facets` gives each its
    outward normal, offset, polygon area and vertex ids.  A point x
    outside the core is nearest to some p on a facet whose plane x is
    outside of (x - p lies in the normal cone at p), and x outside no facet
    plane is inside.  A lower-dimensional core is one face in a plane
    that contains it.
    """

    def __init__(self, V: np.ndarray, full: bool):
        planes = _facet_planes(V) if full else []
        groups = [ids for *_, ids in planes] or [np.arange(len(V))]
        self.origins = np.array([V[ids].mean(axis=0) for ids in groups])
        self.bases = np.array([np.linalg.svd(V[ids] - o)[2][:2] for ids, o in zip(groups, self.origins)])
        frames = [(V[ids] - o) @ B.T for ids, o, B in zip(groups, self.origins, self.bases)]
        self.polygons = [Q[_kernels.convex_hull_2d(Q)] for Q in frames]
        shoelace = [0.5 * float(x @ np.roll(y, -1) - np.roll(x, -1) @ y) for x, y in (P.T for P in self.polygons)]
        self.facets = [(n, h, area, ids) for (n, h, ids), area in zip(planes, shoelace)]
        self.normals = np.cross(self.bases[:, 0], self.bases[:, 1])
        # the origin is interior to a full core, so an outward plane has a positive offset
        offsets = np.einsum("ij,ij->i", self.normals, self.origins)
        self.normals[offsets < 0] *= -1.0
        self.offsets = np.abs(offsets)

    def project(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distance from each row of X to the core, and the nearest core point."""
        X = np.asarray(X, dtype=np.float64)
        # every product one coordinate at a time (`_kernels.dots`), so each
        # row's result is the same bits whatever rows share the call
        outside = (
            _kernels.dots(X, self.normals) > self.offsets if self.facets else np.ones((len(X), 1), dtype=bool)
        )
        dist = np.where(outside.any(axis=1), np.inf, 0.0)
        nearest = X.copy()
        for f in np.flatnonzero(outside.any(axis=0)).tolist():
            rows = np.flatnonzero(outside[:, f])
            R = X[rows] - self.origins[f]
            B = self.bases[f]
            d, p = _kernels.polygon_project(self.polygons[f], _kernels.dots(R, B))
            d = np.hypot(d, _kernels.dots(R, self.normals[f : f + 1])[:, 0])
            closer = d < dist[rows]
            rows = rows[closer]
            dist[rows] = d[closer]
            nearest[rows] = self.origins[f] + _kernels.dots(p[closer], B.T)
        return dist, nearest


def _facet_planes(V: np.ndarray):
    """Outward unit normal n, offset h and vertex ids of each facet of a full core in R^3.

    By polar duality (Ziegler, *Lectures on Polytopes*, 1995, Section 2.3)
    the facets {<n, x> = h} of conv(V), origin interior, are the vertices
    y = n / h of {y : <v, y> <= 1}.  Scaled by max|v|, none is nearer than
    1; they are enumerated in an axis box grown by 4x until no box plane
    defines one.  A facet holds the vertices within 1e-9 of the core's
    width along n of its plane, each on three facets or more.
    """
    # cell imports process, which imports this module; the enumerator is
    # called directly, as a tracer may wrap `cell.halfspace_intersection`
    from hypercell import cell

    r = np.linalg.norm(V, axis=1)
    U, T = V[r > 0] / r[r > 0, None], r.max() / r[r > 0]  # a point at the origin bounds nothing
    rho = 2.0
    while True:
        inter = cell._intersect_incremental(U, T, cell._box_normals(3), np.full(6, rho))
        if (inter.defining < len(T)).all():
            break
        rho *= 4.0
    s = np.linalg.norm(inter.vertices, axis=1)
    N, h = inter.vertices / s[:, None], r.max() / s
    D = V @ N.T
    on = np.abs(D - h) <= 1e-9 * (h - D.min(axis=0))
    on &= on.sum(axis=1, keepdims=True) >= 3
    if on.shape[1] < 4 or (on.sum(axis=0) < 3).any():  # vertices lost to the enumerator's tolerances
        raise UnsupportedBody(f"facets of this {len(V)}-point core not found: it is too thin for the enumerator")
    return [(n, float(t), np.flatnonzero(col)) for n, t, col in zip(N, h, on.T)]


# ---------------------------------------------------------------------------
# public operations


def support(body: Body, u) -> float:
    """Support function h(body, u) for a unit direction."""
    return body.support(as_unit_vector(u, body.dim))


def extension_support(body: Body, y, u) -> float:
    """Support function of conv(body U {y}): max(h(body,u), <y,u>)."""
    uv = as_unit_vector(u, body.dim)
    return max(body.support(uv), float(np.dot(np.asarray(y, dtype=np.float64), uv)))


def distance(body: Body, x) -> float:
    """Euclidean distance from x to the body (0 inside)."""
    return body.distance(x)


def _polygon_edges(hull: np.ndarray):
    """Directed boundary edges (a, b, outward normal, length) of a CCW hull.

    A 2-point hull (segment) contributes both sides.  The length is the
    norm the normal was divided by.
    """
    if len(hull) == 2:
        e = hull[1] - hull[0]
        ln = np.linalg.norm(e)
        n = np.array([e[1], -e[0]]) / ln
        return [(hull[0], hull[1], n, float(ln)), (hull[1], hull[0], -n, float(ln))]
    b = np.roll(hull, -1, axis=0)
    e = b - hull
    ln = np.linalg.norm(e, axis=1)
    normals = np.column_stack([e[:, 1], -e[:, 0]]) / ln[:, None]
    return [(hull[i], b[i], normals[i], float(ln[i])) for i in range(len(hull))]


def kink_angles(body: Body) -> np.ndarray:
    """Angles of a planar body's outward edge normals, where its support function kinks.

    Empty for a point core (a ball).
    """
    hull = body.hull_vertices
    if len(hull) < 2:
        return np.empty(0)
    normals = np.array([n for _, _, n, _ in _polygon_edges(hull)])
    return np.arctan2(normals[:, 1], normals[:, 0])


@dataclass
class SurfaceMeasure:
    """Boundary area split by outer normal direction.

    `atoms` lists (unit normal, facet area) pairs; `sphere_density` is a
    constant density with respect to spherical Lebesgue measure covering
    the smooth part of the boundary (0 when absent).
    """

    atoms: list = field(default_factory=list)
    sphere_density: float = 0.0
    dim: int = 2

    @property
    def total_mass(self) -> float:
        mass = sum(w for _, w in self.atoms)
        if self.sphere_density:
            mass += self.sphere_density * sphere_area(self.dim)
        return mass

    @property
    def has_density(self) -> bool:
        return self.sphere_density > 0.0


def surface_measure(body: Body) -> SurfaceMeasure:
    """Surface area measure of conv(V) + rB: the core's facet atoms and the density r^(d-1).

    Planar atoms are the core's hull edges (a segment counts both sides,
    a point none).  In R^3 a ball over a segment or polytope core also
    carries mass on the normal arcs of its edges, which neither part
    holds, so it is refused.
    """
    if body.dim == 2:
        hull = body.hull_vertices
        atoms = [] if len(hull) == 1 else [(n.copy(), ln) for _, _, n, ln in _polygon_edges(hull)]
    elif not body.radius:
        atoms = [(n.copy(), float(area)) for n, _, area, _ in body.facets]
    elif len(body.vertices) == 1:
        atoms = []
    else:
        raise UnsupportedBody("surface measure of polytope+ball sums is only available in d = 2")
    return SurfaceMeasure(atoms=atoms, sphere_density=body.radius ** (body.dim - 1), dim=body.dim)


def hausdorff_containing(body: Body, vertices, certificate=None) -> float:
    """Hausdorff distance from the body to a polytope containing it.

    The polytope is given by its vertices.  `certificate` is the list of
    (normal, offset) halfspaces defining it; when provided, containment
    h(body,u) <= t is verified (ContainmentViolated on failure).  Pass
    None only when containment is structurally guaranteed, e.g. for cell
    polytopes.  Equals max over vertices of distance(body, vertex).
    """
    V = np.atleast_2d(np.asarray(vertices, dtype=np.float64))
    if certificate is not None:
        for u, t in certificate:
            hu = body.support(as_unit_vector(u, body.dim))
            if hu > t + FEASIBILITY_TOL * (1.0 + abs(t)):
                raise ContainmentViolated(
                    f"halfspace <u,x> <= {t:g} cuts the body (h = {hu:g})"
                )
    return float(body.distance_batch(V).max())


def project(body: Body, X) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each row of X to the body, and the nearest body point (the row itself inside)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    d, P = body._project_core(X)
    if not body.radius:
        return d, P
    # body = core + rB: from the nearest core point p, step r along x - p
    out = d > body.radius
    nearest = X.copy()
    nearest[out] = P[out] + body.radius * (X[out] - P[out]) / d[out, None]
    return np.where(out, d - body.radius, 0.0), nearest


def retract(body: Body, X, eps: float) -> np.ndarray:
    """Each row x of X moved to the boundary of body + eps B: p + eps (x - p) / |x - p|.

    p is the nearest body point (`project`).  Rows inside the body have no
    such ray and are refused, as is a nonpositive eps.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    d, P = project(body, X)
    if not (d > 0).all():
        raise ValueError("cannot retract a point inside the body onto its offset boundary")
    return P + eps * (X - P) / d[:, None]


# ---------------------------------------------------------------------------
# planar boundary parametrization (outer parallel boundary as arcs + segments)


class BoundaryPath2D:
    """Arclength parametrization of the boundary of a planar parallel body.

    The boundary of K + R*B splits into straight edge translates and
    circular arcs around hull vertices; `point_at` maps arclength values
    in [0, total) to boundary points.  Exact for every body: with
    body = conv(V) + rB the arcs have radius r + offset.
    """

    def __init__(self, body: Body, offset: float):
        if body.dim != 2:
            raise ValueError("boundary path is only defined for planar bodies")
        core = body.hull_vertices
        radius = self.radius = body.radius + offset
        pieces = []  # (kind, length, data)
        m = len(core)
        if m == 1:
            pieces.append(("arc", 2 * math.pi * radius, (core[0], 0.0)))
        else:
            edges = _polygon_edges(core)
            k = len(edges)
            for i in range(k):
                a, b, n, _ = edges[i]
                # the vector norm of b - a, not the edge's row norm: the two can
                # differ in the last bit, and arclengths are fixed by this one
                pieces.append(("seg", float(np.linalg.norm(b - a)), (a + radius * n, b + radius * n)))
                n_next = edges[(i + 1) % k][2]
                th0 = math.atan2(n[1], n[0])
                th1 = math.atan2(n_next[1], n_next[0])
                sweep = (th1 - th0) % (2 * math.pi)
                pieces.append(("arc", radius * sweep, (b, th0)))
        self.pieces = pieces
        lengths = np.array([ln for _, ln, _ in pieces])
        self.cum = np.concatenate([[0.0], np.cumsum(lengths)])
        self.total = float(self.cum[-1])

    def point_at(self, s) -> np.ndarray:
        """Boundary points for arclength values (vectorized)."""
        s = np.atleast_1d(np.asarray(s, dtype=np.float64)) % self.total
        idx = np.searchsorted(self.cum, s, side="right") - 1
        idx = np.clip(idx, 0, len(self.pieces) - 1)
        out = np.empty((len(s), 2))
        # only the pieces some s falls on; bincount, since the first call
        # of np.unique raises peak memory by about 1.5 MB
        for i in np.flatnonzero(np.bincount(idx, minlength=len(self.pieces))).tolist():
            kind, ln, data = self.pieces[i]
            sel = idx == i
            local = s[sel] - self.cum[i]
            if kind == "seg":
                a, b = data
                t = (local / ln)[:, None]
                out[sel] = a + t * (b - a)
            else:
                center, th0 = data
                ang = th0 + local / self.radius
                out[sel] = center + self.radius * np.column_stack([np.cos(ang), np.sin(ang)])
        return out


def boundary_path(body: Body, eps: float) -> BoundaryPath2D:
    """Parametrize the boundary of the outer parallel body at distance eps."""
    return BoundaryPath2D(body, eps)


# ---------------------------------------------------------------------------
# serialization


def body_to_json(body: Body) -> dict:
    if isinstance(body, Polytope):
        return {"type": "polytope", "vertices": body.vertices.tolist()}
    if isinstance(body, Ball):
        return {"type": "ball", "center": body.center.tolist(), "radius": body.radius}
    if isinstance(body, BallSum):
        return {"type": "ballsum", "vertices": body.vertices.tolist(), "radius": body.radius}
    raise TypeError(f"not a body: {body!r}")


def _array(obj: dict, key: str):
    """A body document's array field, refused by name unless numeric."""
    value = obj.get(key)
    try:
        numeric = not isinstance(value, str) and np.asarray(value).dtype.kind in "iuf"
    except ValueError:  # a ragged nesting
        numeric = False
    if not numeric:
        raise TypeError(f"{key} must be an array of numbers, got {value!r}")
    return value


def _number(obj: dict, key: str):
    """A body document's number field, refused by name unless a number."""
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key} must be a number, got {value!r}")
    return value


def body_from_json(obj: dict) -> Body:
    kind = obj.get("type")
    if kind == "polytope":
        return Polytope(_array(obj, "vertices"))
    if kind == "ball":
        return Ball(_array(obj, "center"), _number(obj, "radius"))
    if kind == "ballsum":
        return BallSum(_array(obj, "vertices"), _number(obj, "radius"))
    raise ValueError(f"unknown body type {kind!r}")
