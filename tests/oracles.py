"""Independent brute-force oracles and generators used only by the tests.

Nothing here shares code with the production solvers: distances come from a
dense n x m matrix instead of the sparse pair kernel, chromatic numbers from
exhaustive enumeration of canonical colorings, clique / independent-set
sizes from full subset scans, cache blocks from a rank-by-rank loop, per-user
delivery from set unions, Matern thinnings and class weights from dense
neighbour matrices and a survivor-by-member loop, Zipf probabilities and
head masses from their own table, and expected hit rates from integrating
over a grid of the cell instead of drawing users and requests. The
baseline's hit rate also has a closed form, one integral over the user's
radius of the chance that some station covers it, with no network drawn.
The class weights' marks are the same ``random(n)`` draws from the
production seed, so both sides see the same marks. The exact minimum
coloring, a branch-and-bound search over bit-packed adjacency rows, lives
here too: the simulator colors only greedily, and the coloring tests check
the solver against the exhaustive enumeration. The pruned clique search
reads the same bit-packed rows; the coloring tests check it against the full
subset scans.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from sbscache.coloring import Coloring
from sbscache.geometry import PointSet
from sbscache.netgraph import SimpleGraph
from sbscache.popularity import Catalog
from sbscache.sim import ScenarioConfig, build_network, build_policy_artifacts


def distance_matrix(a: PointSet, b: PointSet | None = None) -> np.ndarray:
    """Euclidean distances from each point of ``a`` to each point of ``b`` (default: ``a``)."""
    b = a if b is None else b
    dx = a.xy[:, 0, None] - b.xy[None, :, 0]
    dy = a.xy[:, 1, None] - b.xy[None, :, 1]
    return np.sqrt(dx * dx + dy * dy)


def graph_from_matrix(adj: np.ndarray) -> SimpleGraph:
    """The graph of a symmetric boolean adjacency matrix with a false diagonal."""
    adj = np.asarray(adj, dtype=bool)
    if not np.array_equal(adj, adj.T) or adj.diagonal().any():
        raise ValueError("adjacency must be symmetric with a false diagonal")
    return SimpleGraph.from_pairs(adj.shape[0], *np.nonzero(np.triu(adj)))


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> SimpleGraph:
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        if i == j:
            raise ValueError("self-loops are not allowed")
        adj[i, j] = adj[j, i] = True
    return graph_from_matrix(adj)


def random_simple_graph(rng: np.random.Generator, n: int, p: float) -> SimpleGraph:
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return graph_from_matrix(upper | upper.T)


def class_matrix(classes: tuple[np.ndarray, np.ndarray], n: int) -> np.ndarray:
    """Dense boolean class membership: ``m[i, j]`` iff j is in i's class."""
    m = np.zeros((n, n), dtype=bool)
    m[classes] = True
    return m


def dense_adjacency(g: SimpleGraph) -> np.ndarray:
    """Dense boolean n x n adjacency matrix, from the graph's edge list."""
    adj = np.zeros((g.n, g.n), dtype=bool)
    i, j = np.array(g.edges(), dtype=np.intp).reshape(-1, 2).T
    adj[i, j] = adj[j, i] = True
    return adj


def adjacency_sets(g: SimpleGraph) -> list[set[int]]:
    adj = dense_adjacency(g)
    return [set(np.flatnonzero(adj[v]).tolist()) for v in range(g.n)]


def chromatic_number_enumeration(g: SimpleGraph) -> int:
    """Minimum colors over an exhaustive enumeration of canonical colorings.

    Walks every restricted-growth assignment (each coloring counted once up
    to color renaming), discarding a branch only when it already violates an
    edge, and takes the minimum color count over the complete assignments.
    """
    n = g.n
    if n == 0:
        return 0
    adj = adjacency_sets(g)
    colors = [0] * n
    best = n

    def assign(i: int, used: int) -> None:
        nonlocal best
        if i == n:
            best = min(best, used)
            return
        earlier = [j for j in adj[i] if j < i]
        for c in range(used):
            if all(colors[j] != c for j in earlier):
                colors[i] = c
                assign(i + 1, used)
        colors[i] = used  # a brand-new color never conflicts
        assign(i + 1, used + 1)

    assign(0, 0)
    return best


def clique_number_enumeration(g: SimpleGraph) -> int:
    """omega(G) by scanning all vertex subsets."""
    adj = dense_adjacency(g)
    best = 0
    for size in range(1, g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            if all(adj[a, b] for a, b in itertools.combinations(subset, 2)):
                best = size
                break
    return best


def independence_number_enumeration(g: SimpleGraph) -> int:
    """alpha(G) by scanning all vertex subsets."""
    adj = dense_adjacency(g)
    best = 0
    for size in range(1, g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            if not any(adj[a, b] for a, b in itertools.combinations(subset, 2)):
                best = size
                break
    return best


def is_proper(g: SimpleGraph, c: Coloring) -> bool:
    """True iff no edge joins two vertices of equal color."""
    if len(c) != g.n:
        raise ValueError("coloring must cover every vertex")
    same = c.colors[:, None] == c.colors[None, :]
    return not np.any(same & dense_adjacency(g))


def max_degree(g: SimpleGraph) -> int:
    return int(g.degrees().max()) if g.n else 0


# Minimum coloring is NP-hard; the exact solver and the clique oracles refuse
# instances above this size.
EXACT_SOLVER_LIMIT = 25


class CapacityError(RuntimeError):
    """Instance too large for an exact combinatorial solver."""


def _adjacency_bits(g: SimpleGraph) -> list[int]:
    """Row v as an int whose bit u is set iff u is a neighbour of v."""
    ptr, nbr = g.indptr.tolist(), g.indices.tolist()
    return [sum(1 << u for u in nbr[ptr[v] : ptr[v + 1]]) for v in range(g.n)]


def _components(g: SimpleGraph) -> list[list[int]]:
    ptr, nbr = g.indptr.tolist(), g.indices.tolist()
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in nbr[ptr[v] : ptr[v + 1]]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def _greedy_clique_size(adj: list[int], order: list[int]) -> int:
    """Cheap clique lower bound: extend greedily along the order."""
    best = 0
    for start in order:
        clique = 1
        cand = adj[start]
        while cand:
            v = (cand & -cand).bit_length() - 1
            clique += 1
            cand &= adj[v]
        best = max(best, clique)
    return best


def _k_colorable(adj: list[int], order: list[int], k: int) -> list[int] | None:
    """Backtracking k-colorability with symmetry breaking.

    The first vertex is fixed to color 1 and a new color may only be opened
    in index order, so each color class pattern is tried once. Returns the
    per-position color assignment, or None once the search space is exhausted.
    """
    n = len(order)
    assignment = [0] * n
    class_bits = [0] * k

    def solve(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        bit = 1 << v
        for c in range(min(used + 1, k)):
            if adj[v] & class_bits[c] == 0:
                class_bits[c] |= bit
                assignment[i] = c + 1
                if solve(i + 1, max(used, c + 1)):
                    return True
                class_bits[c] &= ~bit
        return False

    return assignment if solve(0, 0) else None


def exact_min_coloring(g: SimpleGraph) -> Coloring:
    """A proper coloring with the minimum possible number of colors.

    Branch-and-bound backtracking over color classes, run per connected
    component: k-colorability is searched upward from a greedy-clique lower
    bound, so the returned k is certified optimal by the exhausted search at
    k - 1 (or by the clique when it already meets k). Raises CapacityError
    above ``EXACT_SOLVER_LIMIT`` vertices.
    """
    if g.n > EXACT_SOLVER_LIMIT:
        raise CapacityError(f"exact solver limited to {EXACT_SOLVER_LIMIT} vertices, got {g.n}")
    colors = np.zeros(g.n, dtype=int)
    adj = _adjacency_bits(g)
    deg = g.degrees()
    for comp in _components(g):
        order = sorted(comp, key=lambda v: (-int(deg[v]), v))
        lb = max(1, _greedy_clique_size(adj, order))
        for k in range(lb, len(comp) + 1):
            assignment = _k_colorable(adj, order, k)
            if assignment is not None:
                for pos, v in enumerate(order):
                    colors[v] = assignment[pos]
                break
    return Coloring(colors)


def clique_number(g: SimpleGraph, limit: int = EXACT_SOLVER_LIMIT) -> int:
    """Exact omega(G) by pruned exhaustive subset search."""
    if g.n > limit:
        raise CapacityError(f"clique oracle limited to {limit} vertices, got {g.n}")
    if g.n == 0:
        return 0
    adj = _adjacency_bits(g)
    best = 0

    def extend(size: int, cand: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            extend(size + 1, cand & adj[v])

    extend(0, (1 << g.n) - 1)
    return best


def independence_number(g: SimpleGraph, limit: int = EXACT_SOLVER_LIMIT) -> int:
    """Exact alpha(G): the clique number of the complement graph."""
    if g.n > limit:
        raise CapacityError(f"independence oracle limited to {limit} vertices, got {g.n}")
    comp = ~dense_adjacency(g)
    np.fill_diagonal(comp, False)
    return clique_number(graph_from_matrix(comp), limit)


@dataclass
class AccessMap:
    """For each user, the set of SBS indices whose coverage reaches them."""

    sets: tuple[frozenset[int], ...]
    n_sbs: int

    def __post_init__(self):
        for s in self.sets:
            if any(not 0 <= j < self.n_sbs for j in s):
                raise ValueError("SBS index out of range in access set")


@dataclass
class DeliveryMap:
    """For each user, the file ranks reachable through some accessible cache."""

    sets: tuple[frozenset[int], ...]


def access_matrix(users: PointSet, sbs: PointSet, ranges) -> np.ndarray:
    """Dense boolean (n_users, n_sbs) matrix: user u can reach SBS j iff d(u, S_j) <= R_j."""
    ranges = np.asarray(ranges, dtype=float)
    if ranges.size != len(sbs):
        raise ValueError("ranges length must equal SBS count")
    return distance_matrix(users, sbs) <= ranges[None, :]


def build_access_map(users: PointSet, sbs: PointSet, ranges) -> AccessMap:
    mat = access_matrix(users, sbs, ranges)
    sets = tuple(frozenset(np.flatnonzero(row).tolist()) for row in mat)
    return AccessMap(sets, len(sbs))


def build_delivery_map(caches, access: AccessMap) -> DeliveryMap:
    """Per-user union of the caches (per-SBS rank sets) of the SBSs the user can access."""
    if len(caches) != access.n_sbs:
        raise ValueError("placement and access describe different SBS counts")
    out = []
    for reachable in access.sets:
        files: set[int] = set()
        for j in reachable:
            files |= caches[j]
        out.append(frozenset(files))
    return DeliveryMap(tuple(out))


def block_caches_reference(colors, memory: int, file_count: int) -> tuple[frozenset[int], ...]:
    """Color q caches ranks (q-1)*M+1 .. q*M, wrapped modulo the catalog, one rank at a time."""
    caches = []
    for q in colors:
        start = (int(q) - 1) * memory
        caches.append(frozenset((start + t) % file_count + 1 for t in range(memory)))
    return tuple(caches)


def hard_core_matrix(pts: PointSet, hard: float) -> np.ndarray:
    """Dense boolean hard-core relation: ``m[i, j]`` iff i != j and d(i, j) <= hard."""
    near = distance_matrix(pts) <= hard
    np.fill_diagonal(near, False)
    return near


def matern_reference(near: np.ndarray, marks: np.ndarray) -> tuple[list[int], list[int]]:
    """Type-I and type-II survivors of the dense hard-core matrix, as sorted lists.

    Type I keeps the points with no neighbour; type II eliminates a point
    iff some neighbour's mark is no larger than its own, so tied neighbours
    both go.
    """
    beaten = near & (marks[None, :] <= marks[:, None])
    return np.flatnonzero(~near.any(axis=1)).tolist(), np.flatnonzero(~beaten.any(axis=1)).tolist()


def class_weights_reference(
    pts: PointSet, r_class: float, seed, max_iterations: int | None = None
) -> tuple[tuple[frozenset[int], ...], list[int], int]:
    """Proximity classes as per-station sets, and weights from a survivor-by-member loop.

    Classes and hard-core neighbours (at 2 * r_class) come from the dense
    distance matrix, and both thinnings from ``matern_reference``; a station
    in both survivor lists credits its class once per list. Each
    iteration's marks are one ``random(n)`` draw from the production seed,
    so that every iteration sees the same marks. Returns (classes, weights,
    iterations_used); raises RuntimeError if the budget runs out.
    """
    n = len(pts)
    members = distance_matrix(pts) <= r_class
    classes = tuple(frozenset(np.flatnonzero(row).tolist()) for row in members)
    near = hard_core_matrix(pts, 2.0 * r_class)
    weights = [0] * n
    if n == 0:
        return classes, weights, 0
    rng = np.random.default_rng(seed)
    for iteration in range(1, (max_iterations or 10 * n) + 1):
        survivors_i, survivors_ii = matern_reference(near, rng.random(n))
        for i in survivors_i + survivors_ii:
            for j in classes[i]:
                weights[j] += 1
        if all(w > 0 for w in weights):
            return classes, weights, iteration
    raise RuntimeError("weights still zero after the iteration budget")


def zipf_pmf_reference(rank: int, alpha: float, file_count: int) -> float:
    norm = sum(i ** (-alpha) for i in range(1, file_count + 1))
    return rank ** (-alpha) / norm


def rank_lookup_reference(catalog: Catalog, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF ranks by binary search over the cumulative table, clamped to the catalog."""
    idx = np.searchsorted(catalog._cdf, u, side="right")
    return np.minimum(idx, catalog.file_count - 1) + 1


def min_pairwise_distance(xy: np.ndarray) -> float:
    if xy.shape[0] < 2:
        return math.inf
    best = math.inf
    for i in range(xy.shape[0]):
        for j in range(i + 1, xy.shape[0]):
            best = min(best, float(np.hypot(*(xy[i] - xy[j]))))
    return best


def zipf_pmf_table(file_count: int, alpha: float) -> np.ndarray:
    """Zipf probabilities of ranks 1..file_count, as one array."""
    weights = np.arange(1, file_count + 1, dtype=float) ** (-float(alpha))
    return weights / weights.sum()


def zipf_pmf(catalog: Catalog, rank: int) -> float:
    """Probability that a request to the catalog asks for the file of the given rank."""
    if not 1 <= rank <= catalog.file_count:
        raise ValueError(f"rank must be in 1..{catalog.file_count}, got {rank}")
    return float(zipf_pmf_table(catalog.file_count, catalog.alpha)[rank - 1])


def top_mass(catalog: Catalog, k: int) -> float:
    """Total request probability carried by the k most popular files of the catalog."""
    if not 0 <= k <= catalog.file_count:
        raise ValueError(f"k must be in 0..{catalog.file_count}, got {k}")
    return float(zipf_pmf_table(catalog.file_count, catalog.alpha)[:k].sum())


def lens_area(a: float, b: float, d: np.ndarray) -> np.ndarray:
    """Area shared by two disks of radii ``a`` and ``b`` whose centres are ``d`` apart."""
    d = np.asarray(d, dtype=float)
    area = np.where(d <= abs(a - b), math.pi * min(a, b) ** 2, 0.0)
    part = (d > abs(a - b)) & (d < a + b)
    x = d[part]
    cos_a = np.clip((x * x + a * a - b * b) / (2.0 * x * a), -1.0, 1.0)
    cos_b = np.clip((x * x + b * b - a * a) / (2.0 * x * b), -1.0, 1.0)
    kite = np.sqrt(np.maximum((a + b - x) * (x + a - b) * (x - a + b) * (x + a + b), 0.0))
    area[part] = a * a * np.arccos(cos_a) + b * b * np.arccos(cos_b) - 0.5 * kite
    return area


def baseline_hit_closed_form(cfg: ScenarioConfig) -> float:
    """Expected hit rate of the baseline policy, by one integral over the user's radius.

    Every station caches the ``memory`` most popular files, so a request hits
    iff its rank is in that head and some station covers its user. One
    station, uniform in the cell, covers a user at distance rho from the
    centre with probability p(rho): the area of the lens of the cell and the
    user's coverage disk, over the cell's area. The n stations are drawn
    independently, and rho has density 2 rho / R_c^2 for a user uniform in
    the cell, so the hit rate is top_mass(M) times the integral over
    [0, R_c] of (1 - (1 - p)^n) 2 rho / R_c^2. The integral is a trapezoid
    sum written out, since numpy's trapezoid function has changed name
    across the versions the package supports.
    """
    if cfg.uses_range_interval():
        raise ValueError("the closed form needs one fixed sbs_range")
    rc = cfg.cell_radius
    rho = np.linspace(0.0, rc, 20001)  # 10x as many points moves the result by < 1e-9
    p = lens_area(rc, cfg.sbs_range, rho) / (math.pi * rc * rc)
    f = (1.0 - (1.0 - p) ** cfg.n_sbs) * 2.0 * rho / (rc * rc)
    covered = float(np.sum((f[1:] + f[:-1]) * np.diff(rho)) / 2.0)
    return float(zipf_pmf_table(cfg.file_count, cfg.alpha)[: cfg.memory].sum()) * covered


def grid_coverage(
    cell_radius: float, spacing: float, sbs_xy: np.ndarray, ranges: np.ndarray
) -> np.ndarray:
    """Which stations cover each point of a square grid over the cell.

    The points are the centres of the ``spacing`` squares that fall inside
    the cell disk; each stands for an equal area, so a plain mean over them
    approximates the mean over a user drawn uniformly in the cell. Returns a
    boolean (points, stations) matrix: station j covers a point iff d <= R_j.
    """
    half = math.ceil(cell_radius / spacing)
    axis = (np.arange(-half, half) + 0.5) * spacing
    inside = np.hypot(axis[:, None], axis[None, :]) <= cell_radius
    cover = np.zeros((axis.size, axis.size, len(ranges)), dtype=bool)
    for j, ((sx, sy), r) in enumerate(zip(sbs_xy, ranges)):
        # only the squares in the station's bounding box can be in range
        ys = slice(np.searchsorted(axis, sy - r), np.searchsorted(axis, sy + r, "right"))
        xs = slice(np.searchsorted(axis, sx - r), np.searchsorted(axis, sx + r, "right"))
        cover[ys, xs, j] = np.hypot(axis[ys, None] - sy, axis[None, xs] - sx) <= r
    return cover[inside]


def reachable_files(cover: np.ndarray, caches, file_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Files reachable from the grid points, grouped by the set of caches in reach.

    Returns ``(files, share)``: row i of ``files`` marks the union of the
    caches one group of points can reach, and ``share[i]`` is the fraction
    of grid points in that group.
    """
    distinct = list(dict.fromkeys(caches))
    of_station = np.array([distinct.index(c) for c in caches], dtype=int)
    reach = np.zeros((cover.shape[0], len(distinct)), dtype=bool)
    for d in range(len(distinct)):
        reach[:, d] = cover[:, of_station == d].any(axis=1)
    # one opaque key per point, so grouping is a 1-D sort
    packed = np.ascontiguousarray(np.packbits(reach, axis=1))
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    files = np.zeros((first.size, file_count), dtype=bool)
    for i, point in enumerate(first):
        for d in np.flatnonzero(reach[point]):
            files[i, np.fromiter(distinct[d], dtype=int) - 1] = True
    return files, counts / cover.shape[0]


def coverage_ceiling(multiplicity: np.ndarray, memory: int, pmf: np.ndarray) -> float:
    """Mean mass of the m*M most popular files at a point that m stations cover.

    ``multiplicity`` holds m for each grid point. m caches of M files hold at
    most m*M distinct files, so no placement can serve a point more than this.
    """
    head = np.concatenate(([0.0], np.cumsum(pmf)))
    share = np.bincount(multiplicity) / multiplicity.size
    files = np.minimum(np.arange(share.size) * memory, pmf.size)
    return float(share @ head[files])


def expected_hit_oracle(
    cfg: ScenarioConfig, rep_seed, policies, alphas, spacing: float = 2.0
) -> tuple[dict[tuple[str, float], float], dict[float, float]]:
    """Expected hit rate of one replication's placements, and the coverage ceiling.

    Stations come from ``build_network`` and each policy's placement from
    ``build_policy_artifacts``, both given the replication seed, as in
    ``run_replication``. The users and requests are not drawn: the hit rate
    is the grid mean, over the cell, of the Zipf mass of the union of the
    caches of every station covering the point. Returns
    ``({(policy, alpha): hit}, {alpha: ceiling})``.
    """
    sbs, ranges = build_network(cfg, rep_seed)
    cover = grid_coverage(cfg.cell_radius, spacing, sbs.xy, ranges)
    multiplicity = cover.sum(axis=1)
    pmfs = {a: zipf_pmf_table(cfg.file_count, a) for a in alphas}
    ceilings = {a: coverage_ceiling(multiplicity, cfg.memory, pmf) for a, pmf in pmfs.items()}
    catalog = Catalog(cfg.file_count, cfg.alpha)
    hits = {}
    for policy in policies:
        if len(sbs) == 0:
            hits.update({(policy, a): 0.0 for a in alphas})
            continue
        cfg_policy = dataclasses.replace(cfg, policy=policy)
        art = build_policy_artifacts(cfg_policy, sbs, ranges, rep_seed, catalog)
        p = art.placement
        caches = block_caches_reference(p.colors, p.memory, p.file_count)
        files, share = reachable_files(cover, caches, cfg.file_count)
        for a, pmf in pmfs.items():
            hits[(policy, a)] = float(share @ (files @ pmf))
    return hits, ceilings
