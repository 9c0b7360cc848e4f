"""Inverse pipeline driven exclusively by wave map data.

Every operation here consumes a WaveMapData object (plus the local
structure it carries) and nothing else: no operator matrices, no spectra,
no bundle internals.  The data-boundary test enforces this at the source
level.

The workhorse is a family of space-time box probes (delta in space, smooth
bump in time, parameterized by emission lead) whose pairwise wave-state
inner products come from the time-averaged identity engine.  Ball
containment, cut times and exterior distances are read off sub-Grams of
one master probe family, every one through the same ridge Cholesky
factor; no eigendecomposition touches the probe Gram.  Local operator
blocks (transports and potential) come from a least-squares fit to the
responses of a second probe family near the horizon.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import numpy as np

from .errors import ReconstructionError
from .s2s import DeltaSources, WaveMapData, blago_bilinear, flat_indices, hermitian_rows

# residual below which a plain containment verdict accepts
CONTAINMENT_TOL = 0.05
# the ridge of every probe-Gram solve: reg = RIDGE_FACTOR * tr(G) / m over
# an m-probe Gram G
RIDGE_FACTOR = 1e-8
# exterior sweeps stay below this fraction of the ray's cut time
CUT_MARGIN = 0.85
# rows of the panels family_gram hermitizes its Gram in, one at a time
GRAM_PANEL = 64


# ---------------------------------------------------------------------------
# probe families

def bump_profile(times, start, width):
    """C^3 bump supported on (start, start + width), peak value 1."""
    u = (times - start) / width
    prof = np.zeros_like(times)
    inside = (u > 0) & (u < 1)
    prof[inside] = np.sin(np.pi * u[inside]) ** 4
    return prof


@dataclass(frozen=True)
class SourceFamily:
    """Finite basis of sources supported in space-time boxes.

    Each member is a delta at a region vertex and fiber index times a bump
    profile that starts `lead` before the horizon T, so its wave state at
    time T is supported within distance `lead` of the vertex (up to the
    dispersive tails of the discrete cone).
    """

    vertex: np.ndarray    # (m,) local vertex index
    lead: np.ndarray      # (m,) emission lead before T
    sources: DeltaSources  # the members, on one bump profile per lead

    def __len__(self):
        return len(self.vertex)

    def select(self, vertices, max_lead):
        """Indices of members inside a spatial set with lead below a budget."""
        mask = np.isin(self.vertex, np.asarray(vertices, dtype=np.int64))
        mask &= self.lead <= max_lead + 1e-12
        return np.nonzero(mask)[0]


def build_source_family(wmap: WaveMapData, vertices, leads, width):
    """Probe family over given local vertices and emission leads (every fiber),
    lead-major, then vertex, then fiber: ProbeEngine's boxes rely on that order."""
    r = wmap.local.rank
    T = wmap.horizon
    for lead in leads:
        if lead < width - 1e-12:
            raise ReconstructionError("lead must cover the bump width")
        if lead > T + 1e-12:
            raise ReconstructionError("lead exceeds the horizon")
    outside = [v for v in vertices if not 0 <= int(v) < wmap.local.size]
    if outside:
        raise ReconstructionError(f"vertex {outside[0]} is outside the observation region")
    leads = np.asarray(leads, dtype=np.float64)
    verts = np.array([int(v) for v in vertices], dtype=np.int64)
    if len(leads) == 0 or len(verts) == 0:
        raise ReconstructionError("empty probe family")
    per_lead = len(verts) * r
    comps = np.tile(flat_indices(verts, r), len(leads))
    profiles = np.array([bump_profile(wmap.grid.times, T - lead, width) for lead in leads])
    return SourceFamily(
        vertex=comps // r,
        lead=np.repeat(leads, per_lead),
        sources=DeltaSources(profiles, np.repeat(np.arange(len(leads)), per_lead), comps),
    )


def family_responses(wmap: WaveMapData, fam: SourceFamily):
    """Map responses of every family member: (m, N+1, D)."""
    return wmap.respond(fam.sources)


def family_gram(wmap: WaveMapData, fam: SourceFamily):
    """Hermitian Gram of the family's wave states at time T, from map data.

    The pairing is hermitized in place, (G + G^H) / 2, one panel of
    GRAM_PANEL rows at a time: the panel G[a:b, a:] becomes (P + conj Q^T)
    / 2 with Q = G[a:, a:b], and Q the exact conjugate transpose of that, so
    no second Gram is formed.
    """
    G = blago_bilinear(wmap, fam.sources, fam.sources)
    for a in range(0, len(G), GRAM_PANEL):
        upper, lower = G[a:a + GRAM_PANEL, a:], G[a:, a:a + GRAM_PANEL]
        panel = upper + lower.T.conj()
        panel *= 0.5
        upper[...] = panel
        lower[...] = panel.T.conj()
    return G


# ---------------------------------------------------------------------------
# the ball-containment engine

@dataclass(frozen=True)
class ProbeConfig:
    """Knobs for the containment probe machinery (length units)."""

    delta: float      # radius of source balls
    lead_step: float  # spacing of emission leads
    width: float      # bump width
    eta: float = 0.1  # first-arrival threshold


def _lapack():
    """scipy's f2py LAPACK extension, scipy.linalg._flapack, loaded on its own.

    The scipy.linalg package around it costs about 0.2 s and 28 MB to
    import and serves no sweep; its lapack module re-exports these same
    functions.  The top-level scipy import runs first (its distributor init
    prepares the extension's libraries).  The extension loads once, at the
    first factor, and a loaded one is reused.
    """
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        import scipy

        loaders = (ExtensionFileLoader, EXTENSION_SUFFIXES)
        spec = FileFinder(os.path.join(scipy.__path__[0], "linalg"), loaders).find_spec(name)
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


def _ridge_factor(M, reg):
    """Cholesky factor of the Hermitian M + reg I, computed in place in M.

    LAPACK potrf factors M.T, the Fortran-ordered view of M's memory, so
    nothing is copied.  For a Hermitian matrix that view is its conjugate:
    the returned lower factor L, which shares M's memory, satisfies
    conj(M + reg I) = L L^H; its strict upper triangle is never read.  A
    matrix that is not positive definite is a ReconstructionError.
    """
    M[np.diag_indices(len(M))] += reg
    lapack = _lapack()
    potrf = lapack.zpotrf if np.iscomplexobj(M) else lapack.dpotrf
    L, info = potrf(M.T, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise ReconstructionError(f"probe Gram is not positive definite (potrf info {info})")
    return L


def _box_curve(eng, span, targets, n_span, n_tgt):
    """Per radius k, the largest relative residual of the states
    targets[:n_tgt[k]] projected onto span[:n_span[k]] under the ridge Gram
    G + reg I of eng, 1 where the box holds no target.  Both lists come in
    lead order, so one Cholesky factor L of the bordered matrix
    [[G_SS, G_St], [G_tS, G_tt]] + reg I gives every radius: its lower-left
    block is Y^H with Y = L_SS^{-1} G_St, the factor of a leading block of
    the span is the leading block of L_SS, so the projection onto
    span[:k] is the sum of |Y|^2 over the first k rows.  The bordered
    matrix is a Gram plus reg I, hence positive definite even when targets
    repeat span members.

    The bordered matrix is gathered with one flat-index take, the targets'
    squared norms real(G[t, t]) are read off its diagonal, and _ridge_factor
    then factors it in place (its factor is conj(L), so |Y|^2 is
    unchanged).  Clip and square root are monotone, so they are taken after
    the maximum over each box.
    """
    n_tgt = np.asarray(n_tgt)
    if len(targets) == 0:
        return np.ones(len(n_tgt))
    idx = np.concatenate([span, targets]).astype(np.int64, copy=False)
    M = np.take(eng.gram, idx[:, None] * eng.gram.shape[1] + idx)
    ns = len(span)
    norms = M.diagonal()[ns:].real.copy()
    L = _ridge_factor(M, eng.reg)
    proj = np.zeros((ns + 1, len(targets)))
    np.cumsum(np.abs(L[ns:, :ns].T) ** 2, axis=0, out=proj[1:])
    rel = (norms - proj[n_span]) / norms
    worst = np.maximum.accumulate(rel, axis=1)[np.arange(len(n_tgt)), n_tgt - 1]
    return np.where(n_tgt > 0, np.sqrt(np.clip(worst, 0.0, 1.0)), 1.0)


def lead_count(horizon, dt, width, lead_step):
    """How many emission leads the ladder width, width + lead_step, ... holds
    up to horizon - 8 dt; 0 when none fits.  Arithmetic on scalars alone, so
    a config check reads it at any size (infinite past the float range)."""
    ladder = (horizon - 8 * dt - width) / lead_step
    if not ladder >= 0:
        return 0
    return math.floor(ladder) + 1 if ladder < math.inf else math.inf


class ProbeEngine:
    """Master probe family plus its Gram for containment sweeps, on the map
    data it was built from.  Every sweep of a distance recovery reads one
    engine, which its caller builds once and passes on."""

    def __init__(self, wmap: WaveMapData, cfg: ProbeConfig):
        self.wmap = wmap
        self.cfg = cfg
        n_leads = lead_count(wmap.horizon, wmap.grid.dt, cfg.width, cfg.lead_step)
        if n_leads < 2:
            raise ReconstructionError(f"lead ladder holds {n_leads} of the 2 leads the sweeps "
                                      "need; enlarge the horizon")
        leads = cfg.width + cfg.lead_step * np.arange(n_leads)
        self.leads = leads
        self.family = build_source_family(
            wmap, range(wmap.local.size), leads, cfg.width
        )
        gram = family_gram(wmap, self.family)
        # LAPACK potrf factors a NaN without complaint (info = 0), and every
        # sweep would then read NaN residuals as "not contained"
        if not np.all(np.isfinite(gram)):
            raise ReconstructionError("probe Gram is not finite")
        # the map data of a real operator pair to an exactly real Gram; kept
        # real, every sweep factors and gathers in real arithmetic
        self.gram = gram if np.any(gram.imag) else np.ascontiguousarray(gram.real)
        # sweeps share prefix factors across spans, so the ridge cannot
        # depend on the span: one value for the whole family
        self.reg = RIDGE_FACTOR * np.trace(self.gram).real / len(self.family)
        # per region vertex, its delta ball's probes in lead order: every box
        # around that vertex is a leading slice
        self.balls = []
        for c in range(wmap.local.size):
            idx = self.family.select(wmap.local.local_ball(c, cfg.delta), leads[-1])
            idx.setflags(write=False)
            self.balls.append(idx)

    # probe selection ------------------------------------------------------
    def box_indices(self, center_local, radius_limit):
        """Probes in S(center, delta, radius_limit - delta): ball vertices,
        lead budget radius_limit - delta.

        The indices come in lead order: the family is lead-major over
        ascending leads and select returns ascending indices, so a smaller
        box is a leading block of a larger one.  A box is a read-only slice
        of the center's ball table, cut by box_sizes.
        """
        idx = self.balls[center_local]
        return idx[:self.box_sizes(idx, radius_limit)]

    def box_sizes(self, ordered_idx, radius_limits):
        """How many of the lead-ordered probes the box at each radius limit keeps:
        those with lead <= radius_limit - delta + 1e-12, as select cuts.
        """
        budgets = np.asarray(radius_limits) - self.cfg.delta + 1e-12
        return np.searchsorted(self.family.lead[ordered_idx], budgets, side="right")

    def union(self, boxes):
        """Lead-ordered union of probe boxes: the first box, then each later
        box's members not already in, in lead order."""
        seen = np.zeros(len(self.family), dtype=bool)
        parts = []
        for box in boxes:
            parts.append(box[~seen[box]])
            seen[box] = True
        return np.concatenate(parts)

    # residual machinery -----------------------------------------------------
    def max_residual(self, target_idx, span_idx):
        """Largest projection residual of target states onto the span states:
        the one-radius _box_curve (1 for an empty span)."""
        if len(target_idx) == 0:
            raise ReconstructionError("no target probes in the box")
        return float(_box_curve(self, span_idx, target_idx, [len(span_idx)],
                                [len(target_idx)])[0])

    def containment(self, x, tau_x, balls):
        """Verdict for ball(x, tau_x) strictly inside the union of balls, given
        as (center, radius) pairs: True when the union of their boxes
        reproduces every wave state of the x box within CONTAINMENT_TOL.  An
        empty union never contains."""
        if min([tau_x] + [tau for _, tau in balls]) <= self.cfg.delta:
            raise ReconstructionError("ball radii must exceed the probe delta")
        t_idx = self.box_indices(x, tau_x)
        if len(t_idx) == 0:
            raise ReconstructionError("target box has no probes; enlarge tau_x")
        if not balls:
            return False
        span = self.union([self.box_indices(c, tau) for c, tau in balls])
        return self.max_residual(t_idx, span) < CONTAINMENT_TOL


# ---------------------------------------------------------------------------
# distances

def _arrival_row(wmap: WaveMapData, y, eta):
    """Per region vertex x, the earliest grid time at which the raw kernel
    column from x is visible at y, from one read of the r kernel rows of y:
    the amplitude of the block K[:, y, x] is its largest entry modulus, and
    the threshold eta times its own peak over the grid."""
    if not 0 < eta < 1:
        raise ReconstructionError("eta must be in (0, 1)")
    r = wmap.local.rank
    rows = hermitian_rows(wmap.kernel, flat_indices([y], r))
    amp = np.max(np.abs(rows).reshape(len(rows), r, -1, r), axis=(1, 3))
    peak = np.max(amp, axis=0)
    if not np.all(np.isfinite(peak)):
        raise ReconstructionError("kernel column is not finite")
    if not np.all(peak > 0):
        raise ReconstructionError("kernel column vanishes identically")
    return wmap.grid.times[np.argmax(amp > eta * peak, axis=0)]


def first_arrival_matrix(wmap: WaveMapData, eta):
    """First arrivals between every pair of region vertices, entry [y, x] from
    _arrival_row(y), one kernel read per vertex; the diagonal is 0."""
    out = np.array([_arrival_row(wmap, y, eta) for y in range(wmap.local.size)])
    np.fill_diagonal(out, 0.0)
    return out


def mesh_length(wmap):
    """The region's mesh length: its shortest internal edge."""
    if len(wmap.local.edge_lengths) == 0:
        raise ReconstructionError("region has no internal edge for a mesh length")
    return float(np.min(wmap.local.edge_lengths))


def _shell_width(wmap):
    """Containment shell eps: two mesh steps.

    The continuum characterization quantifies over arbitrarily small
    shells; on a lattice a sub-mesh shell carries no vertices and the
    dispersive wavefront covers it, so the witness must be mesh-scale
    (the measured verdicts with a finer shell are uninformative).
    """
    return 2.0 * mesh_length(wmap)


def _first_accept(curve):
    """(hit, res_lo, res_hi): the first radius of a sweep's residual curve that
    clears the automatic threshold, None when none does.

    The violation level res_lo is the largest residual over the first three
    radii (the very first value can sit in a degenerate tiny-box regime), the
    acceptance floor res_hi the last one; the threshold is their log-midpoint,
    and a sweep with less than a factor 2 between them has no contrast.
    """
    res_lo = float(np.max(curve[:min(3, len(curve) - 1)]))
    res_hi = float(curve[-1])
    if res_lo < CONTAINMENT_TOL and res_hi < CONTAINMENT_TOL:
        return 0, res_lo, res_hi  # accepted everywhere
    thr = np.exp(0.5 * np.log(max(res_lo, 1e-12)) + 0.5 * np.log(max(res_hi, 1e-12)))
    # the last radius clears every threshold with contrast, unless it is NaN
    if res_lo < 2.0 * res_hi or not res_hi < thr:
        return None, res_lo, res_hi
    return int(np.argmax(curve < thr)), res_lo, res_hi


def _sweep_radii(eng, start):
    """The radii of a sweep from start: steps of h/2 from start + delta + h/2
    below T - delta, h mesh_length; a sweep needs two."""
    wmap, delta = eng.wmap, eng.cfg.delta
    h = mesh_length(wmap)
    r_grid = np.arange(start + delta + h / 2, wmap.horizon - delta, h / 2)
    if len(r_grid) < 2:
        raise ReconstructionError("radius sweep needs at least two values")
    return r_grid


def _sweep_radius(r_grid, curve):
    """The midpoint convention of a sweep: first accepted radius minus half a
    step, or +inf when no radius is accepted."""
    hit, _, _ = _first_accept(curve)
    if hit is None:
        return np.inf
    return float(r_grid[hit] - 0.5 * (r_grid[1] - r_grid[0]))


def _cut_time_curve(eng, x, y, s, r_grid):
    """Residual of box(y, r - s + eps) against box(x, r) at every sweep radius,
    eps the shell width.

    Both boxes are taken in lead order at the largest radius; radii with no
    admissible target ball read 1.
    """
    tau_t = r_grid - s + _shell_width(eng.wmap)
    valid = (tau_t > eng.cfg.delta + 1e-12) & (r_grid > s)
    curve = np.ones(len(r_grid))
    if not np.any(valid):
        return curve
    span = eng.box_indices(x, r_grid[-1])
    targets = eng.box_indices(y, tau_t[-1])
    curve[valid] = _box_curve(eng, span, targets, eng.box_sizes(span, r_grid[valid]),
                              eng.box_sizes(targets, tau_t[valid]))
    return curve


def cut_time_estimate(eng: ProbeEngine, x, y, s):
    """Cut time of the ray from x through y, s the first arrival at y (entry
    [y, x] of first_arrival_matrix): the smallest radius at which
    ball(y, r - s + eps) fits inside ball(x, r).

    Sweeps the radii of _sweep_radii from s with a mesh-scale shell witness;
    the verdict threshold is the log-midpoint between the sweep's violation
    plateau and its acceptance floor.  Returns the midpoint convention (first
    accepted minus half a step), or +inf when nothing is accepted.
    """
    r_grid = _sweep_radii(eng, s)
    return _sweep_radius(r_grid, _cut_time_curve(eng, x, y, s, r_grid))


@dataclass(frozen=True)
class RayPoint:
    """The point at parameter r_prime on the ray from x through y, as its
    exterior sweeps read it: what no single region vertex z decides, built
    once per point by ray_point."""

    r_prime: float
    x_box: np.ndarray    # box(x, r_prime), the head of every sweep's span
    targets: np.ndarray  # box(y, r_prime - s + eps), the states to reproduce
    eps: float           # the shell width
    r_grid: np.ndarray   # the sweep radii, ascending


def ray_point(eng: ProbeEngine, x, y, s, r_prime):
    """The RayPoint at r_prime on the ray from x through y, s the first
    arrival at y; its sweeps take the radii of _sweep_radii from 0."""
    wmap, delta = eng.wmap, eng.cfg.delta
    r_grid = _sweep_radii(eng, 0.0)
    eps = _shell_width(wmap)
    tau_target = r_prime - s + eps
    if tau_target <= delta:
        raise ReconstructionError("target ball too small for the probe delta")
    targets = eng.box_indices(y, tau_target)
    if len(targets) == 0:
        raise ReconstructionError("target box has no probes")
    return RayPoint(r_prime, eng.box_indices(x, r_prime), targets, eps, r_grid)


def _exterior_curve(eng, point: RayPoint, z):
    """Residual of the target box against x_box u box(z, r) at every sweep radius.

    The span is the lead-ordered union [x_box, box(z, r_max)], so the span
    at each radius is a leading block of the span at the largest one.
    """
    x_box = point.x_box
    span = eng.union([x_box, eng.box_indices(z, point.r_grid[-1])])
    n_span = len(x_box) + eng.box_sizes(span[len(x_box):], point.r_grid)
    return _box_curve(eng, span, point.targets, n_span,
                      np.full(len(n_span), len(point.targets)))


def exterior_distance(eng: ProbeEngine, point: RayPoint, z):
    """Distance from a ray point to the region vertex z, via the two-ball
    containment sweep.

    Valid for a ray parameter below the cut time of the ray (caller's
    precondition; distance_family enforces it).  The returned infimum is
    corrected for the mesh-scale shell witness (half a shell plus half a
    sweep step of systematic overshoot).
    """
    curve = _exterior_curve(eng, point, z)
    # an unaccepted sweep stays +inf
    return max(_sweep_radius(point.r_grid, curve) - 0.5 * point.eps, 0.0)


# ---------------------------------------------------------------------------
# the distance-profile family

@dataclass
class DistanceProfileSet:
    """Recovered distance profiles d(p, .) over the region vertices."""

    region_vertices: tuple
    profiles: np.ndarray  # (n_points, |U|)
    provenance: list
    rays_skipped: int       # rays from edge-of-region bases, not swept
    lipschitz_dropped: int  # profiles failing the 1-Lipschitz filter
    duplicates_merged: int  # near-duplicate profiles merged into an earlier one

    def __len__(self):
        return len(self.profiles)


@dataclass(frozen=True)
class RayPlan:
    """One exterior sweep: base vertex, direction proxy, ray parameters."""

    x: int
    y: int
    r_values: tuple


def distance_family(eng: ProbeEngine, rays, arrivals):
    """Recover the family of distance profiles d(p, .)|_U from the engine's map data.

    arrivals is first_arrival_matrix of the engine's map and eta.  Region
    points contribute its rows; exterior points come
    from the ray sweeps, in steps of half a mesh length.  Profiles violating
    the 1-Lipschitz bound (with a dispersion slack of 0.35) are dropped;
    profiles within 0.75 mesh lengths of an earlier one are merged.  The set
    counts the rays skipped at edge-of-region bases and the profiles each
    filter removed.

    A ray profile is swept over the region vertices in order and dropped at
    the first vertex whose sweep is non-finite (counted nowhere) or breaks
    the Lipschitz bound against the vertices before it (lipschitz_dropped);
    the sweeps after that vertex are never run.
    """
    wmap, cfg = eng.wmap, eng.cfg
    n = wmap.local.size
    h = mesh_length(wmap)
    slack = 0.35
    bound = wmap.local.distances * (1 + slack) + slack * h + 1e-9

    def lipschitz_at(prof, z):
        """Whether prof[z] keeps the bound against prof[:z + 1], both ways."""
        gap = np.abs(prof[z] - prof[:z + 1])
        return bool(np.all(gap <= bound[z, :z + 1]) and np.all(gap <= bound[:z + 1, z]))

    # 1-Lipschitz validity filter against the local metric
    profiles, prov = [], []
    for i, prof in enumerate(arrivals):
        if all(lipschitz_at(prof, z) for z in range(n)):
            profiles.append(prof)
            prov.append({"kind": "region", "vertex": i})
    lipschitz_dropped = n - len(profiles)
    diam_cap = wmap.horizon - cfg.delta
    full = wmap.local.full_balls(cfg.delta)
    rays_skipped = 0
    for ray in rays:
        # edge-of-region bases have undersized probe boxes and produce mushy
        # cut profiles; skip them (callers pick interior bases for coverage)
        if not (full[ray.x] and full[ray.y]):
            rays_skipped += 1
            continue
        s = arrivals[ray.y, ray.x]
        tstar = cut_time_estimate(eng, ray.x, ray.y, s)
        for r_prime in ray.r_values:
            if r_prime >= min(CUT_MARGIN * tstar, diam_cap):
                continue
            point = ray_point(eng, ray.x, ray.y, s, r_prime)
            prof = np.empty(n)
            for z in range(n):
                prof[z] = exterior_distance(eng, point, z)
                if not np.isfinite(prof[z]):
                    break
                if not lipschitz_at(prof, z):
                    lipschitz_dropped += 1
                    break
            else:
                profiles.append(prof)
                prov.append({"kind": "ray", "x": int(ray.x), "y": int(ray.y), "r": float(r_prime)})
    # merge near-duplicates
    merged, merged_prov = [], []
    for prof, pv in zip(profiles, prov):
        if not any(np.max(np.abs(q - prof)) < 0.75 * h for q in merged):
            merged.append(prof)
            merged_prov.append(pv)
    return DistanceProfileSet(
        region_vertices=wmap.local.vertices,
        profiles=np.asarray(merged).reshape(len(merged), n),
        provenance=merged_prov,
        rays_skipped=rays_skipped,
        lipschitz_dropped=lipschitz_dropped,
        duplicates_merged=len(profiles) - len(merged),
    )


def match_profiles(recovered: DistanceProfileSet, oracle_profiles, rel_tol):
    """Fraction of oracle profiles matched by recovered ones in sup norm.

    A match requires sup-norm deviation within rel_tol of the oracle
    profile scale; ambiguity (two oracle rows nearest to
    one recovered profile within tolerance of each other) is reported.
    """
    oracle = np.asarray(oracle_profiles)
    got = recovered.profiles
    matched = np.zeros(len(oracle), dtype=bool)
    assignments = []
    claims = {}
    for i, row in enumerate(oracle):
        if not len(got):
            break  # nothing recovered matches no oracle profile
        devs = np.max(np.abs(got - row[None, :]), axis=1)
        j = int(np.argmin(devs))
        tol = rel_tol * max(np.max(np.abs(row)), 1e-12)
        if devs[j] <= tol:
            matched[i] = True
            assignments.append((i, j, float(devs[j])))
            claims.setdefault(j, []).append(i)
    # two oracle points claiming one recovered profile: the base matching is
    # ambiguous there and must be reported, not guessed
    ambiguous = sorted(j for j, rows in claims.items() if len(rows) > 1)
    return {
        "fraction": float(np.mean(matched)),
        "matched": matched,
        "assignments": assignments,
        "ambiguous": ambiguous,
    }


# ---------------------------------------------------------------------------
# local operator recovery

@dataclass
class ChartOperator:
    """Recovered (or reference) operator data on a chart.

    vertices are local region indices; transports sit on the listed edges
    (data carried from edge[1] to edge[0]); potentials are per chart vertex.
    """

    vertices: tuple
    edges: list
    transports: np.ndarray
    potentials: np.ndarray
    diagnostics: dict

    def holonomy(self, loop):
        lut = {}
        for i, (a, b) in enumerate(self.edges):
            lut[(a, b)] = self.transports[i]
            lut[(b, a)] = self.transports[i].conj().T
        verts = [int(v) for v in loop]
        if verts[0] != verts[-1]:
            verts = verts + [verts[0]]
        acc = np.eye(self.transports.shape[1], dtype=np.complex128)
        for a, b in zip(verts[:-1], verts[1:]):
            if (a, b) not in lut:
                raise ReconstructionError(f"loop edge ({a}, {b}) not in the chart")
            acc = acc @ lut[(a, b)]
        return complex(np.trace(acc))


def _polar_unitary(M):
    u, _, vt = np.linalg.svd(M)
    return u @ vt


def recover_local_operator(wmap: WaveMapData, chart, cfg: ProbeConfig):
    """Recover edge transports and the potential on a chart of the region.

    Uses the wave data twice: responses w^h(t, .) of a rich probe family
    give both the states at the horizon and, through a fourth-order second
    difference in time, the operator action P w^h(T, .) at every chart
    vertex.  A least-squares fit then identifies the local operator blocks,
    which split into the known metric degree term, the potential, and the
    conductance-scaled transports (polar-corrected to unitaries).
    """
    local = wmap.local
    r = local.rank
    chart = [int(v) for v in chart]
    for v in chart:
        if not 0 <= v < local.size:
            raise ReconstructionError(f"chart vertex {v} is outside the observation region")
    dt = wmap.grid.dt
    n_half = wmap.half_index
    # probe family: 24 leads of bumps ending well before T so the source
    # term vanishes on the difference stencil
    leads = np.linspace(cfg.width + 6 * dt, wmap.horizon - 4 * dt, 24)
    fam = build_source_family(wmap, range(local.size), leads, cfg.width)
    # responses at the five stencil rows around T
    near_T = wmap.respond(fam.sources, rows=range(n_half - 2, n_half + 3))
    at_T = near_T[:, 2, :]
    stencil = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * dt**2)
    d2 = np.tensordot(stencil, near_T, axes=(0, 1))
    chart_index = {v: i for i, v in enumerate(chart)}
    recorded = set()  # local edge ids already fitted
    edges, transports, potentials = [], [], []
    conds = []
    unitary_devs, herm_devs = [], []
    mu = local.volumes
    for v in chart:
        nbrs = local.neighbors(v)
        cols = [v] + nbrs
        M = at_T[:, flat_indices(cols, r)]
        Y = -d2[:, flat_indices([v], r)]
        # Y[h, a] = sum_{c, b} P[v, c][a, b] M[h, c*r + b]: lstsq returns the
        # stacked (c*r + b, a) layout, so each block is the plain transpose
        sol, _, rank, svals = np.linalg.lstsq(M, Y, rcond=1e-10)
        conds.append(float(svals[0] / svals[-1]) if svals[-1] > 0 else np.inf)
        if rank < M.shape[1]:
            raise ReconstructionError(
                f"probe family is rank deficient at chart vertex {v} "
                f"({rank} < {M.shape[1]})"
            )
        Zr = sol.reshape(len(cols), r, r)
        ids = local.edge_index([(v, u) for u in nbrs])[0].tolist()
        # c_vu per neighbour: the edge conductance, volume-symmetrised
        c = [local.edge_weights[i] * np.sqrt(mu[u] / mu[v]) for i, u in zip(ids, nbrs)]
        # diagonal block: degree term + potential
        Avv = Zr[0].T - sum(c) * np.eye(r)
        herm_devs.append(np.max(np.abs(Avv - Avv.conj().T)))
        potentials.append(0.5 * (Avv + Avv.conj().T))
        # every region edge is fitted once, also one that leaves the chart
        # (its polar correction counts); chart edges are kept
        for i, u, c_vu, Z in zip(ids, nbrs, c, Zr[1:]):
            if i in recorded:
                continue
            recorded.add(i)
            raw = -Z.T / c_vu
            U = _polar_unitary(raw)
            unitary_devs.append(np.max(np.abs(raw - U)))
            if u in chart_index:
                edges.append((chart_index[v], chart_index[u]))
                transports.append(U)
    return ChartOperator(
        vertices=tuple(chart),
        edges=edges,
        transports=np.asarray(transports).reshape(len(transports), r, r),
        potentials=np.asarray(potentials).reshape(len(chart), r, r),
        # np.max, unlike Python's max, lets a NaN win
        diagnostics={
            "unitary_deviation": float(np.max(unitary_devs, initial=0.0)),
            "hermitian_deviation": float(np.max(herm_devs, initial=0.0)),
            "ls_condition": float(np.max(conds)),
        },
    )


def gauge_invariant_compare(recovered: ChartOperator, reference: ChartOperator, loops):
    """(holonomy deviation, potential spectrum deviation): how far two charts
    are from equal up to gauge, over the holonomy traces of a loop basis and
    the per-vertex potential spectra.  The caller gates them.

    Both charts must be indexed compatibly (the base matching); loops are
    vertex index sequences valid in both.
    """
    if len(recovered.vertices) != len(reference.vertices):
        raise ReconstructionError("chart sizes differ")
    # np.max, unlike Python's max, lets a NaN win, so a NaN never passes a gate
    hol_dev = float(np.max([abs(recovered.holonomy(loop) - reference.holonomy(loop))
                            for loop in loops], initial=0.0))
    pot_dev = float(np.max([
        np.max(np.abs(np.sort(np.linalg.eigvalsh(p1)) - np.sort(np.linalg.eigvalsh(p2))),
               initial=0.0)
        for p1, p2 in zip(recovered.potentials, reference.potentials)], initial=0.0))
    return hol_dev, pot_dev
