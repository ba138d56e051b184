"""The three benchmark workloads: inputs from a seed, passes of timed items, oracles.

Each workload builds its inputs from the seed alone (``__init__``), offers a
cheap ``warmup`` through the same code and runs its items in passes
(``run_pass``).  Every pass runs the same items in the same order, so each
item runs once per pass.  Every item is checked against an oracle that does
not come from polyflat: closed forms for counts, divergences and inverses,
the generating point, or the scenario's own structure.  ``defect_probe``
measures two known dual-layer defects apart from the timed items.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from fractions import Fraction
from pathlib import Path

import numpy as np

import polyflat as pf
from polyflat import cli, jsonio


def _simplex_product(dims):
    """Half-spaces of the product of standard simplices of the given dimensions.

    Returns (normals, offsets, factor_of_facet) with integer normals in the
    full dimension sum(dims).
    """
    n = sum(dims)
    normals, offsets, factor = [], [], []
    first = 0
    for f, d in enumerate(dims):
        for j in range(first, first + d):
            normals.append(tuple(1 if i == j else 0 for i in range(n)))
            offsets.append(0)
            factor.append(f)
        normals.append(tuple(-1 if first <= i < first + d else 0 for i in range(n)))
        offsets.append(1)
        factor.append(f)
        first += d
    return normals, offsets, factor


def _closed_counts(dims):
    """(vertices, facets) of a product of simplices."""
    return int(np.prod([d + 1 for d in dims])), sum(d + 1 for d in dims)


def _facet_dims(dims, f):
    """Factor dimensions of a facet lying on a facet of factor f."""
    out = list(dims)
    out[f] -= 1
    return [d for d in out if d > 0]


class ExactFaces:
    """Delzant family through the exact layer: validation, torify, facet restriction."""

    latency = "face"
    throughput = "face"
    aux = "polytope"
    names = {
        "latency_p50": "face_p50_ms",
        "latency_tail": "face_tail_ms",
        "throughput": "faces_per_s",
        "aux_p50": "polytope_verdict_p50_ms",
    }

    # n-cubes (n = 3..5), simplices (n = 3..6), and three products of simplices
    FAMILY = (
        ("cube3", (1, 1, 1)),
        ("cube4", (1, 1, 1, 1)),
        ("cube5", (1, 1, 1, 1, 1)),
        ("simplex3", (3,)),
        ("simplex4", (4,)),
        ("simplex5", (5,)),
        ("simplex6", (6,)),
        ("D2xD2", (2, 2)),
        ("D3xD2", (3, 2)),
        ("D2xI2", (2, 1, 1)),
    )

    def __init__(self, root, seed, workdir):
        rng = np.random.default_rng(seed)
        self.specs = []
        for name, dims in self.FAMILY:
            normals, offsets, factor = _simplex_product(dims)
            n = len(normals[0])
            # a seeded lattice automorphism (signed coordinate permutation plus an
            # integer translation) and facet order: same combinatorics and counts
            perm = rng.permutation(n)
            signs = rng.choice((-1, 1), size=n)
            shift = rng.integers(-3, 4, size=n)
            moved = []
            for nu, lam, f in zip(normals, offsets, factor):
                new = [0] * n
                for i in range(n):
                    new[perm[i]] = int(signs[perm[i]]) * nu[i]
                moved.append((tuple(new), Fraction(lam) - sum(a * int(t) for a, t in zip(new, shift)), f))
            order = rng.permutation(len(moved))
            moved = [moved[i] for i in order]
            # two facets per polytope, the same two in every seed: the first
            # coordinate facet of the first factor and the slanted facet of
            # the last.  Fewer than all keeps a pass short enough to repeat
            # every item several times in a run.
            faces = [r for r, i in enumerate(order, start=1) if i in (0, len(order) - 1)]
            self.specs.append((name, tuple(dims), moved, faces))

    def _fresh(self, moved):
        n = len(moved[0][0])
        return pf.Polytope(dim=n, halfspaces=tuple(pf.halfspace(nu, lam) for nu, lam, _ in moved))

    def _polytope(self, rec, name, dims, moved, faces):
        """A fresh polytope's verdict, then the restriction to each facet in `faces`."""
        P = self._fresh(moved)
        verts, facets = _closed_counts(dims)

        def verdict():
            return pf.validate_delzant(P), pf.from_mixture(pf.to_mixture(P))

        def check_verdict(result):
            report, tor = result
            if not report.valid:
                return "polytope not Delzant"
            if len(pf.vertices(P)) != verts or P.n_facets != facets:
                return "vertex or facet count differs from the closed form"
            if not tor.torifiable or set(tor.polytope.halfspaces) != set(P.halfspaces):
                return "torify round trip changed the half-spaces"
            return None

        rec.run(f"polytope/{name}", verdict, check_verdict)
        phi = pf.guillemin(P)
        for r in faces:
            f = moved[r - 1][2]

            def restrict(r=r):
                chart = pf.face_chart(P, (r,))
                return pf.restrict_polytope(P, chart), pf.restrict_potential(phi, chart)

            def check_face(result, fdims=_facet_dims(dims, f)):
                F, phi_f = result
                fverts, ffacets = _closed_counts(fdims)
                if F.dim != P.dim - 1 or phi_f.dim != P.dim - 1:
                    return "restriction has the wrong dimension"
                if F.n_facets != ffacets or len(pf.vertices(F)) != fverts:
                    return "facet counts differ from the closed form"
                if len(phi_f.log_terms) != P.n_facets - 1:
                    return "restricted potential keeps the wrong log terms"
                if not pf.validate_delzant(F).valid:
                    return "restricted facet not Delzant"
                return None

            rec.run(f"face/{name}", restrict, check_face)

    def warmup(self, rec):
        self._polytope(rec, *self.specs[0])

    def run_pass(self, rec, k):
        for spec in self.specs:
            self._polytope(rec, *spec)


class VerifySweep:
    """The CLI's verify-all verdict on the bundled scenarios over derived seeds."""

    latency = "verdict"
    throughput = "verdict"
    aux = "verdict/triangle-negative-control"
    names = {
        "latency_p50": "verdict_p50_ms",
        "latency_tail": "verdict_tail_ms",
        "throughput": "verdicts_per_s",
        "aux_p50": "negative_control_p50_ms",
    }
    SCENARIOS = ("triangle", "square", "triangle_negative_control")
    SEEDS = 8  # sweep seeds per run; a pass runs every scenario at each

    def __init__(self, root, seed, workdir):
        self.workdir = Path(workdir)
        self.base_seed = seed * 100_000
        self.seeds = [self.base_seed + j for j in range(self.SEEDS)]
        self.scenarios = []
        for name in self.SCENARIOS:
            src = Path(root) / "scenarios" / f"{name}.json"
            dst = self.workdir / src.name
            shutil.copyfile(src, dst)
            data = json.loads(dst.read_text())
            self.scenarios.append((data["name"], dst, self._expected(data)))
        self.digests = {}

    @staticmethod
    def _expected(data):
        """Exit code and check names (with pass flags) that the scenario must give.

        Structure of a sweep on a polygon with N edges: Delzant, Legendre round
        trip, divergence expansion, the KL relation for zero-sum normals, four
        checks per edge and two product checks.  The negative control perturbs
        every boundary foot, so exactly its boundary-foot checks fail.
        """
        normals = [hs["normal"] for hs in data["polytope"]["halfspaces"]]
        names = ["delzant", "legendre-roundtrip", "divergence-expansion"]
        if all(sum(col) == 0 for col in zip(*normals)):
            names.append("kl-relation")
        for _ in normals:
            names += [
                "boundary-continuity",
                "pythagoras-boundary-foot",
                "pythagoras-interior-identity",
                "pythagoras-interior-orthogonal",
            ]
        if data.get("product_check", True):
            names += ["product-additivity", "product-pythagoras"]
        negative = data.get("negative_control", False)
        expected = [(name, not (negative and name == "pythagoras-boundary-foot")) for name in names]
        return (1 if negative else 0), expected

    def _verdict(self, rec, name, path, expected, seed):
        out = self.workdir / f"{name}-out.json"
        argv = ["verify-all", str(path), "--seed", str(seed), "--out", str(out)]

        def check(code):
            want_code, want_checks = expected
            if code != want_code:
                return f"exit code {code}, expected {want_code}"
            text = out.read_bytes()
            digest = hashlib.sha256(text).hexdigest()
            if self.digests.setdefault((name, seed), digest) != digest:
                return "verdict file differs from an earlier pass with the same seed"
            got = [(c["check"], c["pass"]) for c in json.loads(text)["checks"]]
            if sorted(got) != sorted(want_checks):
                return "checks differ from the scenario's expected verdicts"
            return None

        rec.run(f"verdict/{name}", lambda: cli.main(argv), check)

    def warmup(self, rec):
        for name, path, expected in self.scenarios:
            self._verdict(rec, name, path, expected, self.base_seed + 99_999)

    def run_pass(self, rec, k):
        for seed in self.seeds:
            for name, path, expected in self.scenarios:
                self._verdict(rec, name, path, expected, seed)

    def digest(self):
        """One hash over every (scenario, seed) verdict JSON of the run."""
        h = hashlib.sha256()
        for (name, seed), d in sorted(self.digests.items()):
            h.update(f"{name} {seed} {d}\n".encode())
        return h.hexdigest()


def _simplex(n):
    normals, offsets, _ = _simplex_product((n,))
    return pf.Polytope(dim=n, halfspaces=tuple(pf.halfspace(a, b) for a, b in zip(normals, offsets)))


def _vertex_mix(P, rng):
    """A random convex combination of the vertices of P."""
    verts = np.array([v.array for v in pf.vertices(P)])
    return rng.dirichlet(np.ones(len(verts))) @ verts


def _toward_facet(P, z, rng, band):
    """z moved against the inward normal of a random facet, to the fraction
    1 - band of the way to the boundary."""
    d = -P.normal_matrix[int(rng.integers(P.n_facets))]
    rates = P.normal_matrix @ d
    vals = P.facet_values(z)
    t_exit = float(np.min(vals[rates < 0] / -rates[rates < 0]))
    return z + (1.0 - band) * t_exit * d


def _near_facet(P, rng, band):
    """An interior point at relative distance `band` from the boundary.

    It starts half way between the centroid and a random convex combination
    of the vertices, which keeps every facet distance at least about band / 10.
    """
    centroid = np.array([float(c) for c in P.centroid])
    return _toward_facet(P, 0.5 * centroid + 0.5 * _vertex_mix(P, rng), rng, band)


def _simplex_inverse(y, s):
    """Closed-form inverse of the Guillemin gradient map on the standard simplex."""
    e = np.exp(np.asarray(y) / s)
    return e / (1.0 + e.sum(axis=-1, keepdims=True))


class DualSolve:
    """The dual layer three ways: a divergence table, cold inversions, warm geodesic walks."""

    latency = "solve"
    throughput = "table"
    aux = "walk"
    names = {
        "latency_p50": "solve_p50_ms",
        "latency_tail": "solve_tail_ms",
        "latency_rate": "solves_per_s",
        "throughput": "pairs_per_s",
        "aux_p50": "walk_p50_ms",
    }

    SCALE = 0.5
    # the deepest band keeps facet distances above 1e-5; cold solves stall
    # below about 1e-6 (see defect_probe)
    BANDS = (1e-1, 1e-3, 1e-4)
    SOLVES_PER_BAND = 120
    WALKS_PER_SIMPLEX = 20
    WALK_FIRST_T = 1.0 / 16.0
    WALK_FLOOR = 1e-5  # a walk ends before the closed form comes this close to a facet
    TABLES = 10  # the pairs go through the CLI in this many tables
    PAIRS = 10_000

    def __init__(self, root, seed, workdir):
        rng = np.random.default_rng(seed)
        s = self.SCALE
        workdir = Path(workdir)

        # (a) divergence tables in the 3-simplex through the CLI; short
        # tables follow the core's changing speed more closely
        S3 = _simplex(3)
        self.problem = workdir / "simplex3.json"
        self.problem.write_text(json.dumps({
            "polytope": jsonio.polytope_to_dict(S3),
            "potential": {"guillemin_of": "polytope", "scale": s},
        }))
        self.tables = []
        for j in range(self.TABLES):
            pts = rng.dirichlet(np.ones(4), size=(self.PAIRS // self.TABLES, 2))[:, :, :3]
            points = workdir / f"pairs{j}.json"
            points.write_text(json.dumps({"pairs": pts.tolist()}))
            self.tables.append((points, workdir / f"table{j}.json", pts[:, 0], pts[:, 1]))

        # (b) inversions: Guillemin 3-simplex against the closed-form inverse,
        # trapezoid x [0,1] with a convex quadratic correction against the
        # generating point
        trapezoid = pf.Polytope(dim=2, halfspaces=(
            pf.halfspace((1, 0), 0), pf.halfspace((0, 1), 0),
            pf.halfspace((-1, -1), 2), pf.halfspace((0, -1), 1),
        ))
        TP = pf.product(trapezoid, _simplex(1))
        correction = pf.Polynomial.from_monomials(
            3, [((2, 0, 0), 0.5), ((0, 2, 0), 0.5), ((0, 0, 2), 0.5), ((1, 1, 0), 0.2)]
        )
        self.solve_cases = (
            ("simplex3", S3, pf.guillemin(S3, s)),
            ("corrected", TP, pf.SymplecticPotential(
                dim=3, scale=s, log_terms=pf.guillemin(TP, s).log_terms, correction=correction,
            )),
        )
        # (c) dual geodesic walks from the centroid of the 2- and 3-simplex
        self.walk_cases = []
        for n in (2, 3):
            P = _simplex(n)
            self.walk_cases.append((n, P, pf.guillemin(P, s), np.full(n, 1.0 / (n + 1))))
        self.solves, self.walks = self._items(rng)

    def _items(self, rng):
        """Solve targets and walk directions, the same in every pass."""
        s = self.SCALE
        solves = []
        for label, P, phi in self.solve_cases:
            for band in self.BANDS:
                for _ in range(self.SOLVES_PER_BAND):
                    x = _near_facet(P, rng, band)
                    y = phi.gradient(x)
                    want = _simplex_inverse(y, s) if label == "simplex3" else x
                    solves.append((f"solve/{label}/{band:g}", P, phi, y, want))
        # y = 0 at the centroid, so the dual geodesic along d is y(t) = t d;
        # the walk visits t = WALK_FIRST_T * 2^j while the closed-form point
        # stays WALK_FLOOR away from every facet
        walks = []
        for n, P, phi, start in self.walk_cases:
            for _ in range(self.WALKS_PER_SIMPLEX):
                d = rng.normal(size=n)
                targets, wants = [], []
                t = self.WALK_FIRST_T
                while True:
                    x = _simplex_inverse(t * d, s)
                    if min(x.min(), 1.0 - x.sum()) < self.WALK_FLOOR:
                        break
                    targets.append(t * d)
                    wants.append(x)
                    t *= 2.0
                walks.append((f"walk/simplex{n}", P, phi, start, targets, wants))
        return solves, walks

    def _table(self, rec, table):
        points, out, xa, xb = table
        argv = ["divergence", str(self.problem), "--points", str(points), "--out", str(out)]

        def check(code):
            if code != 0:
                return f"exit code {code}"
            rows = json.loads(out.read_text())["rows"]
            if len(rows) != len(xa):
                return "table has the wrong number of rows"
            got = np.array([r["divergence"] for r in rows], dtype=float)
            # closed form for the Guillemin simplex: the linear terms cancel
            # because the facet normals sum to zero
            la, lb = (np.column_stack([x, 1.0 - x.sum(axis=1)]) for x in (xa, xb))
            want = self.SCALE * np.sum(la * np.log(la / lb), axis=1)
            if np.any(got < 0) or np.max(np.abs(got - want) - 1e-11 * np.abs(want)) > 1e-10:
                return "divergence differs from the closed form"
            return None

        rec.run("table", lambda: cli.main(argv), check, units=len(xa))

    @staticmethod
    def _solve(rec, item):
        kind, P, phi, y, want = item

        def check(pair):
            if np.max(np.abs(pair.x_array - want)) > 1e-9:
                return "inverse differs from the oracle"
            return None

        rec.run(kind, lambda: pf.from_dual(phi, P, y), check)

    @staticmethod
    def _walk(rec, item):
        """Newton warm-started from the previous point at each time of the walk."""
        kind, P, phi, start, targets, wants = item

        def walk():
            x, path = start, []
            for y in targets:
                x = pf.from_dual(phi, P, y, x0=x).x_array
                path.append(x)
            return path

        def check(path):
            if max(float(np.max(np.abs(x - w))) for x, w in zip(path, wants)) > 1e-9:
                return "walk point differs from the closed-form inverse"
            return None

        rec.run(kind, walk, check)

    def warmup(self, rec):
        for item in self.solves[:: self.SOLVES_PER_BAND]:
            self._solve(rec, item)
        self._walk(rec, self.walks[0])
        self._table(rec, self.tables[0])

    def run_pass(self, rec, k):
        for table in self.tables:
            self._table(rec, table)
        for item in self.solves:
            self._solve(rec, item)
        for item in self.walks:
            self._walk(rec, item)


# targets of the known-defect probe: cold solves this close to a facet, and
# geodesic limits along random directions
PROBE_BAND = 1e-6
PROBE_SOLVES = 240
PROBE_LIMITS = 20


def defect_probe(seed):
    """Attempts and failures of two known dual-layer defects, outside the timed items.

    Cold ``from_dual`` stalls for a few percent of the targets about 1e-7
    from a facet, and ``dual_geodesic_limit`` raises "direction drifts" on
    about half of the directions, although every limit is the vertex at
    argmax(0, d_1, ..., d_n).  The timed workloads keep clear of both, so
    their operations do not fail; this probe keeps the defects measured.
    Returns {name: (attempted, failed)}.
    """
    rng = np.random.default_rng([seed, 1_000_003])
    s = DualSolve.SCALE
    S3 = _simplex(3)
    phi3 = pf.guillemin(S3, s)
    counts = {}
    failed = 0
    for _ in range(PROBE_SOLVES):
        # from a plain vertex mix, which may already lie near the facet, the
        # facet distance reaches about 1e-7
        y = phi3.gradient(_toward_facet(S3, _vertex_mix(S3, rng), rng, PROBE_BAND))
        try:
            got = pf.from_dual(phi3, S3, y).x_array
            failed += bool(np.max(np.abs(got - _simplex_inverse(y, s))) > 1e-9)
        except pf.NumericalError:
            failed += 1
    counts["from_dual"] = (PROBE_SOLVES, failed)
    failed = 0
    attempted = 0
    for n in (2, 3):
        P = _simplex(n)
        phi = pf.guillemin(P, s)
        start = tuple(float(c) for c in P.centroid)
        for _ in range(PROBE_LIMITS // 2):
            d = rng.normal(size=n)
            top = int(np.argmax(np.append(0.0, d)))
            vertex = np.zeros(n)
            if top:
                vertex[top - 1] = 1.0
            spec = pf.GeodesicSpec(kind="dual", start=start, direction=tuple(d))
            attempted += 1
            try:
                limit = pf.dual_geodesic_limit(phi, P, spec)
                failed += bool(np.max(np.abs(np.array(limit.point) - vertex)) > 1e-9)
            except pf.NumericalError:
                failed += 1
    counts["dual_geodesic_limit"] = (attempted, failed)
    return counts


WORKLOADS = {
    "verify-sweep": VerifySweep,
    "exact-faces": ExactFaces,
    "dual-solve": DualSolve,
}
