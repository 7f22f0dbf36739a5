"""Finite abstract simplicial complexes and simplicial maps.

Simplices are strictly increasing tuples of vertex indices, whose order
cup products and barycentric subdivision rely on.  Complexes and maps are
immutable, so each keeps all that is derived from it in one ``_memo`` dict,
computed once: a complex's face indices, boundaries and cofaces under keys
such as ``("faces", k)``, homology's reductions and bases, and the analyses'
facts.  A refusal stores no fact.  A complex has one checked way in,
``from_simplices``, which closes its generators; derived complexes and maps
are trusted, and checked entries are read by ``operator.index``.  Checks,
closure, face indices and map images run in passes over the vertex columns
of each dimension, one face iterator per ``combinations`` position; a map
is checked through its image index, and connectivity ends in pointer jumping.
"""

from __future__ import annotations

from itertools import chain, combinations, compress, count, repeat
from operator import eq, index, itemgetter, lt, or_

from .errors import InputError
from .gf2 import Gf2Matrix


def _roots(n, pairs):
    """Union-find over 0..n-1 joined by the given pairs; a root per element.  Unions
    halve paths, and pointer jumping (a ``map`` pass per round) lifts all to their roots."""
    parent, up = list(range(n)), None
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        parent[a] = b
    while up != parent:
        up, parent = parent, list(map(parent.__getitem__, parent))
    return parent


def _integers(entries, refusal):
    """``entries`` as ints by ``operator.index`` (True is 1; 2.5 and "3" are refused)."""
    try:
        return tuple(map(index, entries))
    except TypeError:
        raise InputError(refusal) from None


def _normalize_simplex(s):
    t = _integers(s, f"simplex {s!r} has a vertex that is not an integer")
    if not all(map(int.__lt__, t, t[1:])):
        raise InputError(f"simplex {t} is not strictly increasing")
    return t


def _faces(group, n):
    """Face iterators of n-vertex simplices from their vertex columns, in ``combinations``
    order.  Columns are itemgetter passes: ``zip(*group)`` would make one iterator per
    simplex, and so wake the cyclic collector on every large group."""
    cols = [list(map(itemgetter(i), group)) for i in range(n)]
    return [zip(*cols[:j], *cols[j + 1:]) for j in reversed(range(n))]


def _column_levels(simplices, vertex_count):
    """Simplices normalised, checked and bucketed by dimension in vertex columns;
    ValueError or TypeError when one is not increasing integers in range."""
    lengths = list(map(len, simplices))
    levels = [set() for _ in range(max(lengths, default=0))]
    for n in set(lengths) - {0}:
        group = list(compress(simplices, map(n.__eq__, lengths)))
        cols = [list(map(index, map(itemgetter(i), group))) for i in range(n)]
        if min(cols[0]) < 0 or max(cols[-1]) >= vertex_count \
                or not all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:])):
            raise ValueError("a generator is not increasing or out of range")
        levels[n - 1].update(zip(*cols))
    return levels


def _levels(simplices):
    """Normalised nonempty simplices bucketed into one set per dimension."""
    levels = []
    for s in simplices:
        while len(levels) < len(s):
            levels.append(set())
        if s:
            levels[len(s) - 1].add(s)
    return levels


def _close_down(levels):
    """Add every face to per-dimension sets, one dimension at a time.

    Each k-simplex contributes only its codimension-1 faces, which the set
    of dimension k - 1 deduplicates before they contribute theirs.
    """
    for k in range(len(levels) - 1, 0, -1):
        levels[k - 1].update(*_faces(levels[k], k + 1))
    return levels


def _boundary_support(chain_simplices, k: int):
    """Support of the mod-2 boundary of a k-chain given by its distinct simplices:
    the faces met an odd number of times, in index order (a complex sorts them)."""
    odd = set()
    for s in chain_simplices:
        odd.symmetric_difference_update(combinations(s, k))
    return sorted(odd)


class SimplicialComplex:
    """Finite simplicial complex with a fixed vertex order.

    :meth:`from_simplices` is the one checked constructor: it normalises and
    range-checks its generators and closes them under faces.  Complexes
    derived from valid ones are closed and normalised by construction;
    :meth:`_trusted` builds them unchecked.
    """

    __slots__ = ("vertex_count", "_by_dim", "_index", "_memo")

    @classmethod
    def _trusted(cls, vertex_count: int, levels) -> "SimplicialComplex":
        """Complex from per-dimension sets of normalised simplices that are
        already closed under faces and in range; nothing is re-checked."""
        K = cls.__new__(cls)
        K.vertex_count = vertex_count
        K._by_dim = tuple(tuple(sorted(group)) for group in levels)
        K._index = index = {}
        for group in K._by_dim:
            index.update(zip(group, range(len(group))))
        K._memo = {}
        return K

    @classmethod
    def from_simplices(cls, vertex_count: int, generators) -> "SimplicialComplex":
        """Closure of the generating simplices on ``vertex_count`` vertices, an int by
        ``operator.index``.  Generators are checked in vertex columns and closed by
        dimension; a failed check reruns the per-generator route to name the offender."""
        vertex_count = _integers([vertex_count], "vertex count must be an integer")[0]
        generators = list(generators)
        try:
            levels = _column_levels(generators, vertex_count)
        except (TypeError, ValueError, OverflowError):
            levels = _levels([_normalize_simplex(s) for s in generators])
            for s in chain.from_iterable(levels):
                if s[0] < 0 or s[-1] >= vertex_count:
                    raise InputError(f"simplex {s} has a vertex outside 0..{vertex_count - 1}")
        return cls._trusted(vertex_count, _close_down(levels))

    @property
    def dimension(self) -> int:
        return len(self._by_dim) - 1

    def simplices(self, k: int):
        if 0 <= k < len(self._by_dim):
            return self._by_dim[k]
        return ()

    def all_simplices(self):
        return chain.from_iterable(self._by_dim)

    def n_simplices(self, k: int) -> int:
        return len(self.simplices(k))

    def has_simplex(self, s) -> bool:
        return tuple(s) in self._index

    def index_of(self, s) -> int:
        try:
            return self._index[tuple(s)]
        except KeyError:
            raise InputError(f"simplex {tuple(s)} not in complex") from None

    def facets(self):
        """Maximal simplices, sorted by (dimension, tuple).

        A simplex below the top dimension is maximal exactly when it is no
        face of a simplex one dimension up.
        """
        out = []
        for k in range(self.dimension):
            covered = set(chain.from_iterable(self.face_indices(k + 1)))
            if len(covered) < len(self._by_dim[k]):
                out += [s for i, s in enumerate(self._by_dim[k]) if i not in covered]
        return out + list(self.simplices(self.dimension))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * self.n_simplices(k) for k in range(self.dimension + 1))

    def face_indices(self, k: int):
        """Indices of the codimension-1 faces of each k-simplex, in
        ``combinations`` order (the face without the last vertex first).

        One column pass for every k, which the boundary columns, the
        boundary rows and the cofaces one dimension down all read.
        """
        faces = self._memo.get(("faces", k))
        if faces is None:
            g, get = self.simplices(k), self._index.__getitem__
            faces = tuple(zip(*(map(get, f) for f in _faces(g, k + 1)))) if k else ((),) * len(g)
            self._memo["faces", k] = faces
        return faces

    def boundary_matrix(self, k: int) -> Gf2Matrix:
        """GF(2) boundary from k-chains to (k-1)-chains.

        Row i collects the k-simplices that have face i, scattered from the
        face indices in one pass.
        """
        if ("boundary", k) not in self._memo:
            rows = [0] * self.n_simplices(k - 1)
            bit = 1
            for faces in self.face_indices(k):
                for i in faces:
                    rows[i] |= bit
                bit <<= 1
            self._memo["boundary", k] = Gf2Matrix._trusted(len(rows), self.n_simplices(k), tuple(rows))
        return self._memo["boundary", k]

    def boundary_columns(self, k: int):
        """Boundary of each k-simplex as a bit vector over the (k-1)-simplices."""
        if ("columns", k) not in self._memo:
            faces = self.face_indices(k)
            if k == 1:
                cols = tuple((1 << a) | (1 << b) for a, b in faces)
            elif k == 2:
                cols = tuple((1 << a) | (1 << b) | (1 << c) for a, b, c in faces)
            else:  # OR in the bits of one face position at a time
                cols = [0] * len(faces)
                for column in zip(*faces):
                    cols = map(or_, cols, map((1).__lshift__, column))
                cols = tuple(cols)
            self._memo["columns", k] = cols
        return self._memo["columns", k]

    def cofaces(self, k: int):
        """Map from each k-simplex index to indices of its (k+1)-cofaces."""
        if ("cofaces", k) not in self._memo:
            out = [[] for _ in range(self.n_simplices(k))]
            for j, faces in enumerate(self.face_indices(k + 1)):
                for i in faces:
                    out[i].append(j)
            self._memo["cofaces", k] = tuple(map(tuple, out))
        return self._memo["cofaces", k]

    def dual_graph(self):
        """Signed dual graph of the top simplices, built once per complex.

        Returns ``(pairs, adjacency)``.  ``pairs[f]`` is ``(a, ja, b, jb,
        rel)`` for an (n-1)-simplex f with exactly two top cofaces a < b,
        where ja and jb are the positions of f in ``face_indices(n)`` of a
        and b; it is None for any other face.  Face j of a top omits its
        vertex n - j, so a top with sign s induces s * (-1)^(n-j) on it, and
        b is coherent with a exactly when its sign is ``signs[a] * rel``,
        rel = (-1)^(ja+jb+1).  ``adjacency[t]`` lists ``(f, u, rel)`` for
        each top u glued to t across f.
        """
        if "dual" not in self._memo:
            n = self.dimension
            faces = self.face_indices(n)
            pairs = []
            adjacency = [[] for _ in faces]
            for f, cof in enumerate(self.cofaces(n - 1)):
                if len(cof) != 2:
                    pairs.append(None)
                    continue
                a, b = cof
                ja, jb = faces[a].index(f), faces[b].index(f)
                rel = 1 if (ja + jb) & 1 else -1
                pairs.append((a, ja, b, jb, rel))
                adjacency[a].append((f, b, rel))
                adjacency[b].append((f, a, rel))
            self._memo["dual"] = tuple(pairs), tuple(map(tuple, adjacency))
        return self._memo["dual"]

    def subcomplex(self, simplices) -> "SimplicialComplex":
        simplices = [tuple(s) for s in simplices]
        for s in simplices:
            if s not in self._index:
                raise InputError(f"simplex {s} not in ambient complex")
        return SimplicialComplex.from_simplices(self.vertex_count, simplices)

    def contains_subcomplex(self, other: "SimplicialComplex") -> bool:
        return all(s in self._index for s in other.all_simplices())

    def simplices_within(self, vertices):
        """All simplices whose vertices lie inside the given vertex set."""
        vs = set(vertices)
        return [s for s in self.all_simplices() if vs.issuperset(s)]

    def components(self):
        """Vertex sets of connected components (via the 1-skeleton)."""
        root = _roots(self.vertex_count, self.simplices(1))
        groups = {}
        for (v,) in self.simplices(0):
            groups.setdefault(root[v], set()).add(v)
        return [frozenset(g) for _, g in sorted((min(g), g) for g in groups.values())]

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.vertex_count == other.vertex_count
            and self._by_dim == other._by_dim
        )

    def __hash__(self):
        return hash((self.vertex_count, self._by_dim))

    def __repr__(self):
        counts = ",".join(str(self.n_simplices(k)) for k in range(self.dimension + 1))
        return f"SimplicialComplex(vertices={self.vertex_count}, counts=[{counts}])"


class SimplicialMap:
    """Vertex map between complexes sending simplices to simplices."""

    __slots__ = ("source", "target", "images", "_memo")

    def __init__(self, source: SimplicialComplex, target: SimplicialComplex, images):
        images = _integers(images, "vertex images must be integers")
        if len(images) != source.vertex_count:
            raise InputError(
                f"vertex image list has length {len(images)}, expected {source.vertex_count}"
            )
        for v in images:
            if not 0 <= v < target.vertex_count:
                raise InputError(f"vertex image {v} outside target range")
        self.source, self.target, self.images = source, target, images
        self._memo = {}
        # the image index finds every simplex that maps onto a simplex of its own
        # dimension; only the rest (a repeated vertex, or no such simplex) are looked up again
        for k in range(source.dimension + 1):
            for s in compress(source.simplices(k), map(eq, self.index_images(k), repeat(-1))):
                if not target.has_simplex(img := self.map_simplex(s)):
                    raise InputError(f"image of simplex {s} spans no simplex: {img}")

    @classmethod
    def _trusted(cls, source, target, images) -> "SimplicialMap":
        """Map whose images are simplicial by construction (built from valid
        maps or complexes); the per-simplex image scan is skipped."""
        f = cls.__new__(cls)
        f.source, f.target, f.images = source, target, tuple(images)
        f._memo = {}
        return f

    def __call__(self, v: int) -> int:
        return self.images[v]

    def map_simplex(self, s):
        """Image vertex set of a simplex, sorted (may have lower dimension)."""
        return tuple(sorted(set(self.images[v] for v in s)))

    def index_images(self, k: int):
        """Target index of the image of each k-simplex, cached per dimension;
        -1 where the image has a repeated vertex (a lower dimension)."""
        if k not in self._memo:
            group, im, get = self.source.simplices(k), self.images.__getitem__, self.target._index.get
            images = map(sorted, zip(*(map(im, map(itemgetter(i), group)) for i in range(k + 1))))
            self._memo[k] = tuple(map(get, map(tuple, images), repeat(-1)))
        return self._memo[k]

    def compose(self, inner: "SimplicialMap") -> "SimplicialMap":
        """self after inner."""
        if inner.target is not self.source and inner.target != self.source:
            raise InputError("composition mismatch between target and source")
        return SimplicialMap._trusted(
            inner.source, self.target, (self.images[v] for v in inner.images)
        )

    def is_involution(self) -> bool:
        im = self.images
        return self.source == self.target and tuple(map(im.__getitem__, im)) == tuple(range(len(im)))

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialMap)
            and self.source == other.source
            and self.target == other.target
            and self.images == other.images
        )

    def __repr__(self):
        return f"SimplicialMap({self.images!r})"


def check_involution(K: SimplicialComplex, tau: SimplicialMap):
    if not isinstance(tau, SimplicialMap):
        raise InputError("a simplicial involution is required")
    if tau.source != K or tau.target != K:
        raise InputError("involution must map the complex to itself")
    if not tau.is_involution():
        raise InputError("map is not an involution (square differs from identity)")


def barycentric_subdivide(K: SimplicialComplex, f: SimplicialMap | None = None):
    """Barycentric subdivision, optionally with an induced automorphism.

    New vertices are the simplices of K ordered by (dimension, tuple); new
    simplices are chains under proper face inclusion.
    """
    order = sorted(K.all_simplices(), key=lambda s: (len(s), s))
    rank = {s: i for i, s in enumerate(order)}

    # simplices of the subdivision are chains under proper face inclusion,
    # generated downward from each simplex of K
    seen = set()
    for s in order:
        stack = [(s,)]
        while stack:
            chain = stack.pop()
            if chain in seen:
                continue
            seen.add(chain)
            low = chain[0]
            for k in range(1, len(low)):
                for face in combinations(low, k):
                    stack.append((face,) + chain)
    # every chain is generated, so sub-chains are present: closed
    Kp = SimplicialComplex._trusted(
        len(order), _levels(tuple(rank[s] for s in chain) for chain in seen)
    )

    if f is None:
        return Kp, None
    if f.source != K or f.target != K:
        raise InputError("map to subdivide must be an automorphism of K")
    if sorted(f.images) != list(range(K.vertex_count)):
        raise InputError("map to subdivide must be a bijective automorphism")
    # a simplicial bijection of K carries chains to chains
    fp = SimplicialMap._trusted(
        Kp, Kp, (rank[f.map_simplex(order[i])] for i in range(len(order)))
    )
    return Kp, fp


def impure_simplex(K: SimplicialComplex):
    """First simplex of K that is not a face of a top simplex, or None.

    K is pure exactly when its facets are its top simplices; only an impure
    K closes its tops down, to name the offender."""
    n = K.dimension
    if len(K.facets()) == K.n_simplices(n):
        return None
    covered = _close_down([set() for _ in range(n)] + [set(K.simplices(n))])
    return next(s for k, group in enumerate(K._by_dim) for s in group if s not in covered[k])


def dual_walk(K: SimplicialComplex, cut=frozenset(), flip=frozenset()):
    """Flood the top simplices of K across the codim-1 faces not in ``cut``.

    ``cut`` and ``flip`` are sets of (n-1)-simplex indices.  Returns
    ``(comp, signs)``.  ``comp[t]`` numbers the component of top t, in the
    order of each component's lowest top.  ``signs`` orients every top so
    that glued tops are coherent across ordinary faces and anti-coherent
    across ``flip`` faces, with the lowest top of each component positive;
    it is None when no such signs exist.
    """
    adjacency = K.dual_graph()[1]
    m = len(adjacency)
    comp = [-1] * m
    signs = [0] * m
    consistent = True
    n_comp = 0
    for start in range(m):
        if comp[start] >= 0:
            continue
        comp[start] = n_comp
        signs[start] = 1
        stack = [start]
        while stack:
            t = stack.pop()
            st = signs[t]
            for f, u, rel in adjacency[t]:
                if f in cut:
                    continue
                want = -st * rel if f in flip else st * rel
                if comp[u] < 0:
                    comp[u] = n_comp
                    signs[u] = want
                    stack.append(u)
                elif signs[u] != want:
                    consistent = False
        n_comp += 1
    return comp, (tuple(signs) if consistent else None)


def pseudomanifold_check(K: SimplicialComplex):
    """Verify K is a closed pseudomanifold; returns its dimension.

    Requires: pure top dimension, every codimension-1 simplex has exactly
    two cofaces, and the top-dimensional part is strongly connected (the
    coface pairs join all tops into one class; no signs are computed, unlike
    :func:`dual_walk`).  A pass is remembered; a failure raises on every call.
    """
    n = K.dimension
    if n < 0:
        raise InputError("empty complex is not a pseudomanifold")
    if n >= 1 and "closed" not in K._memo:
        counts = list(map(len, K.cofaces(n - 1)))
        if counts.count(2) < len(counts):
            i = next(compress(count(), map((2).__ne__, counts)))
            raise InputError(f"face {K.simplices(n - 1)[i]} has {counts[i]} top cofaces, expected 2")
        bad = impure_simplex(K)
        if bad is not None:
            raise InputError(f"simplex {bad} is not a face of any top simplex")
        if len(set(_roots(K.n_simplices(n), K.cofaces(n - 1)))) > 1:
            raise InputError("top-dimensional part is not strongly connected")
        K._memo["closed"] = True
    return n


def fundamental_class(K: SimplicialComplex) -> int:
    """Sum of all top simplices as a bit-packed cycle; checks the input.

    Valid only for closed pseudomanifolds.  :func:`pseudomanifold_check`
    gives every codimension-1 simplex exactly two top cofaces, so each
    appears twice in the boundary of the sum, which is 0 mod 2.
    """
    return (1 << K.n_simplices(pseudomanifold_check(K))) - 1


def __getattr__(name):
    # the benchmark imports is_regular (of involutions) and orbit_chain_boundaries (of smith) here
    if name in ("is_regular", "orbit_chain_boundaries"):
        from . import involutions, smith

        return getattr(smith if name == "orbit_chain_boundaries" else involutions, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
