"""Synthetic instance generation and serialization.

Two on-disk formats are supported:

* a native JSON schema (version 1), lossless for all three pairwise
  backends, documented in the README;
* the UAI MARKOV text format, restricted to unary and pairwise factors
  with a uniform label cardinality.  Factor tables phi (finite and
  nonnegative) are converted to potentials via theta = -log(max(phi,
  1e-300)); multiple factors over the same scope are multiplied
  (potentials added) before conversion.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InstanceFormatError, UnsupportedFeatureError
from .model import MAX_ENTRIES, CrfInstance, DenseMatrix, EdgeList, GaussianKernel, check_entries

_PHI_FLOOR = 1e-300
_CHUNK_CHARS = 1 << 16  # read_uai reads its file this many characters at a time
MAX_EDGE_PAIRS = 1 << 22  # RandomEdgeList draws once per node pair: n <= 2,896
GRID_EDGE_ENTRIES = 21  # a grid edge's index arrays in EdgeList and their build: about 170 B


# ---------------------------------------------------------------------------
# generators

@dataclass(frozen=True)
class RandomDense:
    """Fully-connected instance with Gaussian-kernel pairwise potentials.

    Positions are uniform in [0, image_size]^2, colors uniform in
    [0, 255]^3, unaries i.i.d. normal scaled by `unary_scale`.
    """

    n: int = 100
    d: int = 5
    seed: int = 0
    image_size: float = 32.0
    w1: float = 1.0
    w2: float = 1.0
    alpha: float = 80.0
    beta: float = 13.0
    gamma: float = 3.0
    compat: str = "potts"  # "potts" or "random"
    potts_w: float = 1.0
    unary_scale: float = 1.0


@dataclass(frozen=True)
class RandomGrid:
    """4-connected grid with Potts edge potentials."""

    rows: int = 5
    cols: int = 5
    d: int = 5
    seed: int = 0
    potts_w: float = 1.0
    unary_scale: float = 1.0


@dataclass(frozen=True)
class RandomEdgeList:
    """Erdos-Renyi graph with i.i.d. normal d x d edge blocks.

    One draw per node pair; `generate` refuses more than
    `MAX_EDGE_PAIRS` pairs with `CapacityError`.
    """

    n: int = 100
    d: int = 5
    seed: int = 0
    edge_prob: float = 0.3
    unary_scale: float = 1.0


def potts_matrix(d, w=1.0):
    """Compatibility w * 1[s != t]."""
    return w * (1.0 - np.eye(d))


def generate(spec):
    """Deterministically build an instance from a generator spec."""
    if isinstance(spec, RandomDense):
        return _generate_dense(spec)
    if isinstance(spec, RandomGrid):
        return _generate_grid(spec)
    if isinstance(spec, RandomEdgeList):
        return _generate_edges(spec)
    raise TypeError(f"unknown generator spec: {spec!r}")


def _generate_dense(spec):
    if spec.n < 1 or spec.d < 1:
        raise ValueError("n and d must be positive")
    if not 0.0 <= spec.image_size < math.inf:
        raise ValueError("image_size must be finite and >= 0")
    # positions, colors and unaries; then the compatibility matrix
    check_entries(spec.n * (5 + spec.d), MAX_ENTRIES,
                  f"a dense instance of {spec.n} nodes and {spec.d} labels")
    check_entries(spec.d * spec.d, MAX_ENTRIES, f"a {spec.d} x {spec.d} compatibility matrix")
    rng = np.random.default_rng(spec.seed)
    positions = rng.uniform(0.0, spec.image_size, size=(spec.n, 2))
    colors = rng.uniform(0.0, 255.0, size=(spec.n, 3))
    if spec.compat == "potts":
        compat = potts_matrix(spec.d, spec.potts_w)
    elif spec.compat == "random":
        a = rng.standard_normal((spec.d, spec.d))
        compat = 0.5 * (a + a.T) * spec.potts_w
    else:
        raise ValueError(f"unknown compatibility kind: {spec.compat!r}")
    unary = rng.standard_normal((spec.n, spec.d)) * spec.unary_scale
    backend = GaussianKernel(positions, colors, compat, w1=spec.w1, w2=spec.w2,
                             alpha=spec.alpha, beta=spec.beta, gamma=spec.gamma)
    return CrfInstance(unary, backend)


def _generate_grid(spec):
    if spec.rows < 1 or spec.cols < 1 or spec.d < 1:
        raise ValueError("grid dimensions must be positive")
    n, d = spec.rows * spec.cols, spec.d
    n_edges = spec.rows * (spec.cols - 1) + (spec.rows - 1) * spec.cols
    check_entries(n * d, MAX_ENTRIES, f"a {n} x {d} unary table")
    check_entries(d * d, MAX_ENTRIES, f"a {d} x {d} Potts matrix")
    check_entries(n_edges * (d * d + GRID_EDGE_ENTRIES), MAX_ENTRIES,
                  f"{n_edges} edge blocks of {d} x {d}")
    rng = np.random.default_rng(spec.seed)
    unary = rng.standard_normal((n, d)) * spec.unary_scale
    potts = potts_matrix(d, spec.potts_w)
    # in sorted order: node i's edge to the right, then its edge down
    i = np.arange(n)
    edges = np.stack((i, i + 1, i, i + spec.cols), axis=1).reshape(n, 2, 2)
    edges = edges[np.stack(((i + 1) % spec.cols != 0, i + spec.cols < n), axis=1)]
    thetas = np.repeat(potts[None, :, :], len(edges), axis=0)
    return CrfInstance(unary, EdgeList(n, d, edges, thetas))


def _generate_edges(spec):
    if spec.n < 1 or spec.d < 1:
        raise ValueError("n and d must be positive")
    if not 0.0 <= spec.edge_prob <= 1.0:
        raise ValueError("edge_prob must lie in [0, 1]")
    check_entries(spec.n * (spec.n - 1) // 2, MAX_EDGE_PAIRS,
                  f"a random edge list over {spec.n} nodes")
    check_entries(spec.n * spec.d, MAX_ENTRIES, f"a {spec.n} x {spec.d} unary table")
    max_blocks = MAX_ENTRIES // (spec.d * spec.d)  # counted as they are drawn
    rng = np.random.default_rng(spec.seed)
    unary = rng.standard_normal((spec.n, spec.d)) * spec.unary_scale
    edges = []
    thetas = []
    for i in range(spec.n):
        for j in range(i + 1, spec.n):
            if rng.uniform() < spec.edge_prob:
                if len(thetas) == max_blocks:
                    raise CapacityError(f"a random edge list of more than {max_blocks} "
                                        f"{spec.d} x {spec.d} blocks is too large")
                edges.append((i, j))
                thetas.append(rng.standard_normal((spec.d, spec.d)))
    return CrfInstance(unary, EdgeList(spec.n, spec.d, edges, thetas))


# ---------------------------------------------------------------------------
# native JSON schema

def _require(obj, key, where):
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"{where} must be an object")
    if key not in obj:
        raise InstanceFormatError(f"missing field '{key}' in {where}")
    return obj[key]


def _numbers(obj, key, where):
    # a number or nested arrays of numbers, as a float array
    value = _require(obj, key, where)
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an integer past float
        raise InstanceFormatError(f"field '{key}' in {where} must hold numbers") from None


def _scalar(obj, key, where, kinds=(int, float)):
    # a JSON number that fits a float, or a JSON integer that fits int64 for
    # kinds=(int,); true and false are neither
    value = _require(obj, key, where)
    if type(value) not in kinds:
        noun = "an integer" if kinds == (int,) else "a number"
        raise InstanceFormatError(
            f"field '{key}' in {where} must be {noun}, got {json.dumps(value)}")
    try:
        (np.int64 if kinds == (int,) else float)(value)
    except OverflowError:
        raise InstanceFormatError(
            f"field '{key}' in {where} is out of range, got {value}") from None
    return value


def write_json(instance, path):
    """Serialize an instance; numbers keep full double precision."""
    n, d = instance.n_nodes, instance.n_labels
    doc = {"version": 1, "n": n, "d": d,
           "unary": instance.unary.tolist(),
           "pairwise": _backend_to_json(instance.pairwise)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")  # json.dump to a file runs the pure-Python encoder


def _backend_to_json(backend):
    if isinstance(backend, DenseMatrix):
        return {"type": "dense", "matrix": backend.matrix.tolist()}
    if isinstance(backend, EdgeList):
        return {"type": "edges",
                "edges": [{"i": int(i), "j": int(j), "theta": backend.thetas[e].tolist()}
                          for e, (i, j) in enumerate(backend.edges)]}
    if isinstance(backend, GaussianKernel):
        return {"type": "gaussian",
                "positions": backend.positions.tolist(),
                "colors": backend.colors.tolist(),
                "compat": backend.compat.tolist(),
                "w1": backend.w1, "w2": backend.w2,
                "alpha": backend.alpha, "beta": backend.beta,
                "gamma": backend.gamma}
    raise TypeError(f"cannot serialize backend {backend!r}")


def read_json(path):
    """Parse an instance file; raises InstanceFormatError with the
    offending field named."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    version = _require(doc, "version", "instance file")
    if type(version) is not int or version != 1:  # not true, nor 1.0
        raise InstanceFormatError(f"unsupported instance format version {version!r}")
    n = _scalar(doc, "n", "instance file", (int,))
    d = _scalar(doc, "d", "instance file", (int,))
    for key, size in (("n", n), ("d", d)):
        if size < 1:
            raise InstanceFormatError(f"field '{key}' in instance file must be >= 1, got {size}")
    unary = _numbers(doc, "unary", "instance file")
    if unary.shape != (n, d):
        raise InstanceFormatError(f"field 'unary' must be {n} x {d}, got {unary.shape}")
    pw = _require(doc, "pairwise", "instance file")
    kind = _require(pw, "type", "field 'pairwise'")
    try:
        if kind == "dense":
            backend = DenseMatrix(_numbers(pw, "matrix", "pairwise"), d)
        elif kind == "edges":
            entries = _require(pw, "edges", "pairwise")
            if not isinstance(entries, list):
                raise InstanceFormatError("field 'edges' in pairwise must be a list")
            edges = [(_scalar(e, "i", "edge entry", (int,)),
                      _scalar(e, "j", "edge entry", (int,))) for e in entries]
            thetas = [_numbers(e, "theta", "edge entry") for e in entries]
            for theta in thetas:
                if theta.shape != (d, d):
                    raise InstanceFormatError(
                        f"field 'theta' in edge entry must be {d} x {d}, got {theta.shape}")
            backend = EdgeList(n, d, edges, thetas)
        elif kind == "gaussian":
            backend = GaussianKernel(
                _numbers(pw, "positions", "pairwise"), _numbers(pw, "colors", "pairwise"),
                _numbers(pw, "compat", "pairwise"),
                **{k: _scalar(pw, k, "pairwise")
                   for k in ("w1", "w2", "alpha", "beta", "gamma")})
        else:
            raise InstanceFormatError(f"unknown pairwise type {kind!r}")
        return CrfInstance(unary, backend)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# UAI MARKOV subset

def _tokens(kind, found, count, what, *args):
    """`found`, the tokens read where `count` were asked for, as `kind`
    (floats as an array); or the first error in file order: a token
    `kind` rejects, or the end of the file.  `what.format(*args, k=k)`
    names token `k`, and is formatted only for an error."""
    try:
        if kind is float:
            values = np.fromiter(map(float, found), float, count=len(found))
        else:
            values = list(map(kind, found))
    except ValueError:
        for k, tok in enumerate(found):
            try:
                kind(tok)
            except ValueError:
                noun = "integer" if kind is int else "number"
                raise InstanceFormatError(
                    f"expected {noun} for {what.format(*args, k=k)}, got {tok!r}") from None
    if len(found) < count:
        raise InstanceFormatError(
            f"unexpected end of file while reading {what.format(*args, k=len(found))}")
    return values


def read_uai(path):
    """Read a pairwise UAI MARKOV network as a CRF instance.

    The factor tables are probabilities; potentials are their negated
    logs, so minimizing the energy maximizes the factor product.  The
    file is read `_CHUNK_CHARS` (65,536) characters at a time.  A table
    whose tokens repeat those of the previous table of its size (as in a
    Potts grid, one table on every edge) reuses that table's values, so a
    read parses only the tables that differ.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_uai(itertools.chain.from_iterable(_token_chunks(fh)))


def _token_chunks(fh):
    """Lists of the whitespace-separated tokens of a text file read
    `_CHUNK_CHARS` characters at a time; a token cut by a chunk's end is
    carried into the next chunk's list."""
    tail = ""
    while chunk := fh.read(_CHUNK_CHARS):
        tokens = (tail + chunk).split()
        tail = "" if chunk[-1].isspace() else tokens.pop()
        yield tokens
    yield tail.split()


def _parse_uai(toks):
    def take(count, kind, what, *args):
        return _tokens(kind, list(itertools.islice(toks, count)), count, what, *args)

    network_type, = take(1, str, "network type")
    if network_type.upper() != "MARKOV":
        raise UnsupportedFeatureError(f"unsupported network type {network_type!r}")
    n, = take(1, int, "variable count")
    if n < 1:
        raise InstanceFormatError("network has no variables")
    cards = take(n, int, "cardinality of variable {k}")
    d = cards[0]
    if any(c != d for c in cards):
        raise UnsupportedFeatureError("non-uniform label cardinalities are not supported")
    if d < 1:
        raise InstanceFormatError("label cardinalities must be positive")
    # np.arange(d) and np.arange(d * d) index the tables, whatever they hold
    check_entries(n * d, MAX_ENTRIES, f"a {n} x {d} unary table")
    check_entries(d * d, MAX_ENTRIES, f"a {d} x {d} pairwise block")
    n_factors, = take(1, int, "factor count")
    if n_factors < 0:
        raise InstanceFormatError(f"negative factor count {n_factors}")

    scopes = []
    for f in range(n_factors):
        tok = next(toks, None)
        try:
            size = int(tok)
        except (TypeError, ValueError):  # int(None): the end of the file
            _tokens(int, [] if tok is None else [tok], 1, "scope size of factor {}", f)  # raises
        if size not in (1, 2):
            raise UnsupportedFeatureError(
                f"factor {f} has arity {size}; only unary and pairwise factors are supported")
        # _tokens itself, not take: a second call per factor costs 20% of the loop
        scope = _tokens(int, list(itertools.islice(toks, size)), size, "scope of factor {}", f)
        if not (0 <= scope[0] < n and 0 <= scope[-1] < n):
            raise InstanceFormatError(f"factor {f} references an unknown variable")
        if size == 2 and scope[0] == scope[1]:
            raise InstanceFormatError(f"factor {f} repeats a variable in its scope")
        scopes.append(scope[:])  # exact size; list(map(...)) leaves 8 slots per scope

    sizes = [d ** len(scope) for scope in scopes]
    tables = []
    previous = {}  # table size -> the tokens and values of the latest table of that size
    for f, expected in enumerate(sizes):
        found = list(itertools.islice(toks, 1 + expected))  # the table's size, then its entries
        seen, values = previous.get(expected, (None, None))
        if found != seen:
            n_entries, = _tokens(int, found[:1], 1, "table size of factor {}", f)
            if n_entries != expected:
                raise InstanceFormatError(
                    f"factor {f} table has {n_entries} entries, expected {expected}")
            values = _tokens(float, found[1:], expected, "table entry of factor {}", f)
            previous[expected] = found, values
        tables.append(values)
    # every table in one array, in file order; theta = -log(max(phi, floor))
    theta = np.concatenate(tables) if tables else np.zeros(0)
    del tables
    offsets = np.cumsum([0] + sizes[:-1], dtype=int)
    ok = np.isfinite(theta) & (theta >= 0.0)
    if not ok.all():
        bad = int(np.argmin(ok))  # the first failing entry, named for its own fault
        f = int(np.searchsorted(offsets, bad, side="right")) - 1
        value = float(theta[bad])
        noun = "nonnegative" if math.isfinite(value) else "finite"
        raise InstanceFormatError(f"expected {noun} number for table entry of factor {f}, "
                                  f"got {value!r}")
    np.negative(np.log(np.maximum(theta, _PHI_FLOOR, out=theta), out=theta), out=theta)

    # potentials of repeated scopes add in file order, as a running sum would
    arity = np.array([len(scope) for scope in scopes], dtype=int)
    singles = np.flatnonzero(arity == 1)
    pairs = np.flatnonzero(arity == 2)
    unary = np.zeros((n, d))
    np.add.at(unary, np.array([scopes[f][0] for f in singles], dtype=int),
              theta[offsets[singles, None] + np.arange(d)])
    # the last scope variable varies fastest: block[s_a, s_b]
    blocks = theta[offsets[pairs, None] + np.arange(d * d)].reshape(-1, d, d)
    del theta
    scope_ab = np.array([scopes[f] for f in pairs], dtype=int).reshape(-1, 2)
    swapped = scope_ab[:, 0] > scope_ab[:, 1]
    blocks[swapped] = blocks[swapped].transpose(0, 2, 1)
    scope_ab.sort(axis=1)
    keys, slot = np.unique(scope_ab[:, 0] * n + scope_ab[:, 1], return_inverse=True)
    thetas = np.zeros((len(keys), d, d))
    np.add.at(thetas, slot, blocks)
    del blocks
    edges = np.stack(np.divmod(keys, n), axis=1)
    return CrfInstance(unary, EdgeList(n, d, edges, thetas))
