"""Seeded polytope documents whose answers are known by construction.

Each family is a base document plus the answer a reader can derive by
hand (f-vector, simplicity, rationality, manifold/orbifold/quasifold
kind, vertex structure-group orders).  Every op gets its own document:
a seeded homothety mu -> s*mu + t (rational s > 0 and t) rewrites the
offsets as lambda_j -> s*lambda_j + <t, X_j>.  A homothety is an affine
bijection, so it keeps the combinatorial type of any polytope, the
non-simple octahedron included, and it leaves the normals, and with them
the kind and the orders, untouched.

Entries are handled as polynomials in theta with rational coefficients,
read from the same expression syntax the documents use.  Nothing here
calls quasifold.
"""

from __future__ import annotations

import ast
import copy
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

SQRT5_FIELD = {"minpoly": ["-5", "0", "1"], "root_interval": ["2", "3"]}
# theta = cos(pi/10), a root of 16x^4 - 20x^2 + 5.
COS_PI_10_FIELD = {"minpoly": ["5/16", "0", "-5/4", "0", "1"], "root_interval": ["9/10", "1"]}

MANIFOLD, ORBIFOLD, QUASIFOLD = "manifold", "orbifold", "quasifold"

# Corpus entries the construction accepts (the octahedron is not simple).
CONSTRUCTIBLE_CORPUS = (
    "sphere", "teardrop-2", "teardrop-3", "teardrop-5", "rugby-2", "rugby-3",
    "rugby-5", "interval-sqrt2", "cp2", "triangle-sqrt2", "square", "cube",
    "pentagon",
)


@dataclass(frozen=True)
class Answer:
    """What a correct report must say about a family member.

    ``f_vector`` is (vertices, edges, facets).  ``weights[i]`` is the
    structure-group order of the vertex that lies off facet i (orbifolds
    only); manifolds have every order 1 and quasifolds every order
    infinite (reported as None).  ``kind`` is None for a non-simple input.
    """

    f_vector: tuple[int, int, int]
    simple: bool
    rational: bool
    kind: str | None
    weights: tuple[int, ...] | None = None

    @property
    def vertices(self) -> int:
        return self.f_vector[0]

    def order(self, active: tuple[int, ...], facets: int) -> int | None:
        if self.kind == QUASIFOLD:
            return None
        if self.weights is None:
            return 1
        (missing,) = set(range(facets)) - set(active)
        return self.weights[missing]


@dataclass(frozen=True)
class Family:
    name: str
    document: dict
    answer: Answer | None  # None: corpus entry, checked only by verify


# --------------------------------------------------------------------------
# Expressions as polynomials in theta
# --------------------------------------------------------------------------

Poly = tuple[Fraction, ...]  # ascending coefficients, unreduced


def _add(a: Poly, b: Poly) -> Poly:
    size = max(len(a), len(b))
    a = a + (Fraction(0),) * (size - len(a))
    b = b + (Fraction(0),) * (size - len(b))
    return tuple(x + y for x, y in zip(a, b))


def _scale(a: Poly, c: Fraction) -> Poly:
    return tuple(c * x for x in a)


def _mul(a: Poly, b: Poly) -> Poly:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _rational(p: Poly) -> Fraction:
    if any(p[1:]):
        raise ValueError("expected a rational constant")
    return p[0]


def _eval_node(node: ast.AST) -> Poly:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return (Fraction(node.value),)
    if isinstance(node, ast.Name) and node.id == "theta":
        return (Fraction(0), Fraction(1))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        inner = _eval_node(node.operand)
        return inner if isinstance(node.op, ast.UAdd) else _scale(inner, Fraction(-1))
    if isinstance(node, ast.BinOp):
        left, right = _eval_node(node.left), _eval_node(node.right)
        if isinstance(node.op, ast.Add):
            return _add(left, right)
        if isinstance(node.op, ast.Sub):
            return _add(left, _scale(right, Fraction(-1)))
        if isinstance(node.op, ast.Mult):
            return _mul(left, right)
        if isinstance(node.op, ast.Div):
            return _scale(left, 1 / _rational(right))
        if isinstance(node.op, ast.Pow):
            exponent = _rational(right)
            if exponent.denominator != 1 or exponent < 0:
                raise ValueError("only nonnegative integer powers")
            out: Poly = (Fraction(1),)
            for _ in range(int(exponent)):
                out = _mul(out, left)
            return out
    raise ValueError(f"unsupported expression node {ast.dump(node)}")


def poly(entry) -> Poly:
    """Polynomial in theta denoted by a document entry (string or int)."""
    if isinstance(entry, int) and not isinstance(entry, bool):
        return (Fraction(entry),)
    tree = ast.parse(entry.replace("^", "**"), mode="eval")
    return _eval_node(tree.body)


def render(p: Poly) -> str:
    terms = []
    for k, c in enumerate(p):
        if c:
            power = "" if k == 0 else ("*theta" if k == 1 else f"*theta^{k}")
            terms.append(f"{c}{power}")
    return " + ".join(terms) if terms else "0"


# --------------------------------------------------------------------------
# Families
# --------------------------------------------------------------------------

def _facet(normal, offset) -> dict:
    return {"normal": [str(e) for e in normal], "offset": str(offset)}


def _unit(n: int, i: int, value="1") -> list[str]:
    return [value if k == i else "0" for k in range(n)]


def cube(n: int) -> Family:
    facets = [_facet(_unit(n, i), 0) for i in range(n)]
    facets += [_facet(_unit(n, i, "-1"), -1) for i in range(n)]
    return Family(f"cube{n}", {"dimension": n, "facets": facets},
                  Answer((2 ** n, n * 2 ** (n - 1), 2 * n), True, True, MANIFOLD))


def _simplex(name: str, n: int, last_normal: list[str], answer: Answer, field=None) -> Family:
    facets = [_facet(_unit(n, i), 0) for i in range(n)]
    facets.append(_facet(last_normal, -1))
    doc = {"dimension": n, "facets": facets}
    if field is not None:
        doc["field"] = field
    return Family(name, doc, answer)


def _simplex_f(n: int) -> tuple[int, int, int]:
    return (n + 1, comb(n + 1, 2), n + 1)


def projective_space(n: int) -> Family:
    """CP^n: the standard simplex, Delzant."""
    return _simplex(f"cp{n}", n, ["-1"] * n, Answer(_simplex_f(n), True, True, MANIFOLD))


def weighted_projective_space(n: int) -> Family:
    """CP(1, 2, ..., n+1): normals e_i with weight i+2 and -(2, ..., n+1)
    with weight 1.  The vertex off e_i has order i+2; the origin (off the
    last facet) has order 1."""
    weights = tuple(range(2, n + 2)) + (1,)
    last = [str(-w) for w in weights[:-1]]
    return _simplex(f"wcp{n}", n, last,
                    Answer(_simplex_f(n), True, True, ORBIFOLD, weights=weights))


def skewed_simplex(n: int) -> Family:
    """The simplex with last normal -(sqrt5, 1, ..., 1): every vertex basis
    writes some generator with a sqrt5 coordinate, so all orders are
    infinite."""
    return _simplex(f"skew{n}", n, ["-theta"] + ["-1"] * (n - 1),
                    Answer(_simplex_f(n), True, False, QUASIFOLD), field=SQRT5_FIELD)


def dodecahedron() -> Family:
    """Normals are the 12 icosahedron vertices (0, +-1, +-phi) and cyclic
    shifts, phi = (1 + sqrt5)/2: the dual, a regular dodecahedron."""
    phi = "1/2 + 1/2*theta"
    facets = []
    for a in ("1", "-1"):
        for b in (phi, f"-({phi})"):
            for normal in (["0", a, b], [a, b, "0"], [b, "0", a]):
                facets.append(_facet(normal, -1))
    return Family("dodecahedron", {"field": SQRT5_FIELD, "dimension": 3, "facets": facets},
                  Answer((20, 30, 12), True, False, QUASIFOLD))


def pentagon_product() -> Family:
    """Regular pentagon x regular pentagon, unit normals over Q(cos pi/10):
    sin(2pi/5) = theta, cos(2pi/5) = 2theta^2 - 3/2, sin(4pi/5) =
    4theta^3 - 3theta, cos(4pi/5) = 1 - 2theta^2."""
    c1, s1 = "2*theta^2 - 3/2", "theta"
    c2, s2 = "1 - 2*theta^2", "4*theta^3 - 3*theta"
    pentagon = [("1", "0"), (c1, s1), (c2, s2), (c2, f"-({s2})"), (c1, f"-({s1})")]
    facets = [_facet([x, y, "0", "0"], c2) for x, y in pentagon]
    facets += [_facet(["0", "0", x, y], c2) for x, y in pentagon]
    return Family("pentagon2", {"field": COS_PI_10_FIELD, "dimension": 4, "facets": facets},
                  Answer((25, 50, 10), True, False, QUASIFOLD))


def octahedron() -> Family:
    """|x| + |y| + |z| <= 1: four facets at each of the six vertices."""
    facets = [_facet([sx, sy, sz], -1)
              for sx in ("1", "-1") for sy in ("1", "-1") for sz in ("1", "-1")]
    return Family("octahedron", {"dimension": 3, "facets": facets},
                  Answer((6, 12, 8), False, True, None))


def corpus_entry(name: str, builtin_document) -> Family:
    return Family(name, builtin_document(name), None)


# --------------------------------------------------------------------------
# Seeded instances
# --------------------------------------------------------------------------

def op_rng(seed: int, *key) -> random.Random:
    """Deterministic stream for one op (or one probe) of a seeded run."""
    return random.Random(":".join(str(k) for k in (seed,) + key))


def instantiate(family: Family, rng: random.Random) -> dict:
    """The family's document moved by a random homothety mu -> s*mu + t,
    s in [1, 2] and t in [-1, 1]^n, both with small denominators."""
    doc = copy.deepcopy(family.document)
    n = doc["dimension"]
    s = Fraction(rng.randint(4, 8), 4)
    t = []
    for _ in range(n):
        q = rng.randint(2, 6)
        t.append(Fraction(rng.randint(-q, q), q))
    for facet in doc["facets"]:
        offset = _scale(poly(facet["offset"]), s)
        for ti, entry in zip(t, facet["normal"]):
            offset = _add(offset, _scale(poly(entry), ti))
        facet["offset"] = render(offset)
    return doc
