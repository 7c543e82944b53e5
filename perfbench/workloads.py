"""The three workloads: the operations each pass runs, and their checks.

Each builder imports cyclozeta itself and keeps the modules, so that the
operations look every library function up when they run (the tracer swaps
those names).  An operation's ``call`` is the timed unit of work; its
``check`` runs untimed afterwards and returns one of:

* ``OK``;
* ``FAILED``: the program reported a failure (a FAIL row, a non-zero exit
  status, or an exact identity that did not come out as literal zero);
* ``WRONG``: the output contradicts an independent reference, or a
  property the method must have.

Checks that span two operations (a stuffle pair, ``u*v`` against ``v*u``)
keep the first result in the per-pass ``state`` dict and are settled by
the second operation, which carries the verdict.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import refs

OK, FAILED, WRONG = "ok", "failed", "wrong"

#: numeric tolerances of the suites: 1e-6 for depth-one anchors, 1e-5 for
#: identities among values
DEPTH_ONE_TOL = 1e-6
IDENTITY_TOL = 1e-5


@dataclass
class Op:
    name: Callable[[], str]  # formatted only when a report needs it
    call: Callable[[], object]
    check: Callable[[object, dict], str]


@dataclass
class Workload:
    ops: list
    prepare: Callable[[], None] = lambda: None  # computes references, untimed


def _modules(*names) -> dict:
    return {n: importlib.import_module(f"cyclozeta.{n}") for n in names}


# -- numeric-suites ------------------------------------------------------------

SUITES = (
    ("dmr-check", "--N", "2", "--degree", "4"),
    ("dmr-check", "--N", "3", "--degree", "4"),
    # fails today: harmonic residual 9.2e-5 against the fixed 1e-5
    ("dmr-check", "--N", "2", "--degree", "5"),
    ("dmrd-check", "--N", "4", "--degree", "3"),
    ("eds-dmr-check", "--N", "2", "--degree", "4"),
    ("relation-suite", "--N", "3", "--weight", "3"),
    ("zhao-verify", "--N", "4", "--d", "2"),
    ("regdist", "--N", "2", "--d", "2"),
)

DEPTH_ONE_LEVELS = (2, 3, 4, 6)
DEPTH_ONE_MAX_K = 5
#: index pairs (a, b) of the depth-two stuffle checks, per level
DEPTH_TWO = {2: ((1, 1), (1, 2), (2, 2)), 3: ((1, 1), (1, 2)), 4: ((1, 1),)}


def _converges(k: int, residue: int) -> bool:
    return k >= 2 or residue != 0


@dataclass(frozen=True)
class Identity:
    """``sum coeff * value(query) = reference()`` within ``tol``; queries
    are ``(N, indices, residues)``."""

    members: tuple  # ((query, coeff), ...)
    reference: Callable[[], complex]
    tol: float


def _identities() -> list:
    out = []
    for level in DEPTH_ONE_LEVELS:
        for r in range(level):
            for k in range(1, DEPTH_ONE_MAX_K + 1):
                if _converges(k, r):
                    out.append(Identity((((level, (k,), (r,)), 1),),
                                        partial(refs.li, k, level, r), DEPTH_ONE_TOL))
    for level, index_pairs in DEPTH_TWO.items():
        for a, b in index_pairs:
            for x in range(level):
                for y in range(level):
                    if (a, x) > (b, y) or not (_converges(a, x) and _converges(b, y)):
                        continue
                    first = (level, (a, b), (x, y))
                    second = (level, (b, a), (y, x))
                    members = (((first, 2),) if first == second
                               else ((first, 1), (second, 1)))
                    out.append(Identity(members, partial(refs.stuffle_sum, a, b, x, y, level),
                                        IDENTITY_TOL))
    out.append(Identity((((2, (2, 1), (0, 0)), 1),), refs.zeta_2_1, IDENTITY_TOL))
    out.append(Identity((((2, (1, 1), (1, 1)), 1),), refs.li_1_1_minus, IDENTITY_TOL))
    return out


def _run_cli(cli, argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _check_suite(result, state) -> str:
    """Every row PASS with exit status 0; a PASS row's residual must also
    be within the tolerance the ``#meta`` row states."""
    code, text = result
    if code != 0:
        return FAILED
    lines = text.splitlines()
    meta = dict(f.split("=", 1) for f in lines[0].split("\t")[1:])
    header = lines[1].split("\t")
    rows = [dict(zip(header, line.split("\t"))) for line in lines[2:] if line]
    if not rows or any(r.get("status", "PASS") != "PASS" for r in rows):
        return FAILED
    tol = float(meta["tol"])
    for row in rows:
        if row["residual"] and not float(row["residual"]) <= tol:
            return WRONG
    return OK


def numeric_suites(seed: int) -> Workload:
    cli = importlib.import_module("cyclozeta.cli")
    identities = _identities()
    queries = list(dict.fromkeys(q for i in identities for q, _ in i.members))
    by_query: dict = {}
    for n, identity in enumerate(identities):
        for query, _ in identity.members:
            by_query.setdefault(query, []).append(n)
    references: list = []

    def prepare():
        references[:] = [identity.reference() for identity in identities]

    def check_query(query):
        def check(result, state):
            code, text = result
            if code != 0:
                return FAILED
            fields = text.splitlines()[2].split("\t")
            values = state.setdefault("values", {})
            values[query] = (complex(fields[1]), float(fields[3]))
            verdict = OK
            for n in by_query[query]:
                members = identities[n].members
                if not all(q in values for q, _ in members):
                    continue
                engine = sum(c * values[q][0] for q, c in members)
                bound = sum(abs(c) * values[q][1] for q, c in members)
                deviation = abs(engine - references[n])
                state.setdefault("ref_checks", []).append((deviation, bound))
                if not deviation <= identities[n].tol:
                    verdict = WRONG
            return verdict
        return check

    ops = [Op(partial(" ".join, argv), partial(_run_cli, cli, argv), _check_suite)
           for argv in SUITES]
    for query in queries:
        level, ks, rs = query
        argv = ("polylog", "--N", str(level), "--k", ",".join(map(str, ks)),
                "--z", ",".join(map(str, rs)))
        ops.append(Op(partial(" ".join, argv), partial(_run_cli, cli, argv),
                      check_query(query)))
    random.Random(seed).shuffle(ops)
    return Workload(ops, prepare)


# -- exact-products ------------------------------------------------------------


def _by_size(words, size) -> dict:
    out: dict = {}
    for w in words:
        out.setdefault(size(w), []).append(w)
    return out


def _x_words(letters, max_length: int) -> list:
    """Nonempty X words over ``(x0,) + letters`` up to a length."""
    out, level = [], [()]
    for _ in range(max_length):
        level = [w + (a,) for w in level for a in (None,) + tuple(letters)]
        out.extend(level)
    return out


def _y_words(letters, max_weight: int) -> list:
    """Nonempty Y words ``((n, g), ...)`` up to a weight."""
    out = []

    def grow(word, weight):
        for n in range(1, max_weight - weight + 1):
            for g in letters:
                w = word + ((n, g),)
                out.append(w)
                grow(w, weight + n)

    grow((), 0)
    return out


def _y_weight(word) -> int:
    return sum(n for n, _ in word)


class _Products:
    """What the product operations share: the library and two groups."""

    def __init__(self, m):
        self.algebra, self.regularization = m["algebra"], m["regularization"]
        self.ring = m["rings"].RATIONAL
        self.fmt_x, self.fmt_y = m["words"].format_x_word, m["words"].format_y_word
        self.z3 = m["groups"].construct_group([3])
        self.z4 = m["groups"].construct_group([4])

    def x(self, word):
        return self.algebra.AlgebraElement.from_word(self.ring, "x", self.z3, word)

    def y(self, word):
        return self.algebra.AlgebraElement.from_word(self.ring, "y", self.z4, word)


# The product operations are slotted classes rather than closures: a pass
# holds 40,325 of them, and closures added about 30 MB to peak_rss_mb.


class _Harmonic:
    """``u * v`` over Z4.  The Delannoy count and the weights are checked on
    every pair; ``v * u`` runs right after ``u * v`` (``partner`` "first",
    "second") and must equal it."""

    __slots__ = ("ctx", "u", "v", "partner")

    def __init__(self, ctx, u, v, partner):
        self.ctx, self.u, self.v, self.partner = ctx, u, v, partner

    def call(self):
        return self.ctx.algebra.harmonic(self.ctx.y(self.u), self.ctx.y(self.v)).terms

    def check(self, terms, state):
        weight = _y_weight(self.u) + _y_weight(self.v)
        if (sum(terms.values()) != refs.delannoy(len(self.u), len(self.v))
                or any(_y_weight(w) != weight for w in terms)):
            return WRONG
        if self.partner == "first":
            state["harmonic"] = terms
        elif self.partner == "second" and state.pop("harmonic", terms) != terms:
            return WRONG
        return OK

    def name(self):
        return f"harmonic {self.ctx.fmt_y(self.u)} {self.ctx.fmt_y(self.v)}"


class _Shuffle:
    """``u sh v`` over Z3, against the interleavings counted by positions."""

    __slots__ = ("ctx", "u", "v")

    def __init__(self, ctx, u, v):
        self.ctx, self.u, self.v = ctx, u, v

    def call(self):
        return self.ctx.algebra.shuffle(self.ctx.x(self.u), self.ctx.x(self.v)).terms

    def check(self, terms, state):
        return OK if terms == refs.shuffle(self.u, self.v) else WRONG

    def name(self):
        return f"shuffle {self.ctx.fmt_x(self.u)} {self.ctx.fmt_x(self.v)}"


class _Regularize:
    """``bar_reg_T(w)`` over Z3, against the closed-form expansion."""

    __slots__ = ("ctx", "w")

    def __init__(self, ctx, w):
        self.ctx, self.w = ctx, w

    def call(self):
        return self.ctx.regularization.bar_reg_T(self.ctx.x(self.w))

    def check(self, tpoly, state):
        got = {l: c.terms for l, c in tpoly.coeffs.items()}
        return OK if got == refs.regularization(self.w) else WRONG

    def name(self):
        return f"bar_reg_T {self.ctx.fmt_x(self.w)}"


def exact_products(seed: int) -> Workload:
    m = _modules("algebra", "regularization", "groups", "rings", "words")
    ctx = _Products(m)
    rng = random.Random(seed)

    by_weight = _by_size(_y_words(ctx.z4.elements(), 4), _y_weight)
    pairs = []
    for wa in range(1, 5):
        for wb in range(wa, 6 - wa):
            for i, u in enumerate(by_weight[wa]):
                pairs += [(u, v) for v in by_weight[wb][i if wa == wb else 0:]]
    rng.shuffle(pairs)
    ops = []
    for u, v in pairs:
        if u == v:
            ops.append(_Harmonic(ctx, u, v, None))
        else:
            ops += [_Harmonic(ctx, u, v, "first"), _Harmonic(ctx, v, u, "second")]

    by_length = _by_size(_x_words(ctx.z3.elements(), 5), len)
    shuffles = [_Shuffle(ctx, u, v) for la in range(1, 6) for lb in range(1, 7 - la)
                for u in by_length[la] for v in by_length[lb]]
    rng.shuffle(shuffles)
    regs = [_Regularize(ctx, w) for w in [()] + _x_words(ctx.z3.elements(), 6)]
    rng.shuffle(regs)
    return Workload(ops + shuffles + regs)


# -- exact-series --------------------------------------------------------------

DUALITY_MAPS = 50
DUALITY_SEED = 2024  # the default seed of duality_suite
DUALITY_WEIGHT = 4
FDT_LEVELS = (2, 3, 4, 6, 8, 12)


def exact_series(seed: int) -> Workload:
    m = _modules("duality", "dmr", "relations", "groups")
    duality, dmr = m["duality"], m["dmr"]
    z3 = m["groups"].construct_group([3])

    def map_op(i):
        # as in duality_suite: odd maps are broken.  The population does not
        # depend on the seed, which only orders the operations, so that the
        # run-to-run spread measures the program and not the draw.
        constructed = i % 2 == 0

        def call():
            rng = random.Random(DUALITY_SEED * 1_000_003 + i)
            table = duality.nested_sum_functional(z3, DUALITY_WEIGHT, rng)
            if not constructed:
                table = duality.broken_functional(table, rng)
            multiplicative = duality.functional_is_multiplicative(
                z3, table, DUALITY_WEIGHT)
            series = duality.functional_series(z3, table, DUALITY_WEIGHT)
            return multiplicative, dmr.grouplike_check(series, "harmonic").passed

        def check(result, state):
            return OK if result == (constructed, constructed) else WRONG

        kind = "constructed" if constructed else "broken"
        return Op(lambda: f"duality map {i} ({kind})", call, check)

    def cell_op(group, n, d, e):
        h = group.element(e)

        def call():
            return m["relations"].fdtd1_identity_check(group, d, h)

        def check(report, state):
            if not report.passed:
                return FAILED
            return OK if not report.difference.terms else WRONG

        return Op(lambda: f"fdtd1 Z{n} d={d} h={e}", call, check)

    ops = [map_op(i) for i in range(DUALITY_MAPS)]
    for n in FDT_LEVELS:
        group = m["groups"].construct_group([n])
        for d in range(2, n + 1):
            if n % d == 0:
                # the d-th powers of Z/n are the multiples of d
                ops += [cell_op(group, n, d, e) for e in range(0, n, d)]
    random.Random(seed).shuffle(ops)
    return Workload(ops)


WORKLOADS = {
    "numeric-suites": numeric_suites,
    "exact-products": exact_products,
    "exact-series": exact_series,
}


def clear_caches(modules) -> None:
    """Empty every ``lru_cache`` a cyclozeta module holds."""
    for module in modules:
        for obj in list(vars(module).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear) and not isinstance(obj, type):
                clear()


def cache_stats() -> dict:
    """Sizes and hit counts of the library's word-level caches."""
    algebra = importlib.import_module("cyclozeta.algebra")
    regularization = importlib.import_module("cyclozeta.regularization")
    sw = algebra.shuffle_words.cache_info()
    return {
        "algebra.shuffle_words_cache.size": sw.currsize,
        "algebra.shuffle_words_cache.hits": sw.hits,
        "algebra.shuffle_words_cache.misses": sw.misses,
        "regularization.tilde_cache.size": regularization._tilde_word.cache_info().currsize,
        "regularization.regt_cache.size": regularization._regt_word.cache_info().currsize,
    }
