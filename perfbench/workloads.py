"""The knotpoly CLI invocations each benchmark workload runs.

A workload is a list of passes; a pass is a list of invocations, and an
invocation is the argument list of one ``knotpoly`` command.  Every
invocation a seed can produce has a golden output in ``goldens.json``,
so inputs come from fixed pools and the seed chooses among them.

``full`` is the size the benchmark measures; ``tiny`` is for the
benchmark's own tests.
"""

from __future__ import annotations

import math
from random import Random

WORKLOADS = ("obstruct-sweep", "glue-sweep", "query-mix")
SIZES = ("full", "tiny")

# Exhaustive sweep; wider than the CLI default of --a-max 20 --companion-max 10.
OBSTRUCT_ARGS = {
    "full": ("--a-max", "24", "--companion-max", "12"),
    "tiny": ("--a-max", "8", "--companion-max", "5"),
}

GLUE_PER_CASE = {"full": 2000, "tiny": 5}
# CLI seeds the glue pool is drawn from.  Seeds whose sweep aborts at the
# goldens' commit are listed in goldens.json under "glue_aborts" and left
# out of the timed pool; README.md says why.
GLUE_SEED_CANDIDATES = range(48)

# Large queries: torus knots T(p, p - 3) with p near 310.  Every seed runs
# the same sixteen distinct knots, so query_p90_s compares like with like
# across seeds; the seed orders them and picks text or JSON output.
LARGE_KNOTS = {
    "full": tuple((p, p - 3) for p in range(300, 324) if p % 3),
    "tiny": ((41, 38), (43, 40)),
}
SMALL_PER_KIND = {"full": 12, "tiny": 1}
SMALL_POOL_PER_KIND = 40


def _check(workload: str, size: str) -> None:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; expected one of {SIZES}")


def key(args) -> str:
    """Golden lookup key of an invocation."""
    return " ".join(args)


def stated_size(workload: str, size: str = "full") -> str:
    """One-line description of the work in one pass."""
    _check(workload, size)
    if workload == "obstruct-sweep":
        return "sweep obstruct " + " ".join(OBSTRUCT_ARGS[size])
    if workload == "glue-sweep":
        n = GLUE_PER_CASE[size]
        return f"sweep glue --per-case {n} ({3 * n} records), one CLI seed per pass"
    n_small = SMALL_PER_KIND[size] * len(_SMALL_KINDS)
    n_large = len(LARGE_KNOTS[size])
    return f"{n_small + n_large} queries: {n_small} small, {n_large} large alexander T(p,p-3)"


def passes(
    workload: str, seed: int, size: str = "full", glue_aborts=frozenset()
) -> list[list[tuple[str, ...]]]:
    """The passes a run cycles through, made from the seed.

    obstruct-sweep is exhaustive and ignores the seed.  glue-sweep skips
    the CLI seeds in ``glue_aborts``.
    """
    _check(workload, size)
    if workload == "obstruct-sweep":
        return [[("sweep", "obstruct", *OBSTRUCT_ARGS[size])]]
    if workload == "glue-sweep":
        pool = [s for s in GLUE_SEED_CANDIDATES if s not in glue_aborts]
        Random(seed).shuffle(pool)
        return [[_glue_args(size, s)] for s in pool]
    return [_query_mix(seed, size)]


def all_invocations(size: str) -> list[tuple[str, ...]]:
    """Every invocation any seed can produce at this size (for goldens)."""
    out = [("sweep", "obstruct", *OBSTRUCT_ARGS[size])]
    out += [_glue_args(size, s) for s in GLUE_SEED_CANDIDATES]
    for kind in _SMALL_KINDS:
        out += _small_pool(kind)
    out += [a for p, q in LARGE_KNOTS[size] for a in _large_variants(p, q)]
    return out


# ------- glue-sweep -------


def _glue_args(size: str, cli_seed: int) -> tuple[str, ...]:
    return ("sweep", "glue", "--per-case", str(GLUE_PER_CASE[size]), "--seed", str(cli_seed))


# ------- query-mix -------


def _coprime_pairs(limit: int):
    for p in range(3, limit + 1):
        for q in range(2, p):
            if math.gcd(p, q) == 1:
                yield p, q


def _signed_knots():
    # Alternate orientation so mirrors are queried too.
    return [(p if i % 2 == 0 else -p, q) for i, (p, q) in enumerate(_coprime_pairs(23))]


def _apoly_text(a: int, b: int) -> str:
    # Enhanced A-polynomial templates in the parser's M-before-L term order.
    if b == 2:
        return f"1 + M^{2 * a}*L" if a > 0 else f"M^{-2 * a} + L"
    return f"-1 + M^{2 * a * b}*L^2" if a > 0 else f"-M^{-2 * a * b} + L^2"


def _newton_text(i: int) -> str:
    rng = Random(i)
    terms = []
    for _ in range(3 + i % 5):
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        m, l = rng.randint(-4, 12), rng.randint(0, 4)
        terms.append((c, m, l))
    parts = []
    for j, (c, m, l) in enumerate(terms):
        sign = "-" if c < 0 else ("+" if j else "")
        parts.append(f"{sign}{abs(c)}*M^{m}*L^{l}")
    return " ".join(parts)


def _obstruct_cases():
    companions = ("T(3,2)", "T(5,2)", "T(4,3)", "T(7,2)", "T(5,3)", "T(5,4)")
    cases = []
    for a, b in _coprime_pairs(20):
        for w in range(1, a):
            if (a * b) % (w * w) == 0:
                cases.append((a, b, w))
    # Spread the picks over the whole range instead of the smallest patterns.
    step = len(cases) / SMALL_POOL_PER_KIND
    picked = [cases[int(i * step)] for i in range(SMALL_POOL_PER_KIND)]
    return [(a, b, w, companions[i % len(companions)]) for i, (a, b, w) in enumerate(picked)]


def _fmt(i: int) -> tuple[str, ...]:
    # Every other entry of a pool asks for JSON output.
    return ("--format", "json") if i % 2 else ()


def _small_pool(kind: str) -> list[tuple[str, ...]]:
    n = SMALL_POOL_PER_KIND
    knots = _signed_knots()[::3][:n]
    if kind == "alexander":
        return [("alexander", f"T({a},{b})") for a, b in knots]
    if kind == "alexander-json":
        return [("alexander", f"T({a},{b})", "--format", "json") for a, b in knots]
    if kind == "apoly":
        return [("apoly", f"T({a},{b})", *_fmt(i)) for i, (a, b) in enumerate(knots)]
    if kind == "newton":
        return [("newton", _newton_text(i), *_fmt(i)) for i in range(n)]
    if kind == "detect":
        return [("detect", _apoly_text(a, b), *_fmt(i)) for i, (a, b) in enumerate(knots)]
    if kind == "detect-degree":
        out = []
        for i, (a, b) in enumerate(knots):
            degree = (abs(a) - 1) * (b - 1) + (2 if i % 5 == 4 else 0)
            out.append(("detect", "--degree", str(degree), _apoly_text(a, b), *_fmt(i)))
        return out
    if kind == "obstruct":
        return [
            ("obstruct", "--a", str(a), "--b", str(b), "--w", str(w), "--companion", c)
            for a, b, w, c in _obstruct_cases()
        ]
    raise ValueError(f"unknown query kind {kind!r}")


_SMALL_KINDS = (
    "alexander",
    "alexander-json",
    "apoly",
    "newton",
    "detect",
    "detect-degree",
    "obstruct",
)


def _large_variants(p: int, q: int) -> list[tuple[str, ...]]:
    return [("alexander", f"T({p},{q})"), ("alexander", f"T({p},{q})", "--format", "json")]


def _query_mix(seed: int, size: str) -> list[tuple[str, ...]]:
    rng = Random(seed)
    queries = []
    for kind in _SMALL_KINDS:
        queries += rng.sample(_small_pool(kind), SMALL_PER_KIND[size])
    queries += [rng.choice(_large_variants(p, q)) for p, q in LARGE_KNOTS[size]]
    rng.shuffle(queries)
    return queries
