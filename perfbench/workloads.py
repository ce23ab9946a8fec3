"""Seeded inputs and independent verifiers for the three benchmark workloads.

Each workload is an endless, seeded sequence of rounds, made one at a time
as the run reaches it.  A round takes one input from each of a fixed set of
strata (ranked by cost), drawn from the seed without replacement across
rounds, and shuffles them.  Every run of whole rounds therefore carries the
same traffic mix, which keeps throughput comparable across seeds, while the
inputs and their order still change with the seed.

A job is one unit of user work: one or more CLI argument lists run in order.
Verifiers recompute what the output must be by routes that share no code with
the package under test (plain ``Fraction`` and integer arithmetic) and raise
``Wrong`` on any mismatch.
"""

from __future__ import annotations

import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

# Longest exceptional chain the program accepts (its MAX_DIVISORS).  Fixed
# here so that the inputs never depend on the code under test.
MAX_CHAIN = 20

# Orders of the non-prime fields the program ships defining polynomials for.
PRIME_POWER_ORDERS = (4, 8, 9, 16, 25, 27, 49)


class Wrong(Exception):
    """The program produced an output that fails verification."""


class Decks:
    """Seeded draws without replacement: each stratum is dealt in shuffled
    order and reshuffled once exhausted."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.decks: dict = {}

    def draw(self, key, items):
        deck = self.decks.get(key)
        if not deck:
            deck = self.decks[key] = list(items)
            self.rng.shuffle(deck)
        return deck.pop()


@dataclass(frozen=True)
class Job:
    argvs: tuple  # CLI argument lists, run in order; all of them make one job
    params: tuple  # what the verifier needs, e.g. ("chain", m, q)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# The sweep pool: every max-dim from 6 up to a cap per p that keeps a job
# near a megabyte of JSON (p = 5, d = 18 writes 1.2 MB).
SWEEP_MAX_DIM = {2: 20, 3: 20, 5: 18, 7: 16, 11: 15, 13: 15}
# Odd, so that the median job lies inside the middle stratum rather than on
# the edge between two, where it would be the slowest job of one stratum or
# the fastest of the next.
SWEEP_STRATA = 15


def _partition_rows(p: int, d: int) -> int:
    """Rows a sweep must print: partitions of 1..d into parts <= p, minus all-ones."""
    ways = [1] + [0] * d
    for part in range(1, p + 1):
        for total in range(part, d + 1):
            ways[total] += ways[total - part]
    return sum(ways[1:]) - d


def _sweep_strata() -> list[list[tuple[int, int]]]:
    """The (p, max-dim) pool in equal-count strata, ranked by the rows a sweep prints."""
    pool = sorted(((p, d) for p, top in SWEEP_MAX_DIM.items() for d in range(6, top + 1)),
                  key=lambda pair: (_partition_rows(*pair), pair))
    return [pool[i * len(pool) // SWEEP_STRATA:(i + 1) * len(pool) // SWEEP_STRATA]
            for i in range(SWEEP_STRATA)]


PD_STRATA = _sweep_strata()


def sweep_round(rng: random.Random, decks: Decks, workdir: str) -> list[Job]:
    jobs = []
    for i, stratum in enumerate(PD_STRATA):
        p, d = decks.draw(i, stratum)
        jobs.append(Job((("sweep", "--p", str(p), "--max-dim", str(d), "--json"),), (p, d)))
    rng.shuffle(jobs)
    return jobs


def _value_at_one(triples) -> Fraction:
    return Fraction(sum(c for _, _, c in triples))


def _rational_at_one(value) -> Fraction:
    den = _value_at_one(value["den"])
    if den == 0:
        raise Wrong(f"value {value} has a pole at L = 1")
    return _value_at_one(value["num"]) / den


def _fraction_text(num: int, den: int) -> str:
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def verify_sweep(params, outputs) -> None:
    p, d = params
    (code, text), = outputs
    if code != 0:
        raise Wrong(f"exit code {code}")
    report = json.loads(text)
    if report["command"] != {"name": "sweep", "p": p, "max_dim": d}:
        raise Wrong(f"command echo {report['command']}")
    rows = report["result"]["rows"]
    expected_rows = _partition_rows(p, d)
    if len(rows) != expected_rows:
        raise Wrong(f"{len(rows)} rows, expected {expected_rows}")
    seen = set()
    for row in rows:
        blocks = tuple(row["blocks"])
        if (blocks in seen or sorted(blocks, reverse=True) != list(blocks)
                or not all(1 <= b <= p for b in blocks) or max(blocks) < 2
                or sum(blocks) > d):
            raise Wrong(f"bad or repeated block tuple {blocks}")
        seen.add(blocks)
        dim, dv = sum(blocks), sum(b * (b - 1) // 2 for b in blocks)
        reflection = dim - len(blocks) == 1
        if row["dim"] != dim or row["d_v"] != dv or row["reflection"] is not reflection:
            raise Wrong(f"{blocks}: dim/d_v/reflection {row['dim']}, {row['d_v']}, {row['reflection']}")
        if reflection:
            if any(row[k] is not None for k in ("mass", "euler", "uniform", "verdict")):
                raise Wrong(f"{blocks}: reflection row carries values")
            continue
        if dv < p:
            if row["euler"] != "infinity" or row["mass"] != "infinity":
                raise Wrong(f"{blocks}: D_V < p but euler {row['euler']}")
        else:
            euler = Fraction(dv, dv - p + 1)
            if row["euler"] != _fraction_text(dv, dv - p + 1):
                raise Wrong(f"{blocks}: euler {row['euler']}, expected {euler}")
            if _rational_at_one(row["mass"]) != euler:
                raise Wrong(f"{blocks}: mass at L=1 differs from euler {euler}")
        if row["uniform"] is not (True if dv == p else None):
            raise Wrong(f"{blocks}: uniform {row['uniform']} with D_V = {dv}, p = {p}")
        if row["verdict"] not in ("admissible", "obstructed") or (
                row["verdict"] == "admissible" and dv != p):
            raise Wrong(f"{blocks}: verdict {row['verdict']} with D_V = {dv}")


def sweep_traffic(jobs: list[Job], outputs_bytes: int) -> dict:
    pairs = Counter(f"{p},{d}" for p, d in (job.params for job in jobs))
    return {
        "p_d_histogram": dict(sorted(pairs.items())),
        "total_rows": sum(_partition_rows(p, d) for p, d in (job.params for job in jobs)),
        "total_bytes": outputs_bytes,
    }


# ---------------------------------------------------------------------------
# stringy
# ---------------------------------------------------------------------------

def hj_rays(m: int, q: int) -> list[tuple[int, int]]:
    """Rays (s, t), meaning (s/m, t/m), of the Hirzebruch-Jung resolution of 1/m(1,q).

    v_0 = (0, 1), v_1 = (1/m, q/m) and v_(i+1) = b_i v_i - v_(i-1) with
    m/q = [b_1, ..., b_k] the Hirzebruch-Jung continued fraction; the walk
    stops before v_(k+1) = (1, 0).
    """
    prev, cur = (0, m), (1, q)
    num, den = m, q
    rays = []
    while cur != (m, 0):
        rays.append(cur)
        b = -(-num // den)
        prev, cur = cur, (b * cur[0] - prev[0], b * cur[1] - prev[1])
        num, den = den, b * den - num
    return rays


def chain_strata(m: int, q: int) -> dict:
    """Strata file over the origin of the minimal resolution of 1/m(1,q).

    The exceptional curves form a chain of P^1s.  Over the origin the open
    stratum of an end curve is L (P^1 minus one point), of an inner curve
    L - 1, of a lone curve L + 1, and each crossing is a point.  The
    discrepancy of the divisor of ray (s/m, t/m) is (s + t)/m - 1.
    """
    rays = hj_rays(m, q)
    k = len(rays)
    ids = [f"E{i + 1}" for i in range(k)]
    divisors = []
    for name, (s, t) in zip(ids, rays):
        a = Fraction(s + t - m, m)
        divisors.append({"id": name, "a": [a.numerator, a.denominator]})
    strata, pi0 = [], []
    for i, name in enumerate(ids):
        neighbours = (i > 0) + (i < k - 1)
        cls = [[1, 1, 1]] + ([[0, 1, 1 - neighbours]] if neighbours != 1 else [])
        strata.append({"J": [name], "class": cls})
        pi0.append({"J": [name], "count": 1})
    for i in range(k - 1):
        pair = [ids[i], ids[i + 1]]
        strata.append({"J": pair, "class": [[0, 1, 1]]})
        pi0.append({"J": pair, "count": 1})
    return {"dimension": 2, "divisors": divisors, "strata": strata, "pi0": pi0}


def dense_strata(r: int, ns: tuple[int, ...]) -> dict:
    """All 2^k subsets of k divisors, each open stratum of class 1 + L; a_j = n_j/r - 1."""
    ids = [f"D{j + 1}" for j in range(len(ns))]
    divisors = []
    for name, n in zip(ids, ns):
        a = Fraction(n - r, r)
        divisors.append({"id": name, "a": [a.numerator, a.denominator]})
    strata = []
    for mask in range(1 << len(ids)):
        subset = [ids[j] for j in range(len(ids)) if mask >> j & 1]
        strata.append({"J": subset, "class": [[1, 1, 1], [0, 1, 1]]})
    return {"dimension": 2, "divisors": divisors, "strata": strata}


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def denominator_degree(m: int, q: int) -> int:
    """Degree in u = L^(1/r) of the common denominator of the Batyrev factors.

    The factor of a divisor with a + 1 = e/r is (L - 1)/(u^e - 1), and
    u^e - 1 is the product of the cyclotomic polynomials Phi_d for d | e, so
    the least common denominator has degree sum(phi(d)) over every such d.
    It ranks the cost of a chain job far better than the chain length does.
    """
    shares = [Fraction(s + t, m) for s, t in hj_rays(m, q)]
    r = math.lcm(*(share.denominator for share in shares))
    orders = {d for share in shares for d in _divisors(int(share * r))}
    return sum(_totient(d) for d in orders)


def chain_strata_pool(max_m: int = 40, max_degree: int = 150,
                      strata: int = 24) -> list[list[tuple[int, int]]]:
    """Every 1/m(1,q) with m <= max_m, an admissible chain and denominator degree
    <= max_degree (at most about a second per job today), cut into equal-count
    strata ordered by denominator degree (then chain length, m, q).

    CHAIN_STRATA below is this table written out, so that set-up does not
    rebuild it; the self-test checks the two agree.
    """
    pool = sorted(
        (denominator_degree(m, q), len(hj_rays(m, q)), m, q)
        for m in range(2, max_m + 1) for q in range(1, m)
        if math.gcd(m, q) == 1 and len(hj_rays(m, q)) <= MAX_CHAIN)
    pool = [entry for entry in pool if entry[0] <= max_degree]
    return [[(m, q) for _, _, m, q in pool[i * len(pool) // strata:(i + 1) * len(pool) // strata]]
            for i in range(strata)]


# One chain job per stratum per round, plus one dense job per k in DENSE_KS.
CHAIN_STRATA = (
    ((2, 1), (4, 1), (6, 1), (8, 1), (10, 1), (12, 1), (14, 1), (16, 1), (18, 1),
     (20, 1), (22, 1), (24, 1), (26, 1), (28, 1), (30, 1), (32, 1), (34, 1), (36, 1)),
    ((38, 1), (40, 1), (3, 2), (8, 3), (15, 4), (24, 5), (35, 6), (4, 3), (12, 5),
     (24, 7), (40, 9), (5, 4), (16, 7), (33, 10), (6, 5), (20, 9), (7, 6), (24, 11)),
    ((8, 7), (28, 13), (9, 8), (32, 15), (10, 9), (36, 17), (11, 10), (40, 19),
     (12, 11), (13, 12), (14, 13), (15, 14), (16, 15), (17, 16), (18, 17), (19, 18),
     (20, 19), (21, 20)),
    ((3, 1), (5, 1), (7, 1), (9, 1), (11, 1), (13, 1), (15, 1), (17, 1), (19, 1),
     (21, 1), (23, 1), (25, 1), (27, 1), (29, 1), (31, 1), (33, 1), (35, 1), (37, 1),
     (39, 1)),
    ((9, 2), (9, 5), (20, 3), (20, 7), (35, 4), (35, 9), (12, 7), (18, 5), (18, 11),
     (30, 11), (21, 13), (27, 8), (27, 17), (30, 19), (36, 11), (36, 23), (39, 25),
     (15, 2)),
    ((15, 8), (32, 3), (32, 11), (20, 11), (40, 7), (40, 23), (14, 3), (14, 5),
     (21, 2), (21, 11), (39, 5), (39, 8), (8, 5), (16, 3), (16, 11), (21, 8), (25, 9),
     (25, 14)),
    ((28, 15), (40, 11), (32, 7), (32, 23), (24, 17), (40, 29), (27, 2), (27, 14),
     (36, 19), (5, 2), (5, 3), (26, 3), (26, 9), (33, 2), (33, 17), (34, 5), (34, 7),
     (10, 3)),
    ((10, 7), (16, 9), (27, 5), (27, 11), (39, 14), (25, 4), (25, 19), (15, 11),
     (30, 17), (30, 23), (35, 13), (35, 27), (40, 31), (7, 2), (7, 4), (39, 2),
     (39, 20), (28, 3), (28, 19)),
    ((11, 3), (11, 4), (38, 3), (38, 13), (24, 13), (11, 2), (11, 6), (13, 2), (13, 7),
     (17, 3), (17, 6), (19, 4), (19, 5), (22, 5), (22, 9), (26, 7), (26, 15),
     (32, 17)),
    ((33, 5), (33, 20), (40, 3), (40, 27), (35, 19), (35, 24), (36, 5), (36, 29),
     (24, 19), (23, 4), (23, 6), (17, 2), (17, 9), (23, 3), (23, 8), (27, 4), (27, 7),
     (29, 5)),
    ((29, 6), (7, 3), (7, 5), (22, 3), (22, 15), (28, 5), (28, 17), (34, 9), (34, 19),
     (38, 7), (38, 11), (40, 21), (14, 9), (14, 11), (21, 5), (21, 17), (33, 23),
     (28, 11)),
    ((28, 23), (35, 29), (19, 2), (19, 10), (31, 4), (31, 8), (32, 5), (32, 13),
     (29, 3), (29, 10), (23, 2), (23, 12), (39, 4), (39, 10), (25, 2), (25, 13),
     (35, 3), (35, 12), (13, 5)),
    ((13, 8), (38, 5), (38, 23), (18, 7), (18, 13), (39, 17), (39, 23), (29, 2),
     (29, 15), (13, 3), (13, 9), (17, 5), (17, 7), (34, 3), (34, 23), (30, 7),
     (30, 13), (16, 5)),
    ((16, 13), (32, 19), (32, 27), (31, 2), (31, 16), (22, 13), (22, 17), (19, 7),
     (19, 11), (35, 2), (35, 18), (37, 2), (37, 19), (9, 4), (9, 7), (26, 11),
     (26, 19), (33, 14)),
    ((33, 26), (36, 7), (36, 31), (27, 20), (27, 23), (19, 3), (19, 13), (23, 5),
     (23, 14), (29, 8), (29, 11), (31, 7), (31, 9), (34, 13), (34, 21), (11, 7),
     (11, 8), (31, 11)),
    ((31, 17), (37, 8), (37, 14), (36, 13), (36, 25), (38, 9), (38, 17), (20, 13),
     (20, 17), (13, 4), (13, 10), (26, 5), (26, 21), (25, 3), (25, 17), (33, 7),
     (33, 19), (37, 5), (37, 15)),
    ((32, 9), (32, 25), (38, 21), (38, 29), (37, 13), (37, 20), (11, 5), (11, 9),
     (39, 11), (39, 32), (22, 7), (22, 19), (33, 8), (33, 29), (17, 4), (17, 13),
     (19, 8), (19, 12)),
    ((23, 7), (23, 10), (17, 10), (17, 12), (31, 3), (31, 21), (34, 15), (34, 25),
     (21, 4), (21, 16), (37, 3), (37, 25), (31, 12), (31, 13), (23, 13), (23, 16),
     (25, 7), (25, 18)),
    ((29, 12), (29, 17), (27, 10), (27, 19), (37, 7), (37, 16), (13, 6), (13, 11),
     (26, 17), (26, 23), (39, 29), (39, 35), (35, 8), (35, 22), (31, 18), (31, 19),
     (25, 11), (25, 16)),
    ((29, 4), (29, 16), (29, 20), (29, 22), (23, 9), (23, 18), (29, 9), (29, 13),
     (39, 16), (39, 22), (38, 27), (38, 31), (33, 4), (33, 25), (17, 11), (17, 14),
     (40, 17), (40, 33), (28, 9)),
    ((28, 25), (37, 10), (37, 26), (39, 7), (39, 28), (19, 14), (19, 15), (34, 27),
     (34, 29), (15, 7), (15, 13), (37, 4), (37, 28), (19, 6), (19, 16), (29, 18),
     (29, 21), (31, 14)),
    ((31, 20), (31, 5), (31, 25), (37, 11), (37, 27), (38, 15), (38, 33), (32, 21),
     (32, 29), (35, 11), (35, 16), (25, 6), (25, 21), (17, 8), (17, 15), (34, 11),
     (34, 31), (27, 16)),
    ((27, 22), (23, 17), (23, 19), (31, 22), (31, 24), (37, 23), (37, 29), (31, 6),
     (31, 26), (19, 9), (19, 17), (38, 25), (38, 35), (37, 17), (37, 24), (37, 6),
     (37, 31), (29, 7)),
    ((29, 25), (23, 15), (23, 20), (37, 21), (37, 30), (33, 13), (33, 28), (25, 8),
     (25, 22), (40, 13), (40, 37), (29, 23), (29, 24), (21, 10), (21, 19), (31, 23),
     (31, 27), (23, 11), (23, 21)),
)
DENSE_KS = (3, 4, 5)


def _write_input(workdir: str, name: str, payload: dict) -> str:
    path = os.path.join(workdir, name)
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
    return path


def stringy_round(rng: random.Random, decks: Decks, workdir: str) -> list[Job]:
    jobs = []
    for m, q in (decks.draw(i, stratum) for i, stratum in enumerate(CHAIN_STRATA)):
        path = _write_input(workdir, f"chain-{m}-{q}.json", chain_strata(m, q))
        argvs = (
            ("stringy", "--input", path, "--with-chi", "--json"),
            ("mass", "tame", "--m", str(m), "--weights", f"1,{q}", "--json"),
        )
        jobs.append(Job(argvs, ("chain", m, q)))
    for k in DENSE_KS:
        r = rng.randint(2, 6)
        ns = tuple(rng.randint(1, 2 * r) for _ in range(k))
        path = _write_input(workdir, f"dense-{r}-{'-'.join(map(str, ns))}.json",
                            dense_strata(r, ns))
        jobs.append(Job((("stringy", "--input", path, "--json"),), ("dense", r, ns)))
    rng.shuffle(jobs)
    return jobs


def tame_mass_triples(m: int, q: int) -> list[list[int]]:
    """Sum over s of L^age(s) for weights (1, q), as descending triples."""
    ages = Counter(Fraction(s % m + s * q % m, m) for s in range(m))
    return [[e.numerator, e.denominator, c] for e, c in sorted(ages.items(), reverse=True)]


def _value_at(triples, u: int, scale: int) -> Fraction:
    """Value at L = u^scale; scale must clear every exponent denominator."""
    total = Fraction(0)
    for num, den, coeff in triples:
        total += coeff * Fraction(u) ** (num * scale // den)
    return total


def _check_report(code: int, text: str) -> dict:
    if code != 0:
        raise Wrong(f"exit code {code}")
    return json.loads(text)["result"]


def verify_stringy(params, outputs) -> None:
    if params[0] == "chain":
        _, m, q = params
        (code1, text1), (code2, text2) = outputs
        stringy, mass = _check_report(code1, text1), _check_report(code2, text2)
        expected = {"num": tame_mass_triples(m, q), "den": [[0, 1, 1]]}
        if stringy["motif"] != expected:
            raise Wrong(f"1/{m}(1,{q}): motif {stringy['motif']} is not the tame mass")
        if mass["mass"] != expected:
            raise Wrong(f"1/{m}(1,{q}): mass {mass['mass']} differs from the age count")
        if stringy["chi_from_pst"] != "1" or stringy["chi_direct"] != 1:
            raise Wrong(f"1/{m}(1,{q}): chi {stringy['chi_from_pst']}, {stringy['chi_direct']}")
        return
    _, r, ns = params
    (code, text), = outputs
    motif = _check_report(code, text)["motif"]
    expected = 2 * math.prod(1 + Fraction(r, n) for n in ns)
    if _rational_at_one(motif) != expected:
        raise Wrong(f"dense {r}/{ns}: value at L=1 is not {expected}")
    # A second, exponent-sensitive evaluation at L = 2^scale.
    scale = math.lcm(r, *(den for _, den, _ in motif["num"] + motif["den"]))
    big_l = Fraction(2) ** scale
    want = (1 + big_l) * math.prod(
        1 + (big_l - 1) / (Fraction(2) ** (scale * n // r) - 1) for n in ns)
    den = _value_at(motif["den"], 2, scale)
    if den == 0 or _value_at(motif["num"], 2, scale) / den != want:
        raise Wrong(f"dense {r}/{ns}: value at L=2^{scale} differs")


def stringy_traffic(jobs: list[Job], outputs_bytes: int) -> dict:
    chains = [job.params for job in jobs if job.params[0] == "chain"]
    dense = [job.params for job in jobs if job.params[0] == "dense"]
    sum_n = sorted(sum(s + t for s, t in hj_rays(m, q)) for _, m, q in chains)
    degrees = sorted(denominator_degree(m, q) for _, m, q in chains)
    return {
        "chain_jobs": len(chains),
        "dense_jobs": len(dense),
        "m_histogram": dict(sorted(Counter(m for _, m, _ in chains).items())),
        "sum_n_quartiles": _quartiles(sum_n),
        "sum_n_max": max(sum_n, default=0),
        "denominator_degree_quartiles": _quartiles(degrees),
        "dense_k_histogram": dict(sorted(Counter(len(ns) for _, _, ns in dense).items())),
        "total_bytes": outputs_bytes,
    }


# ---------------------------------------------------------------------------
# serre
# ---------------------------------------------------------------------------

def _primes(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for k in range(2, math.isqrt(limit) + 1):
        if sieve[k]:
            sieve[k * k::k] = bytearray(len(sieve[k * k::k]))
    return [k for k in range(limit + 1) if sieve[k]]


PRIMES = _primes(2000)
SERRE_STRATA = 24


def _serre_strata() -> list[list[int]]:
    """The prime-power orders, then the primes below 2000 in equal-count strata by size."""
    cut = len(PRIMES) // (SERRE_STRATA - 1)
    return [list(PRIME_POWER_ORDERS)] + [PRIMES[i * cut:(i + 1) * cut]
                                         for i in range(SERRE_STRATA - 2)] + [PRIMES[(SERRE_STRATA - 2) * cut:]]


Q_STRATA = _serre_strata()
N_KINDS = ("q-1", "divisor", "coprime")


def _characteristic(q: int) -> int:
    return next(p for p in PRIMES if q % p == 0)


# The program writes the mass 1/q^(n-1) with str(), which refuses ints of
# more than this many digits (Python's default int/str digit limit).  So
# serre fails on every q^(n-1) >= 10**INT_STR_DIGITS: a known defect.  The
# workload draws only below that line; DEFECT_PROBES jobs beyond it run
# apart from the timed loop, so the defect still shows in every record.
INT_STR_DIGITS = 4300
_PRINTABLE = 10**INT_STR_DIGITS
DEFECT_PROBES = 3


def max_degree(q: int) -> int:
    """The largest n for which the program can print 1/q^(n-1)."""
    e = int(INT_STR_DIGITS / math.log10(q))
    while q**e >= _PRINTABLE:
        e -= 1
    while q ** (e + 1) < _PRINTABLE:
        e += 1
    return e + 1


def _degree(rng: random.Random, q: int, kind: str) -> int:
    """n = q - 1, a divisor of q - 1 other than 1, or any n in [2, q + 1] prime
    to p, each at most max_degree(q).  Where q - 1 is too large, "q-1" takes
    the largest divisor of q - 1 below the limit, so gcd(n, q - 1) stays n."""
    top = max_degree(q)
    if q == 2:
        return 1
    divisors = [k for k in range(2, min(q - 1, top) + 1) if (q - 1) % k == 0]
    if kind == "q-1":
        return divisors[-1]
    if kind == "divisor":
        return rng.choice(divisors)
    p = _characteristic(q)
    while True:
        n = rng.randint(2, min(q + 1, top))
        if n % p:
            return n


def serre_round(rng: random.Random, decks: Decks, workdir: str) -> list[Job]:
    """One job per q stratum.  Neighbouring strata get different kinds of n, so
    every round holds the same mix, and each stratum meets every kind once in
    three rounds."""
    offset = decks.draw("offset", range(len(N_KINDS)))
    jobs = []
    for i, stratum in enumerate(Q_STRATA):
        q = decks.draw(i, stratum)
        n = _degree(rng, q, N_KINDS[(i + offset) % len(N_KINDS)])
        jobs.append(Job((("serre", "--q", str(q), "--n", str(n), "--json"),), (q, n)))
    rng.shuffle(jobs)
    return jobs


def serre_defect_jobs(seed: int) -> list[Job]:
    """DEFECT_PROBES jobs the known defect fails: n = q - 1 for seeded primes q
    with q^(q-2) past the int/str digit limit."""
    rng = random.Random(f"serre-defect:{seed}")
    qs = sorted(rng.sample([q for q in PRIMES if q - 1 > max_degree(q)], DEFECT_PROBES))
    return [Job((("serre", "--q", str(q), "--n", str(q - 1), "--json"),), (q, q - 1))
            for q in qs]


def decimal(n: int) -> str:
    """Decimal digits of a nonnegative int of any size (no int/str digit limit)."""
    chunk = 10**1000
    if n < chunk:
        return str(n)
    high, low = divmod(n, chunk)
    return decimal(high) + str(low).zfill(1000)


def verify_serre(params, outputs) -> None:
    q, n = params
    (code, text), = outputs
    result = _check_report(code, text)
    g = math.gcd(n, q - 1)
    if result["classes"] != g or len(result["units"]) != g:
        raise Wrong(f"q={q}, n={n}: {result['classes']} classes, expected {g}")
    if result["aut_orders"] != [g] * g:
        raise Wrong(f"q={q}, n={n}: aut orders are not all {g}")
    if result["disc_exponent"] != n - 1:
        raise Wrong(f"q={q}, n={n}: disc exponent {result['disc_exponent']}")
    expected = "1" if n == 1 else "1/" + decimal(q ** (n - 1))
    if result["mass"] != expected or result["expected"] != expected or result["ok"] is not True:
        raise Wrong(f"q={q}, n={n}: mass {result['mass'][:40]} is not 1/q^(n-1)")


def serre_traffic(jobs: list[Job], outputs_bytes: int) -> dict:
    qs = [q for q, _ in (job.params for job in jobs)]
    gcds = sorted(math.gcd(n, q - 1) for q, n in (job.params for job in jobs))
    return {
        "q_min": min(qs, default=0),
        "q_max": max(qs, default=0),
        "q_quartiles": _quartiles(sorted(qs)),
        "gcd_quartiles": _quartiles(gcds),
        "gcd_max": max(gcds, default=0),
        "total_bytes": outputs_bytes,
    }


# ---------------------------------------------------------------------------

def _quartiles(values: list) -> list:
    if not values:
        return []
    return [values[(len(values) - 1) * i // 4] for i in range(5)]


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: object
    verify: object
    traffic: object
    defect_jobs: object = None  # seed -> jobs that a known defect fails


WORKLOADS = {
    "sweep": Workload("sweep", sweep_round, verify_sweep, sweep_traffic),
    "stringy": Workload("stringy", stringy_round, verify_stringy, stringy_traffic),
    "serre": Workload("serre", serre_round, verify_serre, serre_traffic, serre_defect_jobs),
}


def rounds(workload: Workload, seed: int, workdir: str):
    """The seeded, endless sequence of rounds, each made when it is reached."""
    rng = random.Random(f"{workload.name}:{seed}")
    decks = Decks(rng)
    while True:
        yield workload.make_round(rng, decks, workdir)
