"""Seeded op streams for the three benchmark workloads, and the independent
checks of each op's output.

An op is one argv for ``fourfold.cli.main``.  Each workload turns a seed into
an endless stream of ops, made of rounds whose cost profile does not depend on
the seed (see ``README.md`` for why each workload exists).  The checks below
recompute every answer from closed forms and this module's own pi enclosure;
they never call the code under test.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

# -- atoms: closed forms, independent of the package's catalog ---------------


@dataclass(frozen=True)
class AtomData:
    name: str
    b1: int
    b_plus: int
    b_minus: int
    c1_squared: int      # canonical class square
    rank: Optional[int]  # rank of the tracked lattice; None when none is stored
    sv: int              # (g-1)(h-1) for Sigma(g,h), else 0
    theorem_a: bool      # passes the 2/3-piece non-vanishing premises


def atom(name: str, *args: int) -> AtomData:
    if name == "CP2":
        return AtomData("CP2", 0, 1, 0, 9, 1, 0, False)
    if name == "CP2bar":
        return AtomData("CP2bar", 0, 0, 1, -1, 1, 0, False)
    if name == "S1xS3":
        return AtomData("S1xS3", 1, 0, 0, 0, 0, 0, False)
    if name == "T4":
        return AtomData("T4", 4, 3, 3, 0, 2, 0, True)
    if name == "K3":
        return AtomData("K3", 0, 3, 19, 0, 2, 0, True)
    if name == "Kodaira":
        return AtomData("Kodaira", 3, 2, 2, 0, 2, 0, True)
    if name == "Y":
        (ell,) = args
        return AtomData(f"Y({ell})", 0, 3, 19, 0, 2, 0, True)
    if name == "Sigma":
        g, h = args
        b1, b2 = 2 * (g + h), 2 * g * h + 1
        return AtomData(f"Sigma({g},{h})", b1, b2, b2, 8 * (g - 1) * (h - 1), 2,
                        (g - 1) * (h - 1), (b2 - b1) % 4 == 3)
    if name == "Gompf":
        a, b = args
        b_plus = 4 * a + 2 * b - 1
        return AtomData(f"Gompf({a},{b})", 0, b_plus, 20 * a + 2 * b - 1, 8 * b,
                        None, 0, b_plus % 4 == 3)
    raise ValueError(f"unknown atom {name!r}")


@dataclass(frozen=True)
class SumData:
    """Characteristic numbers of a connected sum, summed over its atoms."""

    b1: int
    b_plus: int
    b_minus: int

    @property
    def chi(self) -> int:
        return 2 - 2 * self.b1 + self.b_plus + self.b_minus

    @property
    def tau(self) -> int:
        return self.b_plus - self.b_minus

    @property
    def gap(self) -> int:
        """2 chi - 3 |tau|, the Hitchin-Thorpe margin."""
        return 2 * self.chi - 3 * abs(self.tau)


def sum_data(counts: Counter) -> SumData:
    return SumData(sum(a.b1 * k for a, k in counts.items()),
                   sum(a.b_plus * k for a, k in counts.items()),
                   sum(a.b_minus * k for a, k in counts.items()))


def expression(counts: Counter, rng: random.Random) -> str:
    """A '#'-separated expression with its terms in a seeded order."""
    terms = [a.name if k == 1 else f"{k}*{a.name}" for a, k in counts.items()]
    rng.shuffle(terms)
    return " # ".join(terms)


def summand_record(counts: Counter) -> list[list]:
    return sorted([a.name, k] for a, k in counts.items())


# -- pi^2 enclosure from Machin's formula -------------------------------------

_DIGITS = 60
_GUARD = 10


def _arctan_inv(x: int, scale: int) -> int:
    """scale * arctan(1/x), truncated term by term (error < one unit per term)."""
    total = term = scale // x
    x2, k, sign = x * x, 3, -1
    while term:
        term //= x2
        total += sign * (term // k)
        k, sign = k + 2, -sign
    return total


def _pi2_enclosure() -> tuple[Fraction, Fraction]:
    scale = 10 ** (_DIGITS + _GUARD)
    pi = 4 * (4 * _arctan_inv(5, scale) - _arctan_inv(239, scale))
    slack = 10 ** _GUARD  # far above the accumulated truncation error
    return (Fraction(pi - slack, scale) ** 2, Fraction(pi + slack, scale) ** 2)


PI2_LO, PI2_HI = _pi2_enclosure()


def pi2_greater(a: Fraction, b: Fraction, strict: bool = True) -> Optional[bool]:
    """Decide a*pi^2 > b (>= when not strict); None when the enclosure ties."""
    if a == 0:
        return 0 > b if strict else 0 >= b
    r = Fraction(b) / a
    if a > 0:
        return True if r <= PI2_LO else False if r >= PI2_HI else None
    return True if r >= PI2_HI else False if r <= PI2_LO else None


# -- ops and workloads ---------------------------------------------------------


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    spec: tuple  # workload-specific data the check recomputes from


class Workload:
    """A seeded op stream plus the check of each op's output."""

    name = ""
    # Runs end on a multiple of ``block`` ops: every block of the stream has
    # the same cost mix, so the percentiles of a run do not depend on where
    # it stopped.
    block = 1
    # Ops the traced run executes (whole blocks), so that its counts and
    # output digest are fixed by the seed.
    trace_ops = 0

    def stream(self, seed: int) -> Iterator[Op]:
        raise NotImplementedError

    def check(self, op: Op, code: int, out: str) -> Optional[str]:
        """None when the op succeeded with the right output, else what is
        wrong.  Exit 1 is always a failure: every generated input is valid."""
        if code == 1:
            return "exit 1"
        try:
            self._check(op, code, out)
        except (AssertionError, KeyError, IndexError, TypeError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    def _check(self, op: Op, code: int, out: str) -> None:
        raise NotImplementedError


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


# -- geography -----------------------------------------------------------------

_SURFACES = ((3, 3), (3, 5), (3, 7), (5, 5), (5, 7), (7, 7))
# Values of nmax that give the same cells (4m + 2n - 1 = 3 mod 4 forces n even).
_NMAX_CLASSES = ((2, 3), (4, 5), (6,))


def expected_hits(mode: str, g: int, h: int, mmax: int,
                  nmax: int) -> list[tuple[int, int, int]]:
    """The (m, n, l) tuples the search must certify at c4 = 1, enumerated
    from the paper's inequalities with this module's pi^2 enclosure."""
    big_g = (g - 1) * (h - 1)
    out = []
    for m in range(2, mmax + 1):
        for n in range(1, nmax + 1):
            if (4 * m + 2 * n - 1) % 4 != 3:
                continue
            if mode == "spin":
                floor = Fraction(2 * n + big_g, 3) - 3
                top = 2 * n + big_g
            else:
                floor = Fraction(8 * n + 4 * big_g, 3) - 12
                top = 8 * n + 4 * big_g
            for ell in range(1, top + 1):
                if ell < floor:
                    continue
                if mode == "spin":
                    # 2n + (1 - 4/(81 pi^2)) G - 3 > l and
                    # 2(n + 12m) + (1 - 4/(81 pi^2)) G + 21 > l
                    ok = [pi2_greater(Fraction(81 * (2 * n + big_g - 3 - ell)),
                                      Fraction(4 * big_g)),
                          pi2_greater(Fraction(81 * (2 * (n + 12 * m) + big_g + 21 - ell)),
                                      Fraction(4 * big_g))]
                else:
                    # 8n + 4(1 - 4/(81 pi^2)) G - 12 > l
                    ok = [pi2_greater(Fraction(81 * (8 * n + 4 * big_g - 12 - ell)),
                                      Fraction(16 * big_g))]
                if None in ok:
                    raise AssertionError(f"pi^2 tie at {(m, n, ell)}")
                if all(ok):
                    out.append((m, n, ell))
    return out


def _geography_atoms(mode: str, m: int, n: int, g: int, h: int, ell: int) -> Counter:
    extra = atom("S1xS3") if mode == "spin" else atom("CP2bar")
    return Counter({atom("Gompf", m, n): 1, atom("Y", 1): 1,
                    atom("Sigma", g, h): 1, extra: ell})


def _record_name(counts: Counter) -> str:
    return " # ".join(name if k == 1 else f"{k}*{name}"
                      for name, k in summand_record(counts))


class Geography(Workload):
    name = "geography"
    # A round is the whole grid (108 ops) in a seeded order.  Op cost spans
    # 5 ms to 2 s, so only whole rounds give a run a seed-independent mix.
    block = 108
    trace_ops = 108

    def stream(self, seed: int) -> Iterator[Op]:
        rng = random.Random(seed)
        grid = [(mode, g, h, mmax, nmaxes)
                for mode in ("spin", "nonspin") for g, h in _SURFACES
                for mmax in (2, 3, 4) for nmaxes in _NMAX_CLASSES]
        while True:
            rng.shuffle(grid)
            for mode, g, h, mmax, nmaxes in grid:
                nmax = rng.choice(nmaxes)
                argv = ("search", "--mode", mode, "--g", str(g), "--h", str(h),
                        "--mmax", str(mmax), "--nmax", str(nmax))
                yield Op(argv, (mode, g, h, mmax, nmax))

    def _check(self, op: Op, code: int, out: str) -> None:
        mode, g, h, mmax, nmax = op.spec
        want = expected_hits(mode, g, h, mmax, nmax)
        _expect(code == 0, f"exit {code}")
        lines = out.splitlines()
        _expect(len(lines) == len(want), f"{len(lines)} lines, want {len(want)} hits")
        big_g = (g - 1) * (h - 1)
        lkey = "l1" if mode == "spin" else "l2"
        for line, (m, n, ell) in zip(lines, want):
            hit = json.loads(line)
            _expect(hit["kind"] == "search-hit" and hit["mode"] == mode,
                    f"not a {mode} hit: {line[:80]}")
            _expect((hit["m"], hit["n"], hit[lkey]) == (m, n, ell),
                    f"hit {(hit['m'], hit['n'], hit[lkey])}, want {(m, n, ell)}")
            counts = _geography_atoms(mode, m, n, g, h, ell)
            _expect(hit["manifold"] == _record_name(counts), f"name {hit['manifold']}")
            _expect(hit["sv"] == {"c4": "1", "factor": big_g, "hi": str(16 * big_g),
                                  "lo": str(16 * big_g)}, f"sv {hit['sv']}")
            ht, ght, cor = hit["certificates"]
            gap = sum_data(counts).gap
            _expect(ht["theorem_id"] == "hitchin-thorpe"
                    and ht["verdict"] == ("NotObstructed" if gap >= 0 else "Obstructed")
                    and f"2chi - 3|tau| = {gap}" in ht["premises"][0]["witness"],
                    f"Hitchin-Thorpe {ht['verdict']} at gap {gap}")
            # strict GHT at the upper end of the simplicial-volume interval
            _expect(pi2_greater(Fraction(81 * gap), Fraction(16 * big_g)) is True,
                    f"GHT fails at gap {gap}")
            _expect(ght["theorem_id"] == "ght" and ght["verdict"] == "NotObstructed",
                    f"GHT verdict {ght['verdict']}")
            # 4(n' + l1 + k) + l2 >= (1/3)(sum(2chi+3tau)(X) + 4k(1-h)(1-g)),
            # over X = Gompf(m,n), Y(1) with k = 1 surface product
            x_total = sum(2 * (2 - 2 * a.b1 + a.b_plus + a.b_minus)
                          + 3 * (a.b_plus - a.b_minus)
                          for a in (atom("Gompf", m, n), atom("Y", 1)))
            l1, l2 = (ell, 0) if mode == "spin" else (0, ell)
            lhs, rhs = 4 * (2 + l1 + 1) + l2, Fraction(x_total + 4 * (1 - h) * (1 - g), 3)
            _expect(lhs >= rhs and cor["verdict"] == "Obstructed"
                    and f"lhs = {lhs}, rhs = {rhs}" in cor["premises"][1]["witness"],
                    f"corollary {cor['verdict']} with lhs {lhs}, rhs {rhs}")


# -- invariants ------------------------------------------------------------------


def _positive_piece(rng: random.Random) -> AtomData:
    """A piece that passes the non-vanishing premises."""
    kind = rng.choice(("Sigma", "Y", "K3", "T4", "Kodaira", "Gompf"))
    if kind == "Sigma":
        return atom("Sigma", rng.choice((1, 3, 5, 7)), rng.choice((1, 3, 5, 7)))
    if kind == "Y":
        return atom("Y", rng.randint(1, 6))
    if kind == "Gompf":
        return atom("Gompf", rng.randint(2, 4), rng.choice((0, 2, 4, 6)))
    return atom(kind)


class Invariants(Workload):
    name = "invariants"
    # A round is every (pieces n, blow-ups k) pair once.  The orbit rank
    # n + k sets an op's cost, so every round has the same cost profile.
    # In two cheap cells one piece is Gompf(a, odd b), which fails the
    # non-vanishing premises (beta2 then exits 2); placing them there keeps
    # that path covered without making the cost of a round random.
    block = 28
    trace_ops = 56
    _FAILING_CELLS = ((2, 0), (3, 1))

    def stream(self, seed: int) -> Iterator[Op]:
        rng = random.Random(seed)
        cells = [(n, k) for n in (2, 3) for k in range(14)]
        while True:
            rng.shuffle(cells)
            for n, k in cells:
                pieces = [_positive_piece(rng) for _ in range(n)]
                if (n, k) in self._FAILING_CELLS:
                    pieces[0] = atom("Gompf", rng.randint(2, 4), rng.choice((1, 3, 5)))
                counts = Counter(pieces)
                if k:
                    counts[atom("CP2bar")] = k
                s = rng.randint(0, 3)
                if s:
                    counts[atom("S1xS3")] = s
                cmd = rng.choice(("invariants", "beta2"))
                yield Op((cmd, expression(counts, rng)), (cmd, counts))

    def _check(self, op: Op, code: int, out: str) -> None:
        cmd, counts = op.spec
        doc = json.loads(out)
        parts = [a for a, k in counts.items() for _ in range(k) if a.b_plus > 0]
        k = counts[atom("CP2bar")]
        eligible = len(parts) in (2, 3) and all(a.theorem_a for a in parts)
        _expect(code == (0 if eligible or cmd == "invariants" else 2), f"exit {code}")
        if cmd == "invariants":
            s = sum_data(counts)
            got = (doc["b1"], doc["b_plus"], doc["b_minus"], doc["chi"], doc["tau"])
            _expect(got == (s.b1, s.b_plus, s.b_minus, s.chi, s.tau),
                    f"(b1, b+, b-, chi, tau) = {got}")
        beta = doc["beta_squared"]
        if not eligible:
            _expect(set(beta) == {"inconclusive"}, "beta^2 should be inconclusive")
            return
        value = sum(max(a.c1_squared, 0) for a in parts)
        diag = [int(x) for x in beta["gram_diagonal"]]
        witness = [Fraction(w) for w in beta["witness"]]
        _expect(Fraction(beta["value"]) == value, f"beta^2 {beta['value']}, want {value}")
        _expect(sorted(diag) == sorted([a.c1_squared for a in parts] + [-1] * k),
                f"gram diagonal {diag}")
        _expect(beta["classes"] == 2 ** (len(parts) + k), f"{beta['classes']} classes")
        _expect(len(witness) == len(diag) and all(abs(w) <= 1 for w in witness),
                "witness outside the box")
        _expect(sum(d * w * w for d, w in zip(diag, witness)) == value,
                "Q(witness) != beta^2")


# -- wide sums -------------------------------------------------------------------


def _lattice_atom(rng: random.Random) -> AtomData:
    kind = rng.choice(("Y", "Sigma", "K3", "T4", "Kodaira", "CP2"))
    if kind == "Y":
        return atom("Y", rng.randint(1, 40))
    if kind == "Sigma":
        return atom("Sigma", rng.randint(1, 9), rng.randint(1, 9))
    return atom(kind)


def _stratified(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k values in [lo, hi], one from each of k equal slices, ascending."""
    width = (hi - lo + 1) / k
    return [lo + int((i + rng.random()) * width) for i in range(k)]


class WideSums(Workload):
    name = "wide-sums"
    block = 16
    trace_ops = 48
    _CHECKS = (("build",), ("check", "hitchin-thorpe"), ("check", "ght"),
               ("check", "einstein"))

    def stream(self, seed: int) -> Iterator[Op]:
        rng = random.Random(seed)
        while True:
            # Lattice rank (~2 per atom plus one per blow-up) sets the cost
            # and the peak memory: stratify atom and blow-up counts within
            # each round and pair them in order, so every round spans the
            # same ranks, from the smallest to the largest sum.
            atoms = _stratified(rng, 8, 30, self.block)
            blowups = _stratified(rng, 0, 150, self.block)
            cmds = list(self._CHECKS) * (self.block // len(self._CHECKS))
            rng.shuffle(cmds)
            sizes = list(zip(atoms, blowups))
            rng.shuffle(sizes)
            for (m, c), cmd in zip(sizes, cmds):
                counts = Counter(_lattice_atom(rng) for _ in range(m))
                if c:
                    counts[atom("CP2bar")] = c
                s = rng.randint(0, 10)
                if s:
                    counts[atom("S1xS3")] = s
                yield Op(cmd + (expression(counts, rng),), (cmd[-1], counts))

    def _check(self, op: Op, code: int, out: str) -> None:
        cmd, counts = op.spec
        doc = json.loads(out)
        s = sum_data(counts)
        if cmd == "build":
            _expect(code == 0, f"exit {code}")
            man = doc["manifold"]
            rank = sum(a.rank * k for a, k in counts.items())
            got = (man["b1"], man["b_plus"], man["b_minus"],
                   len(man["lattice"]["basis"]), len(man["lattice"]["gram"]))
            _expect(got == (s.b1, s.b_plus, s.b_minus, rank, rank),
                    f"(b1, b+, b-, rank, gram rows) = {got}")
            _expect(man["summand_record"] == summand_record(counts), "summand record")
            return
        verdict = doc["verdict"]
        witnesses = " ".join(p["witness"] for p in doc["certificate"]["premises"])
        if cmd == "hitchin-thorpe":
            want = "Obstructed" if s.gap < 0 else "NotObstructed"
        elif cmd == "ght":
            sv = sum(a.sv * k for a, k in counts.items())
            upper = pi2_greater(Fraction(81 * s.gap), Fraction(16 * sv))
            holds = pi2_greater(Fraction(81 * s.gap), Fraction(16 * sv), strict=False)
            want = ("NotObstructed" if upper else "Obstructed" if holds is False
                    else "Inconclusive")
        else:
            # the Einstein obstruction needs 2 or 3 positive pieces; these have 8+
            want = "Inconclusive"
        _expect(verdict == want, f"{cmd} verdict {verdict}, want {want}")
        _expect(code == (2 if want == "Inconclusive" else 0), f"exit {code}")
        if cmd != "einstein":
            _expect(f"2chi - 3|tau| = {s.gap}" in witnesses
                    or f"2chi-3|tau| = {s.gap}" in witnesses,
                    f"witness does not state 2chi - 3|tau| = {s.gap}")


WORKLOADS = {w.name: w for w in (Geography(), Invariants(), WideSums())}
