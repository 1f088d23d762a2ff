"""Correctness checks on the program's outputs, counted per item.

Each checker returns a Tally: items attempted, items failed, and a few
failure messages. A grid item is one CSV row or JSON record; a crosscheck
item is one oracle entry of one scenario.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from udleak.cli import CSV_HEADER as _HEADER
from workloads import PRODUCTION_NAME

# oracle vs production gap allowed for every entry, as a share of the
# scenario's P''_A; the separable entries and M agree to <~2e-6 here
CROSSCHECK_TOL = 1e-5

# entries whose gap is a known defect (ROADMAP item 3: Y_AB is extrapolated
# in the regulator without an error gate). Their failures are counted like
# any other; they only do not mark the run incorrect.
KNOWN_DEFECTS = frozenset({"Y_AB", "xi_AB"})

CSV_HEADER = _HEADER.split(",")
_TEXT_CELLS = ("mode", "perturbative_ok")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    unexpected: int = 0           # failures outside KNOWN_DEFECTS
    messages: list = field(default_factory=list)

    def fail(self, message, known=False):
        self.failed += 1
        if not known:
            self.unexpected += 1
        if len(self.messages) < 5:
            self.messages.append(message)

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.unexpected += other.unexpected
        for msg in other.messages:
            if len(self.messages) < 5:
                self.messages.append(msg)


def _finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_eternal_csv(rc, text, expected):
    """Rows of one eternal plan: exit 0 (so --validate passed), row count,
    finite cells, rates >= 0, and zero rates where m c^2 >= delta_e."""
    tally = Tally(attempted=expected)
    lines = text.splitlines()
    if rc != 0 or not lines or lines[0].split(",") != CSV_HEADER:
        for _ in range(expected):
            tally.fail(f"eternal plan exit code {rc} or bad header")
        return tally
    rows = lines[1:]
    for _ in range(max(expected - len(rows), 0)):
        tally.fail(f"eternal plan emitted {len(rows)} of {expected} rows")
    for lineno, line in enumerate(rows[:expected], start=2):
        problem = _eternal_row_problem(line)
        if problem:
            tally.fail(f"csv line {lineno}: {problem}")
    return tally


def _eternal_row_problem(line):
    cells = line.split(",")
    if len(cells) != len(CSV_HEADER):
        return f"{len(cells)} cells"
    row = {}
    for name, cell in zip(CSV_HEADER, cells):
        if name in _TEXT_CELLS or cell == "":
            continue
        try:
            row[name] = float(cell)
        except ValueError:
            return f"{name} = {cell!r} is not a number"
        if not math.isfinite(row[name]):
            return f"{name} = {cell} is not finite"
    try:
        rates = (row["negativity_rate"], row["concurrence_rate"])
        closed = row["mass"] * row["c"] ** 2 >= row["delta_e"]
    except KeyError as exc:
        return f"empty cell {exc}"
    if min(rates) < 0.0:
        return f"negative rate {rates}"
    if closed and rates != (0.0, 0.0):
        return f"rates {rates} at or below threshold"
    return None


def check_gaussian_json(rc, text, expected):
    """Records of one Gaussian plan: exit 0 (so --validate passed), record
    count, finite numbers, 0 <= N <= |alpha gamma|, 0 <= C <= 2|alpha gamma|,
    P_A > 0 and |X_AB| <= sqrt(P''_A P''_B) + max_quad_error."""
    tally = Tally(attempted=expected)
    try:
        records = json.loads(text) if rc == 0 else None
    except json.JSONDecodeError:
        records = None
    if not isinstance(records, list):
        for _ in range(expected):
            tally.fail(f"gaussian plan exit code {rc} or unreadable JSON")
        return tally
    for _ in range(max(expected - len(records), 0)):
        tally.fail(f"gaussian plan emitted {len(records)} of {expected} records")
    for i, rec in enumerate(records[:expected]):
        problem = _gaussian_record_problem(rec)
        if problem:
            tally.fail(f"record {i}: {problem}")
    return tally


def _numbers(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


def _gaussian_record_problem(rec):
    try:
        rep = rec["report"]
        ints = rec["integrals"]
        if not all(math.isfinite(x) for x in _numbers(rec)):
            return "non-finite number"
        ag = rep["initial_negativity"]
        neg, conc = rep["negativity"], rep["concurrence"]
        p_a = ints["P_A"]["re"]
        x_ab = math.hypot(ints["X_AB"]["re"], ints["X_AB"]["im"])
        geo = math.sqrt(ints["P''_A"]["re"] * ints["P''_B"]["re"])
        slack = rep["max_quad_error"]
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed record ({exc!r})"
    if not (_finite(neg) and 0.0 <= neg <= ag):
        return f"negativity {neg} outside [0, {ag}]"
    if not (_finite(conc) and 0.0 <= conc <= 2.0 * ag):
        return f"concurrence {conc} outside [0, {2.0 * ag}]"
    if not p_a > 0.0:
        return f"P_A = {p_a} not positive"
    if not x_ab <= geo + slack:
        return f"|X_AB| = {x_ab} above sqrt(P''_A P''_B) = {geo} + {slack}"
    return None


def crosscheck_gap(entry, value, production):
    """|oracle - production| / P''_A for one entry; M compares real parts
    (production keeps only Re M)."""
    prod = production[PRODUCTION_NAME[entry]].coeff
    pdd = production["P''_A"].coeff.real
    if entry == "M":
        return abs(value.real - prod.real) / pdd
    return abs(value - prod) / pdd


def check_crosscheck(results):
    """results: (scenario index, entry, oracle value or exception,
    production entries or exception). Returns the tally and the largest gap
    per entry."""
    tally = Tally(attempted=len(results))
    gaps = {}
    for k, entry, value, production in results:
        where = f"scenario {k} entry {entry}"
        for outcome in (value, production):
            if isinstance(outcome, Exception):
                tally.fail(f"{where}: {type(outcome).__name__}: {outcome}")
                break
        else:
            gap = crosscheck_gap(entry, value, production)
            gaps[entry] = (gap if math.isnan(gap)
                           else max(gaps.get(entry, 0.0), gap))
            if not gap <= CROSSCHECK_TOL:
                tally.fail(f"{where}: gap {gap:.3e} P''_A above "
                           f"{CROSSCHECK_TOL:.0e}", known=entry in KNOWN_DEFECTS)
    return tally, gaps
