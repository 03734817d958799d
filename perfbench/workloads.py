"""The benchmark workloads: inputs, requests, answers.

Each workload is a list of requests.  A request is one call path a user of
latsimplex waits on (one CLI subcommand or one acceptance criterion).  Its
``run()`` returns the answer fields only, as plain JSON data, and raises
``WrongAnswer`` when an intrinsic check fails.  Answers are hashed by
``digest`` and compared with the digests recorded in ``answers.json``
wherever the input was recorded there.

Every library call goes through the ``latsimplex`` package namespace at call
time, so the tracer's wrappers see it.  The inputs are the same for every
seed; the seed shuffles the order of the requests (the default seed is 0).
README.md says what each workload holds and why.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import latsimplex as ls
from latsimplex.errors import GroupTooLarge


class WrongAnswer(Exception):
    """An answer failed its intrinsic check."""


class Request:
    def __init__(self, key, fn, *args):
        self.key = key  # stable fingerprint of the input
        self._fn = fn
        self._args = args

    def prepare(self):
        """The request as a call without arguments, on fresh inputs.

        A group caches its support masks on first use, so every call gets
        its own copy of each input group and no call profits from an
        earlier one.  Copying is cheap and happens here, off the clock.
        """
        args = [_fresh(a) for a in self._args]
        return lambda: self._fn(*args)

    def run(self):
        return self.prepare()()


def _fresh(arg):
    """A copy of an input group without its cached masks; other inputs
    are immutable and returned as they are."""
    if isinstance(arg, ls.LambdaGroup):
        return ls.LambdaGroup(arg.e, arg.den, arg.generators, arg.elements)
    return arg


def digest(answer) -> str:
    blob = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def _group_key(prefix, G) -> str:
    return f"{prefix}:{digest(G.to_json())[:16]}"


# Random groups form a fixed corpus per workload: the same groups for every
# seed, which sets only the order of the requests (see build).  Drawing the
# groups by seed, even one from each run of four groups of like cost, moved
# ehrhart's 90th-percentile latency by up to 39 % from seed to seed, on top
# of the host's own noise (see README.md).  A corpus fixes how many groups
# of each coordinate count e it holds; request cost grows about threefold
# per step of e, and ehrhart keeps few e=6 groups so that a pass stays
# short.  Group i of a corpus is drawn by its own generator, seeded with
# "<corpus>:<i>".
CORPORA = {  # corpus: ({e: groups}, den max, max order)
    "roundtrip": ({2: 40, 3: 40, 4: 40, 5: 40, 6: 40}, 6, 48),
    "ehrhart": ({3: 40, 4: 40, 5: 20, 6: 6}, 6, 48),
    "analyze": ({10: 20, 11: 20, 12: 20, 13: 20, 14: 20}, 4, 256),
}
ANSWERS_FILE = Path(__file__).resolve().parent / "answers.json"


def random_groups(corpus):
    """The corpus's random integer-sum groups, in blocks of equal e."""
    counts, den_max, max_order = CORPORA[corpus]
    groups = []
    for e, count in sorted(counts.items()):
        for _ in range(count):
            rng = random.Random(f"{corpus}:{len(groups)}")
            groups.append(_random_group(rng, e, den_max, max_order))
    return groups


def _random_group(rng, e, den_max, max_order):
    while True:
        den = rng.randint(2, den_max)
        gens = []
        for _ in range(rng.randint(1, 3)):
            nums = [rng.randrange(den) for _ in range(e)]
            nums[-1] = (-sum(nums[:-1])) % den
            gens.append(ls.ResidueVector(den, nums))
        try:
            return ls.close(gens, max_order=max_order)
        except GroupTooLarge:
            continue


# ---------------------------------------------------------------- search

# Non-pyramid enumeration budgets (e, max denominator, max generators, s),
# each under 0.2 s on the pure backend.  A short request is timed often in a
# run and its fastest call is more likely to fall in a stretch when the host
# runs at full speed (see README.md).  The den 2 budgets find many groups
# and spend most of their time canonicalizing them; the rest are
# candidate-bound.  The search workload is the same for every seed: a
# search has no input but its budget, few budgets cost within 20 % of each
# other, and drawing budgets by seed moved wall time by 15 % and the median
# latency by 60 % between seeds.
SEARCH_BUDGETS = ((7, 6, 3, 2), (8, 6, 3, 2), (9, 3, 3, 3), (9, 2, 3, 3),
                  (8, 2, 3, 3), (11, 2, 4, 3), (11, 3, 3, 3), (10, 3, 3, 3),
                  (12, 2, 4, 3), (6, 2, 4, 3), (8, 4, 3, 2), (10, 2, 3, 3),
                  (8, 4, 2, 3), (9, 4, 3, 2))
SEARCH_MAX_ORDER = 4096


def _forms(forms):
    return [cf.to_json() for cf in forms]


def _verify(suite, parameter):
    fn = ls.verify_main1 if suite == "main1" else ls.verify_main2
    report = fn(parameter)
    if report.status != "pass":
        raise WrongAnswer(f"verify {suite} {parameter}: {report.detail}")
    return {"status": report.status, "found": _forms(report.found)}


def _enumerate(e, den, gens, s):
    budget = ls.SearchBudget(e=e, max_denominator=den, max_generators=gens,
                             max_order=SEARCH_MAX_ORDER)
    report = ls.enumerate_groups(budget, s, require_non_pyramid=True)
    if not report.complete:
        raise WrongAnswer("enumeration stopped before its budget was covered")
    for cf in report.found:
        if cf.e != e or den % cf.den or len(cf.table) > SEARCH_MAX_ORDER:
            raise WrongAnswer("found a group outside the search budget")
    # counters are left out: they describe the walk, not the answer
    return {"complete": report.complete, "found": _forms(report.found)}


def search_requests():
    reqs = [Request(f"{suite}:{p}", _verify, suite, p)
            for suite, p in (("main1", 0), ("main1", 1),
                             ("main2", 1), ("main2", 2))]
    reqs += [Request("enum:" + ",".join(map(str, b)), _enumerate, *b)
             for b in SEARCH_BUDGETS]
    return reqs


# ------------------------------------------------------------- roundtrip

def roundtrip_request(G):
    simplex = ls.realize_vertices(G)
    recovered = ls.lambda_from_vertices(simplex)
    form = ls.canonical_form(recovered)
    if form != ls.canonical_form(G):
        raise WrongAnswer("recovered group differs from the realized one")
    return {"vertices": simplex.to_json(), "canonical": form.to_json()}


def roundtrip_requests():
    groups = [ls.simplex_code_group(r) for r in (2, 3)]
    groups += [ls.counterexample_simplex(s) for s in (2, 3)]
    groups += random_groups("roundtrip")
    return [Request(_group_key("rt", G), roundtrip_request, G)
            for G in groups]


# --------------------------------------------------------------- ehrhart

def ehrhart_request(G):
    simplex = ls.realize_vertices(G)
    d = simplex.d
    table = ls.ehrhart_table(simplex, d)
    hstar = ls.h_star_from_counts(table, d)
    if hstar != ls.h_star(G):
        raise WrongAnswer("h* from counts differs from h* of the group")
    interior = ls.min_interior_dilation(simplex)
    # reciprocity: the first dilation with an interior point is d + 1 - deg h*
    if interior != d + 1 - hstar.degree():
        raise WrongAnswer("interior dilation contradicts the codegree")
    return {"counts": table.to_json(), "hstar": hstar.as_list(),
            "interior": interior}


def ehrhart_requests():
    groups = [ls.simplex_code_group(2)]
    groups += random_groups("ehrhart")
    return [Request(_group_key("eh", G), ehrhart_request, G) for G in groups]


# --------------------------------------------------------------- analyze

def _close_hstar(r, rows):
    G = ls.close(rows)
    hstar = ls.h_star(G).as_list()
    # every nonzero code word has 2^(r-1) halves, so height 2^(r-2)
    expected = [0] * ((1 << (r - 2)) + 1)
    expected[0] += 1
    expected[-1] += (1 << r) - 1
    if hstar != expected:
        raise WrongAnswer(f"h* of the r={r} code group is {hstar}")
    return {"order": G.order, "hstar": hstar}


def conjecture_request(G):
    report = ls.conjecture_report(G, allow_branch_and_bound=True)
    d, s, C = report.d, report.s, report.cayley_number
    if not 1 <= C <= d + 1 or report.original_gap != d + 1 - 2 * s - C:
        raise WrongAnswer("inconsistent conjecture report")
    return report.to_json()


def analyze_requests():
    reqs = [Request(f"code:{r}", _close_hstar, r, ls.half_matrix(r))
            for r in range(2, 10)]
    groups = [ls.simplex_code_group(r) for r in range(2, 6)]
    groups += [ls.counterexample_simplex(s) for s in range(2, 15)]
    groups += random_groups("analyze")
    reqs += [Request(_group_key("cj", G), conjecture_request, G)
             for G in groups]
    return reqs


# ------------------------------------------------------------- pipeline

def pipeline_requests():
    """The roundtrip, ehrhart and analyze requests as one workload."""
    return roundtrip_requests() + ehrhart_requests() + analyze_requests()


# Each request's answer is recorded under the workload that defines it.
BUILDERS = {
    "search": search_requests,
    "roundtrip": roundtrip_requests,
    "ehrhart": ehrhart_requests,
    "analyze": analyze_requests,
}
WORKLOADS = dict(BUILDERS, pipeline=pipeline_requests)


def build(name, seed):
    """The workload's requests, in an order shuffled by ``seed``.

    The shuffle spreads like requests over the pass, so that a stretch of
    slow machine time lands on requests of every cost, not on a run of like
    requests.
    """
    requests = WORKLOADS[name]()
    random.Random(f"order:{seed}").shuffle(requests)
    return requests
