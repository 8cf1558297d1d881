"""The three workloads: seeded request streams with answers known by construction.

A workload is an endless stream of fixed blocks.  The block's instance list
never changes; the seed only picks the name prefix of every spec and the
order of the requests inside each block, so two seeds do the same work.

Each :class:`Request` carries the payload the program receives and, apart
from it, what the answer must be (``expect``), which :func:`check_answer`
enforces with the benchmark's own evaluator.
"""

from __future__ import annotations

import itertools
import random
import string
from dataclasses import dataclass, field

import specs
from evaluator import Evaluator, label_counts
from specs import SpecModel

WORKLOADS = ("witness", "solver", "serve")

#: ``witness``: star-schema sizes per block, 3:1, so p50 falls in the
#: 64-dimension class and p90 in the 128-dimension class.
WITNESS_BLOCK = (64, 64, 64, 128)

#: ``solver``: a block of 20 is the five support-search checks, two MUS
#: diagnoses and one repair of registrar specs (the fast 40%), eight
#: exact-backend chain implications (40-80%, so p50 falls inside them) and
#: four star-3 repairs (the slowest 20%, so p90 falls inside them).
CHAIN_TYPES, CHAIN_LINKS = 7, 5
CHAIN_QUERIES = ((0, 3), (1, 5), (2, 4), (0, 1), (4, 1), (5, 2), (3, 0), (2, 1))
EXACT_NO_WITNESS = {"backend": "exact", "want_witness": False}
STAR_REPAIRS = 4

#: ``serve``: resident chain sessions and the request mix of one block of
#: 20: 13 cached reads (65%, p50 inside them), one validate, one fresh spec
#: sent as check then diagnose, and four first-asked ``implies_all`` (the
#: slowest 20%, p90 inside them).  Each session offers 2,160 first-asked
#: queries, enough for about 43,000 requests.
SERVE_TYPES, SERVE_LINKS, SERVE_ATTRS = 16, 5, ("x", "y", "z")
SERVE_SESSIONS = 8
SERVE_READS_PER_SESSION = 6
SERVE_BLOCK = {"read": 13, "implies_all": 4, "fresh_spec": 1, "validate": 1}
SERVE_NEW_PHIS = 2
SERVE_FRESH_FILLER = 4


@dataclass
class Request:
    cls: str
    payload: dict
    expect: dict = field(default_factory=dict)


def _prefix(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(3))


def _shuffled_blocks(rng: random.Random, block: list) -> "itertools.chain":
    def blocks():
        while True:
            order = list(block)
            rng.shuffle(order)
            yield order

    return itertools.chain.from_iterable(blocks())


def _spec_payload(op: str, spec: SpecModel, **extra) -> dict:
    return {"op": op, "dtd": spec.dtd_text(), "constraints": spec.constraints_text(), **extra}


# -- witness -------------------------------------------------------------------


def witness_stream(seed: int, tag: str = "w"):
    rng = random.Random(f"witness:{seed}")
    run = _prefix(rng)
    for index, dims in enumerate(_shuffled_blocks(rng, list(WITNESS_BLOCK))):
        spec = specs.star_schema(dims).renamed(f"{tag}{run}{index}_")
        yield Request(
            f"star{dims}",
            _spec_payload("check", spec),
            {"consistent": True, "witness_of": spec, "star_dims": dims},
        )


def witness_warmup():
    return list(itertools.islice(witness_stream(0, tag="warm"), len(WITNESS_BLOCK)))


# -- solver --------------------------------------------------------------------


def _solver_block(prefix: str) -> list:
    block = []
    for number, record in enumerate(specs.frozen_specs("solver_specs")):
        spec = specs.model_from_record(record).renamed(prefix)
        expect = {"consistent": record["consistent"]}
        if record["consistent"]:
            expect["witness_of"] = spec
        block.append(Request(f"search{number}", _spec_payload("check", spec), expect))
    for filler in (8, 32):
        spec = specs.registrar(filler).renamed(prefix)
        mus = sorted(specs.rename_constraint(c, lambda t: prefix + t) for c in specs.REGISTRAR_MUS)
        block.append(
            Request("mus", _spec_payload("diagnose", spec), {"consistent": False, "mus": mus})
        )
    spec = specs.registrar(16).renamed(prefix)
    block.append(
        Request(
            "repair_registrar",
            _spec_payload("repair", spec),
            {"repair_cost": 1, "conflicts": [_registrar_conflict(prefix)]},
        )
    )
    spec = specs.star_schema(3, consistent=False).renamed(prefix)
    block += [
        Request(
            "repair_star3",
            _spec_payload("repair", spec),
            {"repair_cost": 3, "conflicts": [_star_conflict(prefix, i) for i in range(3)]},
        )
    ] * STAR_REPAIRS
    chain = specs.inclusion_chain(CHAIN_TYPES, CHAIN_LINKS).renamed(prefix)
    for i, j in CHAIN_QUERIES:
        block.append(
            Request(
                "implies_exact",
                _spec_payload(
                    "implies", chain, phi=f"{prefix}t{i}.x <= {prefix}t{j}.x",
                    config=EXACT_NO_WITNESS,
                ),
                {"implied": specs.chain_implied(CHAIN_LINKS, i, "x", j, "x")},
            )
        )
    return block


def _registrar_conflict(p: str) -> dict:
    return {
        "delete": {f"{p}approval.stamp -> {p}approval", f"{p}approval.stamp => {p}auditor.aid"},
        "loosen": {(f"{p}order", f"{p}approval")},
        "drop": {(f"{p}approval", "stamp"), (f"{p}auditor", "aid")},
    }


def _star_conflict(p: str, i: int) -> dict:
    dim, fact = f"{p}dim{i}", f"{p}fact"
    return {
        "delete": {
            f"{dim}.id -> {dim}",
            f"{fact}.ref{i} => {dim}.id",
            f"{fact}.ref{i} -> {fact}",
            f"{dim}.id => {fact}.ref{i}",
        },
        "loosen": {(f"{p}r", dim)},
        "drop": {(dim, "id"), (fact, f"ref{i}")},
    }


def solver_stream(seed: int):
    rng = random.Random(f"solver:{seed}")
    yield from _shuffled_blocks(rng, _solver_block(f"s{_prefix(rng)}_"))


def solver_warmup(seed: int):
    """Every distinct spec of the timed stream once, so every timed request
    finds its ``Psi_DN`` block cached and each block does the same work."""
    rng = random.Random(f"solver:{seed}")
    first = {}
    for request in _solver_block(f"s{_prefix(rng)}_"):
        first.setdefault(request.payload["dtd"], request)
    return list(first.values())


# -- serve ---------------------------------------------------------------------


@dataclass
class ServePlan:
    """Resident sessions, warm-up and the request stream of ``serve``.

    Session references are symbolic (``"@0"``) until the client learns the
    fingerprints from the ``open`` answers.  Every session asks the same
    fixed sequence of queries (a seed-independent permutation); the seed
    only renames and reorders within blocks.
    """

    warmup: list
    stream: object


def _pairs(types: int, attrs: tuple) -> list:
    cells = [(i, a) for i in range(types) for a in attrs]
    return [(c, d) for c in cells for d in cells if c[0] != d[0]]


def _phi(prefix: str, cell, other) -> str:
    (i, a), (j, b) = cell, other
    return f"{prefix}t{i}.{a} <= {prefix}t{j}.{b}"


def serve_plan(seed: int) -> ServePlan:
    rng = random.Random(f"serve:{seed}")
    run = _prefix(rng)
    sessions = []
    reads, fresh = [], []
    for slot in range(SERVE_SESSIONS):
        prefix = f"r{run}{slot}_"
        spec = specs.inclusion_chain(SERVE_TYPES, SERVE_LINKS, SERVE_ATTRS).renamed(prefix)
        pairs = _pairs(SERVE_TYPES, SERVE_ATTRS)
        random.Random(slot).shuffle(pairs)
        sessions.append((prefix, spec))
        reads.append(pairs[:SERVE_READS_PER_SESSION])
        fresh.append(iter(pairs[SERVE_READS_PER_SESSION:]))

    def implies_request(slot: int, cell, other) -> Request:
        prefix = sessions[slot][0]
        (i, a), (j, b) = cell, other
        return Request(
            "read",
            {"op": "implies", "session": f"@{slot}", "phi": _phi(prefix, cell, other)},
            {"implied": specs.chain_implied(SERVE_LINKS, i, a, j, b)},
        )

    warmup = [
        Request("open", _spec_payload("open", spec), {"opened": slot})
        for slot, (_, spec) in enumerate(sessions)
    ]
    for slot in range(SERVE_SESSIONS):
        warmup += [implies_request(slot, c, d) for c, d in reads[slot]]
    warmup += _fresh_spec_pair(f"warm{run}_") + [_validate(rng, sessions, 0, "warm")]

    def stream():
        counter = itertools.count()
        read_turn = itertools.count()
        write_turn = itertools.count()
        block = (
            ["read"] * SERVE_BLOCK["read"]
            + ["implies_all"] * SERVE_BLOCK["implies_all"]
            + ["fresh_spec"] * SERVE_BLOCK["fresh_spec"]
            + ["validate"] * SERVE_BLOCK["validate"]
        )
        for kind in _shuffled_blocks(rng, block):
            n = next(counter)
            if kind == "read":
                turn = next(read_turn)
                slot = turn % SERVE_SESSIONS
                cell, other = reads[slot][(turn // SERVE_SESSIONS) % SERVE_READS_PER_SESSION]
                yield implies_request(slot, cell, other)
            elif kind == "implies_all":
                slot = next(write_turn) % SERVE_SESSIONS
                new = [next(fresh[slot], None) for _ in range(SERVE_NEW_PHIS)]
                if None in new:
                    raise RuntimeError(
                        "serve: the pool of first-asked queries is exhausted; "
                        "raise SERVE_TYPES"
                    )
                prefix = sessions[slot][0]
                yield Request(
                    "implies_all",
                    {"op": "implies_all", "session": f"@{slot}",
                     "phis": [_phi(prefix, c, d) for c, d in new]},
                    {"implied_all": [
                        specs.chain_implied(SERVE_LINKS, c[0], c[1], d[0], d[1]) for c, d in new
                    ]},
                )
            elif kind == "fresh_spec":
                yield from _fresh_spec_pair(f"f{run}{n}_")
            else:
                yield _validate(rng, sessions, n % SERVE_SESSIONS, n)

    return ServePlan(warmup, stream())


def _fresh_spec_pair(prefix: str) -> list:
    spec = specs.registrar(SERVE_FRESH_FILLER).renamed(prefix)
    mus = sorted(specs.rename_constraint(c, lambda t: prefix + t) for c in specs.REGISTRAR_MUS)
    return [
        Request("fresh_check", _spec_payload("check", spec), {"consistent": False}),
        Request(
            "fresh_diagnose",
            _spec_payload("diagnose", spec),
            {"consistent": False, "mus": mus},
        ),
    ]


def _validate(rng: random.Random, sessions: list, slot: int, n) -> Request:
    """A fresh document for a chain session; with probability 1/2 one
    chain link is broken by an extra value, and that link is the only
    violation."""
    prefix, spec = sessions[slot]
    broken = rng.randrange(SERVE_LINKS) if rng.random() < 0.5 else None
    parts = []
    for i in range(SERVE_TYPES):
        values = [f"v{n}"]
        if i == broken:
            values.append(f"z{n}")
        parts += [f'<{prefix}t{i} x="{v}" y="{v}{i}" z="{i}"/>' for v in values]
    document = f"<{prefix}r>" + "".join(parts) + f"</{prefix}r>"
    violations = [] if broken is None else [f"{prefix}t{broken}.x <= {prefix}t{broken + 1}.x"]
    return Request(
        "validate",
        {"op": "validate", "session": f"@{slot}", "document": document},
        {"conforms": True, "violations": violations},
    )


# -- answers -------------------------------------------------------------------


def stream_for(workload: str, seed: int):
    if workload == "witness":
        return witness_stream(seed)
    if workload == "solver":
        return solver_stream(seed)
    raise ValueError(f"no in-process stream for {workload!r}")


def warmup_for(workload: str, seed: int) -> list:
    return witness_warmup() if workload == "witness" else solver_warmup(seed)


def verdict(answer: dict) -> object:
    """The part of an answer that traced and untraced runs must agree on."""
    keys = ("consistent", "implied", "mus", "cost", "conforms", "violations", "results", "error")
    out = {k: answer[k] for k in keys if k in answer}
    if "results" in out:
        out["results"] = [r.get("implied") for r in out["results"]]
    if "actions" in answer:
        out["actions"] = answer["actions"]
    return out


def check_answer(request: Request, answer: dict) -> list[str]:
    """Why ``answer`` is not the known answer of ``request`` (empty if it is)."""
    expect = request.expect
    if "error" in answer:
        return [f"error answer: {answer['error']}"]
    errors = []
    for key in ("consistent", "implied", "conforms"):
        if key in expect and answer.get(key) is not expect[key]:
            errors.append(f"{key} is {answer.get(key)!r}, expected {expect[key]!r}")
    if "mus" in expect and sorted(answer.get("mus", [])) != expect["mus"]:
        errors.append(f"mus {answer.get('mus')} != {expect['mus']}")
    if "violations" in expect and sorted(answer.get("violations", [])) != expect["violations"]:
        errors.append(f"violations {answer.get('violations')} != {expect['violations']}")
    if "implied_all" in expect:
        got = [r.get("implied") for r in answer.get("results", [])]
        if got != expect["implied_all"]:
            errors.append(f"implied {got} != {expect['implied_all']}")
    if "witness_of" in expect:
        xml = answer.get("witness")
        if not xml:
            errors.append("consistent answer without a witness")
        else:
            errors += Evaluator(expect["witness_of"]).witness_errors(xml)
            if "star_dims" in expect:
                errors += _star_count_errors(expect["witness_of"], expect["star_dims"], xml)
    if "repair_cost" in expect:
        errors += _repair_errors(expect, answer)
    return errors


def _star_count_errors(spec: SpecModel, dims: int, xml: str) -> list[str]:
    counts = label_counts(xml)
    prefix = spec.root[: -len("r")]
    wanted = {spec.root} | {f"{prefix}fact"} | {f"{prefix}dim{i}" for i in range(dims)}
    errors = []
    if set(counts) != wanted:
        errors.append("star witness has the wrong element types")
    if counts[spec.root] != 1 or any(counts[t] < 1 for t in wanted):
        errors.append("star witness has an empty dimension or extra roots")
    return errors


def _repair_errors(expect: dict, answer: dict) -> list[str]:
    """A repair must cost the known minimum and hit every known conflict."""
    if not answer.get("found") or not answer.get("verified"):
        return ["repair not found or not verified"]
    actions = answer.get("actions", [])
    errors = []
    if answer.get("cost") != expect["repair_cost"] or len(actions) != expect["repair_cost"]:
        errors.append(f"repair cost {answer.get('cost')} with {len(actions)} actions, "
                      f"expected {expect['repair_cost']}")

    def touches(action: dict, conflict: dict) -> bool:
        kind = action.get("kind")
        if kind == "delete":
            return action.get("constraint") in conflict["delete"]
        if kind == "loosen":
            return (action.get("element_type"), action.get("child")) in conflict["loosen"]
        if kind == "drop":
            return (action.get("element_type"), action.get("attr")) in conflict["drop"]
        return False

    for number, conflict in enumerate(expect["conflicts"]):
        if not any(touches(a, conflict) for a in actions):
            errors.append(f"repair leaves known conflict {number} in place")
    return errors
