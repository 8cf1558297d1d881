"""DTD-level analyses: productivity, reachability, multiplicity.

These implement the linear-time decidable problems of Section 3.3:

* :func:`has_valid_tree` — Theorem 3.5(1): does a finite tree conform to
  ``D``? Equivalent to emptiness of the associated extended CFG, decided by
  the standard productivity fixpoint.
* :func:`can_have_two` — Lemma 3.6: is there a valid tree with
  ``|ext(tau)| > 1``? Decided with a saturating occurrence-count fixpoint.
* :func:`reachable_types` / :func:`usable_types` — structural helpers used
  by the consistency encodings and workload generators.
"""

from __future__ import annotations

from repro.dtd.model import DTD
from repro.regex.analysis import alphabet, can_derive_over, saturating_count
from repro.regex.ast import TEXT_SYMBOL


def _productive(dtd: DTD, banned: str | None = None) -> set[str]:
    """Productive element types, treating ``banned`` as unproductive.

    A worklist over a symbol -> users map: every type is tested once, and
    again only when a symbol of its content model becomes productive.
    """
    candidates = [tau for tau in dtd.element_types if tau != banned]
    users: dict[str, list[str]] = {}
    for tau in candidates:
        for symbol in alphabet(dtd.content[tau]):
            users.setdefault(symbol, []).append(tau)
    allowed: set[str] = {TEXT_SYMBOL}
    worklist: list[str] = []
    while True:
        for tau in candidates:
            if tau not in allowed and can_derive_over(dtd.content[tau], allowed):
                allowed.add(tau)
                worklist.append(tau)
        if not worklist:
            break
        candidates = users.get(worklist.pop(), [])
    allowed.discard(TEXT_SYMBOL)
    return allowed


def productive_types(dtd: DTD) -> frozenset[str]:
    """Element types that derive some finite tree.

    A type ``tau`` is productive iff ``P(tau)`` can derive a word over
    productive symbols (text is always derivable: a text node is a leaf).
    Computed by a worklist: each ``P(tau)`` is tested once, plus once per
    symbol of ``P(tau)`` that becomes productive, so the cost is
    ``O(sum_tau |P(tau)| * |alph(P(tau))|)`` — linear in ``|D|`` on a simple
    DTD (Section 4.1), whose content models have at most two symbols.
    """
    return frozenset(_productive(dtd))


def reachable_types(dtd: DTD) -> frozenset[str]:
    """Element types reachable from the root through content models."""
    reachable: set[str] = {dtd.root}
    frontier = [dtd.root]
    while frontier:
        tau = frontier.pop()
        for symbol in alphabet(dtd.content[tau]) - {TEXT_SYMBOL}:
            if symbol not in reachable:
                reachable.add(symbol)
                frontier.append(symbol)
    return frozenset(reachable)


def usable_types(dtd: DTD) -> frozenset[str]:
    """Types that can actually occur in some valid tree.

    A type occurs in a valid tree iff it is productive and reachable from
    the root through a context of productive types. We compute reachability
    restricted to productive types (an unproductive type on the path makes
    the whole branch underivable only if it is *unavoidable*; reachability
    here is existential, so we restrict edges to productive parents whose
    content models can embed the child alongside productive siblings).
    """
    productive = productive_types(dtd)
    if dtd.root not in productive:
        return frozenset()
    usable: set[str] = {dtd.root}
    frontier = [dtd.root]
    allowed = productive | {TEXT_SYMBOL}
    # One weight map for every probe, so an edge costs O(|P(tau)|). Only
    # the probed symbol weighs 1, and only during its own probe: a stale 1
    # would let a later probe succeed through the wrong symbol.
    weights = dict.fromkeys(allowed, 0)
    while frontier:
        tau = frontier.pop()
        expr = dtd.content[tau]
        for symbol in alphabet(expr) - {TEXT_SYMBOL}:
            if symbol in usable or symbol not in productive:
                continue
            # symbol is usable below tau iff some word of P(tau) over
            # productive symbols contains it: the maximum weight of such a
            # word is >= 1 when only `symbol` weighs anything.
            weights[symbol] = 1
            count = saturating_count(expr, weights)
            weights[symbol] = 0
            if count is not None and count >= 1:
                usable.add(symbol)
                frontier.append(symbol)
    return frozenset(usable)


def has_valid_tree(dtd: DTD) -> bool:
    """Theorem 3.5(1): does any finite XML tree conform to ``dtd``?"""
    return dtd.root in productive_types(dtd)


def can_have_two(dtd: DTD, tau: str) -> bool:
    """Lemma 3.6: is there a valid tree with at least two ``tau`` elements?

    We compute, for every element type ``sigma``, the saturated maximum
    number ``cap[sigma] ∈ {0, 1, 2}`` of ``tau``-labelled nodes in any tree
    rooted at a ``sigma`` element (2 means "two or more"), by an increasing
    fixpoint: ``cap[sigma] = [sigma = tau] + max-word-weight of P(sigma)``
    where symbol weights are the current ``cap`` values and unproductive
    symbols are dead. The answer is ``cap[root] >= 2``.
    """
    if tau not in set(dtd.element_types):
        return False
    productive = productive_types(dtd)
    if dtd.root not in productive:
        return False
    cap: dict[str, int] = {sigma: 0 for sigma in productive}
    cap[TEXT_SYMBOL] = 0
    changed = True
    while changed:
        changed = False
        for sigma in productive:
            inner = saturating_count(dtd.content[sigma], cap)
            if inner is None:
                # Cannot happen for productive sigma, but stay defensive.
                continue
            value = min(2, inner + (1 if sigma == tau else 0))
            if value > cap[sigma]:
                cap[sigma] = value
                changed = True
    return cap[dtd.root] >= 2


def nondeterministic_types(dtd: DTD) -> dict[str, list[str]]:
    """Element types whose content models violate XML's determinism rule.

    The XML 1.0 standard requires 1-unambiguous content models; the
    paper's results do not depend on this, but real validating parsers
    reject violating DTDs, so the toolkit reports them. Maps each
    offending type to the symbols witnessing the ambiguity.
    """
    from repro.regex.determinism import nondeterminism_witnesses

    offenders: dict[str, list[str]] = {}
    for tau in dtd.element_types:
        witnesses = nondeterminism_witnesses(dtd.content[tau])
        if witnesses:
            offenders[tau] = witnesses
    return offenders


def required_children(dtd: DTD, tau: str) -> frozenset[str]:
    """Child element types that occur in *every* word of ``P(tau)``.

    A child ``a`` is required when ``P(tau)`` cannot derive any word over
    the remaining alphabet — i.e. a ``tau`` element can never avoid an
    ``a`` child.  These are exactly the loosening candidates of the
    repair engine (:mod:`repro.analysis.repair`): wrapping an *optional*
    child in ``?`` changes nothing, so only required children are edits.

    >>> from repro.dtd.model import DTD
    >>> d = DTD.build("r", {"r": "(a, b?, c*)", "a": "EMPTY",
    ...                     "b": "EMPTY", "c": "EMPTY"})
    >>> sorted(required_children(d, "r"))
    ['a']
    """
    expr = dtd.content[tau]
    symbols = alphabet(expr) - {TEXT_SYMBOL}
    full = symbols | {TEXT_SYMBOL}
    return frozenset(
        a for a in symbols if not can_derive_over(expr, full - {a})
    )


def must_occur(dtd: DTD, tau: str) -> bool:
    """Does every valid tree contain at least one ``tau`` element?

    Vacuously true when the DTD has no valid tree. Used by workload
    generators to build families where constraints on ``tau`` are
    unavoidable. Computed as: no tree avoiding ``tau`` exists, i.e. the
    root is unproductive once ``tau`` is removed from the alphabet (the
    productivity worklist with ``tau`` banned).
    """
    return tau == dtd.root or dtd.root not in _productive(dtd, banned=tau)
