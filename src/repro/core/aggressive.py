"""Aggressive strategy: emit optimistically, compensate on late arrivals.

The paper's conservative engine holds negation-guarded matches until
the disorder bound seals them.  The natural extension — developed fully
in the authors' follow-up (Liu et al., ICDE 2009) and sketched here as
the paper's future-work direction — is the *aggressive* strategy:

* emit every match the moment its positive events line up, checking
  negation only against the negatives **seen so far**;
* if a late negative event subsequently invalidates an already-emitted
  match, issue a :class:`Revocation` (a compensation record downstream
  consumers can apply);
* once a match's negation brackets seal, it can never be revoked and
  its compensation bookkeeping is dropped.

Under rare disorder this gives near-zero result latency with few
revocations; under heavy disorder the revocation traffic grows — the
trade-off experiment E11 measures.

For patterns *without* negation the aggressive engine behaves exactly
like the conservative one (late positive events simply create new
matches when they arrive; nothing previously emitted can be wrong).
"""

from __future__ import annotations

import heapq
from typing import List, NamedTuple, Optional, Tuple

from repro.core import snapshot as snapshots
from repro.core.engine import LatePolicy, OutOfOrderEngine
from repro.core.event import Event
from repro.core.negation import seal_point, violated
from repro.core.pattern import Match, Pattern
from repro.core.purge import PurgePolicy
from repro.core.shedding import ShedPolicy


class Revocation(NamedTuple):
    """Compensation record: a previously emitted match is withdrawn."""

    match: Match
    caused_by: Event  #: the late negative event that invalidated it


class AggressiveEngine(OutOfOrderEngine):
    """Optimistic emit + revocation, layered on the out-of-order core.

    The emitted match stream is available via ``results`` as usual;
    revocations accumulate in ``revocations`` and are also returned by
    :meth:`take_revocations` for stream-style consumption.  The
    *net* result set (emitted minus revoked) is exposed via
    :meth:`net_result_set` and is what tests compare to the oracle.
    """

    def __init__(
        self,
        pattern: Pattern,
        k: Optional[int] = None,
        purge: Optional[PurgePolicy] = None,
        late_policy: LatePolicy = LatePolicy.DROP,
        optimize_scan: bool = True,
        optimize_construction: bool = True,
        index: bool = True,
        shed: Optional[ShedPolicy] = None,
    ):
        super().__init__(
            pattern,
            k=k,
            purge=purge,
            late_policy=late_policy,
            optimize_scan=optimize_scan,
            optimize_construction=optimize_construction,
            index=index,
            shed=shed,
        )
        self.revocations: List[Revocation] = []
        self._fresh_revocations: List[Revocation] = []
        # Matches emitted while at least one bracket is unsealed, ordered
        # by seal point so sealing drops a prefix.  The tie-break is a
        # plain int (not itertools.count) so it checkpoints: restoring it
        # reproduces the heap order exactly.
        self._exposed: List[Tuple[int, int, Match]] = []
        self._exposed_next = 0
        self._revoked_keys = set()

    # -- overridden routing --------------------------------------------------------

    def _route(self, match: Match, emitted: List[Match]) -> None:
        if self.pattern.has_kleene:
            # A Kleene collection is only final once its bracket seals,
            # and amending an emitted collection has no compensation
            # analogue — so Kleene matches take the conservative path.
            OutOfOrderEngine._route(self, match, emitted)
            return
        # Optimistic: check against negatives seen so far and emit now.
        if self.pattern.has_negation and violated(
            self.pattern, match, self.negatives, self.stats
        ):
            self.stats.matches_cancelled += 1
            return
        self._emit(match, self.clock.now)
        emitted.append(match)
        point = seal_point(self.pattern, match)
        if point > self.clock.horizon():
            heapq.heappush(self._exposed, (point, self._exposed_next, match))
            self._exposed_next += 1

    def _release_ripe(self, emitted: List[Match]) -> None:
        # Conservative pending (used by Kleene matches) releases first...
        OutOfOrderEngine._release_ripe(self, emitted)
        # ...then sealed exposures become permanent and their
        # bookkeeping is dropped.
        horizon = self.clock.horizon()
        while self._exposed and self._exposed[0][0] <= horizon:
            heapq.heappop(self._exposed)
        self.stats.matches_pending = len(self._exposed) + len(self.pending)

    def _flush(self) -> List[Match]:
        emitted = OutOfOrderEngine._flush(self)  # drain conservative pending
        self._exposed.clear()
        self.stats.matches_pending = 0
        return emitted

    # -- revocation on late negatives ---------------------------------------------------

    def _post_event(self, event: Event) -> None:
        # Runs for late-dropped negatives too: a negative the store no
        # longer admits can still invalidate an exposed match.
        if event.etype in self.pattern.negated_types and self._exposed:
            self._revoke_invalidated(event)

    def _ripe_possible(self) -> bool:
        return bool(self.pending._heap) or bool(self._exposed)

    def _revoke_invalidated(self, negative: Event) -> None:
        pattern = self.pattern
        survivors: List[Tuple[int, int, Match]] = []
        for entry in self._exposed:
            match = entry[2]
            if match.key() in self._revoked_keys:
                continue
            if self._invalidates(negative, match):
                revocation = Revocation(match, negative)
                self.revocations.append(revocation)
                self._fresh_revocations.append(revocation)
                self._revoked_keys.add(match.key())
                self.stats.revocations += 1
                if self._obs is not None:
                    self._obs.note_revoked(self, match, negative)
            else:
                survivors.append(entry)
        if len(survivors) != len(self._exposed):
            self._exposed = survivors
            heapq.heapify(self._exposed)
            self.stats.matches_pending = len(self._exposed) + len(self.pending)

    def _invalidates(self, negative: Event, match: Match) -> bool:
        for bracket in self.pattern.negation_brackets_of_type.get(
            negative.etype, ()
        ):
            if bracket.admits(negative, match.events, self.pattern.within):
                return True
        return False

    # -- checkpoint / restore ------------------------------------------------------

    def _snapshot_state(self) -> dict:
        state = super()._snapshot_state()
        encode = snapshots.encode_match
        revocation_set = {id(r) for r in self._fresh_revocations}
        state.update(
            {
                "revocations": [
                    {"match": encode(r.match), "caused_by": r.caused_by}
                    for r in self.revocations
                ],
                # Fresh (unconsumed) revocations are a suffix-free subset
                # of `revocations`; store their indices, not copies.
                "fresh": [
                    i for i, r in enumerate(self.revocations) if id(r) in revocation_set
                ],
                "exposed": [
                    (point, tie, encode(match))
                    for point, tie, match in self._exposed
                ],
                "exposed_next": self._exposed_next,
                "revoked_keys": sorted(self._revoked_keys),
            }
        )
        return state

    def _restore_state(self, state: dict) -> None:
        super()._restore_state(state)
        decode = self._decode_match
        self.revocations = [
            Revocation(decode(r["match"]), r["caused_by"])
            for r in state["revocations"]
        ]
        self._fresh_revocations = [self.revocations[i] for i in state["fresh"]]
        self._exposed = [
            (point, tie, decode(encoded))
            for point, tie, encoded in state["exposed"]
        ]
        heapq.heapify(self._exposed)
        self._exposed_next = state["exposed_next"]
        self._revoked_keys = {tuple(key) for key in state["revoked_keys"]}

    # -- consumption ---------------------------------------------------------------

    def take_revocations(self) -> List[Revocation]:
        """Revocations issued since the last call (stream-style consumption)."""
        fresh = self._fresh_revocations
        self._fresh_revocations = []
        return fresh

    def net_result_set(self):
        """Emitted-match identities minus revoked ones (oracle-comparable)."""
        return self.result_set() - self._revoked_keys
