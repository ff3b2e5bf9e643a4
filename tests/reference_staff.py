"""Reference resolution of shared staff identifiers for the equality tests.

``reference_resolve_conflicts`` is the two-phase form of
``staff.resolve_conflicts``: every orcid first, then every email, and after
each resolved group every live unit is grouped again by identifier, so its
time grows with the number of units times the number of conflicting groups.
It is slow on purpose and is kept only so that the single loop over an
identifier index can be checked to give the same units, review queue and
flags.
"""

from __future__ import annotations

from fssbench.staff import (
    FLAG_EMAIL_CONFLICT,
    FLAG_ORCID_CONFLICT,
    DerivedStaff,
    StaffCandidate,
    StaffUnit,
    _unit,
)


def reference_resolve_conflicts(candidates: list[StaffCandidate]) -> DerivedStaff:
    """Resolve accepted clusters sharing an orcid or email.

    Same university: merged into one staff unit (union of publications);
    two clusters claiming one identifier but carrying distinct orcids are
    not merged, the smaller one is queued instead. Different universities:
    the unit with more publications survives, the rest are queued with
    orcid_conflict/email_conflict; ties keep the smaller cluster_id.
    Flagged candidates go to the review queue untouched. A merged unit's
    evidence is its parts' when they agree, else ``both``.
    """
    review = [c for c in candidates if not c.accepted]
    units: dict[str, StaffUnit] = {
        c.cluster_id: _unit([c.cluster], c.university_id, c.evidence)
        for c in candidates if c.accepted}
    by_candidate = {c.cluster_id: c for c in candidates}

    def drop(unit: StaffUnit, flag: str) -> None:
        units.pop(unit.unit_id, None)
        for cid in unit.cluster_ids:
            cand = by_candidate[cid]
            cand.flags.add(flag)
            review.append(cand)

    def conflicted(key_of) -> dict[str, list[StaffUnit]]:
        groups: dict[str, dict[str, StaffUnit]] = {}
        for unit in units.values():
            for key in key_of(unit):
                groups.setdefault(key, {})[unit.unit_id] = unit
        return {k: sorted(g.values(), key=lambda u: (-u.n_pubs, u.unit_id))
                for k, g in groups.items() if len(g) > 1}

    def resolve_identifier(key_of, flag: str) -> None:
        # one group per pass: merging can chain identifiers, so regroup
        # after every mutation; each pass strictly shrinks the unit set
        while groups := conflicted(key_of):
            survivor, *rest = groups[min(groups)]
            for other in rest:
                if other.university_id != survivor.university_id:
                    drop(other, flag)
                elif len({survivor.orcid, other.orcid} - {None}) > 1:
                    # one address shared by two distinct identities: never
                    # merge across orcids, queue the smaller unit instead
                    drop(other, flag)
                else:
                    units.pop(survivor.unit_id, None)
                    units.pop(other.unit_id, None)
                    evidence = (survivor.evidence if survivor.evidence == other.evidence
                                else "both")
                    survivor = _unit([by_candidate[cid].cluster for cid in
                                      survivor.cluster_ids + other.cluster_ids],
                                     survivor.university_id, evidence)
                    units[survivor.unit_id] = survivor

    resolve_identifier(lambda u: [u.orcid] if u.orcid else [], FLAG_ORCID_CONFLICT)
    resolve_identifier(lambda u: list(u.emails), FLAG_EMAIL_CONFLICT)

    members: dict[str, list[StaffUnit]] = {}
    for unit in sorted(units.values(), key=lambda u: u.unit_id):
        members.setdefault(unit.university_id, []).append(unit)
    review.sort(key=lambda c: c.cluster_id)
    return DerivedStaff(members=members, review_queue=review)
