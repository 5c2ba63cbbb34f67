"""Bitemporal audit trail: valid time + transaction time + reference time.

Section IV of the paper separates three temporal dimensions: *valid time*
(when a fact holds in the world), *transaction time* (when the database
knew it), and *reference time* (when a tuple belongs to the instantiated
relations).  This example keeps all three for a bug tracker and shows that
``AS OF`` audit queries stay correct as time passes — because transaction
time is stored as an *ongoing* interval, never as an instantiated
timestamp.

Run with::

    python examples/bitemporal_audit.py
"""

from repro import fmt_point, mmdd, until_now
from repro.engine import Database
from repro.engine.bitemporal import BitemporalTable
from repro.relational import Schema


def main() -> None:
    db = Database("tracker")
    bugs = BitemporalTable(db, "bugs", Schema.of("BID", "Sev", ("VT", "interval")))

    # 01/26: bug 500 is recorded (it has been open since 01/25).
    bugs.insert((500, "minor", until_now(mmdd(1, 25))), at=mmdd(1, 26))
    # 03/10: triage raises the severity — a logical update.
    bugs.update(
        lambda row: row.values[0] == 500,
        (500, "major", until_now(mmdd(1, 25))),
        at=mmdd(3, 10),
    )
    # 06/01: the record is deleted (bug moved to another tracker).
    bugs.delete(lambda row: row.values[0] == 500, at=mmdd(6, 1))

    print("The stored bitemporal relation (TT is ongoing, never instantiated):")
    print(bugs.current().format())
    # The logical delete capped one stored version; it removed none.
    assert len(bugs.table) == 2
    print(f"{len(bugs.table)} stored versions")
    print()

    print("AS OF audit queries, evaluated at reference time 12/01:")
    rt = mmdd(12, 1)
    open_vt = (mmdd(1, 25), rt)
    for slice_label, slice_time, expected in [
        ("02/01 (before triage)", mmdd(2, 1), [(500, "minor", open_vt)]),
        ("04/01 (after triage) ", mmdd(4, 1), [(500, "major", open_vt)]),
        ("07/01 (after delete) ", mmdd(7, 1), []),
    ]:
        rows = bugs.as_of(slice_time, rt)
        assert rows == expected, (slice_label, rows)
        if rows:
            for bid, severity, vt in rows:
                print(
                    f"  as of {slice_label}: bug {bid} severity={severity} "
                    f"open [{fmt_point(vt[0])}, {fmt_point(vt[1])})"
                )
        else:
            print(f"  as of {slice_label}: no record")
    print()

    print("The same audit answers hold at every reference time:")
    slice_time = mmdd(4, 1)
    for rt in (mmdd(4, 15), mmdd(8, 1), mmdd(12, 31)):
        rows = bugs.as_of(slice_time, rt)
        (bid, severity, vt) = rows[0]
        print(
            f"  rt={fmt_point(rt)}: as-of-04/01 shows severity={severity}, "
            f"VT=[{fmt_point(vt[0])}, {fmt_point(vt[1])})"
        )
    print()
    print("Note the valid time still instantiates per Definition 2 at each rt,")
    print("while the transaction-time slice pins the audit point in history.")


if __name__ == "__main__":
    main()
