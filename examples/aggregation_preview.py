"""Ongoing aggregation — the paper's future work (Section X), working today.

The paper closes by asking for a duration function returning *ongoing
integers* and an aggregation operator for ongoing relations.  This library
implements both: an ongoing integer is a piecewise-linear function of the
reference time, and aggregates (COUNT, SUM of durations, MIN/MAX) evaluate
to ongoing integers that — like every ongoing result — remain valid as time
passes by.

Run with::

    python examples/aggregation_preview.py
"""

from repro import duration, fixed_interval, fmt_point, mmdd, until_now
from repro.engine import Database, scan
from repro.relational import Schema, col, lit


def count_of(db: Database, plan):
    """``SELECT COUNT(*)`` over *plan*: the scalar aggregate's one value."""
    (row,) = db.query(plan.group_by((), "count")).tuples
    return row.values[0]


def build_database() -> Database:
    db = Database("bugs")
    db.create_table("B", Schema.of("BID", "C", ("VT", "interval"))).insert_many(
        [
            (500, "Spam filter", until_now(mmdd(1, 25))),
            (501, "Spam filter", fixed_interval(mmdd(3, 30), mmdd(8, 21))),
            (502, "Spam filter", until_now(mmdd(6, 15))),
            (503, "Dashboard", until_now(mmdd(7, 1))),
            (504, "Dashboard", fixed_interval(mmdd(2, 1), mmdd(4, 1))),
        ]
    )
    return db


def main() -> None:
    db = build_database()

    print("=== duration() returns an ongoing integer ===")
    bug_age = duration(until_now(mmdd(1, 25)))
    print(f"duration([01/25, now)) = {bug_age.format()}")
    for rt in (mmdd(1, 20), mmdd(2, 25), mmdd(8, 15)):
        print(f"  at rt={fmt_point(rt)}: {bug_age.instantiate(rt)} days")
    print()

    print("=== COUNT(*) as a function of the reference time ===")
    # Base tuples exist at every reference time, so their count is constant:
    print(f"count over the base table = {count_of(db, scan('B')).format()}")
    # A query result's RT is restricted by its predicate, so counting the
    # result gives a genuinely time-dependent answer: how many bugs overlap
    # the August patch window, as a function of the reference time?
    window = fixed_interval(mmdd(8, 15), mmdd(8, 24))
    affected_count = count_of(db, scan("B").where(col("VT").overlaps(lit(window))))
    print(f"count of bugs overlapping the patch window = "
          f"{affected_count.format()}")
    print()

    print("=== an ongoing threshold alert ===")
    # 'When do more than 2 bugs hit the patch window?' — an ongoing boolean
    # that composes with every other predicate in the library.
    alert = affected_count.greater_than(2)
    print(f"count > 2  =  {alert}")
    print()

    print("=== GROUP BY component with ongoing aggregates ===")
    per_component = db.query(scan("B").group_by(("C",), "count"))
    for row in per_component:
        component, count = row.values
        print(f"  {component:12} -> {count.format()}")
    print()

    print("=== total open-bug days per component (SUM of durations) ===")
    per_component_load = db.query(
        scan("B").group_by(("C",), "sum_duration", "VT", output_name="load")
    )
    for row in per_component_load:
        component, load = row.values
        values = ", ".join(
            f"{fmt_point(rt)}: {load.instantiate(rt)}"
            for rt in (mmdd(3, 1), mmdd(6, 1), mmdd(9, 1))
        )
        print(f"  {component:12} -> {values}")
    print()
    print("All of these were computed once and stay correct at every\n"
          "reference time - no re-aggregation when the clock advances.")


if __name__ == "__main__":
    main()
