"""OSQL — a SQL-ish query language for ongoing databases.

The paper's prototype lives inside PostgreSQL; this front end provides the
equivalent textual surface for the Python engine.  It supports ongoing
literals (``NOW``, ``DATE '08/15+'``, ``PERIOD '[01/25, now)'``), the
Table II temporal predicates as infix keywords, the ``INTERSECTION``
function, joins with automatic predicate placement, ``UNION``/``EXCEPT``,
and RT-aware aggregation via ``GROUP BY`` + ``COUNT(*)`` /
``SUM_DURATION(col)`` / ``MIN(col)`` / ``MAX(col)``.

    from repro.sqlish import run
    result = run(
        "SELECT B.BID, INTERSECTION(B.VT, L.VT) AS Resp "
        "FROM B, L "
        "WHERE B.C = L.C AND B.VT OVERLAPS L.VT",
        database,
    )
"""

from repro.sqlish.compiler import compile_statement, run
from repro.sqlish.lexer import tokenize
from repro.sqlish.parser import parse

__all__ = ["compile_statement", "run", "parse", "tokenize", "subscribe"]


def subscribe(source: str, session, **kwargs):
    """Register an OSQL statement as a live subscription.

    *session* is a :class:`repro.live.SubscriptionManager` — or a
    :class:`~repro.engine.database.Database`, whose lazily created live
    session is then used (``db.live_session(...)`` configures it, e.g.
    with ``delivery_workers`` for concurrent delivery).
    Compiles *source* against the session's database and hands the plan
    to :meth:`repro.live.SubscriptionManager.subscribe`; keyword
    arguments (``on_refresh``, ``reference_time``, ``name``,
    ``backpressure``, ``queue_capacity``) pass through.  Returns the
    :class:`repro.live.Subscription` handle::

        session = LiveSession(database, delivery_workers=4)
        sub = subscribe("SELECT * FROM B WHERE ...", session,
                        on_refresh=push_to_client)

    Aggregate queries subscribe like any other statement — a ``GROUP BY``
    compiles to the :class:`~repro.engine.plan.Aggregate` plan node and
    refreshes via per-group deltas::

        subscribe("SELECT region, COUNT(*) AS n FROM T GROUP BY region",
                  session, on_refresh=update_dashboard)
    """
    manager = session.live_session() if hasattr(session, "live_session") else session
    plan = compile_statement(source, manager.database)
    return manager.subscribe(plan, **kwargs)
