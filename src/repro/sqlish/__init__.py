"""OSQL — a SQL-ish query language for ongoing databases.

The paper's prototype lives inside PostgreSQL; this front end provides the
equivalent textual surface for the Python engine.  It supports ongoing
literals (``NOW``, ``DATE '08/15+'``, ``PERIOD '[01/25, now)'``), the
Table II temporal predicates as infix keywords, the ``INTERSECTION``
function, joins, ``UNION``/``EXCEPT``, and RT-aware aggregation via
``GROUP BY`` + ``COUNT(*)`` / ``SUM_DURATION(col)`` / ``MIN(col)`` /
``MAX(col)``.  The compiler lowers a statement to a logical plan as
written; placing each WHERE conjunct (hash-join keys, selections on the
scans) is the rewrite's job (:mod:`repro.engine.rewrite`), as for a plan
built by hand.

    from repro.sqlish import run
    result = run(
        "SELECT B.BID, INTERSECTION(B.VT, L.VT) AS Resp "
        "FROM B, L "
        "WHERE B.C = L.C AND B.VT OVERLAPS L.VT",
        database,
    )

A statement becomes a live subscription through
:meth:`repro.live.SubscriptionManager.subscribe_sql` or
:meth:`repro.engine.database.Database.subscribe`, which both keep the
text, so a checkpoint stores the subscription as OSQL.
"""

from repro.sqlish.compiler import compile_statement, run
from repro.sqlish.lexer import tokenize
from repro.sqlish.parser import parse

__all__ = ["compile_statement", "run", "parse", "tokenize"]
