"""``repro-query``: time-range queries against the serving tier.

Live mode asks a running daemon over TCP through the feature-gated
wire QUERY API (the daemon must have ``enable_query`` configured):

    repro-query --host 127.0.0.1 --port 10412 --schema meminfo \\
        --t0 100 --t1 160

Offline mode reads a SOS container directly — no daemon needed, same
``[t0, t1)`` semantics, same rollup naming:

    repro-query --path /var/ldms/sos --schema meminfo --level 60 \\
        --t0 0 --t1 3600

Output is CSV: a ``Time,CompId,<metric...>`` header then one row per
record in timestamp order.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main"]


def _print_rows(names, rows) -> None:
    print("Time,CompId," + ",".join(names))
    for ts, comp_id, values in rows:
        vals = ",".join(f"{v:g}" for v in values)
        print(f"{ts:.6f},{comp_id},{vals}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="repro-query",
        description="Query stored metrics: live daemon or SOS container.")
    p.add_argument("--host", default=None, help="daemon host (live mode)")
    p.add_argument("--port", type=int, default=None,
                   help="daemon port (live mode)")
    p.add_argument("--path", default=None,
                   help="SOS container directory (offline mode)")
    p.add_argument("--schema", required=True)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=float("1e18"))
    p.add_argument("--level", type=int, default=0,
                   help="rollup level in seconds (0: base data)")
    p.add_argument("--comp-id", type=int, default=0,
                   help="restrict to one component (0: all)")
    p.add_argument("--max-records", type=int, default=0,
                   help="truncate the result (0: unbounded)")
    args = p.parse_args(argv)

    from repro.core import wire

    if args.path is not None:
        from repro.plugins.stores.sos import SosReader, rollup_schema

        container = (rollup_schema(args.schema, args.level)
                     if args.level else args.schema)
        try:
            reader = SosReader(args.path, container)
        except OSError as exc:
            print(f"cannot open container {container!r}: {exc}",
                  file=sys.stderr)
            return 1
        names = reader.metric_names
        body, _, truncated = reader.range_rows(
            args.t0, args.t1, args.comp_id, args.max_records)
        rows = wire.unpack_query_rows(body, len(names))
    elif args.host is None or args.port is None:
        print("need --path (offline) or --host/--port (live)",
              file=sys.stderr)
        return 2
    else:
        from repro.cli.client import SyncClient

        client = SyncClient(args.host, args.port)
        try:
            status, flags, names, rows = client.query(
                args.schema, args.t0, args.t1, level=args.level,
                comp_id=args.comp_id, max_records=args.max_records)
        finally:
            client.close()
        if status != wire.E_OK:
            print(f"query failed: status {status}", file=sys.stderr)
            return 1
        truncated = bool(flags & wire.QUERY_TRUNCATED)
    _print_rows(names, rows)
    if truncated:
        print(f"(truncated at {args.max_records} records)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
