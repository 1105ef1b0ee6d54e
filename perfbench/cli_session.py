"""One cold CLI session: ``catalog``, then ``rootnumber`` for each given
rank-2 member, then ``heights`` and ``sections`` for the one named by
--label, run in order through ``ellfam.cli.main`` in this fresh
interpreter, as a user's shell session would run them, except that the
catalog is built once.

Usage (from the repository root, with PYTHONPATH=src):

    python3 perfbench/cli_session.py [--pace] [--trace-out FILE]
        --label LABEL=U LABEL=U [LABEL=U ...]
    python3 perfbench/cli_session.py --import-only --pace

After each command its output is followed by a marker line
``@@perfbench <command> <exit code> <probe seconds> <speed factor>`` so the
parent can time each answer as it reaches stdout.  With --pace the session
interleaves reference probes with its work (see pace.py), and the marker
gives the probe seconds spent since the previous marker (or since start)
and the speed factor of the probes in that stretch; without it they read
0 and 1.  After the last command the session prints the catalog content
hash and each rank-2 spec hint; with --trace-out it also writes its spans.
With --import-only the session only imports ellfam.cli, the cold start
every CLI command pays.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from pace import Pace  # noqa: E402

MARK = "@@perfbench"


def marker(name: str, rc: int, pace, window) -> str:
    if pace is None:
        return f"{MARK} {name} {rc} 0 1"
    return f"{MARK} {name} {rc} {pace.spent - window[1]!r} {pace.factor(window)!r}"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("queries", nargs="*", metavar="LABEL=U")
    ap.add_argument("--label", metavar="LABEL=U")
    ap.add_argument("--pace", action="store_true")
    ap.add_argument("--import-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()
    pace = Pace() if args.pace else None
    window = pace.mark() if pace else None
    if pace is not None:
        pace.start()
    if args.import_only:
        import ellfam.cli  # noqa: F401

        if pace is not None:
            pace.stop()
        sys.stdout.write(marker("import", 0, pace, window) + "\n")
        return 0
    tracer = None
    if args.trace_out:
        from tracer import OP, Tracer

        tracer = Tracer()
        tracer.run_id = "session"
        startup = tracer.open(OP)
        tracer.spans[startup][1] = STARTED
        tracer.install()
    from ellfam import cli

    if tracer is not None:
        tracer.close(startup)
    commands = [["catalog"]]
    for query in args.queries:
        label, u = query.split("=")
        commands.append(["rootnumber", label, "--u", u])
    label, u = args.label.split("=")
    commands += [["heights", label, "--u", u], ["sections", label]]
    for argv in commands:
        span = tracer.open(OP) if tracer is not None else None
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        if span is not None:
            tracer.close(span)
        sys.stdout.write("\n" + marker(argv[0], rc, pace, window) + "\n")
        sys.stdout.flush()
        window = pace.mark() if pace else None
    if pace is not None:
        pace.stop()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace_out)

    from checks import catalog_hash
    from ellfam.arith import rational_to_string
    from ellfam.families import catalog

    cat = catalog()
    hints = {k: rational_to_string(f.spec_hint) for k, f in cat.items() if f.rank == 2}
    sys.stdout.write(f"{MARK}-hash {catalog_hash(cat)} {json.dumps(hints, sort_keys=True)}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
