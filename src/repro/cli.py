"""Command-line interface.

    python -m repro classify "R(x | y), not S(y | x)"
    python -m repro lint     "P(x | y), not N(z | y)" --format json
    python -m repro rewrite  "P(x | y), not N('c' | y)" --pretty --sql
    python -m repro plan     "P(x | y), not N('c' | y)"
    python -m repro certain  "P(x | y), not N('c' | y)" --db poll.json
    python -m repro answers  "Lives(p | t), not Born(p | t)" --free p --db poll.json
    python -m repro graph    "R(x | y), not S(y | x)"          # DOT output
    python -m repro report   -o EXPERIMENTS.md

Databases are JSON files in the ``repro.db.io`` format.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.attack_graph import AttackGraph
from .core.classify import classify
from .core.parser import ParseError, parse_query
from .core.query import QueryError
from .core.terms import Variable
from .cqa.certain_answers import (
    OpenQuery,
    _guarded_open_rewriting,
    certain_answers,
    certain_answers_sql_query,
)
from .cqa.engine import CertaintyEngine
from .cqa.explain import explain
from .cqa.rewriting import NotInFO, Rewriter
from .db.io import load_database_file
from .db.profile import profile_database
from .fo.parser import FormulaParseError, parse_sentence
from .fo.sql import compile_to_sql
from .fo.stats import pretty, stats
from .lint import LintError, lint_text
from .obs import (
    KNOWN_METHODS,
    ExecutionOptions,
    PlanProfile,
    Tracer,
    collect_metrics,
    profile_tree,
    render_profile,
    render_spans,
    trace_payload,
)


def _parse_query_arg(text: str):
    try:
        return parse_query(text)
    except ParseError as exc:
        raise SystemExit(f"error: cannot parse query: {exc}")


def _load_db(args: argparse.Namespace, required: bool = True):
    """The database a query command runs on.

    ``--db`` loads a JSON snapshot into memory (the historical path);
    ``--db-path`` opens a durable store (:mod:`repro.storage`) whose
    facts and registered views survive between invocations.  The
    caller must pass the result to :func:`_close_db`.
    """
    db_path = getattr(args, "db_path", None)
    db_file = getattr(args, "db", None)
    if db_path and db_file:
        raise SystemExit("error: --db and --db-path are mutually exclusive")
    if db_path:
        from .storage import StorageError, open_database

        try:
            return open_database(db_path)
        except StorageError as exc:
            raise SystemExit(f"error: {exc}")
    if db_file:
        return load_database_file(db_file)
    if required:
        raise SystemExit("error: one of --db or --db-path is required")
    return None


def _close_db(db) -> None:
    close = getattr(db, "close", None)
    if close is not None:
        close()


def cmd_classify(args: argparse.Namespace) -> int:
    query = _parse_query_arg(args.query)
    result = classify(query)
    graph = AttackGraph(query)
    print(f"query:          {query}")
    print(f"weakly guarded: {result.weakly_guarded}")
    print(f"guarded:        {result.guarded}")
    edges = sorted(f"{f.relation}->{g.relation}" for f, g in graph.edges)
    print(f"attack edges:   {edges or 'none'}")
    print(f"verdict:        {result.verdict.value}"
          + (f" ({result.hardness.value})" if result.hardness.value != "none" else ""))
    print(f"reason:         {result.reason}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    result = lint_text(args.query)
    if args.format == "json":
        print(result.to_json())
    else:
        print(result.render_text())
    return 1 if result.has_errors else 0


def cmd_rewrite(args: argparse.Namespace) -> int:
    query = _parse_query_arg(args.query)
    try:
        rewriter = Rewriter(query, trace=args.trace)
        formula = rewriter.rewrite()
    except NotInFO as exc:
        print(f"no consistent first-order rewriting: {exc}", file=sys.stderr)
        return 1
    s = stats(formula)
    print(f"rewriting size: {s.nodes} nodes, {s.atoms} atoms, "
          f"{s.quantifiers} quantifiers")
    if args.pretty:
        print(pretty(formula))
    else:
        print(repr(formula))
    if args.sql:
        print()
        print(compile_to_sql(formula))
    if args.trace:
        print()
        print("Algorithm 1 trace:")
        for step in rewriter.trace:
            print("  " + step.render())
    return 0


def _not_in_fo_diagnostics(query_text: str, exc: NotInFO) -> str:
    """Coded diagnostics for a query with no FO rewriting.

    The linter's own error diagnostics (QL004 for a cyclic attack
    graph, QL001–QL003 for scope violations) carry spans and paper
    citations; when the linter sees no error (an undecided corner),
    fall back to a bare QL004-coded line so the output stays
    machine-parseable either way.
    """
    result = lint_text(query_text)
    if result.errors:
        return "\n\n".join(d.render(result.source) for d in result.errors)
    return (f"error[QL004]: no consistent first-order rewriting: {exc}")


def _columnar_mode(compiled) -> str:
    """How ``method="columnar"`` runs this compiled query, in one line."""
    if not compiled.free:
        return ("columnar: sentence, handed to the row executor's "
                "short-circuit probe")
    if compiled.uses_adom:
        return ("columnar: Adom* plan, handed to the row executor "
                "(QP103)")
    return "columnar: batch plan, every operator runs on int columns"


def cmd_plan(args: argparse.Namespace) -> int:
    from .fo.compile import compile_formula
    from .fo.plan import plan_nodes

    if args.analyze and not args.db:
        raise SystemExit("error: --analyze requires --db (a database to "
                         "execute the plan against)")
    if args.json and not args.analyze:
        raise SystemExit("error: --json requires --analyze")
    query = _parse_query_arg(args.query)
    free = [Variable(n.strip()) for n in (args.free or "").split(",")
            if n.strip()]
    try:
        # The formula the engine's dispatch compiles, so the plan shown
        # and profiled is the plan ``auto`` runs.
        formula = _guarded_open_rewriting(OpenQuery(query, free))
        compiled = compile_formula(formula, free)
    except NotInFO as exc:
        print(_not_in_fo_diagnostics(args.query, exc), file=sys.stderr)
        return 2
    n_nodes = sum(1 for _ in plan_nodes(compiled.plan))
    cols = ", ".join(v.name for v in compiled.free) or "(boolean)"
    if args.check:
        from .analysis import verification_report

        report = verification_report(compiled.plan,
                                     expected_cols=compiled.free)
        if report.ok:
            extras = []
            if report.uses_adom:
                extras.append("uses active domain")
            if report.probe_safe:
                extras.append("probe-safe")
            suffix = f"   ({', '.join(extras)})" if extras else ""
            print(f"plan verifier: ok   {report.nodes} operators "
                  f"checked{suffix}")
        else:
            print(f"plan verifier: FAILED   {report.error}",
                  file=sys.stderr)
            return 1
    if not args.analyze:
        print(f"plan: {n_nodes} operators, output columns: {cols}")
        print(compiled.explain())
        if args.columnar:
            print(_columnar_mode(compiled))
        return 0
    import json

    db = load_database_file(args.db)
    profile = PlanProfile()
    if compiled.free:
        result = len(compiled.rows(db, profile=profile))
        outcome = f"{result} answer rows"
    else:
        result = compiled.holds(db, profile=profile)
        outcome = f"CERTAINTY = {result}"
    if not args.columnar:
        if args.json:
            print(json.dumps(profile_tree(compiled.plan, profile),
                             indent=2, sort_keys=True))
        else:
            print(f"plan: {n_nodes} operators, output columns: {cols}")
            print(f"executed on {args.db} ({db.size()} facts): {outcome}")
            print(render_profile(compiled.plan, profile))
        return 0
    # --columnar --analyze: run the vectorized backend alongside the
    # row-at-a-time one and show both operator profiles (the columnar
    # side carries the batches counters, or decode_fallbacks on the
    # root of a plan it handed to the row executor).
    from .columnar import columnar_holds, columnar_rows

    col_profile = PlanProfile()
    if compiled.free:
        col_result = len(columnar_rows(compiled, db, profile=col_profile))
    else:
        col_result = columnar_holds(compiled, db, profile=col_profile)
    if col_result != result:
        print(f"error: columnar backend disagrees with the tuple "
              f"executor: {col_result!r} != {result!r}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(
            {"row": profile_tree(compiled.plan, profile),
             "columnar": profile_tree(compiled.plan, col_profile)},
            indent=2, sort_keys=True))
    else:
        print(f"plan: {n_nodes} operators, output columns: {cols}")
        print(f"executed on {args.db} ({db.size()} facts): {outcome}")
        print("row executor:")
        print(render_profile(compiled.plan, profile))
        print("columnar executor:")
        print(render_profile(compiled.plan, col_profile))
    return 0


def _print_stats() -> None:
    """The --stats payload: the unified EngineMetrics document."""
    print(collect_metrics().to_json())


def _execution_options(args: argparse.Namespace) -> ExecutionOptions:
    """The ExecutionOptions for a query command: --method and --jobs."""
    if getattr(args, "json", False) and not args.trace:
        raise SystemExit("error: --json requires --trace")
    method = _method_with_jobs(args)
    jobs = args.jobs if method == "parallel" else None
    return ExecutionOptions(method, jobs)


def _cli_tracer(args: argparse.Namespace) -> Optional[Tracer]:
    """A fresh Tracer when --trace or --trace-out asks for spans."""
    if getattr(args, "trace", False) or args.trace_out:
        return Tracer()
    return None


def _print_trace(tracer) -> None:
    """Human-readable span forest + per-operator profiles."""
    print()
    print("trace:")
    print(render_spans(tracer))
    for plan, profile, tags in tracer.profiles:
        label = " ".join(f"{k}={v}" for k, v in sorted(tags.items()))
        print()
        print(f"operators{f' ({label})' if label else ''}:")
        print(render_profile(plan, profile))


def _flush_trace(tracer: Optional[Tracer], path: Optional[str]) -> None:
    """Append the span JSONL to --trace-out's file, when given."""
    if tracer is not None and path:
        n = tracer.write_jsonl(path)
        print(f"wrote {n} span records to {path}", file=sys.stderr)


def _method_with_jobs(args: argparse.Namespace) -> str:
    """Resolve --method against --jobs.

    ``--jobs`` belongs to the parallel executor: with the default
    ``--method auto`` it simply selects ``parallel``; any explicit
    serial method plus ``--jobs`` is a contradiction and is rejected.
    """
    method = args.method
    if args.jobs is None:
        return method
    if args.jobs < 1:
        raise SystemExit("error: --jobs must be a positive integer")
    if method == "auto":
        return "parallel"
    if method != "parallel":
        raise SystemExit(
            f"error: --jobs only applies to --method parallel "
            f"(got --method {method})"
        )
    return method


def cmd_certain(args: argparse.Namespace) -> int:
    import json

    query = _parse_query_arg(args.query)
    options = _execution_options(args)
    method = options.method
    tracer = _cli_tracer(args)
    db = _load_db(args)
    try:
        engine = CertaintyEngine(query)
        answer = engine.certain(db, options, tracer=tracer)
        if args.json:
            payload = trace_payload(args.query, method, tracer, answer=answer)
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"CERTAINTY = {answer}   (method: {method}, "
                  f"{db.size()} facts, {db.repair_count()} repairs)")
            if tracer is not None:
                _print_trace(tracer)
    finally:
        _close_db(db)
    _flush_trace(tracer, args.trace_out)
    if args.stats:
        _print_stats()
    return 0


def cmd_answers(args: argparse.Namespace) -> int:
    import json

    query = _parse_query_arg(args.query)
    options = _execution_options(args)
    method = options.method
    tracer = _cli_tracer(args)
    free = [Variable(name.strip()) for name in args.free.split(",") if name.strip()]
    open_query = OpenQuery(query, free)
    db = _load_db(args)
    try:
        if args.show_sql and not args.json:
            print(certain_answers_sql_query(open_query, db))
            print()
        answers = certain_answers(open_query, db, options, tracer=tracer)
        if args.json:
            payload = trace_payload(
                args.query, method, tracer,
                free=[v.name for v in free], answers=len(answers),
            )
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            names = ", ".join(v.name for v in free)
            print(f"certain answers ({names}): {len(answers)}")
            for row in sorted(answers, key=repr):
                print("  " + ", ".join(repr(v) for v in row))
            if tracer is not None:
                _print_trace(tracer)
    finally:
        _close_db(db)
    _flush_trace(tracer, args.trace_out)
    if args.stats:
        _print_stats()
    return 0


def _parse_stream_value(token: str):
    """A stream value: int when int-like, else a (possibly quoted) string."""
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "'\"":
        return token[1:-1]
    try:
        return int(token)
    except ValueError:
        return token


def cmd_watch(args: argparse.Namespace) -> int:
    """Tail a fact stream and print certain-answer diffs as they land.

    Stream protocol (one op per line; values are whitespace-separated,
    int-like tokens become ints, quotes force strings):

        + R ann mons        insert R(ann, mons), commit immediately
        - R ann mons        delete R(ann, mons), commit immediately
        begin               start staging ops into one batch
        commit              commit the staged batch (one diff)
        # ...               comment; blank lines are skipped

    Each commit that changes the view prints one line per answer-set
    change, prefixed with the database clock:  ``v12 +('ann',)``.
    Boolean views (no --free) print certainty flips instead.
    """
    from .incremental import view_manager

    query = _parse_query_arg(args.query)
    tracer = _cli_tracer(args)
    db = _load_db(args)
    free = [Variable(n.strip()) for n in args.free.split(",") if n.strip()]
    manager = view_manager(db, tracer=tracer)
    view = manager.register_view(query, free)

    if free:
        print(f"watching {len(view.answers)} certain answers at v{db.clock}")
    else:
        print(f"watching CERTAINTY = {view.holds} at v{db.clock}")

    stream = sys.stdin if args.stream in (None, "-") else open(args.stream)
    commits = 0
    last_holds = view.holds
    last_version = view.version
    interrupted = False
    try:
        for lineno, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            op, _, rest = line.partition(" ")
            try:
                if op == "begin":
                    db.begin_batch()
                elif op == "commit":
                    db.commit()
                elif op in ("+", "-"):
                    tokens = rest.split()
                    if not tokens:
                        raise ValueError("missing relation name")
                    relation = tokens[0]
                    row = tuple(_parse_stream_value(t) for t in tokens[1:])
                    if op == "+":
                        db.add(relation, row)
                    else:
                        db.discard(relation, row)
                else:
                    raise ValueError(
                        f"unknown op {op!r} (expected +, -, begin, commit)"
                    )
            except Exception as exc:
                print(f"error: stream line {lineno}: {exc}", file=sys.stderr)
                return 1
            if db.in_batch or view.version == last_version:
                continue
            commits += 1
            if free:
                ins, dels = view.changed_since(last_version)
                for row in sorted(dels, key=repr):
                    print(f"v{db.clock} -{row!r}")
                for row in sorted(ins, key=repr):
                    print(f"v{db.clock} +{row!r}")
            elif view.holds != last_holds:
                print(f"v{db.clock} CERTAINTY -> {view.holds}")
                last_holds = view.holds
            last_version = view.version
    except KeyboardInterrupt:
        # Ctrl-C ends the watch like EOF would: commit any staged
        # batch, release pools, close the store, print the summary.
        interrupted = True
    finally:
        if stream is not sys.stdin:
            stream.close()
        if db.in_batch:
            db.commit()
        # Warm forked pools (a prior --jobs run, or auto-parallel view
        # maintenance) hold strong references to the database; release
        # them explicitly so an interrupted watch exits promptly.
        from .parallel import release_database

        release_database(db)
        # A --db-path store is closed here; committed batches are
        # already durable, and the final summary only reads memory.
        _close_db(db)
    if interrupted:
        print("interrupted", file=sys.stderr)
    if free:
        print(f"final: {len(view.answers)} certain answers at v{db.clock} "
              f"({commits} update batches)")
    else:
        print(f"final: CERTAINTY = {view.holds} at v{db.clock} "
              f"({commits} update batches)")
    _flush_trace(tracer, args.trace_out)
    if args.stats:
        _print_stats()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-running CQA HTTP/JSON service (docs/SERVE.md).

    Owns the database (and, with --db-path, the durable store) until
    shutdown; prints one readiness line — ``listening on http://...``
    — once the socket is bound, so wrappers can wait for it.  SIGINT/
    SIGTERM drain connections, release the warm worker pools, and
    close the store cleanly.
    """
    import asyncio
    import signal

    from .serve import ReproServer

    db = _load_db(args)
    server = ReproServer(db, host=args.host, port=args.port,
                         jobs=args.jobs, trace_file=args.trace_out)

    async def _serve() -> None:
        await server.start()
        print(f"listening on http://{server.host}:{server.port}", flush=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, server.request_shutdown)
            except NotImplementedError:  # non-Unix event loops
                pass
        assert server._closing is not None
        try:
            await server._closing.wait()
        finally:
            await server.shutdown()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        # Signal handler not installable (or second Ctrl-C): the
        # server teardown in _serve's finally already ran.
        pass
    print("server stopped", file=sys.stderr)
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    query = _parse_query_arg(args.query)
    db = load_database_file(args.db)
    print(explain(query, db).render())
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import analyze_text

    tracer = _cli_tracer(args)
    free = tuple(
        Variable(n.strip()) for n in args.free.split(",") if n.strip()
    )
    db = _load_db(args, required=False)
    try:
        report = analyze_text(args.query, free=free, db=db, tracer=tracer)
        if args.format == "json":
            print(report.to_json())
        elif args.format == "github":
            print(report.render_github())
        else:
            print(report.render_text())
    finally:
        _close_db(db) if db is not None else None
    _flush_trace(tracer, args.trace_out)
    return 1 if report.errors else 0


def cmd_profile(args: argparse.Namespace) -> int:
    db = load_database_file(args.db)
    print(profile_database(db).render())
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        formula = parse_sentence(args.formula)
    except FormulaParseError as exc:
        raise SystemExit(f"error: cannot parse formula: {exc}")
    db = load_database_file(args.db)
    if args.method == "sql":
        from .db.sqlite_backend import run_sentence_sql

        answer = run_sentence_sql(formula, db)
    else:
        from .fo.eval import Evaluator

        answer = Evaluator(formula, db).evaluate()
    print(f"{answer}   (method: {args.method}, {db.size()} facts)")
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    query = _parse_query_arg(args.query)
    print(AttackGraph(query).to_dot())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .experiments import ALL_EXPERIMENTS
    from .experiments.harness import render_report

    parts = []
    for title, runner in ALL_EXPERIMENTS:
        print(f"running {title} ...", file=sys.stderr)
        parts.append(render_report(runner(), heading=f"# {title}"))
    text = "\n".join(parts)
    if args.output:
        with open(args.output, "w") as fp:
            fp.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def cmd_db_init(args: argparse.Namespace) -> int:
    import pathlib

    from .storage import PersistentDatabase, StorageError

    directory = pathlib.Path(args.path)
    if directory.is_dir() and (list(directory.glob("snapshot-*.snap"))
                               or list(directory.glob("wal-*.log"))):
        raise SystemExit(f"error: {directory} is already a store")
    try:
        store = PersistentDatabase(directory)
    except StorageError as exc:
        raise SystemExit(f"error: {exc}")
    try:
        if args.from_json:
            seed = load_database_file(args.from_json)
            for schema in seed.schemas.values():
                store.add_relation(schema)
            with store.batch():
                for name in seed.relations():
                    store.add_all(name, seed.facts(name))
            store.checkpoint()
            print(f"seeded {store.size()} facts from {args.from_json}")
        status = store.storage_status()
    finally:
        store.close()
    print(f"initialized store at {status['path']} "
          f"(clock {status['clock']}, {status['facts']} facts)")
    return 0


def cmd_db_open(args: argparse.Namespace) -> int:
    from .storage import StorageError, open_database

    try:
        store = open_database(args.path)
    except StorageError as exc:
        raise SystemExit(f"error: {exc}")
    try:
        recovery = dict(store.last_recovery)
        status = store.storage_status()
    finally:
        store.close()
    print(f"store:          {status['path']}")
    print(f"clock:          {status['clock']}")
    print(f"snapshot clock: {status['snapshot_clock']}")
    print(f"wal:            {status['wal_records']} records, "
          f"{status['wal_bytes']} bytes, {status['wal_segments']} segment(s)")
    print(f"facts:          {status['facts']} in {status['relations']} "
          f"relation(s), {status['views']} view(s)")
    print(f"recovery:       replayed {recovery['replayed_records']} "
          f"record(s) over snapshot clock {recovery['snapshot_clock']} "
          f"in {recovery['replay_ms']:.2f} ms")
    return 0


def cmd_db_checkpoint(args: argparse.Namespace) -> int:
    from .storage import StorageError, open_database

    try:
        store = open_database(args.path)
    except StorageError as exc:
        raise SystemExit(f"error: {exc}")
    try:
        size = store.checkpoint()
        status = store.storage_status()
    finally:
        store.close()
    print(f"checkpoint: snapshot-{status['snapshot_clock']:016d}.snap "
          f"({size} bytes), WAL pruned to {status['wal_bytes']} bytes")
    return 0


def cmd_db_verify(args: argparse.Namespace) -> int:
    import json as _json

    from .storage import verify_store

    report = verify_store(args.path, integrity=args.integrity_check)
    if args.json:
        print(_json.dumps(report, indent=2, default=str))
        return 0 if report["ok"] else 1
    print(f"store: {report['path']}")
    for snap in report["snapshots"]:
        state = (f"ok, clock {snap['clock']}, {snap['facts']} facts"
                 if snap["ok"] else f"CORRUPT: {snap['error']}")
        print(f"  snapshot {snap['file']}: {state}")
    for seg in report["segments"]:
        damage = f", damage: {seg['damage']}" if seg["damage"] else ""
        print(f"  segment  {seg['file']}: {seg['records']} record(s)"
              f"{damage}")
    if "integrity" in report:
        audit = report["integrity"]
        print(f"  integrity: clock {audit['recovered_clock']}, "
              f"{audit['facts']} facts, "
              f"{audit['key_violating_blocks']} key-violating block(s)"
              + (f", {audit['repairs']} repair(s)"
                 if audit["repairs"] is not None else ""))
    for error in report["errors"]:
        print(f"  error: {error}")
    print("verdict: " + ("ok" if report["ok"] else "CORRUPT"))
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Consistent query answering for primary keys and "
                    "conjunctive queries with negated atoms (PODS 2018).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="run the Theorem 4.3 classifier")
    p.add_argument("query")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("lint",
                       help="static diagnostics for a query "
                            "(codes QL000-QL010, see docs/LINTING.md)")
    p.add_argument("query")
    p.add_argument("--format", default="text", choices=("text", "json"),
                   help="report format (default: text)")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("rewrite", help="construct the consistent FO rewriting")
    p.add_argument("query")
    p.add_argument("--pretty", action="store_true",
                   help="indented rendering instead of one line")
    p.add_argument("--sql", action="store_true",
                   help="also print the compiled SQL")
    p.add_argument("--trace", action="store_true",
                   help="show Algorithm 1's elimination steps")
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser("plan",
                       help="show the set-at-a-time relational plan the "
                            "engine runs for a query (compiled, columnar "
                            "and auto all run this plan)")
    p.add_argument("query")
    p.add_argument("--free", default="",
                   help="comma-separated free variable names "
                        "(empty: Boolean certainty plan)")
    p.add_argument("--analyze", action="store_true",
                   help="EXPLAIN ANALYZE: execute the plan on --db and "
                        "annotate each operator with times/cardinalities")
    p.add_argument("--db", help="database JSON file (required by --analyze)")
    p.add_argument("--json", action="store_true",
                   help="emit the analyzed operator tree as JSON "
                        "(requires --analyze)")
    p.add_argument("--check", action="store_true",
                   help="run the plan-IR verifier (codes PV001-PV013, "
                        "see docs/ANALYSIS.md) on the compiled plan")
    p.add_argument("--columnar", action="store_true",
                   help="also say how the columnar backend runs the "
                        "plan; with --analyze, run both executors and "
                        "print the row-at-a-time and columnar profiles "
                        "side by side")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("certain", help="answer CERTAINTY(q) on a database")
    p.add_argument("query")
    p.add_argument("--db", default=None, help="database JSON file")
    p.add_argument("--db-path", default=None, metavar="DIR",
                   help="durable store directory (repro db init); "
                        "mutually exclusive with --db")
    p.add_argument("--method", default="auto",
                   choices=KNOWN_METHODS,
                   help="solving strategy (auto: brute outside FO, "
                        "else the compiled plan's short-circuit probe; "
                        "sql only when asked)")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker count for --method parallel (implies it "
                        "when --method is auto; Boolean certainty falls "
                        "back to the serial compiled plan)")
    p.add_argument("--trace", action="store_true",
                   help="collect spans and per-operator timings; print an "
                        "EXPLAIN ANALYZE report after the answer")
    p.add_argument("--json", action="store_true",
                   help="emit the trace document as JSON instead of text "
                        "(requires --trace; shape: docs/trace.schema.json)")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="append span JSONL records to FILE (implies "
                        "tracing)")
    p.add_argument("--stats", action="store_true",
                   help="also print the unified EngineMetrics JSON")
    p.set_defaults(func=cmd_certain)

    p = sub.add_parser("answers",
                       help="certain answers for a query with free variables")
    p.add_argument("query")
    p.add_argument("--free", required=True,
                   help="comma-separated free variable names")
    p.add_argument("--db", default=None, help="database JSON file")
    p.add_argument("--db-path", default=None, metavar="DIR",
                   help="durable store directory (repro db init); "
                        "mutually exclusive with --db")
    p.add_argument("--method", default="auto",
                   choices=KNOWN_METHODS,
                   help="solving strategy (auto: brute outside FO, "
                        "else columnar on databases of at least 4000 "
                        "facts and compiled below that; sql only when "
                        "asked)")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker count for --method parallel (implies it "
                        "when --method is auto)")
    p.add_argument("--show-sql", action="store_true",
                   help="print the single SQL query first")
    p.add_argument("--trace", action="store_true",
                   help="collect spans and per-operator timings; print an "
                        "EXPLAIN ANALYZE report after the answers")
    p.add_argument("--json", action="store_true",
                   help="emit the trace document as JSON instead of text "
                        "(requires --trace; shape: docs/trace.schema.json)")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="append span JSONL records to FILE (implies "
                        "tracing)")
    p.add_argument("--stats", action="store_true",
                   help="also print the unified EngineMetrics JSON")
    p.set_defaults(func=cmd_answers)

    p = sub.add_parser("watch",
                       help="maintain a query's certain answers under a "
                            "fact stream and print answer-set diffs")
    p.add_argument("query")
    p.add_argument("--db", default=None,
                   help="database JSON file with the initial facts")
    p.add_argument("--db-path", default=None, metavar="DIR",
                   help="durable store directory: the stream's committed "
                        "batches are WAL-logged and survive the process; "
                        "mutually exclusive with --db")
    p.add_argument("--free", default="",
                   help="comma-separated free variable names "
                        "(empty: watch Boolean certainty)")
    p.add_argument("--stream", default="-",
                   help="fact stream file, '-' for stdin (lines: "
                        "'+ R v1 v2', '- R v1 v2', 'begin', 'commit')")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="append maintenance span JSONL records to FILE at "
                        "EOF")
    p.add_argument("--stats", action="store_true",
                   help="print the unified EngineMetrics JSON at EOF")
    p.set_defaults(func=cmd_watch)

    p = sub.add_parser("serve",
                       help="run the long-running CQA HTTP/JSON service "
                            "(docs/SERVE.md)")
    p.add_argument("--db", default=None,
                   help="serve an in-memory copy of a database JSON file")
    p.add_argument("--db-path", default=None, metavar="DIR",
                   help="serve a durable store directory (writes go "
                        "through the WAL; views survive restarts); "
                        "mutually exclusive with --db")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: loopback only)")
    p.add_argument("--port", type=int, default=8100,
                   help="TCP port; 0 picks a free port (printed in the "
                        "readiness line)")
    p.add_argument("--jobs", type=int, default=None,
                   help="admission width and the default worker count "
                        "for method='parallel' requests")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="append one span tree per request as JSONL "
                        "records to FILE")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("explain",
                       help="explain a certainty answer (falsifying "
                            "repair or sampled witnesses)")
    p.add_argument("query")
    p.add_argument("--db", required=True, help="database JSON file")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("analyze",
                       help="unified static analysis: structural report, "
                            "QL+QP diagnostics, plan verifier verdict and "
                            "cost estimate (docs/ANALYSIS.md)")
    p.add_argument("query")
    p.add_argument("--free", default="",
                   help="comma-separated free variable names (empty: "
                        "analyze the Boolean certainty plan)")
    p.add_argument("--db", default=None,
                   help="database JSON file: use its real cardinalities "
                        "in the cost model (default: textbook estimates)")
    p.add_argument("--db-path", default=None, metavar="DIR",
                   help="durable store directory to analyze against "
                        "(enables the storage rule QP111); "
                        "mutually exclusive with --db")
    p.add_argument("--format", default="text",
                   choices=("text", "json", "github"),
                   help="report format; json is pinned by "
                        "docs/diagnostics.schema.json, github emits "
                        "workflow-command annotations")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="append analysis span JSONL records to FILE")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("profile",
                       help="inconsistency profile of a database "
                            "(blocks, violations, repair count)")
    p.add_argument("--db", required=True, help="database JSON file")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("eval",
                       help="evaluate an arbitrary FO sentence on a database "
                            "(active-domain semantics)")
    p.add_argument("formula")
    p.add_argument("--db", required=True, help="database JSON file")
    p.add_argument("--method", default="python", choices=("python", "sql"))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("graph", help="print the attack graph as DOT")
    p.add_argument("query")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("report", help="run all experiments (E1-E14)")
    p.add_argument("-o", "--output", help="write to file instead of stdout")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("db",
                       help="manage durable stores (WAL + snapshots, "
                            "see docs/STORAGE.md)")
    dbsub = p.add_subparsers(dest="db_command", required=True)

    q = dbsub.add_parser("init", help="create a new store directory")
    q.add_argument("path")
    q.add_argument("--from", dest="from_json", default=None, metavar="JSON",
                   help="seed the store from a database JSON file and "
                        "checkpoint immediately")
    q.set_defaults(func=cmd_db_init)

    q = dbsub.add_parser("open",
                         help="recover a store and print its vitals")
    q.add_argument("path")
    q.set_defaults(func=cmd_db_open)

    q = dbsub.add_parser("checkpoint",
                         help="compact the WAL into a fresh snapshot")
    q.add_argument("path")
    q.set_defaults(func=cmd_db_checkpoint)

    q = dbsub.add_parser("verify",
                         help="offline CRC sweep of snapshots and WAL "
                              "segments; exit 1 on unrecoverable damage")
    q.add_argument("path")
    q.add_argument("--integrity-check", action="store_true",
                   help="also replay the consistent prefix in memory and "
                        "audit schemas and primary keys")
    q.add_argument("--json", action="store_true",
                   help="emit the verification report as JSON")
    q.set_defaults(func=cmd_db_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: cannot parse query: {exc}", file=sys.stderr)
    except FormulaParseError as exc:
        print(f"error: cannot parse formula: {exc}", file=sys.stderr)
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except QueryError as exc:
        print(f"error: invalid query: {exc}", file=sys.stderr)
    except NotInFO as exc:
        print(f"error: {exc}", file=sys.stderr)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
