"""Command-line interface: the standalone layout tool of §5.

The paper closes by "considering re-packaging the analysis phase into a
standalone tool"; this module is that tool for the reproduction:

- ``repro analyze FILE...``    — legality + heuristics summary
- ``repro advise FILE...``     — the Figure-2 advisory report
                                 (``--profile`` collects PBO + PMU data
                                 by running the program first)
- ``repro transform FILE...``  — apply the transformations and emit the
                                 rewritten MiniC source
- ``repro run FILE...``        — execute on the simulated machine and
                                 report cycles and cache statistics
- ``repro compare FILE...``    — measure original vs transformed
- ``repro serve``              — the supervised compile daemon
                                 (worker pool, deadlines, retries,
                                 circuit breakers, degradation ladder)
- ``repro client CMD FILE...`` — send one request to a running daemon

Invoke as ``python -m repro <command> ...``.

Exit codes: 0 on success, 1 when the source failed to compile or a
transformation failed verification, 2 on file or usage errors.  The
``client`` command additionally exits 1 when the daemon served a
degraded ladder tier, shed the request (busy), or returned a
structured error, and 2 when the daemon is unreachable.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

from .advisor import (
    AdvisorOptions, advisor_report, classify_report, program_vcg,
)
from .api import (
    LADDER, PRIORITY_NAMES, REQUEST_SCHEMES, ApiError, CompileOptions,
    CompileReply, CompileRequest, SearchOptions, Session, compare_result,
    run_failure, type_rows,
)
from .core import CompilationResult, CompilerOptions, FatalCompilerError
from .frontend import Program
from .obs import Tracer, write_trace
from .profit import collect_feedback
from .runtime import run_program
from .transform import program_sources
from .transform.heuristics import PEEL_MODES
from .transform.search import ENGINES

EXIT_OK = 0
EXIT_COMPILE = 1
EXIT_USAGE = 2


class CliError(Exception):
    """A user-facing error with its process exit code."""

    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _read_sources(paths: list[str]) -> list[tuple[str, str]]:
    sources = []
    for p in paths:
        path = Path(p)
        try:
            sources.append((path.name, path.read_text()))
        except OSError as exc:
            raise CliError(f"cannot read '{p}': {exc.strerror or exc}",
                           EXIT_USAGE) from exc
    return sources


def _reject_frontend_errors(program: Program) -> None:
    if program.frontend_errors:
        for err in program.frontend_errors:
            print(f"repro: error: {err.unit}:{err.line}: {err.message}",
                  file=sys.stderr)
        raise CliError(
            f"{len(program.frontend_errors)} error(s) in source",
            EXIT_COMPILE)


def _load_program(paths: list[str]) -> Program:
    program = Program.from_sources(_read_sources(paths), recover=True)
    _reject_frontend_errors(program)
    return program


def _compile(paths: list[str], options: CompilerOptions,
             trace_out: str | None = None) -> CompilationResult:
    """Read, parse and compile via a :class:`repro.api.Session`,
    through the summary cache when ``--cache-dir`` names one.  With
    ``trace_out``, the compile runs under a tracer and the span tree
    is written there (Chrome ``trace_event`` JSON, or JSONL for a
    ``.jsonl`` path)."""
    tracer = Tracer() if trace_out else None
    session = Session(options, tracer=tracer)
    result = session.compile_sources(_read_sources(paths))
    if trace_out:
        path = write_trace(trace_out, tracer.finished())
        print(f"repro: trace {tracer.trace_id} written to {path} "
              f"(open in Perfetto / chrome://tracing)", file=sys.stderr)
    _reject_frontend_errors(result.program)
    return result


class OptionBundle(NamedTuple):
    """Compiler options plus the profile feedback they were built from."""

    options: CompilerOptions
    feedback: object | None


def _compile_options(args) -> CompileOptions:
    """The one builder from flags to :class:`repro.api.CompileOptions`,
    shared by the local commands and ``client`` — so a flag means the
    same thing whether the compile runs here or in a daemon."""
    try:
        return CompileOptions(
            scheme=args.scheme or "ISPBO",
            relax=args.relax,
            ts=args.ts,
            peel_mode=args.peel_mode,
            verify=not getattr(args, "no_verify", False),
            cache=not args.no_cache,
            search=None if args.search is None
            else SearchOptions.from_cli(args.search))
    except ApiError as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc


def _options(args) -> OptionBundle:
    """Core options for a local command: the flags' CompileOptions
    lowered for the command's best ladder tier (``advisory`` for
    analyze/advise, ``full`` for transform/compare), with ``--profile``
    feedback and ``--strict`` applied on top."""
    options = _compile_options(args).compiler_options(
        LADDER[args.command][0], args.cache_dir)
    feedback = None
    if args.profile:
        feedback = collect_feedback(_load_program(args.files))
        options = replace(options, scheme="PBO", feedback=feedback)
    return OptionBundle(replace(options, strict=args.strict), feedback)


def _report(result: CompilationResult) -> int:
    """Print collected diagnostics; return the command exit code."""
    rendered = result.diagnostics.render("warning")
    if rendered:
        print(rendered, file=sys.stderr)
    return EXIT_COMPILE if result.diagnostics.has_errors else EXIT_OK


def cmd_analyze(args) -> int:
    result = _compile(args.files, _options(args).options, args.trace_out)
    _print_types(result.table1_row(),
                 type_rows(result.legality, result.decisions_by_type()))
    return _report(result)


def _print_types(table1, rows: dict) -> None:
    """The ``repro analyze`` table: Table 1's counts, then one line per
    payload ``types`` row (a ``legality``-tier row has no plan)."""
    types, legal, relaxed = table1
    print(f"record types: {types}  legal: {legal}  "
          f"legal under relaxation: {relaxed}")
    print()
    for name, row in sorted(rows.items()):
        print(f"  {name:24s} [{row['status']:>14s}] "
              f"{' '.join(row['attrs']):20s} "
              f"plan={row.get('plan', '-'):5s} "
              f"{'; '.join(row.get('notes', []))}")


def cmd_advise(args) -> int:
    options, feedback = _options(args)
    result = _compile(args.files, options, args.trace_out)
    show_costs = args.costs or bool(args.trace_out)
    print(advisor_report(result, feedback=feedback,
                         options=AdvisorOptions(phase_costs=show_costs)))
    print("scenario advice (section 3.3):")
    for name, profile in result.profiles.items():
        if profile.type_hotness() > 0.0:
            samples = {}
            if feedback is not None:
                samples = {f: s for (r, f), s in
                           feedback.field_samples.items() if r == name}
            print(classify_report(profile, samples))
    if args.mt:
        from .advisor import mt_report
        print("\nmulti-threaded layout advice (section 2.4):")
        for name, profile in result.profiles.items():
            if profile.type_hotness() > 0.0:
                print(mt_report(profile))
    if args.vcg:
        Path(args.vcg).write_text(program_vcg(result.profiles))
        print(f"\nVCG affinity graphs written to {args.vcg}")
    return _report(result)


def cmd_transform(args) -> int:
    result = _compile(args.files, _options(args).options, args.trace_out)
    transformed = result.transformed_types()
    print(f"transformed {len(transformed)} type(s): "
          f"{', '.join(d.type_name for d in transformed) or '-'}",
          file=sys.stderr)
    if result.rolled_back:
        print(f"rolled back {len(result.rolled_back)} type(s): "
              f"{', '.join(result.rolled_back)}", file=sys.stderr)
    for unit_name, text in program_sources(result.transformed):
        header = f"/* === {unit_name} === */\n"
        if args.output:
            out = Path(args.output)
            if len(result.transformed.units) > 1:
                out = out.with_name(f"{out.stem}_{unit_name}")
            out.write_text(text)
            print(f"wrote {out}", file=sys.stderr)
        else:
            sys.stdout.write(header + text)
    return _report(result)


def _cannot_run(trap: str, message: str, cycle_limit: int) -> CliError:
    """A run past ``--cycle-limit``, a trap, or a program the simulator
    cannot compile (no ``main``, say) is one error line, not a
    traceback."""
    return CliError(run_failure(trap, message, cycle_limit,
                                "--cycle-limit"), EXIT_COMPILE)


def cmd_run(args) -> int:
    program = _load_program(args.files)
    try:
        result = run_program(program, cycle_limit=args.cycle_limit)
    except Exception as exc:        # the program's trap, not ours
        raise _cannot_run(type(exc).__name__, str(exc),
                          args.cycle_limit) from exc
    sys.stdout.write(result.stdout)
    print(f"\n[exit {result.exit_code}; {result.cycles:,} cycles]")
    if args.stats:
        for level, stats in result.cache_stats.items():
            print(f"  {level}: {stats}")
    return result.exit_code


def cmd_compare(args) -> int:
    result = _compile(args.files, _options(args).options, args.trace_out)
    compared, failed = compare_result(result, args.cycle_limit)
    if failed is not None:
        raise _cannot_run(failed.trap, failed.trap_message,
                          args.cycle_limit)
    if compared["mismatch"]:
        return _report(result)
    _print_compare(compared)
    for d in result.transformed_types():
        print(f"  {d.type_name}: {d.action} cold={d.cold_fields} "
              f"dead={d.dead_fields}")
    if result.rolled_back:
        print(f"  rolled back: {', '.join(result.rolled_back)}")
    return _report(result)


def _print_compare(compared: dict) -> None:
    """The numbers of a ``compare`` payload block."""
    print(f"output   : {compared['output'].strip()}")
    print(f"before   : {compared['before_cycles']:,} cycles")
    print(f"after    : {compared['after_cycles']:,} cycles")
    gain = compared.get("gain_pct")
    if gain is not None:
        print(f"effect   : {gain:+.2f}%")


def _parse_fault_flag(spec: str) -> dict:
    """``STAGE:MODE[:TIMES[:SECONDS]]`` -> a process-fault spec dict.

    A test/ops tool: lets resilience drills inject worker-level faults
    (kill, hang, slow-start, oom) through a live daemon.
    """
    parts = spec.split(":")
    if len(parts) < 2:
        raise CliError(
            f"bad --inject-fault {spec!r}; expected STAGE:MODE"
            f"[:TIMES[:SECONDS]]", EXIT_USAGE)
    fault: dict = {"stage": parts[0], "mode": parts[1]}
    try:
        if len(parts) > 2:
            fault["times"] = int(parts[2])
        if len(parts) > 3:
            fault["seconds"] = float(parts[3])
    except ValueError as exc:
        raise CliError(f"bad --inject-fault {spec!r}: {exc}",
                       EXIT_USAGE) from exc
    return fault


def _serve(server, args, banner: str) -> int:
    """Run one socket server in the foreground until it exits.

    Binds (a bind failure is a usage error), prints ``banner``, and
    serves until shutdown or Ctrl-C.  SIGTERM begins a graceful drain
    bounded by ``--drain-grace``: stop accepting, finish every
    in-flight request, then exit — so a rolling hot-restart fails zero
    requests.  A supervisor that needs the process gone *now*
    escalates to SIGKILL after the grace period."""
    import signal
    try:
        server.start()
    except OSError as exc:
        raise CliError(f"cannot bind {args.socket!r}: {exc}",
                       EXIT_USAGE) from exc
    print(banner, file=sys.stderr, flush=True)
    signal.signal(signal.SIGTERM,
                  lambda *_: server.begin_drain(args.drain_grace))
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return EXIT_OK


def cmd_serve(args) -> int:
    from .service import CompileServer, Supervisor, SupervisorConfig
    config = SupervisorConfig(
        pool_size=args.pool_size, deadline=args.deadline,
        max_retries=args.max_retries, hang_timeout=args.hang_timeout,
        cache_dir=args.cache_dir, crash_dir=args.crash_dir,
        crash_max=args.crash_max,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown)
    server = CompileServer(args.socket, Supervisor(config),
                           queue_max=args.queue_max,
                           tenant_rate=args.tenant_rate,
                           tenant_burst=args.tenant_burst,
                           max_request_bytes=args.max_request_bytes,
                           idle_timeout=args.idle_timeout,
                           max_connections=args.max_connections)
    return _serve(server, args,
                  f"repro: serving on {args.socket} "
                  f"(pool={args.pool_size}, "
                  f"deadline={args.deadline:.0f}s, "
                  f"max-retries={args.max_retries}, "
                  f"queue-max={args.queue_max})")


def cmd_drain(args) -> int:
    """Ask a daemon (shard, router, or cache service) to drain."""
    from .service import ProtocolError, ServiceClient, single_request
    try:
        resp = single_request(args.socket, {"op": "drain"},
                              timeout=args.timeout, reconnects=0)
    except (OSError, ConnectionError, ProtocolError) as exc:
        raise CliError(
            f"cannot reach daemon at '{args.socket}': {exc}",
            EXIT_USAGE) from exc
    if resp.get("status") != "ok":
        raise CliError(f"drain refused: "
                       f"{(resp.get('error') or {}).get('message')}",
                       EXIT_COMPILE)
    print(f"repro: draining {args.socket} "
          f"(in-flight={resp.get('in_flight', 0)})", file=sys.stderr)
    if args.wait:
        import time
        deadline = time.monotonic() + args.wait
        while time.monotonic() < deadline:
            # exited means nothing listens on the path any more; a
            # server too busy to answer or accept is still running
            try:
                ServiceClient(args.socket, timeout=1.0).connect().close()
            except (ConnectionRefusedError, FileNotFoundError):
                print("repro: drained; daemon exited",
                      file=sys.stderr)
                return EXIT_OK
            except OSError:
                pass
            time.sleep(0.1)
        raise CliError(
            f"daemon still serving after {args.wait:.0f}s drain wait",
            EXIT_COMPILE)
    return EXIT_OK


def cmd_farm(args) -> int:
    """Run the whole resilient farm: cache service, N shard daemons,
    and the front-tier router (or an HA router group), in the
    foreground."""
    from .service.router import ClusterConfig, Farm, Router, \
        RouterPeer, RouterServer
    from .service.wire import parse_endpoints
    if not args.config and not args.dir:
        raise CliError("farm needs --dir (to spawn a farm) or "
                       "--config (to route external shards)")
    if args.config and not args.socket:
        raise CliError("--config mode needs an explicit --socket "
                       "for the router")
    if args.config:
        if args.tenant_rate > 0:
            raise CliError("--tenant-rate sets the quota of the shards "
                           "--dir spawns; with --config, start each "
                           "shard with its own 'repro serve "
                           "--tenant-rate'")
        try:
            cluster = ClusterConfig.from_file(args.config)
            # the full ordered router list; our own entry (by rank
            # position) is skipped, the rest become probe targets
            sockets = parse_endpoints(args.ha_peers) \
                if args.ha_peers else []
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        peers = [RouterPeer(socket=s, rank=i)
                 for i, s in enumerate(sockets) if i != args.ha_rank]
        router_server = RouterServer(
            args.socket, Router(cluster), peers=peers, rank=args.ha_rank,
            max_request_bytes=args.max_request_bytes,
            idle_timeout=args.idle_timeout,
            max_connections=args.max_connections)
        ha = f", ha-rank {args.ha_rank}" if peers else ""
        return _serve(router_server, args,
                      f"repro: routing {len(cluster.shards)} external "
                      f"shard(s) on {args.socket}{ha}")

    farm = Farm(args.dir, daemons=args.daemons,
                pool_size=args.pool_size,
                cache_budget=args.cache_budget,
                tenant_rate=args.tenant_rate,
                tenant_burst=args.tenant_burst,
                routers=args.routers)
    if args.routers <= 1:
        farm.router_socket = args.socket or farm.router_socket
    try:
        farm.start()
    except (OSError, RuntimeError) as exc:
        farm.stop()
        raise CliError(f"farm failed to start: {exc}",
                       EXIT_USAGE) from exc
    print(f"repro: farm up — router(s) {farm.router_endpoints}, "
          f"{args.daemons} daemon(s), cache {farm.cache_socket}",
          file=sys.stderr, flush=True)
    import signal
    if farm.router_server is not None:
        # classic layout: the router runs in this process
        signal.signal(signal.SIGTERM, lambda *_:
                      farm.router_server.request_shutdown())
        try:
            farm.router_server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            farm.stop()
        return EXIT_OK
    # HA layout: routers are supervised subprocesses; this process
    # just babysits until signalled
    import threading
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    farm.start_supervision()
    try:
        while not stop.wait(timeout=0.2):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        farm.stop()
    return EXIT_OK


def cmd_cache_serve(args) -> int:
    from .service.cacheservice import parse_budget, serve_cache
    try:
        server = serve_cache(args.socket, args.dir,
                             budget=args.cache_budget,
                             max_request_bytes=args.max_request_bytes,
                             idle_timeout=args.idle_timeout,
                             max_connections=args.max_connections)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc
    budget = parse_budget(args.cache_budget)
    return _serve(server, args,
                  f"repro: cache service on {args.socket} "
                  f"(dir={args.dir}, "
                  f"budget={budget if budget else 'unbounded'})")


def cmd_cache_fsck(args) -> int:
    """Scan a cache directory: verify every entry, quarantine (or just
    report) corruption, print category/size/age stats."""
    from .core import fsck_cache
    root = Path(args.dir)
    if not root.is_dir():
        raise CliError(f"no cache directory at '{args.dir}'",
                       EXIT_USAGE)
    report = fsck_cache(root, quarantine=not args.no_quarantine)
    if args.json:
        import json
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"cache {report.root}: {report.scanned} entries, "
              f"{report.total_bytes:,} bytes, "
              f"{report.corrupt} corrupt, "
              f"{report.stray_tmp} stray temp file(s)")
        for name, cat in sorted(report.categories.items()):
            age = ""
            if cat.oldest_s is not None:
                age = (f"  age {cat.newest_s:,.0f}s–"
                       f"{cat.oldest_s:,.0f}s")
            note = f"  ({cat.corrupt} corrupt)" if cat.corrupt else ""
            print(f"  {name:10s} {cat.entries:6d} entries "
                  f"{cat.bytes:12,d} bytes{age}{note}")
        for q in report.quarantined:
            print(f"  quarantined: {q}")
    return EXIT_COMPILE if report.corrupt else EXIT_OK


def _render_client_payload(args, resp: dict) -> None:
    """Print the served payload the way the serial CLI would."""
    payload = resp.get("payload") or {}
    tier = resp.get("tier")
    if resp["op"] == "transform" and tier == "full":
        for unit_name, text in payload.get("transformed_sources", []):
            if args.output:
                out = Path(args.output)
                if len(payload["transformed_sources"]) > 1:
                    out = out.with_name(f"{out.stem}_{unit_name}")
                out.write_text(text)
                print(f"wrote {out}", file=sys.stderr)
            else:
                sys.stdout.write(f"/* === {unit_name} === */\n" + text)
        return
    if resp["op"] == "compare" and tier == "full":
        # no compare block: a run could not complete, and the reply's
        # error diagnostic says why
        if payload.get("compare"):
            _print_compare(payload["compare"])
        return
    if "report" in payload:
        print(payload["report"])
    elif "table1" in payload:
        _print_types(payload["table1"], payload["types"])


def _client_request(args) -> CompileRequest:
    """Build the typed request the ``client`` subcommand sends.

    The flags lower into the same :class:`repro.api.CompileRequest`
    schema the service validates against — there is no second,
    hand-rolled wire dict to drift out of sync."""
    from .core.faults import ProcessFaultSpec
    options = _compile_options(args)
    try:
        faults = [ProcessFaultSpec.from_dict(_parse_fault_flag(s))
                  for s in args.inject_fault]
    except (KeyError, ValueError) as exc:
        raise CliError(f"bad --inject-fault: {exc}",
                       EXIT_USAGE) from exc
    try:
        return CompileRequest(
            op=args.client_op,
            sources=_read_sources(args.files),
            options=options,
            deadline=args.deadline,
            max_retries=args.max_retries,
            faults=faults,
            trace=bool(args.trace_out),
            tenant=args.tenant,
            priority=PRIORITY_NAMES[args.priority],
            deadline_ms=args.deadline_ms)
    except ApiError as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc


def cmd_client(args) -> int:
    from .core.diagnostics import Diagnostic, DiagnosticEngine
    from .service import ProtocolError, single_request
    request = _client_request(args)
    try:
        resp = single_request(args.socket, request.to_wire(),
                              timeout=args.timeout)
    except (OSError, ConnectionError, ProtocolError) as exc:
        raise CliError(
            f"cannot reach daemon at '{args.socket}': {exc}",
            EXIT_USAGE) from exc
    reply = CompileReply.from_wire(resp)

    engine = DiagnosticEngine()
    for d in reply.diagnostics:
        try:
            engine.emit(Diagnostic.from_dict(d))
        except (KeyError, ValueError):
            pass
    if reply.status == "busy":
        print(f"repro: busy: {(reply.error or {}).get('message', '')}"
              f" (retry after {reply.retry_after or 0.5:.1f}s)",
              file=sys.stderr)
        return EXIT_COMPILE
    if reply.status == "rejected":
        print(f"repro: rejected: {(reply.error or {}).get('message', '')}"
              f" (retry after {reply.retry_after or 0.5:.1f}s)",
              file=sys.stderr)
        return EXIT_COMPILE
    if reply.status == "deadline_exceeded":
        print(f"repro: deadline exceeded: "
              f"{(reply.error or {}).get('message', '')}",
              file=sys.stderr)
        return EXIT_COMPILE
    if reply.status == "error":
        print(f"repro: error: "
              f"{(reply.error or {}).get('message', 'request failed')}",
              file=sys.stderr)
        rendered = engine.render("warning")
        if rendered:
            print(rendered, file=sys.stderr)
        return EXIT_COMPILE
    _render_client_payload(args, resp)
    if args.trace_out:
        if reply.spans:
            path = write_trace(args.trace_out, reply.spans)
            print(f"repro: trace {reply.trace_id} written to {path} "
                  f"(open in Perfetto / chrome://tracing)",
                  file=sys.stderr)
        else:
            print("repro: warning: daemon returned no spans; "
                  "no trace written", file=sys.stderr)
    if reply.degraded:
        print(f"repro: degraded: served tier {reply.tier!r} "
              f"(attempts={reply.attempts}, "
              f"respawns={reply.respawns})", file=sys.stderr)
    route = reply.route or {}
    if route.get("failovers") or route.get("hedged"):
        print(f"repro: routed via shard {route.get('shard')!r} "
              f"(failovers={route.get('failovers', 0)}"
              f"{', hedged' if route.get('hedged') else ''})",
              file=sys.stderr)
    rendered = engine.render("warning")
    if rendered:
        print(rendered, file=sys.stderr)
    if not reply.ok or engine.has_errors:
        return EXIT_COMPILE
    return EXIT_OK


def _positive_int(text: str) -> int:
    """argparse type of a count flag: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Structure layout optimization and advice "
                    "(CGO 2006 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_layout_flags(p):
        p.add_argument("--ts", type=float, default=None,
                       help="split threshold T_s: fields below this "
                            "percent of the type's hottest field are "
                            "cold (default 7.5, 3 under --profile); "
                            "tunes the greedy heuristics, no search")
        p.add_argument("--peel-mode", default=None, choices=PEEL_MODES,
                       help="peel grouping (default auto: the "
                            "line-traffic cost model picks)")
        p.add_argument("--search", default=None, metavar="SPEC",
                       help="run the global layout search: "
                            "comma-separated key=value options, "
                            "e.g. 'engine=sa,budget=10s,seed=7' "
                            f"(engines: {', '.join(ENGINES)})")

    def add_common(p, scheme=True):
        p.add_argument("files", nargs="+",
                       help="MiniC source files (one program)")
        if scheme:
            p.add_argument("--scheme", default="ISPBO",
                           choices=REQUEST_SCHEMES,
                           help="weight estimation scheme")
            p.add_argument("--profile", action="store_true",
                           help="collect a PBO profile first "
                                "(runs the program instrumented)")
            p.add_argument("--relax", action="store_true",
                           help="tolerate CSTT/CSTF/ATKN when "
                                "points-to proves field safety")
            add_layout_flags(p)
            p.add_argument("--strict", action="store_true",
                           help="abort on the first contained fault "
                                "instead of degrading gracefully")
            p.add_argument("--cache-dir", default=None, metavar="DIR",
                           help="keep per-TU summaries in DIR so "
                                "unchanged units are not re-analyzed")
            p.add_argument("--no-cache", action="store_true",
                           help="ignore --cache-dir for this run")
            p.add_argument("--trace-out", default=None, metavar="FILE",
                           help="trace the compile and write the span "
                                "tree to FILE (Chrome trace_event "
                                "JSON; JSONL when FILE ends in "
                                ".jsonl)")

    def add_wire_flags(p):
        from .service.wire import (
            DEFAULT_IDLE_TIMEOUT, DEFAULT_MAX_CONNECTIONS,
            DEFAULT_MAX_REQUEST_BYTES,
        )
        p.add_argument("--max-request-bytes", type=int,
                       default=DEFAULT_MAX_REQUEST_BYTES,
                       metavar="N",
                       help="hard cap on one request line; larger "
                            "frames get a structured error and the "
                            "connection resyncs (default "
                            f"{DEFAULT_MAX_REQUEST_BYTES})")
        p.add_argument("--idle-timeout", type=float,
                       default=DEFAULT_IDLE_TIMEOUT, metavar="S",
                       help="close a connection silent for S seconds, "
                            "including one that never sent a byte "
                            f"(default {DEFAULT_IDLE_TIMEOUT:g})")
        p.add_argument("--max-connections", type=int,
                       default=DEFAULT_MAX_CONNECTIONS, metavar="N",
                       help="open-connection cap; past it the idlest "
                            "connection is evicted (default "
                            f"{DEFAULT_MAX_CONNECTIONS})")

    p = sub.add_parser("analyze", help="legality + planned transforms")
    add_common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("advise", help="the advisory report (Figure 2)")
    add_common(p)
    p.add_argument("--vcg", default=None, metavar="FILE",
                   help="also write VCG affinity graphs")
    p.add_argument("--mt", action="store_true",
                   help="add multi-threaded layout advice "
                        "(read/write grouping, false sharing)")
    p.add_argument("--costs", action="store_true",
                   help="append the per-phase compile-cost footer "
                        "(implied by --trace-out)")
    p.set_defaults(fn=cmd_advise)

    p = sub.add_parser("transform",
                       help="apply transformations, emit MiniC")
    add_common(p)
    p.add_argument("-o", "--output", default=None,
                   help="output file (stdout by default)")
    p.add_argument("--no-verify", action="store_true",
                   help="skip differential verification of the "
                        "transformed program")
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("run", help="execute on the simulated machine")
    add_common(p, scheme=False)
    p.add_argument("--stats", action="store_true",
                   help="print cache statistics")
    p.add_argument("--cycle-limit", type=_positive_int,
                   default=2_000_000_000, metavar="N",
                   help="stop a run after N simulated cycles")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("compare",
                       help="measure original vs transformed")
    add_common(p)
    p.add_argument("--cycle-limit", type=_positive_int,
                   default=2_000_000_000, metavar="N",
                   help="stop a run after N simulated cycles")
    p.add_argument("--no-verify", action="store_true",
                   help="skip differential verification of the "
                        "transformed program")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser(
        "serve",
        help="run the supervised compile daemon (worker pool, "
             "deadlines, retries, circuit breakers, degradation "
             "ladder)")
    p.add_argument("--socket", required=True, metavar="PATH",
                   help="Unix socket path to listen on")
    p.add_argument("--pool-size", type=int, default=2, metavar="N",
                   help="worker subprocesses (default 2)")
    p.add_argument("--deadline", type=float, default=60.0, metavar="S",
                   help="per-attempt wall-clock deadline in seconds "
                        "(default 60)")
    p.add_argument("--max-retries", type=int, default=2, metavar="K",
                   help="retries at the requested ladder tier "
                        "(default 2)")
    p.add_argument("--hang-timeout", type=float, default=2.0,
                   metavar="S",
                   help="kill a worker whose heartbeat is older than "
                        "this (default 2)")
    p.add_argument("--queue-max", type=int, default=8, metavar="Q",
                   help="bounded request queue beyond the pool; "
                        "excess requests are shed with a busy "
                        "response (default 8)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="shared content-addressed summary cache for "
                        "the worker pool")
    p.add_argument("--crash-dir", default=None, metavar="DIR",
                   help="where crash reports are persisted "
                        "(default: <cache-dir>/crashes)")
    p.add_argument("--breaker-threshold", type=int, default=3,
                   metavar="N",
                   help="consecutive failures tripping a circuit "
                        "breaker (default 3)")
    p.add_argument("--breaker-cooldown", type=float, default=30.0,
                   metavar="S",
                   help="seconds an open breaker waits before a "
                        "half-open probe (default 30)")
    p.add_argument("--crash-max", type=int, default=200, metavar="N",
                   help="crash reports kept before oldest-first "
                        "rotation (default 200)")
    p.add_argument("--drain-grace", type=float, default=30.0,
                   metavar="S",
                   help="max seconds a SIGTERM drain waits for "
                        "in-flight requests before exiting anyway "
                        "(default 30)")
    p.add_argument("--tenant-rate", type=float, default=0.0,
                   metavar="R",
                   help="per-tenant admission quota in requests/s; "
                        "0 disables quotas (default 0)")
    p.add_argument("--tenant-burst", type=float, default=8.0,
                   metavar="B",
                   help="per-tenant quota burst size (default 8)")
    add_wire_flags(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "drain",
        help="gracefully drain a running daemon: stop accepting, "
             "finish in-flight requests, exit")
    p.add_argument("--socket", required=True, metavar="PATH",
                   help="Unix socket of the daemon to drain")
    p.add_argument("--timeout", type=float, default=10.0, metavar="S",
                   help="wire timeout for the drain request")
    p.add_argument("--wait", type=float, default=None, metavar="S",
                   help="block up to S seconds until the daemon has "
                        "exited")
    p.set_defaults(fn=cmd_drain)

    p = sub.add_parser(
        "farm",
        help="run the resilient compile farm: shared cache service, "
             "N shard daemons, and the sharding/failover router")
    p.add_argument("--dir", default=None, metavar="DIR",
                   help="farm run directory (sockets, cache, logs); "
                        "required unless --config routes external "
                        "shards")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="router socket (default: <dir>/router.sock)")
    p.add_argument("--daemons", type=int, default=3, metavar="N",
                   help="shard daemons to spawn (default 3)")
    p.add_argument("--pool-size", type=int, default=1, metavar="K",
                   help="workers per shard daemon (default 1)")
    p.add_argument("--cache-budget", default=None, metavar="BYTES",
                   help="cache service size cap, e.g. 64M (default: "
                        "unbounded)")
    p.add_argument("--config", default=None, metavar="FILE",
                   help="cluster config JSON naming externally "
                        "managed shard sockets and capacity weights "
                        "(route only; spawn nothing)")
    p.add_argument("--drain-grace", type=float, default=30.0,
                   metavar="S", help="SIGTERM drain grace")
    p.add_argument("--tenant-rate", type=float, default=0.0,
                   metavar="R",
                   help="per-tenant admission quota of each spawned "
                        "shard in requests/s, so a farm of N shards "
                        "admits up to N*R; 0 disables quotas "
                        "(default 0; not with --config)")
    p.add_argument("--tenant-burst", type=float, default=8.0,
                   metavar="B",
                   help="per-tenant quota burst size of each spawned "
                        "shard (default 8)")
    p.add_argument("--routers", type=int, default=1, metavar="N",
                   help="router processes: 1 (default) runs the "
                        "classic in-process router; >=2 spawns an "
                        "active + warm-standby HA group (r0.sock, "
                        "r1.sock, ...) that is supervised and "
                        "respawned like the daemons — point clients "
                        "at unix:r0.sock,unix:r1.sock")
    p.add_argument("--ha-rank", type=int, default=0, metavar="K",
                   help="(with --config) this router's rank in an HA "
                        "group; the lowest healthy rank is active "
                        "(default 0)")
    p.add_argument("--ha-peers", default=None, metavar="LIST",
                   help="(with --config) the full ordered "
                        "comma-separated router socket list of the "
                        "HA group, this router's own socket included "
                        "at position --ha-rank")
    add_wire_flags(p)
    p.set_defaults(fn=cmd_farm)

    p = sub.add_parser("cache",
                       help="summary-cache service and maintenance")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)

    cp = cache_sub.add_parser(
        "serve",
        help="serve one on-disk summary cache to a whole farm over a "
             "socket (LRU eviction under --cache-budget)")
    cp.add_argument("--socket", required=True, metavar="PATH")
    cp.add_argument("--dir", required=True, metavar="DIR",
                    help="cache directory to serve")
    cp.add_argument("--cache-budget", default=None, metavar="BYTES",
                    help="evict least-recently-used entries beyond "
                         "this size, e.g. 512K, 64M (default: "
                         "unbounded)")
    cp.add_argument("--drain-grace", type=float, default=30.0,
                    metavar="S", help="SIGTERM drain grace")
    add_wire_flags(cp)
    cp.set_defaults(fn=cmd_cache_serve)

    cp = cache_sub.add_parser(
        "fsck",
        help="verify every cache entry's checksum, quarantine "
             "corruption, print category/size/age stats")
    cp.add_argument("dir", metavar="DIR", help="cache directory")
    cp.add_argument("--no-quarantine", action="store_true",
                    help="report corrupt entries but leave them in "
                         "place")
    cp.add_argument("--json", action="store_true",
                    help="machine-readable report")
    cp.set_defaults(fn=cmd_cache_fsck)

    p = sub.add_parser(
        "client",
        help="send one analyze/advise/transform/compare request to a "
             "running daemon")
    p.add_argument("client_op", metavar="CMD",
                   choices=["analyze", "advise", "transform",
                            "compare"],
                   help="operation to request")
    p.add_argument("files", nargs="+",
                   help="MiniC source files (one program)")
    p.add_argument("--socket", required=True, metavar="PATH",
                   help="Unix socket of the daemon, or a failover "
                        "list 'unix:A,unix:B' (e.g. an HA router "
                        "pair; endpoints are tried in order)")
    p.add_argument("--deadline", type=float, default=None, metavar="S",
                   help="per-attempt deadline override")
    p.add_argument("--max-retries", type=int, default=None,
                   metavar="K", help="retry budget override")
    p.add_argument("--timeout", type=float, default=300.0,
                   metavar="S", help="client-side socket timeout")
    p.add_argument("--scheme", default=None, choices=REQUEST_SCHEMES)
    p.add_argument("--relax", action="store_true")
    add_layout_flags(p)
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the daemon's summary cache for this "
                        "request")
    p.add_argument("-o", "--output", default=None,
                   help="output file for transformed sources")
    p.add_argument("--inject-fault", action="append", default=[],
                   metavar="STAGE:MODE[:TIMES[:SECONDS]]",
                   help="arm a worker-process fault for resilience "
                        "drills (modes: kill, hang, slow-start, oom)")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="ask the daemon for a stitched distributed "
                        "trace of this request and write it to FILE "
                        "(Chrome trace_event JSON; JSONL for .jsonl)")
    p.add_argument("--tenant", default=None, metavar="NAME",
                   help="tenant identity for admission quotas and "
                        "fair queueing (default: anonymous)")
    p.add_argument("--priority", default="normal",
                   choices=list(PRIORITY_NAMES),
                   help="queue priority lane within the tenant "
                        "(default normal)")
    p.add_argument("--deadline-ms", type=float, default=None,
                   metavar="MS",
                   help="end-to-end deadline budget in milliseconds; "
                        "propagated and deducted at every hop")
    p.set_defaults(fn=cmd_client)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as err:
        print(f"repro: error: {err}", file=sys.stderr)
        return err.code
    except FatalCompilerError as err:
        print(f"repro: fatal: {err}", file=sys.stderr)
        return EXIT_COMPILE


if __name__ == "__main__":
    raise SystemExit(main())
