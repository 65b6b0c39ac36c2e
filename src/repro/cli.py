"""``descendc`` — the command-line interface of the Descend reproduction.

Sub-commands:

``descendc check file.descend``
    Parse and type check; print the first diagnostic (with source snippet) if
    the program violates Descend's safety rules.

``descendc compile file.descend [-o out.cu]``
    Type check and emit the CUDA C++ translation.

``descendc print file.descend``
    Parse, type check, and pretty-print the program back to surface syntax.

``descendc plan file.descend [--fun NAME] [--no-opt]``
    Disassemble the device-plan IR of the program's GPU functions (the
    serializable op programs the vectorized engine executes).  ``--no-opt``
    shows the raw lowering before the ``lower.plan.opt`` passes; functions
    the plan compiler cannot lower print their fallback reason instead.

``descendc serve [--socket PATH] [--store PATH]``
    Run the compile-service daemon: one hot, store-attached compile session
    serving ``check``/``compile``/``print``/``plan``/``cache.stats``/
    ``ping``/``shutdown`` to local clients over a newline-delimited JSON
    protocol (API schema v1).  Identical in-flight compiles coalesce, the
    queue is bounded (backpressure), SIGTERM drains gracefully.

``descendc client OP [file] [--socket PATH] [--retries N] [--deadline-ms MS]``
    Run one operation against a running daemon and print the result exactly
    like the corresponding local sub-command would.  Idempotent ops retry
    with bounded backoff on connection drops and ``overloaded`` pushback;
    every structured error maps to a distinct exit status (see
    :data:`EXIT_CODES`).

``descendc figure8 [--sizes small ...] [--engine vectorized] [--scale N]``
    Run the benchmark harness reproducing Figure 8 of the paper.

``descendc bench [--quick] [--descend] [--compile] [--serve] [--jobs N]``
    Benchmark the reference vs the warp-vectorized execution engine on the
    Figure 8 workloads (CUDA-lite kernels by default, the Descend programs
    through the device-plan compiler with ``--descend``), assert cycle-count
    parity, and write a ``BENCH_*.json`` report (the CI bench-smoke
    artifacts).  ``--jobs N`` shards the sweep across N worker processes
    (serial stays the default and the parity oracle); ``--compile``
    benchmarks the *compiler* instead (``BENCH_compile_time.json``);
    ``--serve`` load-tests the compile-service daemon
    (``BENCH_serve_throughput.json``: requests/s, p50/p99, cold vs warm
    store).

``descendc fuzz [--seed N] [--count N] [--max-dims N] [--replay]``
    Run the seed-driven differential fuzzer: generated Descend programs
    (plus the workload seed corpus) checked against the cross-cutting
    properties — verdict determinism, engine parity, race freedom of
    well-typed programs, raw-vs-optimized plan agreement, diagnostic cache
    stability.  Violations shrink to minimized repros persisted in the
    store (kind ``fuzz-repro``); ``--replay`` re-checks every persisted
    repro instead.  Nonzero exit iff a property was violated (or, with
    ``--replay``, a repro still reproduces).

``descendc cache stats|clear|gc [--store PATH]``
    Inspect, empty, or garbage-collect the persistent artifact store.

Every sub-command is a thin consumer of :mod:`repro.descend.api`: requests
go through one process-wide :class:`~repro.descend.api.LocalBackend`
(sharing one compile session across sub-commands and invocations) or, for
``client``, a :class:`~repro.descend.api.DescendClient` speaking to a
daemon.  ``--store PATH`` / ``REPRO_STORE`` and ``--timings`` are accepted
uniformly by every sub-command via shared parent parsers.
"""

from __future__ import annotations

import argparse
import json as _json
import os
import sys
import tempfile
from typing import Optional, Sequence

from repro.descend.api import (
    ERR_BAD_REQUEST,
    ERR_COMPILE,
    ERR_DEADLINE,
    ERR_INTERNAL,
    ERR_IO,
    ERR_MALFORMED,
    ERR_OVERLOADED,
    ERR_OVERSIZED,
    ERR_RETRIES_EXHAUSTED,
    ERR_SHUTTING_DOWN,
    ERR_SYNTAX,
    ERR_TYPE,
    ERR_UNKNOWN_OP,
    ERR_UNSUPPORTED_VERSION,
    OP_CACHE_STATS,
    OP_CHECK,
    OP_COMPILE,
    OP_HEALTH,
    OP_PING,
    OP_PLAN,
    OP_PRINT,
    OP_SHUTDOWN,
    DescendClient,
    LocalBackend,
    ProtocolError,
    Request,
    Response,
    RetryPolicy,
)
from repro.descend.driver import set_active_session
from repro.errors import DescendError

#: The backend shared by every sub-command of one CLI invocation (and, like
#: the old shared session, by repeated ``main()`` calls in one process).
_BACKEND = LocalBackend(label="cli")

#: Every structured error code maps to a distinct nonzero exit status so
#: shell callers can branch on *why* an operation failed without parsing
#: stderr.  1 and 2 keep their historical meanings (diagnosed program
#: error / bad usage); codes this table cannot name fall back to 1.
EXIT_CODES = {
    ERR_TYPE: 1,
    ERR_BAD_REQUEST: 2,
    ERR_SYNTAX: 3,
    ERR_COMPILE: 4,
    ERR_IO: 5,
    ERR_MALFORMED: 6,
    ERR_OVERSIZED: 7,
    ERR_UNSUPPORTED_VERSION: 8,
    ERR_UNKNOWN_OP: 9,
    ERR_OVERLOADED: 10,
    ERR_SHUTTING_DOWN: 11,
    ERR_INTERNAL: 12,
    ERR_RETRIES_EXHAUSTED: 13,
    ERR_DEADLINE: 14,
}


def exit_code(response: Response) -> int:
    """The process exit status for one API response (0 when ok)."""
    if response.ok:
        return 0
    return EXIT_CODES.get(response.error_code, 1)


def _default_socket() -> str:
    """Default daemon socket: ``REPRO_SOCKET`` or a per-user tmp path."""
    env = os.environ.get("REPRO_SOCKET")
    if env:
        return env
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), f"descendc-{uid}.sock")


def _store_path(args: argparse.Namespace) -> Optional[str]:
    """The persistent store path: ``--store`` wins over ``REPRO_STORE``."""
    return getattr(args, "store", None) or os.environ.get("REPRO_STORE") or None


def _print_timings(args: argparse.Namespace) -> None:
    if getattr(args, "timings", False):
        session = _BACKEND.session
        print(f"\npass timings ({session.label} session):", file=sys.stderr)
        print(session.timings_table(), file=sys.stderr)


def _print_response_failure(response: Response) -> int:
    """Render an error response the way the old one-shot CLI did."""
    for rendered in response.diagnostics:
        print(rendered, file=sys.stderr)
    if not response.diagnostics:
        print(f"error: {response.error_message}", file=sys.stderr)
    return exit_code(response)


def _emit(args: argparse.Namespace, response: Response) -> int:
    """Print one API response exactly like the local sub-commands do.

    Shared by the in-process commands and ``descendc client``, which is
    what keeps daemon output byte-identical to local output.
    """
    if getattr(args, "json", False):
        print(_json.dumps(response.to_wire(), indent=2))
        return exit_code(response)
    if not response.ok:
        return _print_response_failure(response)
    op = response.op
    if op == OP_CHECK:
        names = ", ".join(response.artifacts.get("functions", ()))
        print(f"ok: {args.file} type checks ({names})")
    elif op == OP_COMPILE:
        source = response.artifacts.get("cuda", "")
        output = getattr(args, "output", None)
        if output:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(source)
            print(f"wrote {output}")
        else:
            print(source)
    elif op == OP_PRINT:
        print(response.artifacts.get("source", ""))
    elif op == OP_PLAN:
        print(response.artifacts.get("ir", ""), end="")
    elif op == OP_CACHE_STATS:
        print(_json.dumps(response.artifacts, indent=2))
    elif op == OP_PING:
        artifacts = response.artifacts
        print(f"pong: pid {artifacts.get('pid')}, {artifacts.get('requests')} requests served")
    elif op == OP_HEALTH:
        print(_json.dumps(response.artifacts, indent=2))
    elif op == OP_SHUTDOWN:
        print("server stopping")
    return 0


def _file_request(op: str, args: argparse.Namespace) -> Request:
    options = {}
    if getattr(args, "no_opt", False):
        options["no_opt"] = True
    return Request(op=op, path=args.file, fun=getattr(args, "fun", None), options=options)


def cmd_check(args: argparse.Namespace) -> int:
    return _emit(args, _BACKEND.handle(_file_request(OP_CHECK, args)))


def cmd_compile(args: argparse.Namespace) -> int:
    return _emit(args, _BACKEND.handle(_file_request(OP_COMPILE, args)))


def cmd_print(args: argparse.Namespace) -> int:
    return _emit(args, _BACKEND.handle(_file_request(OP_PRINT, args)))


def cmd_plan(args: argparse.Namespace) -> int:
    return _emit(args, _BACKEND.handle(_file_request(OP_PLAN, args)))


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.descend.serve import CompileServer, ServeConfig

    store_path = _store_path(args)
    if args.store_http is not None and not store_path:
        print(
            "error: --store-http serves the attached artifact store; "
            "pass --store PATH or set REPRO_STORE",
            file=sys.stderr,
        )
        return 2
    config = ServeConfig(
        socket_path=args.socket,
        store_path=store_path,
        max_pending=args.max_pending,
        max_frame_bytes=args.max_frame_bytes,
        drain_timeout_s=args.drain_timeout,
        read_timeout_s=args.read_timeout if args.read_timeout > 0 else None,
        store_http_port=args.store_http,
        store_http_host=args.store_http_host,
    )
    server = CompileServer(_BACKEND, config)

    def ready() -> None:
        print(f"descendc serve: listening on {args.socket}", file=sys.stderr, flush=True)
        if server.store_url:
            print(f"descendc serve: store at {server.store_url}", file=sys.stderr, flush=True)

    try:
        asyncio.run(server.run(on_ready=ready))
    except OSError as exc:
        print(f"error: cannot serve on {args.socket!r}: {exc}", file=sys.stderr)
        return 2
    print("descendc serve: drained and stopped", file=sys.stderr)
    return 0


def cmd_sweep_worker(args: argparse.Namespace) -> int:
    from repro.benchsuite.dispatch import run_worker

    host, _, port = args.connect.rpartition(":")
    try:
        port_number = int(port)
    except ValueError:
        print(f"error: --connect wants HOST:PORT, got {args.connect!r}", file=sys.stderr)
        return 2
    try:
        return run_worker((host or "127.0.0.1", port_number), store_url=_store_path(args))
    except OSError as exc:
        print(f"error: cannot reach sweep coordinator at {args.connect!r}: {exc}", file=sys.stderr)
        return EXIT_CODES[ERR_IO]


def cmd_client(args: argparse.Namespace) -> int:
    op = args.op
    needs_file = op in (OP_CHECK, OP_COMPILE, OP_PRINT, OP_PLAN)
    if needs_file and not args.file:
        print(f"error: client op {op!r} requires a file argument", file=sys.stderr)
        return 2
    options = {"no_opt": True} if getattr(args, "no_opt", False) else {}
    if args.deadline_ms is not None:
        options["deadline_ms"] = args.deadline_ms
    # Send the program text inline (named after the local file): the daemon
    # needs no shared filesystem view, and the compile is cache-identical to
    # a local `descendc <op> <file>` run, which keys units by this name.
    source = None
    if needs_file:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            print(f"error: cannot read {args.file!r}: {exc}", file=sys.stderr)
            return 2
    request = Request(
        op=op,
        source=source,
        name=args.file if needs_file else None,
        fun=getattr(args, "fun", None),
        options=options,
    )
    retry = None
    if args.retries is not None:
        retry = RetryPolicy(max_attempts=max(1, args.retries))
    client = DescendClient(args.socket, timeout=args.timeout, retry=retry)
    # No eager connect: handle() owns connection + retry, so a daemon that
    # is briefly down or restarting is covered by the same backoff policy as
    # a dropped mid-request connection.  Idempotent ops come back as
    # structured responses either way; only non-retryable ops (shutdown)
    # can still raise here.
    try:
        response = client.handle(request)
    except (OSError, ProtocolError) as exc:
        print(f"error: cannot reach daemon at {args.socket!r}: {exc}", file=sys.stderr)
        return EXIT_CODES[ERR_IO]
    finally:
        client.close()
    if getattr(args, "timings", False) and response.pass_tiers:
        print("pass tiers (daemon):", file=sys.stderr)
        for pass_name, tiers in sorted(response.pass_tiers.items()):
            breakdown = ", ".join(f"{tier} {count}" for tier, count in sorted(tiers.items()))
            print(f"  {pass_name:<16} {breakdown}", file=sys.stderr)
    return _emit(args, response)


def cmd_figure8(args: argparse.Namespace) -> int:
    from repro.benchsuite import figure8

    forwarded = []
    if args.benchmarks:
        forwarded += ["--benchmarks", *args.benchmarks]
    if args.sizes:
        forwarded += ["--sizes", *args.sizes]
    if args.engine:
        forwarded += ["--engine", args.engine]
    if args.scale is not None:
        forwarded += ["--scale", str(args.scale)]
    if args.json:
        forwarded.append("--json")
    return figure8.main(forwarded)


def cmd_bench(args: argparse.Namespace) -> int:
    workload_flags = (
        args.descend or args.benchmarks or args.sizes or args.scales
        or args.scale is not None or args.jobs is not None or args.budget is not None
    )
    if args.compile and args.serve:
        print("error: --compile and --serve are mutually exclusive", file=sys.stderr)
        return 2
    if args.store_url and args.store:
        print("error: --store and --store-url are mutually exclusive", file=sys.stderr)
        return 2
    if args.compile:
        if workload_flags:
            print(
                "error: --compile benchmarks the compiler itself and does not take "
                "workload flags (--descend/--benchmarks/--sizes/--scales/--scale/"
                "--jobs/--budget); combine it only with --quick/--repeats/--output/--json",
                file=sys.stderr,
            )
            return 2
        from repro.benchsuite import compilebench

        forwarded = []
        if args.quick:
            forwarded.append("--quick")
        if args.repeats:
            forwarded += ["--repeats", str(args.repeats)]
        if args.output:
            forwarded += ["--output", args.output]
        if args.json:
            forwarded.append("--json")
        return compilebench.main(forwarded)

    if args.serve:
        if workload_flags:
            print(
                "error: --serve load-tests the compile-service daemon and does not "
                "take workload flags (--descend/--benchmarks/--sizes/--scales/"
                "--scale/--jobs/--budget); combine it only with "
                "--quick/--requests/--clients/--output/--json",
                file=sys.stderr,
            )
            return 2
        from repro.benchsuite import servebench

        forwarded = []
        if args.quick:
            forwarded.append("--quick")
        if args.requests is not None:
            forwarded += ["--requests", str(args.requests)]
        if args.clients is not None:
            forwarded += ["--clients", str(args.clients)]
        if args.output:
            forwarded += ["--output", args.output]
        if args.json:
            forwarded.append("--json")
        return servebench.main(forwarded)

    from repro.benchsuite import enginebench

    forwarded = []
    if args.benchmarks:
        forwarded += ["--benchmarks", *args.benchmarks]
    if args.sizes:
        forwarded += ["--sizes", *args.sizes]
    if args.quick:
        forwarded.append("--quick")
    if args.descend:
        forwarded.append("--descend")
    if args.scales:
        forwarded += ["--scales", *[str(s) for s in args.scales]]
    if args.scale is not None:
        forwarded += ["--scale", str(args.scale)]
    if args.repeats:
        forwarded += ["--repeats", str(args.repeats)]
    if args.jobs is not None:
        forwarded += ["--jobs", str(args.jobs)]
    if args.budget is not None:
        forwarded += ["--budget", str(args.budget)]
    if args.store_url:
        forwarded += ["--store-url", args.store_url]
    else:
        store = _store_path(args)
        if store:
            forwarded += ["--store", store]
    if args.output:
        forwarded += ["--output", args.output]
    if args.json:
        forwarded.append("--json")
    return enginebench.main(forwarded)


def cmd_fuzz(args: argparse.Namespace) -> int:
    path = _store_path(args)
    if not args.http_backend:
        return _run_fuzz_command(args, path)

    # --http-backend: persist the campaign's artifacts through the HTTP
    # store protocol instead of the local-dir backend — an in-process
    # daemon serves the --store directory on an ephemeral port and the
    # fuzzer attaches to its URL (same store, remote wire path).
    from repro.descend.store import is_store_url

    if not path:
        print(
            "error: --http-backend needs a store; pass --store PATH or set REPRO_STORE",
            file=sys.stderr,
        )
        return 2
    if is_store_url(path):
        print(
            "error: --http-backend serves a local store directory over HTTP; "
            "--store is already a URL",
            file=sys.stderr,
        )
        return 2
    from repro.descend.serve import ServeConfig, ServerThread

    socket_path = os.path.join(
        tempfile.mkdtemp(prefix="descendc-fuzz-http-"), "serve.sock"
    )
    config = ServeConfig(socket_path, store_path=path, store_http_port=0)
    try:
        thread = ServerThread(LocalBackend(label="fuzz-http"), config).start()
    except (OSError, RuntimeError) as exc:
        print(f"error: cannot serve store {path!r} over HTTP: {exc}", file=sys.stderr)
        return 2
    try:
        return _run_fuzz_command(args, thread.store_url)
    finally:
        thread.stop()


def _run_fuzz_command(args: argparse.Namespace, path: Optional[str]) -> int:
    from repro.fuzz import run_fuzz, run_replay

    store = None
    if path:
        try:
            from repro.descend.store import ArtifactStore

            store = ArtifactStore(path)
        except OSError as exc:
            print(f"error: cannot open artifact store {path!r}: {exc}", file=sys.stderr)
            return 2

    if args.replay:
        if store is None:
            print(
                "error: --replay needs a store; pass --store PATH or set REPRO_STORE",
                file=sys.stderr,
            )
            return 2
        report = run_replay(store)
        if args.json:
            print(_json.dumps(report, indent=2, sort_keys=True))
        else:
            print(f"replay: {report['checked']} repro(s), {report['reproduced']} reproduce")
            for entry in report["repros"]:
                status = "REPRODUCES" if entry["reproduced"] else "fixed"
                props = ", ".join(entry["failing"]) or "-"
                print(f"  {entry['digest'][:12]}  {status:<10} {entry['property']} ({props})")
        return 1 if report["reproduced"] else 0

    report = run_fuzz(
        seed=args.seed,
        count=args.count,
        max_dims=args.max_dims,
        store=store,
        shrink=not args.no_shrink,
    )
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            f"fuzz: seed {report['seed']}, {report['cases']} case(s): "
            f"{report['well_typed']} well-typed, {report['rejected']} rejected "
            f"({report['mutants_rejected']}/{report['mutants']} mutants)"
        )
        if report["error_codes"]:
            codes = ", ".join(
                f"{code} x{n}" for code, n in sorted(report["error_codes"].items())
            )
            print(f"  rejection codes: {codes}")
        if report["fallbacks"]:
            for key, n in sorted(report["fallbacks"].items()):
                print(f"  fallback: {key} x{n}")
        if report["violations"]:
            print(f"  {len(report['violations'])} property violation(s):")
            for violation in report["violations"]:
                print(
                    f"    case {violation['case']}: {violation['property']}: "
                    f"{violation['detail']}"
                )
            for repro in report["repros"]:
                digest = repro["digest"][:12] if repro["digest"] else "(not stored)"
                print(f"  minimized repro {digest}: {repro['property']}")
        else:
            print("  all properties held")
    return 0 if report["ok"] else 1


def cmd_cache(args: argparse.Namespace) -> int:
    path = _store_path(args)
    if not path:
        print(
            "error: no store selected; pass --store PATH or set REPRO_STORE",
            file=sys.stderr,
        )
        return 2
    try:
        from repro.descend.store import ArtifactStore

        store = ArtifactStore(path)
    except OSError as exc:
        print(f"error: cannot open artifact store {path!r}: {exc}", file=sys.stderr)
        return 2
    try:
        return _run_cache_command(args, store, path)
    except OSError as exc:
        # Remote (URL) stores can fail mid-operation; management commands
        # surface that instead of degrading like the compile path does.
        print(f"error: store operation failed on {path!r}: {exc}", file=sys.stderr)
        return EXIT_CODES[ERR_IO]


def _run_cache_command(args: argparse.Namespace, store, path: str) -> int:
    if args.cache_command == "stats":
        stats = store.stats()
        if args.json:
            print(_json.dumps(stats, indent=2))
        else:
            print(f"store {stats['root']} (schema {stats['schema']}, format {stats['format']})")
            print(
                f"  {stats['entries']} artifacts, {stats['total_bytes']} bytes "
                f"(budget {stats['max_bytes']})"
            )
            # Per-kind breakdown (program / failure / cuda / print / plan /
            # fuzz-repro): where the blobs and the bytes actually go.
            if stats["kinds"]:
                for kind, bucket in sorted(stats["kinds"].items()):
                    print(f"  {kind:<10} {bucket['count']:>5} blobs  {bucket['bytes']:>10} bytes")
            else:
                print("  (empty)")
    elif args.cache_command == "clear":
        store.clear()
        print(f"cleared store {path}")
    elif args.cache_command == "gc":
        summary = store.gc(max_bytes=args.max_bytes, quarantine_age_s=args.quarantine_age)
        if args.json:
            print(_json.dumps(summary, indent=2))
        else:
            print(
                f"gc: {summary['entries']} artifacts, {summary['total_bytes']} bytes "
                f"(budget {summary['max_bytes']})"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="descendc",
        description="Descend (PLDI 2024) reproduction: type check, compile and benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared parent parsers: every sub-command accepts --store/--timings
    # uniformly; the plan-shaped ones add --fun/--no-opt.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--timings", action="store_true",
        help="print the compile session's per-pass timing breakdown",
    )
    common.add_argument(
        "--store", default=None,
        help="attach a persistent artifact store at PATH (compiles warm across "
        "invocations; default: the REPRO_STORE environment variable)",
    )
    plan_opts = argparse.ArgumentParser(add_help=False)
    plan_opts.add_argument("--fun", default=None, help="disassemble only this GPU function")
    plan_opts.add_argument(
        "--no-opt", action="store_true", dest="no_opt",
        help="show the raw lowering, before the lower.plan.opt passes",
    )

    check = sub.add_parser(
        "check", parents=[common], help="parse and type check a .descend file"
    )
    check.add_argument("file")
    check.set_defaults(func=cmd_check, json=False)

    compile_ = sub.add_parser(
        "compile", parents=[common], help="emit CUDA C++ for a .descend file"
    )
    compile_.add_argument("file")
    compile_.add_argument("-o", "--output")
    compile_.set_defaults(func=cmd_compile, json=False)

    print_ = sub.add_parser(
        "print", parents=[common], help="pretty-print a .descend file"
    )
    print_.add_argument("file")
    print_.set_defaults(func=cmd_print, json=False)

    plan = sub.add_parser(
        "plan", parents=[common, plan_opts],
        help="disassemble the device-plan IR of a .descend file's GPU functions",
    )
    plan.add_argument("file")
    plan.set_defaults(func=cmd_plan, json=False)

    serve = sub.add_parser(
        "serve", parents=[common],
        help="run the compile-service daemon (API schema v1 over a local socket)",
    )
    serve.add_argument(
        "--socket", default=_default_socket(),
        help="unix socket path to listen on (default: REPRO_SOCKET or a tmp path)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=64,
        help="bound on queued compile requests before clients get `overloaded`",
    )
    serve.add_argument(
        "--max-frame-bytes", type=int, default=8 * 1024 * 1024,
        help="bound on one newline-delimited JSON protocol frame",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=10.0,
        help="graceful-shutdown bound on waiting for in-flight requests (seconds)",
    )
    serve.add_argument(
        "--read-timeout", type=float, default=300.0,
        help="per-connection idle bound between request frames (seconds); "
        "0 disables the idle kick",
    )
    serve.add_argument(
        "--store-http", type=int, default=None, metavar="PORT", dest="store_http",
        help="also serve the attached artifact store over HTTP on this TCP port "
        "(0 picks an ephemeral port) for remote sweep workers and clients",
    )
    serve.add_argument(
        "--store-http-host", default="127.0.0.1", dest="store_http_host",
        help="interface the HTTP store endpoint binds (default: 127.0.0.1)",
    )
    serve.set_defaults(func=cmd_serve)

    sweep_worker = sub.add_parser(
        "sweep-worker", parents=[common],
        help="join a distributed bench sweep as a pull-based worker process",
    )
    sweep_worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="address of the sweep coordinator (printed by `descendc bench --jobs N "
        "--store-url URL`, or passed out-of-band for remote machines)",
    )
    sweep_worker.set_defaults(func=cmd_sweep_worker)

    client = sub.add_parser(
        "client", parents=[common, plan_opts],
        help="run one operation against a running compile-service daemon",
    )
    client.add_argument(
        "op",
        choices=(
            OP_CHECK, OP_COMPILE, OP_PRINT, OP_PLAN,
            OP_CACHE_STATS, OP_PING, OP_HEALTH, OP_SHUTDOWN,
        ),
    )
    client.add_argument("file", nargs="?")
    client.add_argument(
        "--socket", default=_default_socket(),
        help="unix socket path of the daemon (default: REPRO_SOCKET or a tmp path)",
    )
    client.add_argument("-o", "--output", help="write the compile op's CUDA here")
    client.add_argument("--timeout", type=float, default=60.0)
    client.add_argument(
        "--retries", type=int, default=None,
        help="attempts per idempotent op before a structured retries-exhausted "
        "error (default 3; 1 disables retrying)",
    )
    client.add_argument(
        "--deadline-ms", type=int, default=None, dest="deadline_ms",
        help="server-side queueing deadline: the daemon answers deadline-exceeded "
        "instead of compiling if the request waited longer than this",
    )
    client.add_argument("--json", action="store_true", help="print the full response frame")
    client.set_defaults(func=cmd_client)

    cache = sub.add_parser("cache", help="manage the persistent artifact store")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", parents=[common], help="show store contents and counters"
    )
    cache_stats.add_argument("--json", action="store_true")
    cache_stats.set_defaults(func=cmd_cache)
    cache_clear = cache_sub.add_parser(
        "clear", parents=[common], help="delete every stored artifact"
    )
    cache_clear.set_defaults(func=cmd_cache)
    cache_gc = cache_sub.add_parser(
        "gc", parents=[common],
        help="reconcile the index with the blobs and enforce the size budget",
    )
    cache_gc.add_argument("--max-bytes", type=int, default=None)
    cache_gc.add_argument(
        "--quarantine-age", type=float, default=None, dest="quarantine_age",
        metavar="SECONDS",
        help="age past which quarantined (corrupt) blobs are deleted for good "
        "(default: REPRO_STORE_QUARANTINE_S or 3600)",
    )
    cache_gc.add_argument("--json", action="store_true")
    cache_gc.set_defaults(func=cmd_cache)

    fuzz = sub.add_parser(
        "fuzz", parents=[common],
        help="run the seed-driven differential fuzzer over generated programs",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed; (seed, count, max-dims) fully determine the report",
    )
    fuzz.add_argument(
        "--count", type=int, default=100, help="number of random cases to generate"
    )
    fuzz.add_argument(
        "--max-dims", type=int, default=16, dest="max_dims",
        help="upper bound on the generated block size",
    )
    fuzz.add_argument(
        "--replay", action="store_true",
        help="re-check every fuzz-repro artifact in the store instead of fuzzing",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true", dest="no_shrink",
        help="persist failing cases unminimized (faster on pervasive failures)",
    )
    fuzz.add_argument(
        "--http-backend", action="store_true", dest="http_backend",
        help="persist the campaign's repro artifacts through the HTTP store "
        "protocol (an in-process daemon serves --store on an ephemeral port)",
    )
    fuzz.add_argument("--json", action="store_true", help="print the full report")
    fuzz.set_defaults(func=cmd_fuzz)

    fig8 = sub.add_parser(
        "figure8", parents=[common], help="run the Figure 8 benchmark harness"
    )
    fig8.add_argument("--benchmarks", nargs="*")
    fig8.add_argument("--sizes", nargs="*")
    fig8.add_argument("--engine", choices=("reference", "vectorized"))
    fig8.add_argument(
        "--scale", type=int, default=None,
        help="workload scale factor (overrides REPRO_SCALE without touching the environment)",
    )
    fig8.add_argument("--json", action="store_true")
    fig8.set_defaults(func=cmd_figure8)

    bench = sub.add_parser(
        "bench", parents=[common],
        help="benchmark the reference vs the vectorized execution engine",
    )
    bench.add_argument("--benchmarks", nargs="*")
    bench.add_argument("--sizes", nargs="*")
    bench.add_argument("--quick", action="store_true", help="CI smoke subset (small sizes)")
    bench.add_argument(
        "--descend", action="store_true",
        help="benchmark the Descend programs (device-plan backend) instead of CUDA-lite",
    )
    bench.add_argument(
        "--compile", action="store_true",
        help="benchmark compile time instead: staged driver passes, cold vs cached "
        "(writes BENCH_compile_time.json)",
    )
    bench.add_argument(
        "--serve", action="store_true",
        help="load-test the compile-service daemon instead: requests/s and p50/p99 "
        "latency, cold vs warm store (writes BENCH_serve_throughput.json)",
    )
    bench.add_argument(
        "--requests", type=int, default=None,
        help="total requests per --serve phase (default 200; --quick: 60)",
    )
    bench.add_argument(
        "--clients", type=int, default=None,
        help="concurrent client connections for --serve (default 4)",
    )
    bench.add_argument(
        "--scales", nargs="*", type=int,
        help="workload scales for --descend (default rows: small x 1/4/8 + medium x 8)",
    )
    bench.add_argument("--scale", type=int, default=None, help="workload scale (CUDA-lite variant)")
    bench.add_argument("--repeats", type=int)
    bench.add_argument(
        "--jobs", type=int, default=None,
        help="shard the sweep across N worker processes (default: serial)",
    )
    bench.add_argument(
        "--budget", type=float, default=None,
        help="per-row wall-clock budget (seconds) for the reference-engine column "
        "of the Descend sweep; over-budget rows record it as skipped",
    )
    bench.add_argument(
        "--store-url", default=None, dest="store_url", metavar="URL",
        help="attach the sweep to a daemon's HTTP store endpoint and dispatch "
        "--jobs N cells to worker processes with pull-based work stealing",
    )
    bench.add_argument("--output", help="path of the BENCH_*.json report")
    bench.add_argument("--json", action="store_true")
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Attach (or detach) the persistent artifact store for this invocation;
    # `cache` manages the store directly, `client` defers to the daemon's,
    # and `sweep-worker` attaches per-cell inside its run loop.
    if args.command not in ("cache", "client", "sweep-worker"):
        path = _store_path(args)
        try:
            _BACKEND.attach_store_path(path)
        except OSError as exc:
            print(f"error: cannot open artifact store {path!r}: {exc}", file=sys.stderr)
            return 2
    # Install the backend's session as the process-wide one so every consumer
    # the sub-commands touch (interpreter launches, benchsuite sweeps,
    # the daemon's worker) shares it.
    previous = set_active_session(_BACKEND.session)
    try:
        result = args.func(args)
        _print_timings(args)
        return result
    except DescendError as exc:  # pragma: no cover - defensive top-level handler
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        set_active_session(previous)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
