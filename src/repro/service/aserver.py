"""Asyncio JSON-lines front end for the multi-tenant registry.

The ``repro serve`` server: ``asyncio.start_server`` accepts any
number of concurrent connections on one thread, parses frames on the event
loop, and runs sketch work (ingest, solve, checkpoint) in worker threads
via ``asyncio.to_thread``.  Serialization is **per tenant**, not global —
each tenant's own service lock orders its mutations, the registry's pins
keep eviction away from in-flight operations, and queries solve on a
version-keyed snapshot outside the ingest lock, so one tenant's expensive
solve never stalls another tenant's (or its own) ingest.

Wire compatibility: the optional ``stream_id`` field routes each request
to a named tenant and the ``tenants`` op lists them.  A request without
``stream_id`` addresses the ``"default"`` tenant, so pre-tenant clients
work unchanged.
"""

from __future__ import annotations

import asyncio
import threading

from repro.service.engine import ServiceConfig, check_capacity_slack
from repro.service.faults import active_plan, fault_point
from repro.service.protocol import (
    DEFAULT_MAX_REQUEST_BYTES,
    MAX_LINE_BYTES,
    IdempotencyCache,
    ProtocolError,
    decode_line,
    degraded_response,
    encode_message,
    error_response,
    ok_response,
    parse_idempotency,
    parse_points,
    parse_stream_id,
)
from repro.service.tenants import (
    QuotaExceeded,
    TenantDegraded,
    TenantQuota,
    TenantRegistry,
)
from repro.utils.validation import FailedConstruction

__all__ = ["AsyncClusteringServer", "start_async_server", "serve_forever_async"]


class AsyncClusteringServer:
    """One asyncio listener over one :class:`TenantRegistry`."""

    def __init__(self, registry: TenantRegistry, host: str = "127.0.0.1",
                 port: int = 0, max_request_bytes: int | None = None):
        self.registry = registry
        self._host = host
        self._port = port
        if max_request_bytes is None:
            max_request_bytes = DEFAULT_MAX_REQUEST_BYTES
        self.max_request_bytes = min(int(max_request_bytes), MAX_LINE_BYTES)
        if self.max_request_bytes < 1024:
            raise ValueError("max_request_bytes must be at least 1 KiB")
        self.address: tuple[str, int] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stop_event: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._idem = IdempotencyCache()

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        """Bind the listening socket; sets :attr:`address`."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        # The reader limit enforces the per-connection request-line cap at
        # the transport: a client that never sends a newline cannot grow
        # server memory past it (readline raises instead).
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port,
            limit=self.max_request_bytes)
        self.address = self._server.sockets[0].getsockname()[:2]

    async def wait_stopped(self) -> None:
        """Block until a ``shutdown`` op (or :meth:`shutdown`) fires, then
        close the listener."""
        await self._stop_event.wait()
        self._server.close()
        await self._server.wait_closed()

    async def serve(self, ready: threading.Event | None = None) -> None:
        """Start and serve until stopped (``ready`` is set after bind)."""
        await self.start()
        if ready is not None:
            ready.set()
        await self.wait_stopped()

    def shutdown(self) -> None:
        """Request a stop from any thread (idempotent)."""
        loop, stop = self._loop, self._stop_event
        if loop is not None and stop is not None:
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:  # loop closed: the server already stopped
                pass

    # ------------------------------------------------------------ connection
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Over-long frame: answer with a protocol error, then
                    # close — truncated mid-frame there is no way to
                    # resynchronize on the next request boundary.
                    writer.write(encode_message(error_response(
                        f"request line exceeds {self.max_request_bytes} "
                        "bytes; chunk ingest batches client-side")))
                    await writer.drain()
                    return
                if not line:
                    return
                if not line.strip():
                    continue
                response, stop, op = await self._dispatch(line)
                if response is None:
                    # Injected connection reset: if the request executed,
                    # its effects stand — only the reply is lost, exactly
                    # like a real mid-reply connection failure.
                    return
                act = fault_point("server.slow", op=op)
                if act is not None:
                    await asyncio.sleep(act.delay_s)
                frame = encode_message(response)
                act = fault_point("server.short", op=op)
                if act is not None:
                    # Truncated reply: the client reads garbage JSON and
                    # must treat the connection as poisoned.
                    writer.write(frame[: max(1, len(frame) // 2)])
                    await writer.drain()
                    return
                writer.write(frame)
                await writer.drain()
                if stop:
                    # Response is flushed; now let serve() unwind.
                    self._stop_event.set()
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-frame; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # -------------------------------------------------------------- dispatch
    async def _dispatch(self, line: bytes) -> tuple[dict | None, bool, str | None]:
        """Route one request line; returns (response, stop_server, op).

        A ``None`` response asks the connection handler to drop the link
        without replying (the injected ``server.reset`` fault): ``"pre"``
        mode drops the request before execution, the default drops only
        the reply *after* the request took effect — the case idempotent
        retries exist for.
        """
        op: str | None = None
        try:
            req = decode_line(line)
            op = req["op"]
            reset = fault_point("server.reset", op=op)
            if reset is not None and reset.mode == "pre":
                return None, False, op
            response, stop = await self._execute(req)
            if reset is not None:
                return None, False, op
            return response, stop, op
        except ProtocolError as exc:
            return error_response(str(exc)), False, op
        except TenantDegraded as exc:
            return degraded_response(exc.stream_id, exc.retry_after_s,
                                     str(exc)), False, op
        except QuotaExceeded as exc:
            return error_response(f"quota exceeded: {exc}"), False, op
        except FailedConstruction as exc:
            return error_response(f"construction failed: {exc.reason}"), False, op
        except Exception as exc:  # surface, don't kill the connection
            return error_response(f"{type(exc).__name__}: {exc}"), False, op

    async def _execute(self, req: dict) -> tuple[dict, bool]:
        registry = self.registry
        op = req["op"]
        if op == "ping":
            return ok_response(pong=True), False
        if op == "shutdown":
            return ok_response(stopping=True), True
        if op == "tenants":
            # One hop off the loop for both registry reads: overview() and
            # live_count() take the registry lock, which an evicting thread
            # may hold while checkpointing a tenant to disk.
            live_only = bool(req.get("live_only", False))

            def _tenants_payload():
                return registry.overview(live_only=live_only), registry.live_count()

            rows, live = await asyncio.to_thread(_tenants_payload)
            return ok_response(
                tenants=rows,
                live=live,
                max_live_tenants=registry.max_live_tenants,
                eviction_failures=list(registry.eviction_failures),
            ), False
        stream_id = parse_stream_id(req)
        if op in ("insert", "delete"):
            idem = parse_idempotency(req)
            if idem is not None:
                cached = self._idem.check(*idem)
                if cached is not None:
                    # A retry of a mutation we already applied: answer from
                    # the cache, touch nothing — no double count.
                    return cached, False

            def parse(params):
                # Validated against the addressed tenant's own shape: a
                # restored tenant may differ from the server's flags.
                return parse_points(req, params.d, params.delta)

            fn = registry.insert if op == "insert" else registry.delete
            payload = await asyncio.to_thread(fn, stream_id, parse)
            response = ok_response(stream_id=stream_id, **payload)
            if idem is not None:
                self._idem.record(idem[0], idem[1], response)
            return response, False
        if op == "query":
            slack = req.get("capacity_slack")
            if slack is not None:
                # Rejected here, before any tenant lease: a bad slack is a
                # malformed request, not a tenant failure.
                try:
                    slack = check_capacity_slack(slack)
                except (TypeError, ValueError) as exc:
                    raise ProtocolError(str(exc)) from None
            result, hit = await asyncio.to_thread(
                registry.query, stream_id, slack)
            return ok_response(stream_id=stream_id, result=result.to_dict(),
                               cache_hit=hit), False
        if op == "checkpoint":
            if not req.get("path"):
                raise ProtocolError("'checkpoint' needs a 'path'")
            info = await asyncio.to_thread(
                registry.checkpoint, stream_id, req["path"])
            return ok_response(stream_id=stream_id, **info), False
        if op == "restore":
            if not req.get("path"):
                raise ProtocolError("'restore' needs a 'path'")
            info = await asyncio.to_thread(
                registry.restore, stream_id, req["path"])
            return ok_response(stream_id=stream_id, **info), False
        if op == "pull_state":
            # Coordinator-fleet read: the tenant's full checkpoint envelope,
            # serialized in the reply instead of written to disk.
            state = await asyncio.to_thread(registry.pull_state, stream_id)
            return ok_response(stream_id=stream_id, state=state), False
        if op == "site_stats":
            site = await asyncio.to_thread(registry.site_stats, stream_id)
            return ok_response(stream_id=stream_id, site=site), False
        if op == "stats":
            stats = await asyncio.to_thread(registry.stats, stream_id)
            plan = active_plan()
            if plan is not None:
                stats["fault_plan"] = dict(plan.summary(),
                                           fire_counts=plan.fire_counts())
            return ok_response(stats=stats), False
        raise ProtocolError(f"unhandled op {op!r}")  # unreachable; decode_line vets


def start_async_server(registry: TenantRegistry, host: str = "127.0.0.1",
                       port: int = 0, max_request_bytes: int | None = None,
                       ) -> tuple[AsyncClusteringServer, threading.Thread]:
    """Serve in a daemon thread running its own event loop; returns
    ``(server, thread)`` once the socket is bound.

    For tests and embedders: drive it with :class:`ServiceClient` from any
    thread, stop it with ``server.shutdown()``.
    """
    server = AsyncClusteringServer(registry, host, port,
                                   max_request_bytes=max_request_bytes)
    ready = threading.Event()
    errors: list[BaseException] = []

    def _run() -> None:
        try:
            asyncio.run(server.serve(ready=ready))
        except BaseException as exc:  # surface bind failures to the caller
            errors.append(exc)
        finally:
            ready.set()

    thread = threading.Thread(target=_run, daemon=True, name="repro-aserver")
    thread.start()
    ready.wait(30.0)
    if errors:
        raise errors[0]
    if server.address is None:
        raise RuntimeError("async server failed to start within 30s")
    return server, thread


def serve_forever_async(config: ServiceConfig, host: str, port: int, *,
                        tenants_dir=None, max_live_tenants: int | None = None,
                        quota: TenantQuota | None = None,
                        restore_path=None,
                        max_request_bytes: int | None = None) -> None:
    """Blocking entry point used by ``repro serve``."""
    registry = TenantRegistry(config, tenants_dir=tenants_dir,
                              max_live_tenants=max_live_tenants, quota=quota)
    try:
        if restore_path:
            info = registry.restore("default", restore_path)
            print(f"restored default tenant from {restore_path} "
                  f"(version {info['version']}, {info['events']} events)",
                  flush=True)
        server = AsyncClusteringServer(registry, host, port,
                                       max_request_bytes=max_request_bytes)

        async def _main() -> None:
            await server.start()
            addr = server.address
            budget = (f"max_live_tenants={max_live_tenants}"
                      if max_live_tenants is not None else "unbounded tenants")
            where = (f", tenants_dir={tenants_dir}"
                     if tenants_dir is not None else "")
            print(f"repro service listening on {addr[0]}:{addr[1]} "
                  f"(async multi-tenant, k={config.k}, d={config.d}, "
                  f"delta={config.delta}, {budget}{where}, "
                  f"backend={config.backend})", flush=True)
            await server.wait_stopped()

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            print("shutting down", flush=True)
    finally:
        # Persists every live tenant when a tenants_dir is configured, so a
        # restarted server restores its population on touch.
        registry.close()
