//! `fairschedd`'s serving loop: a TCP listener feeding a bounded accept
//! queue, a fixed worker pool serving keep-alive connections, and the
//! route table mapping HTTP requests onto [`Session`] calls through the
//! [`SessionRegistry`].
//!
//! Routes (all under `/v1`; every session route also exists under
//! `/v1/sessions/{name}/...`, the unprefixed form aliases the default
//! session):
//!
//! | Method | Path                  | Meaning                                    |
//! |--------|-----------------------|--------------------------------------------|
//! | POST   | `/v1/jobs`            | Submit a job (batched under contention)    |
//! | GET    | `/v1/status`          | Live session status                        |
//! | POST   | `/v1/advance`         | Grant simulated time (manual clocks)       |
//! | POST   | `/v1/tick`            | Advance to the clock target (realtime)     |
//! | GET    | `/v1/trace`           | Stream trace records as JSONL until sealed |
//! | GET    | `/v1/explain/{id}`    | Live wait decomposition for one job        |
//! | GET    | `/v1/profile`         | Where scheduling time has gone so far      |
//! | POST   | `/v1/seal`            | Play out remaining events, final summary   |
//! | POST   | `/v1/shutdown`        | Seal every session and stop the listener   |
//! | GET    | `/v1/fairness`        | Live fairness snapshot (JSON)              |
//! | GET    | `/v1/sessions`        | List sessions with status                  |
//! | POST   | `/v1/sessions`        | Create a named session                     |
//! | GET    | `/v1/sessions/{name}` | One session's status                       |
//! | DELETE | `/v1/sessions/{name}` | Delete a session (and its journal)         |
//! | GET    | `/metrics`            | Prometheus text exposition                 |
//!
//! ## Threading model
//!
//! One reactor thread blocks in `poll(2)`, with no timeout, on the
//! listener, a wake-up socket and every idle keep-alive connection, and
//! moves a connection that turns readable (or hangs up) to the queue the
//! [`DaemonConfig::workers`] pool threads wait on. A worker serves every
//! request already buffered on the connection, then hands it back to the
//! reactor with one wake-up byte: quiet submitters cannot pin the pool,
//! and an idle daemon burns no CPU. When open connections (watched plus
//! queued) reach [`DaemonConfig::queue_capacity`] the daemon answers `503`
//! and closes — backpressure is explicit, never an unbounded thread spawn.
//! Trace streams live as long as the session, so they are handed to
//! detached threads instead of occupying a pool worker. Under a realtime
//! clock one heartbeat thread ticks every session each 20 ms.
//!
//! The daemon is deterministic where it matters: all scheduling state
//! sits behind each session's mutex, so any interleaving of concurrent
//! requests linearizes into some valid grant/submit order — and the
//! monotonic-submission rule guarantees every such order yields the
//! same schedule as the equivalent batch run.

use crate::api::{ServeError, SessionSpec};
use crate::clock::ClockMode;
use crate::http::{read_request, write_response, write_stream_header, Request};
use crate::metrics::{route_label, ServiceMetrics};
use crate::registry::SessionRegistry;
use crate::session::{Session, SessionConfig};
use crate::{api, SubmitRequest};
use fairsched_obs::json::{parse, Json};
use fairsched_workload::job::JobId;
use std::collections::VecDeque;
use std::ffi::{c_int, c_short};
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the daemon runs: the default session's configuration plus the
/// serving and durability knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Configuration for the default session, and the template sessions
    /// created over the API inherit from.
    pub session: SessionConfig,
    /// Pool threads serving requests.
    pub workers: usize,
    /// Open connections (idle keep-alive plus waiting for a worker)
    /// before the daemon answers new ones with `503`.
    pub queue_capacity: usize,
    /// Where per-session durability journals live; `None` disables
    /// journaling.
    pub journal_dir: Option<PathBuf>,
    /// Rebuild sessions from the journals in `journal_dir` instead of
    /// starting fresh.
    pub recover: bool,
}

impl DaemonConfig {
    /// Serving defaults around a session configuration: 8 workers, at
    /// most 1024 open connections, no journaling.
    pub fn new(session: SessionConfig) -> DaemonConfig {
        DaemonConfig {
            session,
            workers: 8,
            queue_capacity: 1024,
            journal_dir: None,
            recover: false,
        }
    }
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig::new(SessionConfig::default())
    }
}

/// One accepted connection: a buffered reader whose inner stream is
/// also the write half.
type Conn = BufReader<TcpStream>;

/// The hand-off between the reactor and the worker pool: connections
/// ready to serve, connections handed back to be watched, and the
/// wake-up socket pair that interrupts the reactor's `poll`.
struct ConnQueue {
    state: Mutex<QueueState>,
    available: Condvar,
    wake_rx: UnixStream,
    wake_tx: UnixStream,
    stop: AtomicBool,
    capacity: usize,
    busy: AtomicU64,
}

#[derive(Default)]
struct QueueState {
    /// Readable connections waiting for a worker.
    ready: VecDeque<Conn>,
    /// Served connections waiting for the reactor to watch them again.
    idle: Vec<Conn>,
    /// The reactor has exited: workers stop once `ready` drains, and
    /// handed-back connections are closed.
    closed: bool,
}

impl ConnQueue {
    fn new(capacity: usize) -> std::io::Result<ConnQueue> {
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        Ok(ConnQueue {
            state: Mutex::new(QueueState::default()),
            available: Condvar::new(),
            wake_rx,
            wake_tx,
            stop: AtomicBool::new(false),
            capacity: capacity.max(1),
            busy: AtomicU64::new(0),
        })
    }

    fn push(&self, conn: Conn) {
        self.lock().ready.push_back(conn);
        self.available.notify_one();
    }

    /// Blocks for the next readable connection; `None` once the reactor
    /// has exited and the queue has drained (workers finish queued work
    /// before exiting).
    fn pop(&self) -> Option<Conn> {
        let mut state = self.lock();
        loop {
            if let Some(conn) = state.ready.pop_front() {
                return Some(conn);
            }
            if state.closed {
                return None;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Returns a served keep-alive connection to the reactor, or closes
    /// it once the reactor is gone.
    fn hand_back(&self, conn: Conn) {
        let mut state = self.lock();
        if !state.closed {
            state.idle.push(conn);
            self.wake();
        }
    }

    /// Flags the daemon down and wakes the reactor so it sees the flag.
    fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake();
    }

    fn wake(&self) {
        // Non-blocking: when the socket is full a wake-up is already
        // pending.
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// Marks the reactor gone: closes handed-back connections and
    /// releases idle workers.
    fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        state.idle.clear();
        self.available.notify_all();
    }

    fn depth(&self) -> u64 {
        self.lock().ready.len() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A running daemon: the session registry plus the reactor's, worker
/// pool's and realtime heartbeat's lifecycle.
pub struct Daemon {
    registry: Arc<SessionRegistry>,
    default_session: Arc<Session>,
    metrics: Arc<ServiceMetrics>,
    addr: std::net::SocketAddr,
    queue: Arc<ConnQueue>,
    reactor: Option<JoinHandle<()>>,
    /// The worker pool and, under a realtime clock, the heartbeat.
    threads: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Binds `addr` (use port 0 for an OS-assigned free port) and starts
    /// serving with default pool settings and no journaling.
    pub fn start(addr: &str, cfg: SessionConfig) -> Result<Daemon, ServeError> {
        Daemon::start_with(addr, DaemonConfig::new(cfg))
    }

    /// Binds `addr` and starts the reactor, the worker pool and, for
    /// realtime clocks, the heartbeat.
    pub fn start_with(addr: &str, cfg: DaemonConfig) -> Result<Daemon, ServeError> {
        let metrics = Arc::new(ServiceMetrics::new());
        let registry = match (&cfg.journal_dir, cfg.recover) {
            (Some(dir), true) => {
                SessionRegistry::recover(cfg.session.clone(), dir, Arc::clone(&metrics))?
            }
            _ => SessionRegistry::new(
                cfg.session.clone(),
                cfg.journal_dir.clone(),
                Arc::clone(&metrics),
            )?,
        };
        let registry = Arc::new(registry);
        let default_session = registry.default_session();
        let listener = TcpListener::bind(addr)?;
        // std's 128-connection backlog overflows under a burst of submitters
        // and the kernel resets the excess: raise it to the kernel maximum.
        // SAFETY: listen(2) on a bound socket only resizes its backlog.
        if unsafe { listen(listener.as_raw_fd(), c_int::MAX) } < 0 {
            return Err(std::io::Error::last_os_error().into());
        }
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let queue = Arc::new(ConnQueue::new(cfg.queue_capacity)?);

        let reactor = {
            let (queue, metrics) = (Arc::clone(&queue), Arc::clone(&metrics));
            spawn("fairschedd-reactor".into(), move || {
                reactor_loop(&listener, &queue, &metrics)
            })?
        };
        let mut threads = Vec::new();
        for i in 0..cfg.workers.max(1) {
            let (queue, metrics) = (Arc::clone(&queue), Arc::clone(&metrics));
            let registry = Arc::clone(&registry);
            threads.push(spawn(format!("fairschedd-worker-{i}"), move || {
                worker_loop(&queue, &registry, &metrics)
            })?);
        }
        // Realtime clocks need a heartbeat: events only play out when time
        // is granted, so tick every session, named ones included, until
        // shutdown.
        if let ClockMode::Realtime { .. } = cfg.session.clock {
            let (queue, registry) = (Arc::clone(&queue), Arc::clone(&registry));
            threads.push(spawn("fairschedd-heartbeat".into(), move || {
                while !queue.stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(20));
                    for session in registry.sessions() {
                        let _ = session.tick();
                    }
                }
            })?);
        }

        Ok(Daemon {
            registry,
            default_session,
            metrics,
            addr: local,
            queue,
            reactor: Some(reactor),
            threads,
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The default session, for in-process use (tests, `quickserve`).
    pub fn session(&self) -> &Arc<Session> {
        &self.default_session
    }

    /// The session registry behind the daemon.
    pub fn registry(&self) -> &Arc<SessionRegistry> {
        &self.registry
    }

    /// The daemon-wide metrics registry.
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        &self.metrics
    }

    /// Blocks until `POST /v1/shutdown` (or [`Daemon::shutdown`]) stops
    /// the reactor; [`Daemon::shutdown`] then drains the pool.
    pub fn wait(&mut self) {
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
    }

    /// Graceful drain: stops accepting, lets the pool finish queued and
    /// in-flight requests (idle keep-alive connections are closed), and
    /// joins every thread. Does not seal sessions; callers decide
    /// whether to finish the schedules.
    pub fn shutdown(&mut self) {
        self.queue.stop();
        self.wait();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn spawn(name: String, body: impl FnOnce() + Send + 'static) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name).spawn(body)
}

/// `struct pollfd` from `<poll.h>`: `(fd, events, revents)`.
#[repr(C)]
struct PollFd(c_int, c_short, c_short);

const POLLIN: c_short = 0x1;

#[cfg(target_os = "linux")]
type NFds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NFds = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
}

/// The reactor: blocks in `poll(2)` on the listener, the wake-up socket
/// and every idle connection, and moves each connection that turns
/// readable (or hangs up) to the worker queue. Exits once the stop flag
/// is set, closing the connections it still watches.
fn reactor_loop(listener: &TcpListener, queue: &ConnQueue, metrics: &ServiceMetrics) {
    let mut watched: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    while !queue.stop.load(Ordering::SeqCst) {
        fds.clear();
        let conns = watched.iter().map(|conn| conn.get_ref().as_raw_fd());
        let all = [listener.as_raw_fd(), queue.wake_rx.as_raw_fd()].into_iter();
        fds.extend(all.chain(conns).map(|fd| PollFd(fd, POLLIN, 0)));
        // SAFETY: `fds` is an exclusively borrowed, initialized array of
        // `fds.len()` pollfd structs that outlives the call.
        if unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, -1) } < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                continue;
            }
            fairsched_obs::log::warn(format!("poll failed: {err}"));
            break;
        }
        // Walk backwards so `swap_remove` only moves visited entries.
        for i in (0..watched.len()).rev() {
            if fds[i + 2].2 != 0 {
                queue.push(watched.swap_remove(i));
            }
        }
        if fds[1].2 != 0 {
            let mut sink = [0u8; 64];
            while matches!((&queue.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
            watched.append(&mut queue.lock().idle);
        }
        if fds[0].2 != 0 {
            accept_pending(listener, &mut watched, queue, metrics);
        }
    }
    queue.close();
}

/// Accepts every pending connection and watches it, or answers `503`
/// when open connections (watched plus queued) already fill the
/// capacity: backpressure is explicit rather than unbounded growth.
fn accept_pending(
    listener: &TcpListener,
    watched: &mut Vec<Conn>,
    queue: &ConnQueue,
    metrics: &ServiceMetrics,
) {
    while let Ok((mut stream, _)) = listener.accept() {
        if watched.len() + queue.depth() as usize >= queue.capacity {
            let body = Json::obj([
                ("error", Json::Str("overloaded".into())),
                ("detail", Json::Str("connection capacity full".into())),
            ]);
            let _ = write_response(&mut stream, 503, "application/json", &body.render(), true);
            metrics.observe_request("other", 503, 0);
            continue;
        }
        // Some platforms hand out accepted sockets with the listener's
        // non-blocking flag; workers read blocking.
        if stream.set_nonblocking(false).is_ok() {
            watched.push(BufReader::new(stream));
        }
    }
}

fn worker_loop(queue: &ConnQueue, registry: &SessionRegistry, metrics: &ServiceMetrics) {
    while let Some(conn) = queue.pop() {
        queue.busy.fetch_add(1, Ordering::SeqCst);
        let idle = serve_ready(conn, registry, metrics, queue);
        queue.busy.fetch_sub(1, Ordering::SeqCst);
        if let Some(conn) = idle {
            queue.hand_back(conn);
        }
    }
}

/// Serves requests on a readable connection until none is buffered
/// (returned for the reactor to watch), or it closes, errors, or
/// upgrades to a trace stream.
fn serve_ready(
    mut conn: Conn,
    registry: &SessionRegistry,
    metrics: &ServiceMetrics,
    queue: &ConnQueue,
) -> Option<Conn> {
    loop {
        let req = match read_request(&mut conn) {
            Ok(Some(req)) => req,
            Ok(None) => return None,
            Err(e) => {
                let err = ServeError::BadRequest {
                    detail: e.to_string(),
                };
                let _ = write_response(
                    conn.get_mut(),
                    err.status(),
                    "application/json",
                    &err.to_json().render(),
                    true,
                );
                return None;
            }
        };
        let started = Instant::now();
        let label = route_label(&req.path);
        // Resolve the target session and the session-relative path.
        let (status, content_type, body) = match resolve(&req.path, registry) {
            Ok((session, path)) if req.method == "GET" && path == "/v1/trace" => {
                // The stream lives as long as the session; it must not
                // occupy a pool worker. Time only the setup.
                metrics.observe_request(label, 200, elapsed_ns(started));
                let _ = spawn("fairschedd-trace".into(), move || {
                    stream_trace(conn.into_inner(), &session)
                });
                return None;
            }
            Ok((_, path)) if req.method == "GET" && path == "/metrics" => {
                // The pool gauges are refreshed only here, where they are
                // read.
                metrics.accept_queue_depth.set_u64(queue.depth());
                metrics
                    .pool_workers_busy
                    .set_u64(queue.busy.load(Ordering::SeqCst));
                let text = metrics.render(&registry.default_session());
                (200, "text/plain; version=0.0.4", text)
            }
            resolved => match resolved
                .and_then(|(session, path)| route(&req, &path, &session, registry, queue))
            {
                Ok(body) => (200, "application/json", body.render()),
                Err(e) => (e.status(), "application/json", e.to_json().render()),
            },
        };
        let ok = write_response(conn.get_mut(), status, content_type, &body, req.close).is_ok();
        metrics.observe_request(label, status, elapsed_ns(started));
        if !ok || req.close {
            return None;
        }
        // Keep-alive: bytes already in the buffer are invisible to the
        // reactor's poll, so serve them here; otherwise the connection
        // goes back to be watched.
        if conn.buffer().is_empty() {
            return Some(conn);
        }
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Maps a request path onto its target session and the session-relative
/// route: `/v1/sessions/{name}/<rest>` addresses the named session's
/// `/v1/<rest>`, everything else the default session. `/v1/sessions`
/// and `/v1/sessions/{name}` themselves pass through (the registry
/// routes handle them against the default session handle).
fn resolve(path: &str, registry: &SessionRegistry) -> Result<(Arc<Session>, String), ServeError> {
    if let Some(rest) = path.strip_prefix("/v1/sessions/") {
        if let Some((name, inner)) = rest.split_once('/') {
            if !inner.is_empty() {
                return Ok((registry.get(name)?, format!("/v1/{inner}")));
            }
        }
    }
    Ok((registry.default_session(), path.to_string()))
}

fn route(
    req: &Request,
    path: &str,
    session: &Arc<Session>,
    registry: &SessionRegistry,
    queue: &ConnQueue,
) -> Result<Json, ServeError> {
    match (req.method.as_str(), path) {
        ("POST", "/v1/jobs") => {
            let submit = SubmitRequest::from_json(&parse(&req.body)?)?;
            session.submit_batched(&submit).map(|r| r.to_json())
        }
        ("GET", "/v1/status") => Ok(session.status().to_json()),
        ("POST", "/v1/advance") => {
            let to = parse(&req.body)?
                .get("to")
                .and_then(Json::as_u64)
                .ok_or_else(|| ServeError::BadRequest {
                    detail: "missing field `to`".into(),
                })?;
            session.advance_to(to).map(|r| r.to_json())
        }
        ("POST", "/v1/tick") => session.tick().map(|r| r.to_json()),
        ("GET", "/v1/sessions") => {
            let rows = registry
                .list()
                .into_iter()
                .map(|(name, status)| with_fields(status.to_json(), [("name", Json::Str(name))]))
                .collect();
            Ok(Json::obj([("sessions", Json::Arr(rows))]))
        }
        ("POST", "/v1/sessions") => {
            let spec = SessionSpec::from_json(&parse(&req.body)?)?;
            let status = registry.create(&spec)?.status().to_json();
            let name = Json::Str(spec.name);
            Ok(with_fields(
                status,
                [("name", name), ("created", Json::Bool(true))],
            ))
        }
        ("GET", p) if session_name(p).is_some() => {
            let name = session_name(p).expect("guard");
            let status = registry.get(name)?.status().to_json();
            Ok(with_fields(status, [("name", Json::Str(name.into()))]))
        }
        ("DELETE", p) if session_name(p).is_some() => {
            let name = session_name(p).expect("guard");
            registry.delete(name)?;
            Ok(Json::obj([("deleted", Json::Str(name.into()))]))
        }
        ("GET", p) if p.starts_with("/v1/explain/") => Ok(
            match session.explain(path_id(p, "/v1/explain/", "explain")?)? {
                None => Json::obj([("found", Json::Bool(false))]),
                Some(b) => Json::obj([
                    ("found", Json::Bool(true)),
                    ("job", Json::UInt(b.job.0.into())),
                    ("submit", Json::UInt(b.submit)),
                    ("start", Json::UInt(b.start)),
                    ("capacity_wait", Json::UInt(b.capacity_wait)),
                    ("reservation_wait", Json::UInt(b.reservation_wait)),
                ]),
            },
        ),
        ("GET", p) if p.starts_with("/v1/jobs/") => {
            Ok(match session.record_of(path_id(p, "/v1/jobs/", "job")?) {
                None => Json::obj([("found", Json::Bool(false))]),
                Some(r) => with_fields(api::record_to_json(&r), [("found", Json::Bool(true))]),
            })
        }
        ("GET", "/v1/fairness") => {
            let (snap, users) = session.fairness();
            Ok(api::fairness_to_json(&snap, &users))
        }
        ("GET", "/v1/profile") => {
            let report = session.profile();
            let counters = &report.counters;
            Ok(Json::obj([
                ("wall_ns", Json::UInt(report.wall_ns)),
                ("sched_passes", Json::UInt(counters.sched_passes)),
                ("backfill_attempts", Json::UInt(counters.backfill_attempts)),
                (
                    "backfill_successes",
                    Json::UInt(counters.backfill_successes),
                ),
                ("steps", Json::UInt(session.steps())),
                ("text", Json::Str(report.to_string())),
            ]))
        }
        ("POST", "/v1/seal") => session.seal().map(|r| r.to_json()),
        ("POST", "/v1/shutdown") => {
            // Seal every session so trace subscribers see the close; then
            // stop the reactor. The response goes out first because the
            // connection is already being served.
            let sealed_now = !session.status().sealed;
            registry.seal_all();
            queue.stop();
            Ok(Json::obj([
                ("stopping", Json::Bool(true)),
                ("sealed_now", Json::Bool(sealed_now)),
            ]))
        }
        (_, p) if p.starts_with("/v1/") => Err(ServeError::BadRequest {
            detail: format!("no route for {} {}", req.method, p),
        }),
        _ => Err(ServeError::BadRequest {
            detail: "unknown path; the API lives under /v1/".into(),
        }),
    }
}

/// The job id that follows `prefix` in `path`.
fn path_id(path: &str, prefix: &str, what: &str) -> Result<JobId, ServeError> {
    path[prefix.len()..]
        .parse()
        .map(JobId)
        .map_err(|_| ServeError::BadRequest {
            detail: format!("{what} id must be an integer"),
        })
}

/// `obj` with `fields` added.
fn with_fields<const N: usize>(mut obj: Json, fields: [(&str, Json); N]) -> Json {
    if let Json::Obj(map) = &mut obj {
        map.extend(fields.map(|(key, value)| (key.to_string(), value)));
    }
    obj
}

/// The `{name}` of a bare `/v1/sessions/{name}` path (no trailing
/// segment), if this is one.
fn session_name(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("/v1/sessions/")?;
    if rest.is_empty() || rest.contains('/') {
        return None;
    }
    Some(rest)
}

/// Streams trace records as JSONL until the session seals (subscribers
/// get a `None` terminator), the session drops this reader for falling
/// behind, or the client goes away. The final line reports how many
/// lines the session had to drop on this subscriber — 0 for a reader
/// that kept up, nonzero when the stream is incomplete.
fn stream_trace(mut stream: TcpStream, session: &Session) {
    let sub = session.subscribe();
    if write_stream_header(&mut stream, "application/jsonl").is_err() {
        return;
    }
    let severed = loop {
        match sub.recv() {
            Ok(Some(line)) => {
                if writeln!(stream, "{line}").is_err() {
                    return;
                }
            }
            Ok(None) => break false,
            Err(_) => break true,
        }
    };
    let close = Json::obj([
        ("trace_end", Json::Bool(true)),
        ("severed", Json::Bool(severed)),
        ("dropped", Json::UInt(sub.dropped())),
    ])
    .render();
    let _ = writeln!(stream, "{close}").and_then(|()| stream.flush());
}
