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
//! The accept thread only enqueues connections; [`DaemonConfig::workers`]
//! pool threads do all serving. A worker popping a connection first
//! checks readiness without blocking (buffered bytes, else a
//! non-blocking `peek`): idle keep-alive connections are requeued rather
//! than parked on, so a thousand mostly-quiet submitters cannot pin the
//! pool. When the accept queue is full the daemon answers `503` and
//! closes — backpressure is explicit, never an unbounded thread spawn.
//! Trace streams live as long as the session, so they are handed to
//! detached threads instead of occupying a pool worker.
//!
//! The daemon is deterministic where it matters: all scheduling state
//! sits behind each session's mutex, so any interleaving of concurrent
//! requests linearizes into some valid grant/submit order — and the
//! monotonic-submission rule guarantees every such order yields the
//! same schedule as the equivalent batch run.

use crate::api::{ServeError, SessionSpec};
use crate::http::{read_request, write_response, write_stream_header, Request};
use crate::metrics::{route_label, ServiceMetrics};
use crate::registry::SessionRegistry;
use crate::session::{Session, SessionConfig};
use crate::{api, SubmitRequest};
use fairsched_obs::json::{parse, Json};
use fairsched_workload::job::JobId;
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
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
    /// Accepted connections waiting for a worker before the daemon
    /// answers `503`.
    pub queue_capacity: usize,
    /// Where per-session durability journals live; `None` disables
    /// journaling.
    pub journal_dir: Option<PathBuf>,
    /// Rebuild sessions from the journals in `journal_dir` instead of
    /// starting fresh.
    pub recover: bool,
}

impl DaemonConfig {
    /// Serving defaults around a session configuration: 8 workers, a
    /// 1024-connection queue, no journaling.
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

/// One accepted connection: the write half plus its buffered reader
/// (same socket, two fds).
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// The bounded hand-off between the accept thread and the worker pool.
struct ConnQueue {
    queue: Mutex<VecDeque<Conn>>,
    available: Condvar,
    capacity: usize,
    busy: AtomicU64,
}

impl ConnQueue {
    fn new(capacity: usize) -> ConnQueue {
        ConnQueue {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            capacity: capacity.max(1),
            busy: AtomicU64::new(0),
        }
    }

    /// Enqueues a connection; gives it back when the queue is full (the
    /// caller answers 503).
    fn push(&self, conn: Conn) -> Result<(), Conn> {
        let mut queue = self.lock();
        if queue.len() >= self.capacity {
            return Err(conn);
        }
        queue.push_back(conn);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks for the next connection; `None` once `stop` is set and the
    /// queue has drained (workers finish queued work before exiting).
    fn pop(&self, stop: &AtomicBool) -> Option<Conn> {
        let mut queue = self.lock();
        loop {
            if let Some(conn) = queue.pop_front() {
                return Some(conn);
            }
            if stop.load(Ordering::SeqCst) {
                return None;
            }
            let (guard, _) = self
                .available
                .wait_timeout(queue, Duration::from_millis(50))
                .unwrap_or_else(|e| {
                    let (guard, timeout) = e.into_inner();
                    (guard, timeout)
                });
            queue = guard;
        }
    }

    fn depth(&self) -> u64 {
        self.lock().len() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<Conn>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A running daemon: the session registry plus the accept loop's and
/// worker pool's lifecycle.
pub struct Daemon {
    registry: Arc<SessionRegistry>,
    default_session: Arc<Session>,
    metrics: Arc<ServiceMetrics>,
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    queue: Arc<ConnQueue>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Binds `addr` (use port 0 for an OS-assigned free port) and starts
    /// serving with default pool settings and no journaling.
    pub fn start(addr: &str, cfg: SessionConfig) -> Result<Daemon, ServeError> {
        Daemon::start_with(addr, DaemonConfig::new(cfg))
    }

    /// Binds `addr` and starts the accept loop plus the worker pool.
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
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(ConnQueue::new(cfg.queue_capacity));

        let accept_stop = Arc::clone(&stop);
        let accept_queue = Arc::clone(&queue);
        let accept_metrics = Arc::clone(&metrics);
        let accept_thread = std::thread::Builder::new()
            .name("fairschedd-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let Ok(reader_stream) = stream.try_clone() else {
                        continue;
                    };
                    let conn = Conn {
                        stream,
                        reader: BufReader::new(reader_stream),
                    };
                    if let Err(mut conn) = accept_queue.push(conn) {
                        // Explicit backpressure: the queue is full, so
                        // shed this connection rather than grow without
                        // bound.
                        let body = Json::obj([
                            ("error", Json::Str("overloaded".into())),
                            ("detail", Json::Str("accept queue full".into())),
                        ]);
                        let _ = write_response(
                            &mut conn.stream,
                            503,
                            "application/json",
                            &body.render(),
                            true,
                        );
                        accept_metrics.observe_request("other", 503, 0);
                    }
                    accept_metrics
                        .accept_queue_depth
                        .set_u64(accept_queue.depth());
                }
            })
            .map_err(ServeError::from)?;

        let mut workers = Vec::with_capacity(cfg.workers.max(1));
        for i in 0..cfg.workers.max(1) {
            let queue = Arc::clone(&queue);
            let registry = Arc::clone(&registry);
            let metrics = Arc::clone(&metrics);
            let stop = Arc::clone(&stop);
            let handle = std::thread::Builder::new()
                .name(format!("fairschedd-worker-{i}"))
                .spawn(move || worker_loop(&queue, &registry, &metrics, &stop))
                .map_err(ServeError::from)?;
            workers.push(handle);
        }

        Ok(Daemon {
            registry,
            default_session,
            metrics,
            addr: local,
            stop,
            queue,
            accept_thread: Some(accept_thread),
            workers,
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

    /// Whether a shutdown request (or [`Daemon::shutdown`]) has flagged
    /// the accept loop down.
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Graceful drain: stops accepting, lets the pool finish queued and
    /// in-flight requests (idle keep-alive connections are dropped), and
    /// joins every thread. Does not seal sessions; callers decide
    /// whether to finish the schedules.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        self.queue.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What a non-blocking look at a popped connection found.
enum Readiness {
    /// Bytes are waiting (or already buffered): safe to serve.
    Ready,
    /// No bytes yet; the connection is idle keep-alive.
    NotReady,
    /// The peer closed (or the socket errored).
    Closed,
}

fn readiness(conn: &mut Conn) -> Readiness {
    if !conn.reader.buffer().is_empty() {
        return Readiness::Ready;
    }
    if conn.stream.set_nonblocking(true).is_err() {
        return Readiness::Closed;
    }
    let mut probe = [0u8; 1];
    let peeked = conn.stream.peek(&mut probe);
    if conn.stream.set_nonblocking(false).is_err() {
        return Readiness::Closed;
    }
    match peeked {
        Ok(0) => Readiness::Closed,
        Ok(_) => Readiness::Ready,
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Readiness::NotReady,
        Err(_) => Readiness::Closed,
    }
}

fn worker_loop(
    queue: &ConnQueue,
    registry: &SessionRegistry,
    metrics: &ServiceMetrics,
    stop: &AtomicBool,
) {
    // Consecutive idle connections seen: when a sweep of the queue finds
    // only parked keep-alive connections, sleep briefly instead of
    // spinning the requeue cycle.
    let mut idle_streak: u64 = 0;
    while let Some(mut conn) = queue.pop(stop) {
        metrics.accept_queue_depth.set_u64(queue.depth());
        match readiness(&mut conn) {
            Readiness::Closed => {
                idle_streak = 0;
            }
            Readiness::NotReady => {
                if stop.load(Ordering::SeqCst) {
                    // Draining: idle connections are dropped, not held
                    // open.
                    continue;
                }
                idle_streak += 1;
                let requeued = queue.push(conn).is_ok();
                if !requeued || idle_streak > 8 {
                    std::thread::sleep(Duration::from_millis(1));
                    idle_streak = 0;
                }
            }
            Readiness::Ready => {
                idle_streak = 0;
                queue.busy.fetch_add(1, Ordering::SeqCst);
                metrics
                    .pool_workers_busy
                    .set_u64(queue.busy.load(Ordering::SeqCst));
                let keep = serve_ready(conn, registry, metrics, queue, stop);
                queue.busy.fetch_sub(1, Ordering::SeqCst);
                metrics
                    .pool_workers_busy
                    .set_u64(queue.busy.load(Ordering::SeqCst));
                if let Some(conn) = keep {
                    if queue.push(conn).is_err() {
                        // Full queue on requeue: the connection is shed;
                        // the client reconnects.
                    }
                }
            }
        }
    }
}

/// Serves requests on a ready connection until it goes idle (returned
/// for requeueing), closes, errors, or upgrades to a trace stream.
fn serve_ready(
    mut conn: Conn,
    registry: &SessionRegistry,
    metrics: &ServiceMetrics,
    queue: &ConnQueue,
    stop: &AtomicBool,
) -> Option<Conn> {
    loop {
        let req = match read_request(&mut conn.reader) {
            Ok(Some(req)) => req,
            Ok(None) => return None,
            Err(e) => {
                let err = ServeError::BadRequest {
                    detail: e.to_string(),
                };
                let _ = write_response(
                    &mut conn.stream,
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
        let (session, path) = match resolve(&req.path, registry) {
            Ok(pair) => pair,
            Err(e) => {
                let status = e.status();
                let ok = write_response(
                    &mut conn.stream,
                    status,
                    "application/json",
                    &e.to_json().render(),
                    req.close,
                )
                .is_ok();
                metrics.observe_request(label, status, elapsed_ns(started));
                if !ok || req.close {
                    return None;
                }
                continue;
            }
        };

        if req.method == "GET" && path == "/v1/trace" {
            // The stream lives as long as the session; it must not
            // occupy a pool worker. Time only the setup.
            metrics.observe_request(label, 200, elapsed_ns(started));
            let _ = std::thread::Builder::new()
                .name("fairschedd-trace".into())
                .spawn(move || stream_trace(conn.stream, &session));
            return None;
        }

        let (status, content_type, body) = if req.method == "GET" && path == "/metrics" {
            metrics.accept_queue_depth.set_u64(queue.depth());
            metrics
                .pool_workers_busy
                .set_u64(queue.busy.load(Ordering::SeqCst));
            (
                200,
                "text/plain; version=0.0.4",
                metrics.render(&registry.default_session()),
            )
        } else {
            match route(&req, &path, &session, registry, stop) {
                Ok(body) => (200, "application/json", body.render()),
                Err(e) => (e.status(), "application/json", e.to_json().render()),
            }
        };
        let ok = write_response(&mut conn.stream, status, content_type, &body, req.close).is_ok();
        metrics.observe_request(label, status, elapsed_ns(started));
        if !ok || req.close {
            return None;
        }
        // Keep-alive: serve pipelined bytes immediately, requeue an idle
        // connection so this worker can pick up other work.
        match readiness(&mut conn) {
            Readiness::Ready => continue,
            Readiness::NotReady => return Some(conn),
            Readiness::Closed => return None,
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
    stop: &AtomicBool,
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
                .map(|(name, status)| {
                    let mut obj = status.to_json();
                    if let Json::Obj(map) = &mut obj {
                        map.insert("name".into(), Json::Str(name));
                    }
                    obj
                })
                .collect();
            Ok(Json::obj([("sessions", Json::Arr(rows))]))
        }
        ("POST", "/v1/sessions") => {
            let spec = SessionSpec::from_json(&parse(&req.body)?)?;
            let session = registry.create(&spec)?;
            let mut obj = session.status().to_json();
            if let Json::Obj(map) = &mut obj {
                map.insert("name".into(), Json::Str(spec.name));
                map.insert("created".into(), Json::Bool(true));
            }
            Ok(obj)
        }
        ("GET", p) if session_name(p).is_some() => {
            let name = session_name(p).expect("guard");
            let session = registry.get(name)?;
            let mut obj = session.status().to_json();
            if let Json::Obj(map) = &mut obj {
                map.insert("name".into(), Json::Str(name.into()));
            }
            Ok(obj)
        }
        ("DELETE", p) if session_name(p).is_some() => {
            let name = session_name(p).expect("guard");
            registry.delete(name)?;
            Ok(Json::obj([("deleted", Json::Str(name.into()))]))
        }
        ("GET", p) if p.starts_with("/v1/explain/") => {
            let id =
                p["/v1/explain/".len()..]
                    .parse::<u32>()
                    .map_err(|_| ServeError::BadRequest {
                        detail: "explain id must be an integer".into(),
                    })?;
            let breakdown = session.explain(JobId(id))?;
            Ok(match breakdown {
                None => Json::obj([("found", Json::Bool(false))]),
                Some(b) => Json::obj([
                    ("found", Json::Bool(true)),
                    ("job", Json::UInt(b.job.0.into())),
                    ("submit", Json::UInt(b.submit)),
                    ("start", Json::UInt(b.start)),
                    ("capacity_wait", Json::UInt(b.capacity_wait)),
                    ("reservation_wait", Json::UInt(b.reservation_wait)),
                ]),
            })
        }
        ("GET", p) if p.starts_with("/v1/jobs/") => {
            let id = p["/v1/jobs/".len()..]
                .parse::<u32>()
                .map_err(|_| ServeError::BadRequest {
                    detail: "job id must be an integer".into(),
                })?;
            Ok(match session.record_of(JobId(id)) {
                None => Json::obj([("found", Json::Bool(false))]),
                Some(r) => {
                    let mut obj = api::record_to_json(&r);
                    if let Json::Obj(map) = &mut obj {
                        map.insert("found".into(), Json::Bool(true));
                    }
                    obj
                }
            })
        }
        ("GET", "/v1/fairness") => {
            let (snap, users) = session.fairness();
            Ok(api::fairness_to_json(&snap, &users))
        }
        ("GET", "/v1/profile") => {
            let report = session.profile();
            Ok(Json::obj([
                ("wall_ns", Json::UInt(report.wall_ns)),
                ("sched_passes", Json::UInt(report.counters.sched_passes)),
                (
                    "backfill_attempts",
                    Json::UInt(report.counters.backfill_attempts),
                ),
                (
                    "backfill_successes",
                    Json::UInt(report.counters.backfill_successes),
                ),
                ("steps", Json::UInt(session.steps())),
                ("text", Json::Str(report.to_string())),
            ]))
        }
        ("POST", "/v1/seal") => session.seal().map(|r| r.to_json()),
        ("POST", "/v1/shutdown") => {
            // Seal every session so trace subscribers see the close; then
            // flag the accept loop down. The response goes out first
            // because the connection already exists.
            let sealed_now = !session.status().sealed;
            registry.seal_all();
            stop.store(true, Ordering::SeqCst);
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
                if stream
                    .write_all(line.as_bytes())
                    .and_then(|()| stream.write_all(b"\n"))
                    .is_err()
                {
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
    let _ = stream
        .write_all(close.as_bytes())
        .and_then(|()| stream.write_all(b"\n"));
    let _ = stream.flush();
}
