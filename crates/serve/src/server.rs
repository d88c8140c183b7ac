//! The HTTP server: admission control, routing, and graceful drain.
//!
//! ## Queueing model
//!
//! One acceptor thread owns the listener. Each accepted connection is
//! admitted against a single bound — `queue` — counting every request
//! that has been accepted but not yet finished (queued *and* executing).
//! Admitted connections are handed to a work-stealing pool reused from
//! [`hls_par`]; over the bound, the acceptor sheds the connection
//! with `503 Service Unavailable` + `Retry-After` from a short-lived
//! helper thread so the accept loop itself never blocks on a slow peer.
//!
//! ## Deadlines
//!
//! Every request gets a [`CancelToken`] carrying the server deadline
//! (or the request's own `deadline_ms`, whichever is sooner). The token
//! is checked between pipeline stages; an expired request answers
//! `504 Gateway Timeout` naming the last completed stage.
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] flips the shutdown flag and pokes the
//! listener with a loopback connection so the blocking `accept` wakes
//! immediately. The acceptor stops admitting, waits until the in-flight
//! count drains to zero, joins the pool, and returns. The `hls-serve`
//! binary wires this handle to a SIGTERM/SIGINT self-pipe (see
//! [`crate::signal`]), so a terminating service finishes every admitted
//! request before exiting.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use hls_core::{
    cdfg_fingerprint, CancelToken, DesignPoint, Explorer, StreamedPoint, Sweep, SynthesisError,
};
use hls_par::{default_threads, ThreadPool};

use crate::api;
use crate::cache::{response_key, ResponseCache};
use crate::http::{
    finish_chunked, read_request, start_chunked, write_chunk, ReadError, Request, Response,
};
use crate::json::{self, Json};
use crate::metrics::{BatchOutcome, Metrics};

/// Server configuration; every knob has an environment variable.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address (`HLS_SERVE_ADDR`, default `127.0.0.1:7878`;
    /// use port 0 for an ephemeral port).
    pub addr: String,
    /// Worker threads (`HLS_SERVE_THREADS`, default: available cores).
    pub threads: usize,
    /// Max accepted-but-unfinished requests before load shedding
    /// (`HLS_SERVE_QUEUE`, default 64).
    pub queue: usize,
    /// Per-request deadline (`HLS_SERVE_DEADLINE_MS`, default 10000).
    pub deadline: Duration,
    /// Response-cache capacity in entries (`HLS_SERVE_CACHE`, default
    /// 1024; 0 disables the cache).
    pub cache_capacity: usize,
    /// Backoff suggested on a 503, in milliseconds. Rendered twice: the
    /// standard `Retry-After` header carries it rounded **up** to whole
    /// seconds (the header's unit), and `Retry-After-Ms` carries it
    /// verbatim for clients (like `hls-loadgen`) that back off in ms.
    pub retry_after_ms: u64,
    /// Honor the `test_delay_ms` request field (integration tests only;
    /// `HLS_SERVE_ALLOW_TEST_DELAY=1` for spawned worker processes).
    pub allow_test_delay: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".into(),
            threads: default_threads(),
            queue: 64,
            deadline: Duration::from_millis(10_000),
            cache_capacity: 1024,
            retry_after_ms: 1000,
            allow_test_delay: false,
        }
    }
}

/// Reads a non-negative integer environment variable, warning (not
/// silently ignoring) invalid values.
fn env_number(name: &str, fallback: u64, min: u64) -> u64 {
    match std::env::var(name) {
        Err(_) => fallback,
        Ok(raw) => match raw.trim().parse::<u64>() {
            Ok(n) if n >= min => n,
            _ => {
                eprintln!(
                    "warning: ignoring {name}={raw:?} (expected an integer >= {min}); \
                     falling back to {fallback}"
                );
                fallback
            }
        },
    }
}

impl ServerConfig {
    /// Configuration from the `HLS_SERVE_*` environment variables.
    pub fn from_env() -> Self {
        let defaults = ServerConfig::default();
        ServerConfig {
            addr: std::env::var("HLS_SERVE_ADDR").unwrap_or(defaults.addr),
            threads: env_number("HLS_SERVE_THREADS", defaults.threads as u64, 1) as usize,
            queue: env_number("HLS_SERVE_QUEUE", defaults.queue as u64, 1) as usize,
            deadline: Duration::from_millis(env_number(
                "HLS_SERVE_DEADLINE_MS",
                defaults.deadline.as_millis() as u64,
                1,
            )),
            cache_capacity: env_number("HLS_SERVE_CACHE", defaults.cache_capacity as u64, 0)
                as usize,
            retry_after_ms: env_number("HLS_SERVE_RETRY_AFTER_MS", defaults.retry_after_ms, 1),
            allow_test_delay: std::env::var("HLS_SERVE_ALLOW_TEST_DELAY")
                .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
                .unwrap_or(defaults.allow_test_delay),
        }
    }

    /// The whole-second `Retry-After` value for [`Self::retry_after_ms`]
    /// (rounded up, never zero — the header cannot express sub-second
    /// backoff).
    pub fn retry_after_secs(&self) -> u64 {
        self.retry_after_ms.div_ceil(1000).max(1)
    }
}

/// Shared server state, visible to the acceptor and every worker.
struct Ctx {
    config: ServerConfig,
    metrics: Arc<Metrics>,
    cache: ResponseCache,
    /// The shared exploration engine; its memo cache persists across
    /// requests, so repeated or overlapping grids are answered from it.
    explorer: Explorer,
    /// Accepted-but-unfinished requests (queued + executing).
    inflight: AtomicUsize,
    shutdown: AtomicBool,
    /// Parking spot for the drain wait.
    idle: Mutex<()>,
    idle_cv: Condvar,
}

impl Ctx {
    fn request_done(&self) {
        let before = self.inflight.fetch_sub(1, Ordering::SeqCst);
        self.metrics.queue_left(before.saturating_sub(1));
        if before == 1 {
            let _guard = self.idle.lock().expect("idle lock");
            self.idle_cv.notify_all();
        }
    }

    fn wait_idle(&self) {
        let mut guard = self.idle.lock().expect("idle lock");
        while self.inflight.load(Ordering::SeqCst) > 0 {
            guard = self.idle_cv.wait(guard).expect("idle wait");
        }
    }
}

/// A running server bound to its listener.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    ctx: Arc<Ctx>,
    pool: ThreadPool,
}

/// A cloneable handle for shutting the server down and reading metrics.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<Ctx>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics registry.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.ctx.metrics)
    }

    /// Requests a graceful shutdown: stop accepting, drain in-flight
    /// requests, then return from [`Server::run`]. Idempotent.
    pub fn shutdown(&self) {
        if !self.ctx.shutdown.swap(true, Ordering::SeqCst) {
            // Poke the blocking accept() so it observes the flag now.
            let _ = TcpStream::connect(self.addr);
        }
    }
}

impl Server {
    /// Binds the listener and spins up the worker pool.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound.
    pub fn bind(config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let pool = ThreadPool::new(config.threads);
        let explorer = Explorer::with_threads(config.threads);
        let ctx = Arc::new(Ctx {
            metrics: Arc::new(Metrics::new()),
            cache: ResponseCache::new(config.cache_capacity),
            explorer,
            inflight: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            idle: Mutex::new(()),
            idle_cv: Condvar::new(),
            config,
        });
        Ok(Server {
            listener,
            addr,
            ctx,
            pool,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for shutdown and metrics.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr,
            ctx: Arc::clone(&self.ctx),
        }
    }

    /// Runs the accept loop until [`ServerHandle::shutdown`], then
    /// drains every admitted request and joins the workers.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors.
    pub fn run(self) -> io::Result<()> {
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if self.ctx.shutdown.load(Ordering::SeqCst) {
                drop(stream);
                break;
            }
            let depth = self.ctx.inflight.fetch_add(1, Ordering::SeqCst) + 1;
            self.ctx.metrics.queue_entered(depth);
            if depth > self.ctx.config.queue {
                self.ctx.metrics.shed();
                let ctx = Arc::clone(&self.ctx);
                // A helper thread absorbs a slow peer; shed responses are
                // bounded by the accept rate, not by synthesis time.
                std::thread::spawn(move || {
                    shed(stream, &ctx);
                    ctx.request_done();
                });
                continue;
            }
            let ctx = Arc::clone(&self.ctx);
            self.pool.execute(move || {
                // Outer firewall: even a panic outside route() (request
                // parsing, response writing) must not leak the in-flight
                // slot, or shutdown would wait on it forever.
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handle_connection(stream, &ctx);
                }));
                if caught.is_err() {
                    ctx.metrics.panic();
                }
                ctx.request_done();
            });
        }
        self.ctx.wait_idle();
        // Dropping the pool joins every (now idle) worker.
        drop(self.pool);
        Ok(())
    }
}

/// Answers one over-capacity connection with 503 + `Retry-After` (whole
/// seconds, the header's unit) + `Retry-After-Ms` (exact).
fn shed(mut stream: TcpStream, ctx: &Ctx) {
    let started = Instant::now();
    let _ = stream.set_read_timeout(Some(Duration::from_millis(1000)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(1000)));
    // Read (and discard) the request so the client reliably sees the
    // response instead of a reset; ignore unreadable requests.
    let endpoint = match read_request(&mut stream) {
        Ok(req) => parse_route(&req),
        Err(_) => "unknown",
    };
    let ms = ctx.config.retry_after_ms;
    let body = api::error_envelope("overloaded", "server overloaded", None, Some(ms));
    let resp = Response::json(503, body.render().into_bytes())
        .with_header("Retry-After", ctx.config.retry_after_secs().to_string())
        .with_header("Retry-After-Ms", ms.to_string());
    let _ = resp.write_to(&mut stream);
    ctx.metrics
        .observe_request(endpoint, 503, started.elapsed());
}

/// Resolves a request path to its endpoint label; every path outside
/// `/v1/*` is `"unknown"`.
pub(crate) fn parse_route(req: &Request) -> &'static str {
    match req.path.split('?').next().unwrap_or("") {
        "/v1/healthz" => "healthz",
        "/v1/metrics" => "metrics",
        "/v1/synthesize" => "synthesize",
        "/v1/explore" => "explore",
        "/v1/batch" => "batch",
        _ => "unknown",
    }
}

/// Reads, routes, answers, and records one connection.
fn handle_connection(mut stream: TcpStream, ctx: &Ctx) {
    let started = Instant::now();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(5000)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(5000)));
    let req = match read_request(&mut stream) {
        Ok(req) => req,
        Err(ReadError::Closed) => return,
        Err(ReadError::Io(_)) => return,
        Err(ReadError::TooLarge) => {
            let resp = error_response(413, "request too large");
            let _ = resp.write_to(&mut stream);
            ctx.metrics
                .observe_request("unknown", 413, started.elapsed());
            return;
        }
        Err(ReadError::Malformed(why)) => {
            let resp = error_response(400, why);
            let _ = resp.write_to(&mut stream);
            ctx.metrics
                .observe_request("unknown", 400, started.elapsed());
            return;
        }
    };
    let endpoint = parse_route(&req);
    if endpoint == "batch" && req.method == "POST" {
        // The batch handler streams its own chunked response (and owns
        // the error paths before the stream starts), so it bypasses the
        // buffered write below. Same firewall contract as route().
        let status = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            batch(&req, &mut stream, ctx)
        }))
        .unwrap_or_else(|payload| {
            ctx.metrics.panic();
            eprintln!(
                "panic in /batch handler: {}",
                panic_message(payload.as_ref())
            );
            500
        });
        ctx.metrics
            .observe_request(endpoint, status, started.elapsed());
        return;
    }
    // Panic firewall: a bug anywhere in the synthesis pipeline must cost
    // one 500, not a worker thread. AssertUnwindSafe is sound here
    // because `ctx` only holds lock-guarded or atomic state that stays
    // consistent if a request dies mid-flight (a poisoned metrics lock
    // would itself panic on the *next* request, so route() never leaves
    // one behind: the registry methods do not panic while holding it).
    let resp =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| route(&req, endpoint, ctx)))
            .unwrap_or_else(|payload| {
                ctx.metrics.panic();
                let msg = panic_message(payload.as_ref());
                eprintln!("panic in /{endpoint} handler: {msg}");
                error_response(500, &format!("internal error: {msg}"))
            });
    let status = resp.status;
    let _ = resp.write_to(&mut stream);
    ctx.metrics
        .observe_request(endpoint, status, started.elapsed());
}

/// A printable panic payload (panics carry `&str` or `String` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "unknown panic"
    }
}

/// The v1 machine-readable error code for an HTTP status.
pub(crate) fn error_code(status: u16) -> &'static str {
    match status {
        400 => "bad_request",
        404 => "not_found",
        405 => "method_not_allowed",
        413 => "payload_too_large",
        422 => "unprocessable",
        503 => "overloaded",
        504 => "deadline_exceeded",
        _ => "internal",
    }
}

/// A JSON error body in the `{"error":{"code","message"}}` envelope.
pub(crate) fn error_response(status: u16, msg: &str) -> Response {
    let body = api::error_envelope(error_code(status), msg, None, None);
    Response::json(status, body.render().into_bytes())
}

/// Dispatches one parsed request.
fn route(req: &Request, endpoint: &str, ctx: &Ctx) -> Response {
    match (endpoint, req.method.as_str()) {
        ("healthz", "GET") => Response::json(200, br#"{"status":"ok"}"#.to_vec()),
        ("metrics", "GET") => Response::text(200, ctx.metrics.render().into_bytes()),
        ("synthesize", "POST") => synthesize(req, ctx),
        ("explore", "POST") => explore(req, ctx),
        ("healthz" | "metrics" | "synthesize" | "explore" | "batch", _) => {
            error_response(405, "method not allowed")
        }
        _ => error_response(404, "no such endpoint"),
    }
}

/// The request's effective deadline token.
fn deadline_token(ctx: &Ctx, requested_ms: Option<u64>) -> CancelToken {
    let server = ctx.config.deadline;
    let effective = match requested_ms {
        Some(ms) => server.min(Duration::from_millis(ms)),
        None => server,
    };
    CancelToken::with_timeout(effective)
}

/// Maps a synthesis failure onto an HTTP response. A 504 carries the
/// last completed stage inside the envelope (`error.stage`).
fn synthesis_error_response(e: &SynthesisError, ctx: &Ctx) -> Response {
    match e {
        SynthesisError::Parse(_) => error_response(422, &e.to_string()),
        SynthesisError::Cancelled { completed } => {
            ctx.metrics.deadline_cancelled();
            let body = api::error_envelope(
                "deadline_exceeded",
                "deadline exceeded",
                Some(completed),
                None,
            );
            Response::json(504, body.render().into_bytes())
        }
        other => error_response(500, &other.to_string()),
    }
}

/// Wraps a cached-or-fresh 200 body, splicing in the serve-time
/// `cache_hit` field.
fn ok_with_cache_flag(body: &[u8], hit: bool) -> Response {
    Response::json(200, api::with_cache_hit(body, hit))
}

/// `POST /v1/synthesize`.
fn synthesize(req: &Request, ctx: &Ctx) -> Response {
    let body = match std::str::from_utf8(&req.body)
        .map_err(|_| "body is not utf-8".to_string())
        .and_then(|text| json::parse(text).map_err(|e| e.to_string()))
    {
        Ok(v) => v,
        Err(msg) => return error_response(400, &msg),
    };
    let parsed = match api::SynthesizeRequest::from_json(&body) {
        Ok(p) => p,
        Err(e) => return error_response(422, &e.0),
    };
    let cancel = deadline_token(ctx, parsed.deadline_ms);
    // Test-only hold: occupies this worker (for saturation tests) while
    // the deadline clock, already started above, keeps running (for
    // deterministic 504 tests).
    if ctx.config.allow_test_delay && parsed.test_delay_ms > 0 {
        std::thread::sleep(Duration::from_millis(parsed.test_delay_ms));
    }
    // Test-only injected panic: stands in for an unexpected bug deep in
    // the pipeline so tests can prove the firewall answers 500 and the
    // worker survives.
    if ctx.config.allow_test_delay && parsed.test_panic {
        panic!("test-injected panic in synthesize stage");
    }
    if hls_lang::is_system_source(&parsed.source) {
        return synthesize_system(&parsed, ctx);
    }
    let cdfg = match hls_lang::compile(&parsed.source) {
        Ok(c) => c,
        Err(e) => return error_response(422, &format!("parse: {e}")),
    };
    let behavior_fp = cdfg_fingerprint(&cdfg);
    let key = response_key(
        "synthesize",
        behavior_fp,
        parsed.synthesizer.fingerprint(),
        u64::from(parsed.verilog),
    );
    if ctx.config.cache_capacity > 0 {
        if let Some(cached) = ctx.cache.get(key) {
            ctx.metrics.cache_hit();
            return ok_with_cache_flag(&cached, true);
        }
        ctx.metrics.cache_miss();
    }
    let result = match parsed.synthesizer.synthesize_cancellable(cdfg, &cancel) {
        Ok(r) => r,
        Err(e) => return synthesis_error_response(&e, ctx),
    };
    ctx.metrics.observe_stages(result.stage_nanos);
    let rendered = api::synthesize_response(&parsed, behavior_fp, &result)
        .render()
        .into_bytes();
    let rendered = Arc::new(rendered);
    if ctx.config.cache_capacity > 0 {
        ctx.cache.insert(key, Arc::clone(&rendered));
    }
    ok_with_cache_flag(&rendered, false)
}

/// `POST /v1/synthesize` for a multi-process `system` source: every
/// process runs the full per-behavior pipeline and the response carries
/// per-process metrics plus (on request) the elaborated top-level
/// Verilog with the handshake interconnect. System synthesis has no
/// between-stage cancel points yet, so the deadline is not enforced
/// mid-flight here.
fn synthesize_system(parsed: &api::SynthesizeRequest, ctx: &Ctx) -> Response {
    let sys = match hls_lang::compile_system(&parsed.source) {
        Ok(s) => s,
        Err(e) => return error_response(422, &format!("parse: {e}")),
    };
    let behavior_fp = api::system_fingerprint(&sys);
    let key = response_key(
        "synthesize-system",
        behavior_fp,
        parsed.synthesizer.fingerprint(),
        u64::from(parsed.verilog),
    );
    if ctx.config.cache_capacity > 0 {
        if let Some(cached) = ctx.cache.get(key) {
            ctx.metrics.cache_hit();
            return ok_with_cache_flag(&cached, true);
        }
        ctx.metrics.cache_miss();
    }
    let result = match parsed.synthesizer.synthesize_system(sys) {
        Ok(r) => r,
        Err(e) => return synthesis_error_response(&e, ctx),
    };
    for p in &result.processes {
        ctx.metrics.observe_stages(p.result.stage_nanos);
    }
    let rendered = api::system_response(parsed, behavior_fp, &result)
        .render()
        .into_bytes();
    let rendered = Arc::new(rendered);
    if ctx.config.cache_capacity > 0 {
        ctx.cache.insert(key, Arc::clone(&rendered));
    }
    ok_with_cache_flag(&rendered, false)
}

/// `POST /v1/explore`.
fn explore(req: &Request, ctx: &Ctx) -> Response {
    let body = match std::str::from_utf8(&req.body)
        .map_err(|_| "body is not utf-8".to_string())
        .and_then(|text| json::parse(text).map_err(|e| e.to_string()))
    {
        Ok(v) => v,
        Err(msg) => return error_response(400, &msg),
    };
    let parsed = match api::ExploreRequest::from_json(&body) {
        Ok(p) => p,
        Err(e) => return error_response(422, &e.0),
    };
    let cancel = deadline_token(ctx, parsed.deadline_ms);
    if hls_lang::is_system_source(&parsed.source) {
        return error_response(422, "explore does not accept system sources");
    }
    let cdfg = match hls_lang::compile(&parsed.source) {
        Ok(c) => c,
        Err(e) => return error_response(422, &format!("parse: {e}")),
    };
    let behavior_fp = cdfg_fingerprint(&cdfg);
    let config_fp = parsed.synthesizer.fingerprint();
    let spec_fp = {
        use std::fmt::Write as _;
        let mut w = hls_testkit::FnvWriter::new();
        let _ = write!(w, "{:?}", parsed.spec);
        if parsed.prune {
            // A pruned response body carries extra members, so it must
            // not share a cache slot with the exhaustive rendering.
            w.update(b"/pruned");
        }
        w.finish()
    };
    let key = response_key("explore", behavior_fp, config_fp, spec_fp);
    if ctx.config.cache_capacity > 0 {
        if let Some(cached) = ctx.cache.get(key) {
            ctx.metrics.cache_hit();
            return ok_with_cache_flag(&cached, true);
        }
        ctx.metrics.cache_miss();
    }
    let sweep = Sweep {
        points: parsed.spec.expand(),
        prune: parsed.prune,
        cancel,
    };
    let outcome = match ctx.explorer.collect(&parsed.synthesizer, &cdfg, &sweep) {
        Ok(o) => o,
        Err(e) => return synthesis_error_response(&e, ctx),
    };
    let rendered = if parsed.prune {
        ctx.metrics.points_pruned(outcome.stats.pruned as u64);
        api::explore_response_pruned(&outcome, behavior_fp, config_fp)
    } else {
        api::explore_response(&outcome.points, behavior_fp, config_fp)
    }
    .render()
    .into_bytes();
    let rendered = Arc::new(rendered);
    if ctx.config.cache_capacity > 0 {
        ctx.cache.insert(key, Arc::clone(&rendered));
    }
    ok_with_cache_flag(&rendered, false)
}

/// Serializes batch NDJSON lines onto one chunked response stream.
///
/// Grid points complete on pool workers in any order; records are keyed
/// by their *local index* in the request (0..n) and written strictly in
/// that order via a reorder buffer, so the byte stream of a batch is a
/// deterministic function of the request whenever every point's outcome
/// is (e.g. all cache hits). A failed write marks the client gone and
/// cancels the batch token so remaining synthesis stops early.
struct BatchEmitter {
    inner: Mutex<EmitterInner>,
    cancel: CancelToken,
}

struct EmitterInner {
    stream: TcpStream,
    /// Next local index to write.
    next: usize,
    /// Completed records waiting for their turn, by local index.
    pending: BTreeMap<usize, Vec<u8>>,
    failed: bool,
}

impl BatchEmitter {
    fn new(stream: TcpStream, cancel: CancelToken) -> Self {
        BatchEmitter {
            inner: Mutex::new(EmitterInner {
                stream,
                next: 0,
                pending: BTreeMap::new(),
                failed: false,
            }),
            cancel,
        }
    }

    /// Queues record `idx` and flushes every now-contiguous record.
    fn push(&self, idx: usize, mut line: Vec<u8>) {
        line.push(b'\n');
        let mut g = self.inner.lock().expect("emitter lock");
        if g.failed {
            return;
        }
        g.pending.insert(idx, line);
        loop {
            let next = g.next;
            let Some(line) = g.pending.remove(&next) else {
                break;
            };
            if write_chunk(&mut g.stream, &line).is_err() {
                // Mid-stream disconnect: drop the backlog and cancel the
                // token so in-flight points stop at the next stage check.
                g.failed = true;
                g.pending.clear();
                self.cancel.cancel();
                return;
            }
            g.next += 1;
        }
    }

    /// Writes the terminal line and the chunked terminator; `false` if
    /// the client disconnected at any point.
    fn finish(&self, terminal: &[u8]) -> bool {
        let mut g = self.inner.lock().expect("emitter lock");
        if g.failed {
            return false;
        }
        let mut line = terminal.to_vec();
        line.push(b'\n');
        if write_chunk(&mut g.stream, &line).is_err() || finish_chunked(&mut g.stream).is_err() {
            g.failed = true;
            return false;
        }
        true
    }

    fn has_failed(&self) -> bool {
        self.inner.lock().expect("emitter lock").failed
    }
}

/// Renders one failed grid point as its NDJSON error record.
fn batch_error_line(seq: u64, e: &SynthesisError) -> Json {
    match e {
        SynthesisError::Cancelled { completed } => api::batch_error_record(
            seq,
            "deadline_exceeded",
            "deadline exceeded",
            Some(completed),
        ),
        other => {
            let code = match other {
                SynthesisError::Parse(_) => "unprocessable",
                _ => "internal",
            };
            api::batch_error_record(seq, code, &other.to_string(), None)
        }
    }
}

/// `POST /v1/batch`: streams one NDJSON record per completed grid point
/// over a chunked response, then a terminal summary line. Returns the
/// status for the metrics label (499 = client disconnected mid-stream).
fn batch(req: &Request, stream: &mut TcpStream, ctx: &Ctx) -> u16 {
    let fail = |stream: &mut TcpStream, status: u16, msg: &str| {
        let _ = error_response(status, msg).write_to(stream);
        status
    };
    let body = match std::str::from_utf8(&req.body)
        .map_err(|_| "body is not utf-8".to_string())
        .and_then(|text| json::parse(text).map_err(|e| e.to_string()))
    {
        Ok(v) => v,
        Err(msg) => return fail(stream, 400, &msg),
    };
    let parsed = match api::BatchRequest::from_json(&body) {
        Ok(p) => p,
        Err(e) => return fail(stream, 422, &e.0),
    };
    if hls_lang::is_system_source(&parsed.source) {
        return fail(stream, 422, "batch does not accept system sources");
    }
    let cdfg = match hls_lang::compile(&parsed.source) {
        Ok(c) => c,
        Err(e) => return fail(stream, 422, &format!("parse: {e}")),
    };
    let cancel = deadline_token(ctx, parsed.deadline_ms);
    let Ok(out) = stream.try_clone() else {
        return fail(stream, 500, "connection unavailable");
    };
    if start_chunked(stream, 200, "application/x-ndjson", &[]).is_err() {
        return 499;
    }
    let n = parsed.points.len();
    let seqs: Arc<Vec<u64>> = Arc::new(parsed.points.iter().map(|(s, _)| *s).collect());
    let sweep = Sweep {
        points: parsed.points.iter().map(|(_, p)| *p).collect(),
        prune: parsed.prune,
        cancel: cancel.clone(),
    };
    let emitter = Arc::new(BatchEmitter::new(out, cancel.clone()));
    type Slot = Option<(DesignPoint, bool)>;
    let results: Arc<Mutex<Vec<Slot>>> = Arc::new(Mutex::new(vec![None; n]));
    let delay = if ctx.config.allow_test_delay {
        parsed.test_delay_ms
    } else {
        0
    };
    // Test-only: hold once after the deadline clock starts, so a tiny
    // deadline is deterministically blown before any point runs —
    // mirroring where the single-shot path injects its hold.
    if delay > 0 {
        std::thread::sleep(Duration::from_millis(delay));
    }
    let on_point = {
        let emitter = Arc::clone(&emitter);
        let results = Arc::clone(&results);
        let seqs = Arc::clone(&seqs);
        let points = Arc::new(sweep.points.clone());
        let metrics = Arc::clone(&ctx.metrics);
        move |idx: usize, res: Result<StreamedPoint, SynthesisError>| {
            // Test-only pacing: holds this pool worker per point so
            // tests can observe mid-batch state deterministically.
            if delay > 0 {
                std::thread::sleep(Duration::from_millis(delay));
            }
            let seq = seqs[idx];
            let line = match res {
                Ok(StreamedPoint::Pruned) => {
                    metrics.points_pruned(1);
                    api::batch_pruned_record(seq, &points[idx])
                }
                Ok(StreamedPoint::Synthesized {
                    point: dp,
                    cache_hit: hit,
                }) => {
                    metrics.batch_point(if hit {
                        BatchOutcome::Hit
                    } else {
                        BatchOutcome::Miss
                    });
                    let record = api::batch_point_record(seq, hit, &points[idx], &dp);
                    results.lock().expect("results lock")[idx] = Some((dp, hit));
                    record
                }
                Err(e) => {
                    metrics.batch_point(BatchOutcome::Error);
                    batch_error_line(seq, &e)
                }
            };
            emitter.push(idx, line.render().into_bytes());
        }
    };
    let sweep_result = ctx
        .explorer
        .run(&parsed.synthesizer, &cdfg, &sweep, on_point);
    let stats = match sweep_result {
        Ok(stats) => stats,
        Err(e) => {
            // Shared preparation failed before any point ran: the chunked
            // head is already on the wire, so the error goes out as the
            // terminal line.
            let line = api::error_envelope("internal", &e.to_string(), None, None)
                .render()
                .into_bytes();
            emitter.finish(&line);
            return 200;
        }
    };
    // Summary over the completed points in *seq* order (completion
    // order varies; the rendering must not).
    let slots = results.lock().expect("results lock");
    let mut completed: Vec<(u64, DesignPoint, bool)> = slots
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.as_ref().map(|(dp, hit)| (seqs[i], dp.clone(), *hit)))
        .collect();
    drop(slots);
    completed.sort_by_key(|(seq, _, _)| *seq);
    let ok = completed.len();
    let hits = completed.iter().filter(|(_, _, hit)| *hit).count();
    let pts: Vec<DesignPoint> = completed.iter().map(|(_, dp, _)| dp.clone()).collect();
    let summary = match stats {
        Some(stats) => {
            let errors = n.saturating_sub(ok).saturating_sub(stats.pruned);
            api::batch_summary_pruned(n, ok, errors, hits, stats.pruned, &pts)
        }
        None => api::batch_summary(n, ok, n - ok, hits, &pts),
    }
    .render()
    .into_bytes();
    if emitter.has_failed() {
        ctx.metrics.batch_cancelled();
        return 499;
    }
    if cancel.is_cancelled() {
        // Deadline expiry mid-batch: the summary still goes out (late
        // points became error records), but record the cancellation.
        ctx.metrics.deadline_cancelled();
    }
    if !emitter.finish(&summary) {
        ctx.metrics.batch_cancelled();
        return 499;
    }
    200
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_from_env_warns_and_falls_back() {
        // Invalid values fall back to defaults (with a stderr warning).
        std::env::set_var("HLS_SERVE_QUEUE", "not-a-number");
        std::env::set_var("HLS_SERVE_THREADS", "0");
        let cfg = ServerConfig::from_env();
        assert_eq!(cfg.queue, ServerConfig::default().queue);
        assert_eq!(cfg.threads, ServerConfig::default().threads);
        std::env::remove_var("HLS_SERVE_QUEUE");
        std::env::remove_var("HLS_SERVE_THREADS");
    }

    #[test]
    fn deadline_token_takes_the_sooner() {
        let ctx_cfg = ServerConfig {
            deadline: Duration::from_millis(50),
            ..ServerConfig::default()
        };
        // A request asking for longer than the server allows is clamped:
        // both tokens expire within the server deadline.
        let server = CancelToken::with_timeout(ctx_cfg.deadline);
        assert!(!server.is_cancelled());
        std::thread::sleep(Duration::from_millis(60));
        assert!(server.is_cancelled());
    }
}
