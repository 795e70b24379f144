//! The daemon: listeners, connection handling and the diagnose path.
//!
//! One thread accepts connections; each connection gets a thread that
//! reads request lines and writes response lines in order (per-client
//! FIFO). Diagnose requests are dispatched onto the bounded
//! [`WorkerPool`] — concurrency comes from multiple connections, and
//! overload surfaces as an immediate error response instead of latency
//! collapse. Shutdown (remote `shutdown` op or [`ServerHandle::stop`])
//! drains in-flight work and joins every thread.
//!
//! With telemetry mounted (the default), every `serve.*` metric lands in
//! a lock-free [`LiveRecorder`] that the `stats` protocol verb snapshots
//! at any instant; a ticker thread rolls its window ring once a second
//! so stats can answer rates and percentiles over the last N seconds.
//! Each diagnose request is timed per phase (queue wait, snapshot
//! restore, diagnose, render), and when a [`FlightRecorder`] is mounted,
//! requests breaching the latency SLO dump their full causal trace.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use netdiag_experiments::explain::{explain, ExplainFilter};
use netdiag_obs::{
    names, push_json_string, LiveRecorder, Recorder, RecorderHandle, RunReport, TraceRecorder,
    WindowDelta,
};
use netdiagnoser::text::{
    parse_feed, parse_sensors, parse_snapshot, RecordedIpToAs, RecordedLookingGlass,
};
use netdiagnoser::{
    DiagnosticsConfig, IpToAs, NetDiagnoser, NetDiagnoserBuilder, Observations, RoutingFeed,
};

use crate::baseline::{Baseline, ServeConfig};
use crate::flight::{FlightRecorder, PhaseNanos};
use crate::pool::WorkerPool;
use crate::proto::{
    self, diagnose_response, error_response, ok_response, DiagnoseJob, Request, MAX_REQUEST_BYTES,
};

/// Events each worker's always-on flight ring retains (ample for one
/// request's causal trace; overflow is reported in the dump).
const FLIGHT_RING_CAPACITY: usize = 1 << 14;

thread_local! {
    /// One bounded trace ring per worker thread, reused (cleared) across
    /// requests so the always-on flight recorder never allocates a fresh
    /// ring on the request path.
    static FLIGHT_RING: Arc<TraceRecorder> =
        Arc::new(TraceRecorder::with_capacity(FLIGHT_RING_CAPACITY));
}

/// Where the daemon listens.
#[derive(Clone, Debug)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:0` (port 0 picks a free port).
    Tcp(String),
    /// A Unix domain socket path (removed on shutdown).
    Unix(PathBuf),
}

/// The endpoint actually bound (TCP resolves port 0 here).
#[derive(Clone, Debug)]
enum Bound {
    Tcp(SocketAddr),
    Unix(PathBuf),
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                // Responses are written payload-then-newline; without
                // nodelay, Nagle + delayed ACK stalls every reply.
                let _ = s.set_nodelay(true);
                Conn::Tcp(s)
            }),
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

/// One accepted client connection (TCP or Unix).
enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    /// Closes both halves, unblocking any thread parked in a read.
    fn shutdown_both(&self) {
        match self {
            Conn::Tcp(s) => drop(s.shutdown(std::net::Shutdown::Both)),
            Conn::Unix(s) => drop(s.shutdown(std::net::Shutdown::Both)),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Shared daemon state: the baseline, the pool, counters and the stop
/// flag.
struct ServerCtx {
    baseline: Arc<Baseline>,
    pool: WorkerPool,
    recorder: RecorderHandle,
    /// The live telemetry registry behind the `stats` verb (None only
    /// when the config opts out of telemetry).
    live: Option<Arc<LiveRecorder>>,
    /// Tail-sampling trace dumps for SLO-breaching requests.
    flight: Option<Arc<FlightRecorder>>,
    started: Instant,
    bound: Bound,
    /// Socket closers for every live connection, keyed by accept order;
    /// each connection removes its own when it ends, and shutdown drains
    /// the rest to unblock threads parked in client reads.
    conns: Mutex<BTreeMap<u64, Conn>>,
    stop: AtomicBool,
    seq: AtomicU64,
    connections: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
}

impl ServerCtx {
    fn note_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        self.recorder.add(names::SERVE_ERRORS, 1);
    }

    /// Wakes the blocking `accept` so the loop can observe `stop`.
    fn wake_accept(&self) {
        match &self.bound {
            Bound::Tcp(addr) => drop(TcpStream::connect(addr)),
            Bound::Unix(path) => drop(UnixStream::connect(path)),
        }
    }
}

/// The daemon entry point; see [`Server::start`].
pub struct Server;

impl Server {
    /// Prepares the baseline, binds `endpoint` and starts serving on
    /// background threads. Returns immediately with a handle.
    pub fn start(config: ServeConfig, endpoint: Endpoint) -> Result<ServerHandle, String> {
        let baseline = Arc::new(Baseline::prepare(&config));
        Server::start_with_baseline(config, endpoint, baseline)
    }

    /// [`start`](Self::start) with an already-prepared baseline (shared
    /// by tests and the bench harness to avoid re-converging).
    pub fn start_with_baseline(
        config: ServeConfig,
        endpoint: Endpoint,
        baseline: Arc<Baseline>,
    ) -> Result<ServerHandle, String> {
        let (listener, bound) = match &endpoint {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
                let local = l
                    .local_addr()
                    .map_err(|e| format!("local_addr on {addr}: {e}"))?;
                (Listener::Tcp(l), Bound::Tcp(local))
            }
            Endpoint::Unix(path) => {
                // A stale socket file from a crashed daemon blocks bind.
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)
                    .map_err(|e| format!("bind {}: {e}", path.display()))?;
                (Listener::Unix(l), Bound::Unix(path.clone()))
            }
        };
        // The live plane replaces the old global-mutex recorder: all
        // `serve.*` metrics take the lock-free path, with the caller's
        // own sink fanned in only when it actually collects something.
        let live = config.telemetry.then(|| Arc::new(LiveRecorder::new()));
        let flight = match &config.flight_path {
            Some(path) => Some(Arc::new(
                FlightRecorder::create(path, config.slo_micros)
                    .map_err(|e| format!("flight recorder {}: {e}", path.display()))?,
            )),
            None => None,
        };
        let recorder = match &live {
            Some(live) if config.recorder.enabled() || config.recorder.trace_enabled() => {
                RecorderHandle::fanout(vec![
                    config.recorder.sink(),
                    Arc::clone(live) as Arc<dyn Recorder>,
                ])
            }
            Some(live) => RecorderHandle::new(Arc::clone(live) as Arc<dyn Recorder>),
            None => config.recorder.clone(),
        };
        let pool = WorkerPool::new(
            config.resolved_workers(),
            config.resolved_queue(),
            recorder.clone(),
        );
        let ctx = Arc::new(ServerCtx {
            baseline,
            pool,
            recorder,
            live,
            flight,
            started: Instant::now(),
            bound,
            conns: Mutex::new(BTreeMap::new()),
            stop: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        });
        let accept_ctx = Arc::clone(&ctx);
        let accept = std::thread::spawn(move || accept_loop(&listener, &accept_ctx));
        // The window ticker: rolls the live ring once a second so stats
        // can answer "over the last N seconds" queries. Polls the stop
        // flag at 100ms so shutdown never waits a full tick.
        let ticker = ctx.live.as_ref().map(|live| {
            let live = Arc::clone(live);
            let tick_ctx = Arc::clone(&ctx);
            std::thread::spawn(move || {
                let mut ticks = 0u32;
                while !tick_ctx.stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(100));
                    ticks += 1;
                    if ticks.is_multiple_of(10) {
                        live.roll();
                    }
                }
            })
        });
        Ok(ServerHandle {
            ctx,
            accept: Some(accept),
            ticker,
        })
    }
}

fn accept_loop(listener: &Listener, ctx: &Arc<ServerCtx>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for id in 0u64.. {
        let conn = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => {
                if ctx.stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if ctx.stop.load(Ordering::SeqCst) {
            break; // the wake-up connection, or late arrivals
        }
        if let Ok(closer) = conn.try_clone() {
            ctx.conns
                .lock()
                .expect("connection closer list mutex poisoned")
                .insert(id, closer);
        }
        let conn_ctx = Arc::clone(ctx);
        let handle = std::thread::spawn(move || {
            handle_connection(conn, &conn_ctx);
            // Drop this connection's closer so its socket closes now,
            // not at daemon shutdown.
            conn_ctx
                .conns
                .lock()
                .expect("connection closer list mutex poisoned")
                .remove(&id);
        });
        // Join the handlers of connections that already ended (each join
        // returns at once); only live ones are left for shutdown.
        let (ended, live): (Vec<_>, Vec<_>) = std::mem::take(&mut handlers)
            .into_iter()
            .partition(JoinHandle::is_finished);
        for ended in ended {
            let _ = ended.join();
        }
        handlers = live;
        handlers.push(handle);
    }
    // Force-close every live connection: threads parked in a client
    // read would otherwise keep the join below waiting forever.
    {
        let mut conns = ctx
            .conns
            .lock()
            .expect("connection closer list mutex poisoned");
        for conn in std::mem::take(&mut *conns).into_values() {
            conn.shutdown_both();
        }
    }
    for handle in handlers {
        let _ = handle.join();
    }
    ctx.pool.shutdown();
    if let Bound::Unix(path) = &ctx.bound {
        let _ = std::fs::remove_file(path);
    }
}

fn handle_connection(conn: Conn, ctx: &Arc<ServerCtx>) {
    ctx.connections.fetch_add(1, Ordering::Relaxed);
    ctx.recorder.add(names::SERVE_CONNECTIONS, 1);
    let Ok(read_half) = conn.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = conn;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the cap tells an over-long line from one that
        // fits exactly.
        let cap = MAX_REQUEST_BYTES as u64 + 1;
        match (&mut reader).take(cap).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let over_long = buf.len() > MAX_REQUEST_BYTES && !buf.ends_with(b"\n");
        let line = if over_long {
            Err(format!("request line exceeds {MAX_REQUEST_BYTES} bytes"))
        } else {
            std::str::from_utf8(&buf)
                .map(str::trim)
                .map_err(|_| "request line is not UTF-8".to_owned())
        };
        if line == Ok("") {
            continue;
        }
        let (response, initiate_shutdown) = respond(line, ctx);
        if writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
        if initiate_shutdown {
            // Trip the flag only after the acknowledgement is on the
            // wire — the accept loop force-closes sockets on its way
            // out, and the client deserves its response first.
            ctx.stop.store(true, Ordering::SeqCst);
            ctx.wake_accept();
            break;
        }
        // An over-long line is refused once, then the connection ends:
        // skipping to its newline would let the client stream forever.
        if over_long || ctx.stop.load(Ordering::SeqCst) {
            break;
        }
    }
}

/// Produces the response line for one request line (or the reason it
/// could not be read); the boolean asks the connection loop to start
/// daemon shutdown after writing it.
fn respond(line: Result<&str, String>, ctx: &Arc<ServerCtx>) -> (String, bool) {
    ctx.requests.fetch_add(1, Ordering::Relaxed);
    ctx.recorder.add(names::SERVE_REQUESTS, 1);
    let request = match line.and_then(proto::parse_request) {
        Ok(request) => request,
        Err(e) => {
            ctx.note_error();
            return (error_response(0, &e), false);
        }
    };
    match request {
        Request::Ping { id } => (ok_response(id, "\"pong\":true"), false),
        Request::Stats {
            id,
            prom,
            window_secs,
        } => (stats_response(ctx, id, prom, window_secs), false),
        Request::Health { id } => (
            ok_response(
                id,
                &format!(
                    "\"health\":\"ready\",\"uptime_secs\":{}",
                    ctx.started.elapsed().as_secs()
                ),
            ),
            false,
        ),
        Request::Shutdown { id } => (ok_response(id, "\"stopping\":true"), true),
        Request::Diagnose { id, job } => {
            let (reply_tx, reply_rx) = mpsc::channel();
            let job_ctx = Arc::clone(ctx);
            let seq = ctx.seq.fetch_add(1, Ordering::Relaxed);
            let enqueued = Instant::now();
            let submitted = ctx.pool.submit(Box::new(move || {
                let _ = reply_tx.send(serve_diagnose(&job_ctx, seq, id, &job, enqueued));
            }));
            let response = match submitted {
                Ok(()) => reply_rx
                    .recv()
                    .unwrap_or_else(|_| error_response(id, "worker dropped the request")),
                Err(full) => {
                    ctx.note_error();
                    error_response(id, &full.to_string())
                }
            };
            (response, false)
        }
    }
}

/// The `stats` verb: legacy counters plus (with the live plane mounted)
/// health, the full compacted report, the requested rate/percentile
/// window and the optional Prometheus exposition — all on one line.
fn stats_response(ctx: &ServerCtx, id: u64, prom: bool, window_secs: u64) -> String {
    let flight_dumps = ctx.flight.as_ref().map_or(0, |f| f.dumps());
    let mut extra = format!(
        "\"health\":\"ready\",\"uptime_secs\":{},\
         \"stats\":{{\"connections\":{},\"requests\":{},\"errors\":{},\"diagnoses\":{},\
         \"flight_dumps\":{flight_dumps}}}",
        ctx.started.elapsed().as_secs(),
        ctx.connections.load(Ordering::Relaxed),
        ctx.requests.load(Ordering::Relaxed),
        ctx.errors.load(Ordering::Relaxed),
        ctx.seq.load(Ordering::Relaxed),
    );
    if let Some(live) = &ctx.live {
        let report = live.snapshot();
        // The report serializer pretty-prints; the line protocol needs
        // one line. Raw newlines only ever appear as formatting (string
        // contents are escaped), so stripping them is safe.
        extra.push_str(",\"report\":");
        extra.push_str(&report.to_json().replace('\n', ""));
        if let Some(delta) = live.windowed(Duration::from_secs(window_secs.max(1))) {
            extra.push_str(",\"window\":");
            push_window_json(&mut extra, &delta);
        }
        if prom {
            extra.push_str(",\"prom\":");
            push_json_string(&mut extra, &report.to_prometheus());
        }
    }
    ok_response(id, &extra)
}

/// Renders a [`WindowDelta`] as a JSON object: per-counter rates in
/// increments/sec plus per-series percentile summaries over the window.
fn push_window_json(out: &mut String, delta: &WindowDelta) {
    out.push_str(&format!("{{\"secs\":{:.3},\"rates\":{{", delta.secs));
    let mut first = true;
    for (name, rate) in &delta.rates {
        if !first {
            out.push(',');
        }
        first = false;
        push_json_string(out, name);
        out.push_str(&format!(":{rate:.3}"));
    }
    out.push_str("},");
    for (section, series, unit) in [
        ("histograms", &delta.histograms, ""),
        ("spans", &delta.spans, "_ns"),
    ] {
        out.push_str(&format!("\"{section}\":{{"));
        let mut first = true;
        for (name, s) in series {
            if !first {
                out.push(',');
            }
            first = false;
            push_json_string(out, name);
            out.push_str(&format!(
                ":{{\"count\":{},\"p50{unit}\":{},\"p90{unit}\":{},\"p99{unit}\":{}}}",
                s.count,
                s.percentile(50),
                s.percentile(90),
                s.percentile(99),
            ));
        }
        out.push_str(if section == "spans" { "}" } else { "}," });
    }
    out.push('}');
}

/// Nanoseconds elapsed since `start`, saturating.
fn elapsed_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The worker-side shell around one diagnose request: records the queue
/// wait, runs the diagnosis with per-phase timing, and hands the result
/// to the flight recorder for the tail-sampling decision.
fn serve_diagnose(
    ctx: &Arc<ServerCtx>,
    seq: u64,
    id: u64,
    job: &DiagnoseJob,
    enqueued: Instant,
) -> String {
    let queue_nanos = elapsed_nanos(enqueued);
    ctx.recorder
        .record_span(names::SERVE_PHASE_QUEUE, queue_nanos);
    let _span = ctx.recorder.span(names::SERVE_REQUEST);
    // This worker's always-on ring, cleared so a dump holds exactly this
    // request's causal trace.
    let ring = ctx.flight.as_ref().map(|_| FLIGHT_RING.with(Arc::clone));
    if let Some(ring) = &ring {
        ring.clear();
    }
    let mut phases = PhaseNanos {
        queue: queue_nanos,
        ..PhaseNanos::default()
    };
    let started = Instant::now();
    let response = match handle_diagnose(ctx, seq, id, job, ring.as_ref(), &mut phases) {
        Ok(response) => response,
        Err(e) => {
            ctx.note_error();
            error_response(id, &e)
        }
    };
    if let (Some(flight), Some(ring)) = (&ctx.flight, &ring) {
        let latency = queue_nanos.saturating_add(elapsed_nanos(started));
        if flight.observe_request(id, seq, latency, &phases, ring) {
            ctx.recorder.add(names::SERVE_FLIGHT_DUMPS, 1);
        }
    }
    response
}

/// Runs one diagnosis on a worker thread: resolve inputs against the
/// baseline, build an owned diagnoser, structure the report, optionally
/// replay the request's own trace into a narrative.
fn handle_diagnose(
    ctx: &Arc<ServerCtx>,
    seq: u64,
    id: u64,
    job: &DiagnoseJob,
    ring: Option<&Arc<TraceRecorder>>,
    phases: &mut PhaseNanos,
) -> Result<String, String> {
    let _trial = netdiag_obs::trial_scope(seq as u32, 0);
    let _phase = netdiag_obs::phase_scope(netdiag_obs::Phase::Diagnose);

    // Per-request trace streams fanned out on top of the daemon's own
    // metrics sink: one for `explain` (fresh, becomes the narrative),
    // one for the flight recorder (the worker's reusable ring).
    let tracer = job.explain.then(|| Arc::new(TraceRecorder::new()));
    let recorder = if tracer.is_some() || ring.is_some() {
        let mut sinks: Vec<Arc<dyn Recorder>> = vec![ctx.recorder.sink()];
        if let Some(t) = &tracer {
            sinks.push(Arc::clone(t) as Arc<dyn Recorder>);
        }
        if let Some(r) = ring {
            sinks.push(Arc::clone(r) as Arc<dyn Recorder>);
        }
        RecorderHandle::fanout(sinks)
    } else {
        ctx.recorder.clone()
    };

    let restore_started = Instant::now();
    let baseline = &ctx.baseline;
    let sensors = match &job.sensors {
        Some(text) => parse_sensors(text).map_err(|e| format!("sensors: {e}"))?,
        None => baseline.sensors().to_vec(),
    };
    let before = match &job.before {
        Some(text) => parse_snapshot(text).map_err(|e| format!("before: {e}"))?,
        None => baseline.before().clone(),
    };
    let after = parse_snapshot(&job.after).map_err(|e| format!("after: {e}"))?;
    let obs = Observations {
        sensors,
        before,
        after,
    };
    let feed = match &job.feed {
        Some(text) => parse_feed(text).map_err(|e| format!("feed: {e}"))?,
        None => RoutingFeed::default(),
    };
    let config = DiagnosticsConfig {
        algorithm: job.algo,
        min_confidence: job.min_confidence,
        max_issues: job.max_issues,
        ..Default::default()
    };
    let builder = NetDiagnoser::builder()
        .config(config)
        .routing_feed(feed)
        .recorder(recorder);
    let builder: NetDiagnoserBuilder = match &job.lg {
        Some(text) => {
            let lg = RecordedLookingGlass::parse(text).map_err(|e| format!("lg: {e}"))?;
            builder.looking_glass(lg)
        }
        None => builder.looking_glass(baseline.looking_glass()),
    };
    let ip2as: Box<dyn IpToAs + '_> = match &job.ip2as {
        Some(text) => Box::new(RecordedIpToAs::parse(text).map_err(|e| format!("ip2as: {e}"))?),
        None => Box::new(baseline.ip_to_as()),
    };
    phases.restore = elapsed_nanos(restore_started);
    ctx.recorder
        .record_span(names::SERVE_PHASE_RESTORE, phases.restore);

    let diagnose_started = Instant::now();
    let report = builder
        .build()
        .report(&obs, ip2as.as_ref())
        .map_err(|e| e.to_string())?;
    phases.diagnose = elapsed_nanos(diagnose_started);
    ctx.recorder
        .record_span(names::SERVE_PHASE_DIAGNOSE, phases.diagnose);

    let render_started = Instant::now();
    let narrative = tracer.map(|t| {
        explain(
            &t.to_jsonl(),
            &ExplainFilter {
                placement: Some(seq as u32),
                trial: Some(0),
                algo: None,
            },
        )
        .unwrap_or_else(|e| format!("no narrative: {e}"))
    });
    let response = diagnose_response(
        id,
        &report.to_json(),
        &report.to_string(),
        narrative.as_deref(),
    );
    phases.render = elapsed_nanos(render_started);
    ctx.recorder
        .record_span(names::SERVE_PHASE_RENDER, phases.render);
    Ok(response)
}

/// A running daemon.
///
/// Dropping the handle without calling [`stop`](Self::stop) or
/// [`join`](Self::join) stops the daemon (blocking until threads
/// drain), so tests cannot leak listeners.
pub struct ServerHandle {
    ctx: Arc<ServerCtx>,
    accept: Option<JoinHandle<()>>,
    ticker: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound TCP address (`None` for Unix endpoints) — resolves
    /// port 0 requests.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match &self.ctx.bound {
            Bound::Tcp(addr) => Some(*addr),
            Bound::Unix(_) => None,
        }
    }

    /// The baseline this daemon serves (tests and the bench harness
    /// sample request scenarios from it).
    pub fn baseline(&self) -> &Arc<Baseline> {
        &self.ctx.baseline
    }

    /// A point-in-time snapshot of the live telemetry registry (`None`
    /// when the config opted out of telemetry). What `--profile` writes
    /// and the bench harness reads — the in-process mirror of the
    /// `stats` verb.
    pub fn live_report(&self) -> Option<RunReport> {
        self.ctx.live.as_ref().map(|live| live.snapshot())
    }

    /// The live telemetry registry itself (`None` when the config opted
    /// out). Clone the [`Arc`] to snapshot after
    /// [`join`](Self::join)/[`stop`](Self::stop) consume the handle —
    /// `--profile` does exactly that.
    pub fn live(&self) -> Option<Arc<LiveRecorder>> {
        self.ctx.live.clone()
    }

    /// Flight-recorder dumps written so far (`None` when no flight
    /// recorder is mounted).
    pub fn flight_dumps(&self) -> Option<u64> {
        self.ctx.flight.as_ref().map(|f| f.dumps())
    }

    /// Requests shutdown and blocks until every thread has drained.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    /// Blocks until the daemon is shut down remotely (`shutdown` op).
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(ticker) = self.ticker.take() {
            let _ = ticker.join();
        }
    }

    fn stop_inner(&mut self) {
        self.ctx.stop.store(true, Ordering::SeqCst);
        self.ctx.wake_accept();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(ticker) = self.ticker.take() {
            let _ = ticker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_inner();
        }
    }
}
