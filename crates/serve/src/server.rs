//! The long-lived query service — sharded worker execution.
//!
//! One process serves one probabilistic database instance. Connections
//! speak the NDJSON protocol of [`crate::protocol`]; a single
//! **connection-multiplexing I/O loop** owns every socket (non-blocking
//! accept + per-connection read/write buffers over `std::net`, zero
//! dependencies; between passes it sleeps in `poll(2)` until a socket is
//! ready or a worker delivers a response, see `poll.rs`), decodes
//! complete request lines, answers light ops
//! (`classify`/`update`/`stats`/`metrics`/`shutdown`) inline, and feeds
//! heavy ops (`estimate`/`reliability`/`graph_estimate`) into a bounded
//! MPMC work queue ([`crate::queue`]). Backpressure is queue-depth-based:
//! a push onto a full queue fails immediately and the client gets a
//! structured `overloaded` error — rejection, never unbounded queueing.
//!
//! A fixed pool of N **worker shards** drains the queue. Each worker owns
//! a private [`crate::cache::ShardCache`] of compiled plans plus per-plan
//! result memos — single-owner state, so the hot path takes no cache lock
//! at all (the old design's sharded-LRU cross-shard lock traffic is
//! gone). Duplicate *concurrent* work is removed by **single-flight**
//! deduplication ([`crate::flight`]): evaluations are keyed by
//! `(op, method, normalized query, ε, seed, threads, delay)`, and a
//! request whose key is already in flight parks its reply slot on the
//! leader instead of recomputing — sound because an estimate is a pure
//! function of that key, so the leader's response is byte-for-byte the
//! one the follower would have computed.
//!
//! Responses are delivered through per-connection **mailboxes** keyed by
//! request sequence number, so a connection that pipelines requests gets
//! its responses in request order even when workers complete them out of
//! order. Deadlines stay cooperative, checked at phase boundaries
//! (post-queue, post-delay, post-compile, post-execute).
//!
//! Every heavy op runs one path (`process_job` → `compute`): the
//! request is parsed into a [`pqe_core::Target`] (a CQ with a method, a
//! conditional, a CQ for reliability, or an RPQ with a graph method),
//! then delay → cache/compile → refresh → execute, with one `(ε, seed)`
//! memo helper and one writer for the route fields routed and graph
//! answers share. Each cached entry holds one [`pqe_core::Plan`], keyed
//! by [`pqe_core::Target::key`]: `op | method | normalized-query` —
//! normalization is parse → print, so whitespace and atom formatting
//! differences collapse onto one entry while variable renamings stay
//! distinct. A hit skips the entire
//! reduction chain (classification, hypertree decomposition, NFTA
//! construction, multiplier translation) and goes straight to sampling
//! with the request's own `(ε, seed, threads)`; because execution is a
//! pure function of plan + config, a served estimate is
//! **bit-identical** to the same CLI invocation — hit, miss, or
//! coalesced.
//!
//! The served database is **live**: the `update` op applies a
//! `pqe-delta` batch atomically under a write lock on the
//! [`pqe_delta::VersionedDb`], bumping the per-relation epoch counters.
//! Invalidation is lazy and **scoped**: nothing is broadcast to the
//! shards; instead each worker snapshots `(facts, epochs, generation)`
//! at job start, and a cached plan whose recorded generation is behind
//! makes one [`pqe_core::Plan::revalidate`] call against the epochs of
//! *its own* relations. That call owns the freshness policy:
//!
//! | plan | probabilities changed | structure changed |
//! |---|---|---|
//! | routed | lifted re-solve or in-place reweight (recompile as fallback) | recompile |
//! | conditional | recompile | recompile |
//! | reliability | restamp, plan and memo kept | recompile |
//! | graph | never stale: deltas do not touch the graph | never stale |
//!
//! A plan the policy keeps survives with its `(ε, seed)` memo intact
//! (`delta.kept_plans`); a refreshed plan drops its memo
//! (`delta.invalidated_plans`), reported to the client as
//! `"cache":"invalidated"`. The single-flight key carries the generation,
//! so responses computed against different database versions never
//! coalesce.

use crate::affinity::Placement;
use crate::cache::{hit_rate, CacheCounters, ShardCache};
use crate::flight::{Flight, FlightTable};
use crate::json::Json;
use crate::poll::{PollSet, Waker};
use crate::protocol::{error_response, ErrorKind, Params, Request};
use crate::queue::Queue;
use pqe_automata::FprasConfig;
use pqe_core::landscape::{self, Classification, Verdict};
use pqe_core::{Compiled, Plan, Revalidation, Route, RouteDecision, RoutedAnswer, Target};
use pqe_db::ProbDatabase;
use pqe_delta::{Delta, Epochs, VersionedDb};
use pqe_graph::ProbGraph;
use pqe_obs::log::{event, Level};
use pqe_obs::metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
use pqe_par::FxHashMap;
use pqe_query::{parse, ConjunctiveQuery};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Longest sleep of the I/O loop between passes. Every event it serves
/// (a connection, a request byte, a writable socket, a worker's delivery)
/// ends the sleep at once; the bound only caps a wait on none.
const POLL_TIMEOUT: Duration = Duration::from_millis(100);

/// A request line longer than this kills the connection (resync after an
/// unbounded partial line is impossible; real requests are < 1 KiB).
const MAX_LINE_BYTES: usize = 1 << 20;

/// Every serve quantity, as a handle into the server's own registry
/// resolved once at bind time; the per-request cost is a few relaxed
/// atomic adds. `stats` and `metrics` both read these handles.
struct ServeMetrics {
    /// Time a heavy request spent queued before a worker picked it up.
    queue_wait_us: Arc<Histogram>,
    /// End-to-end latency per heavy op (received → response built).
    estimate_us: Arc<Histogram>,
    reliability_us: Arc<Histogram>,
    graph_us: Arc<Histogram>,
    /// Decoded request lines, then the count of each op.
    requests: Arc<Counter>,
    estimates: Arc<Counter>,
    reliabilities: Arc<Counter>,
    graph_estimates: Arc<Counter>,
    classifies: Arc<Counter>,
    updates: Arc<Counter>,
    /// Queue admission outcomes (the backpressure counters); a rejection
    /// is the `overloaded` error.
    enqueued: Arc<Counter>,
    queue_rejected: Arc<Counter>,
    /// The other error responses, by kind.
    timeouts: Arc<Counter>,
    bad_requests: Arc<Counter>,
    eval_errors: Arc<Counter>,
    /// Requests answered with another request's in-flight evaluation.
    coalesced: Arc<Counter>,
    /// Actual sampling executions (memo misses that ran `execute`).
    executions: Arc<Counter>,
    /// Pending items in the work queue, sampled at push/pop.
    queue_depth: Arc<Gauge>,
    /// Currently open client connections.
    connections: Arc<Gauge>,
    /// Successfully applied `update` batches.
    delta_applied: Arc<Counter>,
    /// Cached plans refreshed (memo dropped) after a database update.
    delta_invalidated: Arc<Counter>,
    /// Cached plans that survived a generation change untouched.
    delta_kept: Arc<Counter>,
}

impl ServeMetrics {
    fn resolve(r: &Registry) -> ServeMetrics {
        ServeMetrics {
            queue_wait_us: r.histogram("serve.queue_wait_us"),
            estimate_us: r.histogram("serve.request_us.estimate"),
            reliability_us: r.histogram("serve.request_us.reliability"),
            graph_us: r.histogram("serve.request_us.graph_estimate"),
            requests: r.counter("serve.requests"),
            estimates: r.counter("serve.requests.estimate"),
            reliabilities: r.counter("serve.requests.reliability"),
            graph_estimates: r.counter("serve.requests.graph_estimate"),
            classifies: r.counter("serve.requests.classify"),
            updates: r.counter("serve.requests.update"),
            enqueued: r.counter("serve.enqueued"),
            queue_rejected: r.counter("serve.queue_rejected"),
            timeouts: r.counter("serve.errors.timeout"),
            bad_requests: r.counter("serve.errors.bad_request"),
            eval_errors: r.counter("serve.errors.eval_error"),
            coalesced: r.counter("serve.singleflight_coalesced"),
            executions: r.counter("serve.executions"),
            queue_depth: r.gauge("serve.queue_depth"),
            connections: r.gauge("serve.connections"),
            delta_applied: r.counter("serve.delta.applied"),
            delta_invalidated: r.counter("serve.delta.invalidated_plans"),
            delta_kept: r.counter("serve.delta.kept_plans"),
        }
    }
}

/// One worker shard's handles: its plan cache's counters (the cache
/// counts into them itself), result-memo hits, and jobs processed
/// (occupancy attribution).
struct ShardMetrics {
    cache: CacheCounters,
    memo_hits: Arc<Counter>,
    jobs: Arc<Counter>,
}

impl ShardMetrics {
    fn resolve(r: &Registry, shard: usize) -> ShardMetrics {
        let prefix = format!("serve.shard{shard}");
        ShardMetrics {
            cache: CacheCounters::resolve(r, &prefix),
            memo_hits: r.counter(&format!("{prefix}.memo_hits")),
            jobs: r.counter(&format!("{prefix}.jobs")),
        }
    }
}

/// Plan-cache counters summed over a set of shards.
struct CacheTotals {
    hits: u64,
    misses: u64,
    evictions: u64,
    resident: u64,
    memo_hits: u64,
}

impl CacheTotals {
    fn of<'a>(shards: impl IntoIterator<Item = &'a ShardMetrics>) -> CacheTotals {
        let mut t = CacheTotals { hits: 0, misses: 0, evictions: 0, resident: 0, memo_hits: 0 };
        for s in shards {
            t.hits += s.cache.hits.get();
            t.misses += s.cache.misses.get();
            t.evictions += s.cache.evictions.get();
            t.resident += s.cache.resident.get().max(0) as u64;
            t.memo_hits += s.memo_hits.get();
        }
        t
    }
}

/// Tuning knobs of one service instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; port 0 binds an ephemeral port.
    pub addr: String,
    /// Worker shards draining the queue (each owns a private plan cache).
    pub workers: usize,
    /// Bounded work-queue capacity; a heavy request arriving at a full
    /// queue receives `overloaded` (rejection, never unbounded queueing).
    pub queue_depth: usize,
    /// Per-request wall-clock budget, enforced at phase boundaries.
    pub deadline_ms: u64,
    /// Compiled-plan cache capacity (entries, across all worker shards).
    pub cache_capacity: usize,
    /// Default worker threads for requests that don't specify their own
    /// (`0` = auto: `PQE_THREADS`, else available parallelism). Never
    /// changes an estimate, only its wall-clock.
    pub threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_depth: 64,
            deadline_ms: 30_000,
            cache_capacity: 256,
            threads: 0,
        }
    }
}

/// A compiled, cached answer path for one `(op, method, query)` key.
///
/// Besides the compiled artifact, each plan carries a bounded **result
/// memo**: executed estimates keyed by `(ε, seed)`. An estimate is a pure
/// function of plan + `(ε, seed)` — the thread count only changes
/// wall-clock — so replaying a memoized result is bit-identical to
/// recounting, and turns a repeat request into a hash lookup instead of
/// a full sampling run. Plans are worker-owned: no lock, plain fields.
pub struct ServedPlan {
    /// The compiled target. The CLI compiles the same `Plan` for the same
    /// target, so served digits are bit-identical to `pqe estimate`,
    /// `pqe reliability` and `pqe graph-estimate`.
    plan: Plan,
    memo: Memo,
    /// Database generation the plan (and its memo) was last validated
    /// against; a hit at a newer generation triggers revalidation.
    generation: u64,
}

/// A plan's result memo: finished digits keyed by `(ε bits, seed)`.
type Memo = FxHashMap<(u64, u64), String>;

/// Entries kept per plan before the memo is wholesale cleared; estimates
/// are tiny strings, this only bounds degenerate seed-sweeping clients.
const MEMO_CAP: usize = 256;

/// A per-connection reply slot map: workers deliver responses keyed by
/// request sequence number; the I/O loop writes them out in order.
struct Mailbox {
    slots: Mutex<BTreeMap<u64, String>>,
    /// The I/O loop's waker, signalled on every delivery.
    waker: Arc<Waker>,
}

impl Mailbox {
    fn new(waker: Arc<Waker>) -> Arc<Mailbox> {
        Arc::new(Mailbox { slots: Mutex::new(BTreeMap::new()), waker })
    }

    /// Parks `response` for the request with sequence number `seq` and
    /// wakes the I/O loop to write it out.
    fn deliver(&self, seq: u64, response: String) {
        self.slots.lock().expect("mailbox poisoned").insert(seq, response);
        self.waker.wake();
    }

    /// Removes and returns the response for `seq` if it has arrived.
    fn pop_ready(&self, seq: u64) -> Option<String> {
        self.slots.lock().expect("mailbox poisoned").remove(&seq)
    }
}

/// One heavy request in the work queue.
struct Job {
    /// An `estimate`, `reliability` or `graph_estimate` request.
    request: Request,
    /// The op's `serve.request_us.<op>` latency histogram.
    latency_us: Arc<Histogram>,
    mailbox: Arc<Mailbox>,
    seq: u64,
    /// When the complete request line was decoded (deadline base).
    received: Instant,
}

/// The waiter identity parked on an in-flight evaluation.
type Waiter = (Arc<Mailbox>, u64);

/// The immutable view of the versioned database one job runs against:
/// facts + probabilities, relation epochs, and the generation both belong
/// to. A worker snapshots once per job, so an `update` landing mid-job
/// never moves the data under a running evaluation — the next job simply
/// sees the next generation.
struct Snapshot {
    h: Arc<ProbDatabase>,
    epochs: Arc<Epochs>,
    generation: u64,
}

fn take_snapshot(state: &ServerState) -> Snapshot {
    let db = state.db.read().expect("db lock poisoned");
    Snapshot { h: db.snapshot(), epochs: db.shared_epochs(), generation: db.generation() }
}

struct ServerState {
    /// The served database, epoch-versioned so `update` can mutate it.
    /// Readers (workers, `stats`) take cheap `Arc` snapshots; only the
    /// `update` op writes.
    db: RwLock<VersionedDb>,
    /// The served probabilistic graph, when the server was started with
    /// one; `graph_estimate` without it is a structured `eval_error`.
    g: Option<Arc<ProbGraph>>,
    cfg: ServeConfig,
    addr: SocketAddr,
    queue: Queue<Job>,
    flights: FlightTable<Waiter>,
    /// This server's metrics: `metrics` reports them merged with the
    /// process-wide registry (estimator and router counters).
    registry: Registry,
    metrics: ServeMetrics,
    shard_metrics: Vec<ShardMetrics>,
    per_shard_capacity: usize,
    shutdown: AtomicBool,
    started: Instant,
    /// Ends the I/O loop's readiness wait when a response is delivered.
    waker: Arc<Waker>,
}

/// A bound, not-yet-running server. [`Server::run`] blocks until a
/// `shutdown` request arrives.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

type ReqError = (ErrorKind, String);

fn verdict_tag(v: Verdict) -> &'static str {
    match v {
        Verdict::ExactAndFpras => "exact+fpras",
        Verdict::FprasOnly => "fpras-only",
        Verdict::ExactOnly => "exact-only",
        Verdict::Open => "open",
    }
}

impl Server {
    /// Binds the listener and prepares the shared state. The database is
    /// the initial version; `update` requests may mutate it later.
    pub fn bind(cfg: ServeConfig, h: ProbDatabase) -> std::io::Result<Server> {
        Server::bind_with_graph(cfg, h, None)
    }

    /// [`Server::bind`] plus an optional probabilistic graph instance,
    /// served via the `graph_estimate` op. Without one, `graph_estimate`
    /// requests get a structured `eval_error`.
    pub fn bind_with_graph(
        cfg: ServeConfig,
        h: ProbDatabase,
        g: Option<ProbGraph>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        // Resolved here, unpinned: a pinned worker sees one CPU.
        let threads = pqe_par::resolve_threads(cfg.threads);
        let cfg = ServeConfig { workers, threads, ..cfg };
        let per_shard_capacity = (cfg.cache_capacity / workers).max(1);
        let registry = Registry::default();
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                db: RwLock::new(VersionedDb::new(h)),
                g: g.map(Arc::new),
                addr,
                queue: Queue::new(cfg.queue_depth),
                flights: FlightTable::new(),
                metrics: ServeMetrics::resolve(&registry),
                shard_metrics: (0..workers).map(|i| ShardMetrics::resolve(&registry, i)).collect(),
                registry,
                per_shard_capacity,
                shutdown: AtomicBool::new(false),
                started: Instant::now(),
                waker: Arc::new(Waker::new()?),
                cfg,
            }),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Runs the service: spawns the worker shards, then multiplexes every
    /// connection on the calling thread until a `shutdown` request flips
    /// the flag. Returns once queued work has drained (condvar-notified,
    /// bounded) and pending responses are flushed.
    pub fn run(self) -> std::io::Result<()> {
        let Server { listener, state } = self;
        listener.set_nonblocking(true)?;
        let workers: Vec<_> = Placement::plan(state.cfg.workers)
            .into_iter()
            .enumerate()
            .map(|(shard, placement)| {
                let st = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("pqe-serve-shard{shard}"))
                    .spawn(move || worker_loop(st, shard, placement))
            })
            .collect::<std::io::Result<_>>()?;

        let mut conns: Vec<Conn> = Vec::new();
        let mut ready = PollSet::default();
        while !state.shutdown.load(Ordering::Acquire) {
            // Consume pending wakes before looking for work: a delivery
            // after the look wakes the wait below at once.
            state.waker.reset();
            let mut progress = false;
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(true).ok();
                        stream.set_nodelay(true).ok();
                        conns.push(Conn::new(stream, Arc::clone(&state.waker)));
                        progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
            for conn in conns.iter_mut() {
                progress |= conn.pump_reads(&state);
                progress |= conn.pump_writes();
            }
            let before = conns.len();
            conns.retain(Conn::alive);
            progress |= conns.len() != before;
            state.metrics.connections.set(conns.len() as i64);
            if progress {
                continue;
            }
            // Nothing moved: sleep until a socket or a worker has
            // something, instead of spinning beside the workers.
            ready.clear();
            ready.add_waker(&state.waker);
            ready.add(&listener, true, false);
            for conn in &conns {
                ready.add(&conn.stream, !conn.eof, !conn.wbuf.is_empty());
            }
            ready.wait(POLL_TIMEOUT);
        }

        // Drain: wait (condvar-notified — no sleep-polling) for every
        // queued job to finish; workers deliver into mailboxes meanwhile.
        state.queue.wait_idle_for(Duration::from_secs(10));
        // Flush the final responses (including the `shutdown` ack).
        let flush_deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let mut pending = false;
            for conn in conns.iter_mut() {
                conn.pump_writes();
                pending |= !conn.dead && !conn.flushed();
            }
            if !pending || Instant::now() >= flush_deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Stop the shards: close wakes every blocked pop immediately.
        state.queue.close();
        for w in workers {
            let _ = w.join();
        }
        state.metrics.connections.set(0);
        Ok(())
    }
}

/// One multiplexed client connection (owned by the I/O loop).
struct Conn {
    stream: TcpStream,
    /// Accumulates bytes until a complete `\n`-terminated line arrives.
    rbuf: Vec<u8>,
    /// Encoded responses not yet accepted by the socket.
    wbuf: Vec<u8>,
    mailbox: Arc<Mailbox>,
    /// Sequence number assigned to the next decoded request.
    next_seq: u64,
    /// Sequence number whose response is written out next.
    next_write: u64,
    /// Peer closed its write half (no more requests will arrive).
    eof: bool,
    /// Unrecoverable socket error or protocol violation: drop silently.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, waker: Arc<Waker>) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            mailbox: Mailbox::new(waker),
            next_seq: 0,
            next_write: 0,
            eof: false,
            dead: false,
        }
    }

    /// Every accepted request has had its response written out.
    fn flushed(&self) -> bool {
        self.next_write == self.next_seq && self.wbuf.is_empty()
    }

    fn alive(&self) -> bool {
        !(self.dead || (self.eof && self.flushed()))
    }

    /// Reads whatever the socket has, splits complete lines, dispatches
    /// them. Returns `true` when any byte or request moved.
    fn pump_reads(&mut self, state: &Arc<ServerState>) -> bool {
        if self.dead || self.eof {
            return false;
        }
        let mut progress = false;
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&buf[..n]);
                    progress = true;
                    if self.rbuf.len() > MAX_LINE_BYTES {
                        // No way to resync a runaway partial line.
                        self.dead = true;
                        return true;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return true;
                }
            }
        }
        while let Some(pos) = self.rbuf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.rbuf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line);
            dispatch_line(state, self, line.trim());
            progress = true;
            if state.shutdown.load(Ordering::Acquire) {
                break; // ignore anything pipelined after `shutdown`
            }
        }
        progress
    }

    /// Moves in-order completed responses into the write buffer and
    /// pushes bytes to the socket. Returns `true` when any byte moved.
    fn pump_writes(&mut self) -> bool {
        if self.dead {
            return false;
        }
        let mut progress = false;
        while let Some(resp) = self.mailbox.pop_ready(self.next_write) {
            self.wbuf.extend_from_slice(resp.as_bytes());
            self.wbuf.push(b'\n');
            self.next_write += 1;
            progress = true;
        }
        while !self.wbuf.is_empty() {
            match self.stream.write(&self.wbuf) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.wbuf.drain(..n);
                    progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        progress
    }
}

/// Decodes one request line on the I/O thread and routes it: light ops
/// are answered inline, heavy ops are enqueued (or rejected `overloaded`
/// when the queue is full). Every path delivers exactly one response for
/// the assigned sequence number.
fn dispatch_line(state: &Arc<ServerState>, conn: &mut Conn, line: &str) {
    if line.is_empty() {
        return;
    }
    let seq = conn.next_seq;
    conn.next_seq += 1;
    state.metrics.requests.inc();
    let request = match Request::decode(line) {
        Ok(r) => r,
        Err(msg) => {
            conn.mailbox.deliver(seq, finish(state, Err((ErrorKind::BadRequest, msg))));
            return;
        }
    };
    match request {
        Request::Classify { query } => {
            state.metrics.classifies.inc();
            let r = classify_response(&query);
            conn.mailbox.deliver(seq, finish(state, r));
        }
        Request::Update { delta } => {
            state.metrics.updates.inc();
            let r = apply_update(state, &delta);
            conn.mailbox.deliver(seq, finish(state, r));
        }
        Request::Stats => conn.mailbox.deliver(seq, stats_response(state).to_string()),
        Request::Metrics => conn.mailbox.deliver(seq, metrics_response(state).to_string()),
        Request::Shutdown => {
            conn.mailbox.deliver(
                seq,
                Json::obj([("ok", Json::Bool(true)), ("op", Json::str("shutdown"))]).to_string(),
            );
            state.shutdown.store(true, Ordering::Release);
        }
        heavy @ (Request::Estimate { .. }
        | Request::Reliability { .. }
        | Request::GraphEstimate { .. }) => {
            let m = &state.metrics;
            let (count, latency_us) = match heavy {
                Request::Estimate { .. } => (&m.estimates, &m.estimate_us),
                Request::Reliability { .. } => (&m.reliabilities, &m.reliability_us),
                _ => (&m.graph_estimates, &m.graph_us),
            };
            count.inc();
            let job = Job {
                latency_us: Arc::clone(latency_us),
                request: heavy,
                mailbox: Arc::clone(&conn.mailbox),
                seq,
                received: Instant::now(),
            };
            match state.queue.try_push(job) {
                Ok(depth) => {
                    state.metrics.enqueued.inc();
                    state.metrics.queue_depth.set(depth as i64);
                }
                Err(job) => {
                    event(Level::Debug, "serve", || {
                        format!("queue full at depth {}", state.queue.capacity())
                    });
                    let msg = format!(
                        "work queue full ({} pending, capacity {}); retry later",
                        state.queue.depth(),
                        state.queue.capacity()
                    );
                    job.mailbox.deliver(seq, finish(state, Err((ErrorKind::Overloaded, msg))));
                }
            }
        }
    }
}

/// One worker shard, on its CPU (see [`crate::affinity`]): drains the
/// queue with a private plan cache, which counts hits, misses, evictions
/// and resident plans straight into the shard's registry handles.
fn worker_loop(state: Arc<ServerState>, shard: usize, placement: Placement) {
    placement.pin();
    let sm = &state.shard_metrics[shard];
    let mut cache = ShardCache::new(state.per_shard_capacity, sm.cache.clone());
    while let Some(job) = state.queue.pop() {
        state.metrics.queue_depth.set(state.queue.depth() as i64);
        sm.jobs.inc();
        {
            let _s = pqe_obs::span::span("serve.eval");
            process_job(&state, sm, &mut cache, &placement, job);
        }
        state.queue.done();
    }
}

/// Runs one heavy request through parse → single-flight → `compute`,
/// delivering to the caller and every coalesced waiter, then records the
/// op's latency. A request that coalesces onto another's flight returns
/// early: the leader owns its delivery and latency attribution.
fn process_job(
    state: &ServerState,
    sm: &ShardMetrics,
    cache: &mut ShardCache<ServedPlan>,
    placement: &Placement,
    job: Job,
) {
    let Job { request, latency_us, mailbox, seq, received } = job;
    state.metrics.queue_wait_us.record(elapsed_us(received));
    let snap = take_snapshot(state);
    // Parse/normalize first: errors and deadline shedding need no flight.
    let parsed = parse_target(state, &request)
        .and_then(|parsed| check_deadline(state, received, "queue").map(|()| parsed));
    let (target, params) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            mailbox.deliver(seq, finish(state, Err(e)));
            latency_us.record(elapsed_us(received));
            return;
        }
    };
    let threads = if params.threads != 0 { params.threads } else { state.cfg.threads };
    let cache_key = target.key();
    // The single-flight key pins every input the response depends on —
    // the evaluation inputs (plan key, database generation, ε, seed)
    // plus the reported thread count and the delay knob — so coalesced
    // responses are exactly what the follower's own evaluation would
    // have printed. The generation keeps an evaluation against the
    // pre-update database from answering a post-update request.
    let flight_key = format!(
        "{cache_key}|g{}|{:016x}|{}|{threads}|{}",
        snap.generation,
        params.epsilon.to_bits(),
        params.seed,
        params.delay_ms
    );
    if let Flight::Coalesced = state.flights.join(&flight_key, (Arc::clone(&mailbox), seq)) {
        state.metrics.coalesced.inc();
        return;
    }
    let ctx = Ctx {
        state,
        snap,
        sm,
        received,
        cfg: FprasConfig::with_epsilon(params.epsilon)
            .with_seed(params.seed)
            .with_threads(threads),
    };
    // Threads the evaluation spawns inherit the worker's CPU mask: a
    // fan-out runs unpinned.
    if threads > 1 {
        placement.unpin();
    }
    let response = finish(state, compute(&ctx, cache, target, &cache_key, params.delay_ms));
    if threads > 1 {
        placement.pin();
    }
    // Completing after computing (never before) guarantees every request
    // that joined saw either the flight or the memo.
    for (wmb, wseq) in &state.flights.complete(&flight_key) {
        wmb.deliver(*wseq, response.clone());
    }
    mailbox.deliver(seq, response);
    latency_us.record(elapsed_us(received));
}

/// Parses a queued heavy request into the [`Target`] it compiles. Parsing
/// normalizes the query text (parse → print), so whitespace and atom
/// formatting differences collapse onto one plan key. A syntax error is a
/// `bad_request`; a `graph_estimate` on a server without a graph is an
/// `eval_error`.
fn parse_target(state: &ServerState, request: &Request) -> Result<(Target, Params), ReqError> {
    match request {
        Request::Estimate { query, evidence, method, params } => {
            let q = parse_cq(query, "query")?;
            let method = *method;
            // Evidence is query syntax too: a typo is a `bad_request`
            // before any flight or compilation.
            let target = match evidence {
                Some(e) => Target::Conditional { q, evidence: parse_cq(e, "evidence")?, method },
                None => Target::Query { q, method },
            };
            Ok((target, *params))
        }
        Request::Reliability { query, params } => {
            Ok((Target::Reliability(parse_cq(query, "query")?), *params))
        }
        Request::GraphEstimate { rpq, method, params } => {
            let rpq = pqe_graph::parse(rpq)
                .map_err(|e| (ErrorKind::BadRequest, format!("rpq: {e}")))?;
            let graph = state.g.clone().ok_or_else(|| {
                eval_error("no graph loaded (start the server with --graph FILE)")
            })?;
            Ok((Target::Graph { graph, rpq, method: *method }, *params))
        }
        light => unreachable!("light op {light:?} reached the work queue"),
    }
}

/// The response's subject field: the normalized query or RPQ text.
fn subject(target: &Target) -> (&'static str, String) {
    match target {
        Target::Query { q, .. } | Target::Conditional { q, .. } | Target::Reliability(q) => {
            ("query", q.to_string())
        }
        Target::Graph { rpq, .. } => ("rpq", rpq.to_string()),
    }
}

/// What one leader evaluation runs against: the server, the job's
/// database snapshot, the shard's counters, the deadline base and the
/// request's FPRAS config.
struct Ctx<'a> {
    state: &'a ServerState,
    snap: Snapshot,
    sm: &'a ShardMetrics,
    received: Instant,
    cfg: FprasConfig,
}

type Fields = Vec<(&'static str, Json)>;

/// The one heavy path: delay → cache/compile → refresh → execute, then
/// the response body.
fn compute(
    ctx: &Ctx,
    cache: &mut ShardCache<ServedPlan>,
    target: Target,
    cache_key: &str,
    delay_ms: u64,
) -> Result<Json, ReqError> {
    apply_delay(delay_ms);
    check_deadline(ctx.state, ctx.received, "delay")?;
    let Snapshot { h, epochs, generation } = &ctx.snap;
    let (served, hit) = cache.get_or_insert_with(cache_key, || {
        let plan = Plan::compile_at(target, h, epochs).map_err(eval_error)?;
        Ok(ServedPlan { plan, memo: FxHashMap::default(), generation: *generation })
    })?;
    let cache_tag = refresh_plan(ctx, served, hit)?;
    check_deadline(ctx.state, ctx.received, "compile")?;

    let ServedPlan { plan, memo, .. } = served;
    let (subject, text) = subject(plan.target());
    let mut fields: Fields = vec![
        ("ok", Json::Bool(true)),
        ("op", Json::str(plan.target().op())),
        (subject, Json::str(text)),
        ("cache", Json::str(cache_tag)),
    ];
    match plan.compiled() {
        Compiled::Query(p) => {
            let answer = || p.execute(&ctx.cfg);
            let (decision, states) = (&p.decision, p.automaton_states());
            let landscape = Some(&p.classification);
            write_routed(&mut fields, ctx, memo, decision, landscape, states, answer)?;
        }
        Compiled::Graph(p) => {
            let answer = || p.execute(&ctx.cfg);
            let (decision, states) = (&p.decision, p.automaton_states());
            write_routed(&mut fields, ctx, memo, decision, None, states, answer)?;
            fields.push(("edges", Json::from(p.num_edges)));
        }
        Compiled::Conditional(p) => {
            // No result memo: a conditional report carries per-execution
            // provenance (P(E), routes, split ε) beyond one number, and the
            // plan cache already amortizes the expensive compilation.
            ctx.state.metrics.executions.inc();
            let report = p.execute(&ctx.cfg).map_err(eval_error)?;
            check_deadline(ctx.state, ctx.received, "execute")?;
            fields.push(("evidence", Json::str(p.evidence.clone())));
            push_decision(&mut fields, p.joint_decision());
            fields.push((
                "evidence_route",
                Json::str(match report.evidence_route {
                    Some(r) => r.name(),
                    // Ground evidence: P(E) is the exact product of fact
                    // probabilities, no routed evaluation at all.
                    None => "exact-product",
                }),
            ));
            fields.push(("probability", Json::str(format!("{:.6}", report.conditional.to_f64()))));
            if let Some(exact) = &report.exact {
                fields.push(("exact", Json::str(exact.to_string())));
            }
            fields.push(("p_evidence", Json::str(format!("{:.6}", report.prob_evidence.to_f64()))));
            if let Some(se) = report.split_epsilon {
                fields.push(("split_epsilon", Json::from(se)));
            }
            fields.push(("landscape", Json::str(p.classification().to_string())));
            fields.push(("states", Json::from(report.automaton_states)));
            push_params(&mut fields, &ctx.cfg);
        }
        Compiled::Reliability(ur) => {
            let (reliability, hit) =
                memoized(ctx, memo, || ur.execute(&ctx.cfg).reliability.to_string())?;
            fields.push(("memo", memo_tag(hit)));
            fields.push(("reliability", Json::str(reliability)));
            fields.push(("facts", Json::from(ctx.snap.h.len())));
            push_params(&mut fields, &ctx.cfg);
        }
    }
    fields.push(("elapsed_us", Json::from(elapsed_us(ctx.received))));
    Ok(Json::obj(fields))
}

/// Writes the fields a routed and a graph plan's answers share:
/// the route decision, then either the exact answer or the memoized FPRAS
/// digits, the relational plan's Table 1 cell (`landscape`), the
/// automaton size, and — when sampling ran — its `(ε, seed, threads)`.
fn write_routed(
    fields: &mut Fields,
    ctx: &Ctx,
    memo: &mut Memo,
    decision: &RouteDecision,
    landscape: Option<&Classification>,
    states: usize,
    answer: impl FnOnce() -> RoutedAnswer,
) -> Result<(), ReqError> {
    push_decision(fields, decision);
    let sampled = decision.route == Route::Fpras;
    if sampled {
        let (digits, hit) = memoized(ctx, memo, || format!("{:.6}", answer().to_f64()))?;
        fields.push(("probability", Json::str(digits)));
        fields.push(("memo", memo_tag(hit)));
    } else {
        // Exact routes answer from the compiled plan, independent of
        // (ε, seed): nothing to memoize.
        let answer = answer();
        fields.push(("probability", Json::str(format!("{:.6}", answer.to_f64()))));
        if let Some(exact) = answer.exact() {
            fields.push(("exact", Json::str(exact.to_string())));
        }
    }
    if let Some(c) = landscape {
        fields.push(("landscape", Json::str(c.to_string())));
    }
    fields.push(("states", Json::from(states)));
    if sampled {
        push_params(fields, &ctx.cfg);
    }
    Ok(())
}

fn push_decision(fields: &mut Fields, d: &RouteDecision) {
    fields.push(("method", Json::str(d.route.name())));
    fields.push(("route", Json::str(d.route.name())));
    fields.push(("rationale", Json::str(d.rationale.clone())));
}

fn push_params(fields: &mut Fields, cfg: &FprasConfig) {
    fields.push(("epsilon", Json::from(cfg.epsilon)));
    fields.push(("seed", Json::from(cfg.seed)));
    fields.push(("threads", Json::from(cfg.effective_threads())));
}

fn memo_tag(hit: bool) -> Json {
    Json::str(if hit { "hit" } else { "miss" })
}

/// Replays the request's `(ε, seed)` digits from the plan's memo, or runs
/// `execute` (one `serve.executions`) and memoizes its digits. Returns
/// the digits and whether they were a memo hit; the deadline is checked
/// after.
fn memoized(
    ctx: &Ctx,
    memo: &mut Memo,
    execute: impl FnOnce() -> String,
) -> Result<(String, bool), ReqError> {
    let key = (ctx.cfg.epsilon.to_bits(), ctx.cfg.seed);
    let (digits, hit) = match memo.get(&key) {
        Some(s) => (s.clone(), true),
        None => {
            ctx.state.metrics.executions.inc();
            let s = execute();
            if memo.len() >= MEMO_CAP {
                memo.clear();
            }
            memo.insert(key, s.clone());
            (s, false)
        }
    };
    if hit {
        ctx.sm.memo_hits.inc();
    }
    check_deadline(ctx.state, ctx.received, "execute")?;
    Ok((digits, hit))
}

/// Microseconds since `start`, clamped into `u64`.
fn elapsed_us(start: Instant) -> u64 {
    start.elapsed().as_micros().min(u64::MAX as u128) as u64
}

fn finish(state: &ServerState, r: Result<Json, ReqError>) -> String {
    match r {
        Ok(body) => body.to_string(),
        Err((kind, msg)) => {
            let m = &state.metrics;
            let counter = match kind {
                ErrorKind::Overloaded => &m.queue_rejected,
                ErrorKind::Timeout => &m.timeouts,
                ErrorKind::BadRequest => &m.bad_requests,
                ErrorKind::EvalError => &m.eval_errors,
            };
            counter.inc();
            error_response(kind, msg)
        }
    }
}

/// Parses the CQ text of request field `field`; a syntax error is a
/// `bad_request` naming the field.
fn parse_cq(text: &str, field: &str) -> Result<ConjunctiveQuery, ReqError> {
    parse(text).map_err(|e| (ErrorKind::BadRequest, format!("{field}: {e}")))
}

fn check_deadline(state: &ServerState, start: Instant, phase: &str) -> Result<(), ReqError> {
    let budget = Duration::from_millis(state.cfg.deadline_ms);
    let elapsed = start.elapsed();
    if elapsed > budget {
        return Err((
            ErrorKind::Timeout,
            format!(
                "deadline of {}ms exceeded after {} ({:.0}ms elapsed)",
                state.cfg.deadline_ms,
                phase,
                elapsed.as_secs_f64() * 1e3
            ),
        ));
    }
    Ok(())
}

fn apply_delay(delay_ms: u64) {
    if delay_ms > 0 {
        // Test/load-shaping knob; capped so a stray request can't wedge a
        // worker shard for minutes.
        std::thread::sleep(Duration::from_millis(delay_ms.min(60_000)));
    }
}

/// The `update` op: parses the delta text and applies it atomically under
/// the write lock. Runs inline on the I/O thread — mutation cost is a
/// clone-and-patch, small next to any FPRAS run, and serializing updates
/// through the single I/O thread gives them a total order for free.
fn apply_update(state: &ServerState, delta: &str) -> Result<Json, ReqError> {
    let delta = Delta::parse_str(delta)
        .map_err(|e| (ErrorKind::BadRequest, format!("delta: {e}")))?;
    let mut db = state.db.write().expect("db lock poisoned");
    let report =
        db.apply(&delta).map_err(|e| (ErrorKind::EvalError, format!("delta: {e}")))?;
    let facts = db.current().len();
    drop(db);
    state.metrics.delta_applied.inc();
    event(Level::Debug, "serve", || {
        format!(
            "delta applied: gen {} (+{} -{} ~{})",
            report.generation, report.inserted, report.deleted, report.reprobed
        )
    });
    Ok(Json::obj([
        ("ok", Json::Bool(true)),
        ("op", Json::str("update")),
        ("ops", Json::from(delta.len())),
        ("inserted", Json::from(report.inserted)),
        ("deleted", Json::from(report.deleted)),
        ("reprobed", Json::from(report.reprobed)),
        (
            "touched",
            Json::Arr(report.touched.iter().map(|r| Json::str(r.clone())).collect()),
        ),
        (
            "structural",
            Json::Arr(report.structural.iter().map(|r| Json::str(r.clone())).collect()),
        ),
        ("probability_only", Json::from(report.is_probability_only())),
        ("generation", Json::from(report.generation)),
        ("facts", Json::from(facts)),
    ]))
}

/// Brings a cache-hit plan up to date with the job's snapshot and returns
/// the wire cache tag: `"hit"` when the plan (and its memo) survived —
/// including across a generation change that left its relations untouched
/// — or `"invalidated"` when it was refreshed and the memo dropped.
/// Misses pass through as `"miss"` (a fresh compile is already current).
fn refresh_plan(ctx: &Ctx, served: &mut ServedPlan, hit: bool) -> Result<&'static str, ReqError> {
    let Snapshot { h, epochs, generation } = &ctx.snap;
    if !hit {
        return Ok("miss");
    }
    if served.generation == *generation {
        return Ok("hit");
    }
    // On error leave the plan stale (generation not advanced): the next
    // hit retries the refresh.
    let revalidation = served.plan.revalidate(h, epochs).map_err(eval_error)?;
    served.generation = *generation;
    let m = &ctx.state.metrics;
    if revalidation == Revalidation::Current {
        m.delta_kept.inc();
        Ok("hit")
    } else {
        served.memo.clear();
        m.delta_invalidated.inc();
        Ok("invalidated")
    }
}

fn eval_error(e: impl std::fmt::Display) -> ReqError {
    (ErrorKind::EvalError, e.to_string())
}

fn classify_response(query: &str) -> Result<Json, ReqError> {
    let q = parse_cq(query, "query")?;
    let c = landscape::classify(&q);
    Ok(Json::obj([
        ("ok", Json::Bool(true)),
        ("op", Json::str("classify")),
        ("query", Json::str(q.to_string())),
        ("width", Json::from(c.width.min(1 << 30))),
        ("bounded_width", Json::from(c.bounded_width)),
        ("self_join_free", Json::from(c.self_join_free)),
        ("safe", Json::from(c.safe)),
        ("three_path", Json::from(c.three_path)),
        ("verdict", Json::str(verdict_tag(c.verdict))),
        ("advice", Json::str(c.verdict.advice())),
    ]))
}

fn stats_response(state: &ServerState) -> Json {
    let (facts, generation, deltas, epochs) = {
        let db = state.db.read().expect("db lock poisoned");
        let epochs = Json::Obj(
            db.epochs().iter().map(|(rel, e)| (rel.to_owned(), Json::str(e.to_string()))).collect(),
        );
        (db.current().len(), db.generation(), db.deltas_applied(), epochs)
    };
    let m = &state.metrics;
    let cache = CacheTotals::of(&state.shard_metrics);
    // Router route and refresh counters come from the process-wide
    // registry: cumulative across the process lifetime, not per-server.
    let global = |name: &str| Json::from(pqe_obs::metrics::counter(name).get());
    Json::obj([
        ("ok", Json::Bool(true)),
        ("op", Json::str("stats")),
        ("version", Json::str(env!("CARGO_PKG_VERSION"))),
        ("uptime_s", Json::from(state.started.elapsed().as_secs())),
        ("uptime_ms", Json::from(state.started.elapsed().as_millis() as u64)),
        ("requests", Json::from(m.requests.get())),
        ("estimates", Json::from(m.estimates.get())),
        ("reliabilities", Json::from(m.reliabilities.get())),
        ("graph_estimates", Json::from(m.graph_estimates.get())),
        ("classifies", Json::from(m.classifies.get())),
        ("router.route.lifted", global("router.route.lifted")),
        ("router.route.fpras", global("router.route.fpras")),
        ("router.route.graph", global("router.route.graph")),
        ("cache_hits", Json::from(cache.hits)),
        ("cache_misses", Json::from(cache.misses)),
        ("cache_evictions", Json::from(cache.evictions)),
        ("cache_resident", Json::from(cache.resident)),
        ("cache_hit_rate", Json::from(hit_rate(cache.hits, cache.misses))),
        ("memo_hits", Json::from(cache.memo_hits)),
        ("coalesced", Json::from(m.coalesced.get())),
        ("workers", Json::from(state.cfg.workers)),
        ("queue_depth", Json::from(state.queue.depth())),
        ("queue_capacity", Json::from(state.queue.capacity())),
        ("deadline_ms", Json::from(state.cfg.deadline_ms)),
        ("facts", Json::from(facts)),
        ("generation", Json::from(generation)),
        ("epochs", epochs),
        ("updates", Json::from(m.updates.get())),
        ("delta.applied", Json::from(deltas)),
        ("delta.invalidated_plans", Json::from(m.delta_invalidated.get())),
        ("delta.kept_plans", Json::from(m.delta_kept.get())),
        ("router.refresh.incremental", global("router.refresh.incremental")),
        ("router.refresh.recompiled", global("router.refresh.recompiled")),
        ("overloaded", Json::from(m.queue_rejected.get())),
        ("timeouts", Json::from(m.timeouts.get())),
        ("bad_requests", Json::from(m.bad_requests.get())),
        ("eval_errors", Json::from(m.eval_errors.get())),
    ])
}

/// One section of two registry snapshots merged by name into a JSON
/// object; on a name in both, `own`'s entry wins.
fn merged<V>(global: Vec<(String, V)>, own: Vec<(String, V)>, enc: impl Fn(V) -> Json) -> Json {
    let by_name: BTreeMap<String, V> = global.into_iter().chain(own).collect();
    Json::Obj(by_name.into_iter().map(|(name, v)| (name, enc(v))).collect())
}

/// The `metrics` op: the server's registry merged by name with the
/// process-wide one, per-shard occupancy/hit-rate, queue state, and the
/// aggregate cache counters, encoded with the serve JSON machinery.
/// Histogram entries carry count/min/max/mean and the p50/p95/p99 latency
/// percentiles (log-linear buckets, ≤ 9.4 % relative error).
fn metrics_response(state: &ServerState) -> Json {
    let (global, own) = (pqe_obs::metrics::snapshot(), state.registry.snapshot());
    let histogram = |h: HistogramSnapshot| {
        Json::obj([
            ("count", Json::from(h.count)),
            ("min", Json::from(h.min)),
            ("max", Json::from(h.max)),
            ("mean", Json::from(h.mean())),
            ("p50", Json::from(h.p50)),
            ("p95", Json::from(h.p95)),
            ("p99", Json::from(h.p99)),
        ])
    };
    let shards = state.shard_metrics.iter().enumerate().map(|(i, s)| {
        let t = CacheTotals::of([s]);
        Json::obj([
            ("shard", Json::from(i)),
            ("resident", Json::from(t.resident)),
            ("hits", Json::from(t.hits)),
            ("misses", Json::from(t.misses)),
            ("memo_hits", Json::from(t.memo_hits)),
            ("jobs", Json::from(s.jobs.get())),
            ("hit_rate", Json::from(hit_rate(t.hits, t.misses))),
        ])
    });
    let cache = CacheTotals::of(&state.shard_metrics);
    Json::obj([
        ("ok", Json::Bool(true)),
        ("op", Json::str("metrics")),
        ("version", Json::str(env!("CARGO_PKG_VERSION"))),
        ("uptime_s", Json::from(state.started.elapsed().as_secs())),
        ("counters", merged(global.counters, own.counters, Json::from)),
        ("gauges", merged(global.gauges, own.gauges, |v| Json::Num(v as f64))),
        ("histograms", merged(global.histograms, own.histograms, histogram)),
        ("shards", Json::Arr(shards.collect())),
        (
            "queue",
            Json::obj([
                ("depth", Json::from(state.queue.depth())),
                ("capacity", Json::from(state.queue.capacity())),
                ("rejected", Json::from(state.metrics.queue_rejected.get())),
            ]),
        ),
        (
            "cache",
            Json::obj([
                ("hits", Json::from(cache.hits)),
                ("misses", Json::from(cache.misses)),
                ("evictions", Json::from(cache.evictions)),
                ("resident", Json::from(cache.resident)),
                ("hit_rate", Json::from(hit_rate(cache.hits, cache.misses))),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqe_core::{ConditionalPlan, Method, RoutedPlan};
    use pqe_db::io as dbio;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    const DB: &str = "1/2 R1(a,b)\n1/3 R2(b,c)\n1/5 R2(b,d)\n";

    /// Diamond DAG: two edge-disjoint r-paths a→d, each of probability
    /// 1/4, so Pr(a →rr→ d) = 1 − (3/4)² = 7/16.
    const GRAPH: &str = "1/2 a -r-> b\n1/2 a -r-> c\n1/2 b -r-> d\n1/2 c -r-> d\n";

    fn start(cfg: ServeConfig) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
        let h = dbio::load_str(DB).unwrap();
        let server = Server::bind(cfg, h).unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        (addr, handle)
    }

    fn start_with_graph(
        cfg: ServeConfig,
    ) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
        let h = dbio::load_str(DB).unwrap();
        let g = pqe_graph::load_str(GRAPH).unwrap();
        let server = Server::bind_with_graph(cfg, h, Some(g)).unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        (addr, handle)
    }

    /// A test client holding one persistent reader — pipelined responses
    /// buffered by the `BufReader` are not lost between reads.
    struct Client {
        stream: TcpStream,
        reader: BufReader<TcpStream>,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            Client { stream, reader }
        }

        fn send(&mut self, line: &str) {
            self.stream.write_all(line.as_bytes()).unwrap();
            self.stream.write_all(b"\n").unwrap();
            self.stream.flush().unwrap();
        }

        fn read_json(&mut self) -> Json {
            let mut resp = String::new();
            self.reader.read_line(&mut resp).unwrap();
            Json::parse(resp.trim()).unwrap()
        }

        fn roundtrip(&mut self, line: &str) -> Json {
            self.send(line);
            self.read_json()
        }
    }

    #[test]
    fn full_session_and_clean_shutdown() {
        // One worker shard: cache hit/miss counts are deterministic.
        let (addr, handle) = start(ServeConfig { workers: 1, ..Default::default() });
        let mut c = Client::connect(addr);

        let v = c.roundtrip(r#"{"op":"classify","query":"R1(x,y), R2(y,z)"}"#);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("safe").and_then(Json::as_bool), Some(true));

        let v = c.roundtrip(r#"{"op":"estimate","query":"R1(x,y), R2(y,z)","method":"fpras","epsilon":0.2,"seed":9}"#,
        );
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("cache").and_then(Json::as_str), Some("miss"));
        let first = v.get("probability").and_then(Json::as_str).unwrap().to_owned();

        // Same request again: a hit, same digits (per-request seed).
        let v = c.roundtrip(r#"{"op":"estimate","query":"R1(x,y),   R2(y,z)","method":"fpras","epsilon":0.2,"seed":9}"#,
        );
        assert_eq!(v.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(v.get("probability").and_then(Json::as_str), Some(first.as_str()));

        let v = c.roundtrip(r#"{"op":"stats"}"#);
        assert_eq!(v.get("cache_hits").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("cache_misses").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("workers").and_then(Json::as_u64), Some(1));

        let v = c.roundtrip(r#"{"op":"shutdown"}"#);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn pipelined_requests_respond_in_request_order() {
        let (addr, handle) = start(ServeConfig::default());
        let mut c = Client::connect(addr);
        // A heavy request followed by two light ones, written in one
        // burst: the light ops complete inline while the estimate is
        // still in a worker, but responses must come back in order.
        c.send(r#"{"op":"estimate","query":"R1(x,y), R2(y,z)","method":"fpras","delay_ms":200}"#,
        );
        c.send(r#"{"op":"classify","query":"R1(x,y)"}"#);
        c.send(r#"{"op":"stats"}"#);
        let first = c.read_json();
        let second = c.read_json();
        let third = c.read_json();
        assert_eq!(first.get("op").and_then(Json::as_str), Some("estimate"));
        assert_eq!(second.get("op").and_then(Json::as_str), Some("classify"));
        assert_eq!(third.get("op").and_then(Json::as_str), Some("stats"));
        c.roundtrip(r#"{"op":"shutdown"}"#);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn full_queue_returns_structured_overload() {
        // One worker, queue of one: a running job + a queued job saturate
        // the service; the third request must be rejected immediately.
        let (addr, handle) =
            start(ServeConfig { workers: 1, queue_depth: 1, ..Default::default() });
        let mut busy = Client::connect(addr);
        let mut queued = Client::connect(addr);
        let mut fast = Client::connect(addr);

        // Occupy the only worker with an artificial 1500ms execution
        // (distinct seeds: these three must not coalesce).
        busy.send(r#"{"op":"estimate","query":"R1(x,y), R2(y,z)","method":"fpras","seed":1,"delay_ms":1500}"#,
        );
        std::thread::sleep(Duration::from_millis(400));
        // Fill the single queue slot.
        queued.send(r#"{"op":"estimate","query":"R1(x,y), R2(y,z)","method":"fpras","seed":2,"delay_ms":100}"#,
        );
        std::thread::sleep(Duration::from_millis(200));

        let v = fast.roundtrip(r#"{"op":"estimate","query":"R1(x,y), R2(y,z)","method":"fpras","seed":3}"#,
        );
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("error").and_then(Json::as_str), Some("overloaded"));

        // The occupied and queued requests still complete normally.
        let v = busy.read_json();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        let v = queued.read_json();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));

        let v = fast.roundtrip(r#"{"op":"stats"}"#);
        assert_eq!(v.get("overloaded").and_then(Json::as_u64), Some(1));

        fast.roundtrip(r#"{"op":"shutdown"}"#);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn concurrent_identical_requests_coalesce_onto_one_flight() {
        let (addr, handle) = start(ServeConfig { workers: 2, ..Default::default() });
        let mut a = Client::connect(addr);
        let mut b = Client::connect(addr);

        // Byte-identical requests; the delay keeps the leader in flight
        // long enough for the follower to join deterministically.
        let req = r#"{"op":"estimate","query":"R1(x,y), R2(y,z)","method":"fpras","seed":5,"delay_ms":400}"#;
        a.send(req);
        std::thread::sleep(Duration::from_millis(150));
        b.send(req);

        let va = a.read_json();
        let vb = b.read_json();
        assert_eq!(va.to_string(), vb.to_string(), "coalesced response must be verbatim");
        assert_eq!(va.get("ok").and_then(Json::as_bool), Some(true));

        let v = a.roundtrip(r#"{"op":"stats"}"#);
        assert_eq!(v.get("coalesced").and_then(Json::as_u64), Some(1));
        // Only the leader evaluated: one cache miss, no hit.
        assert_eq!(v.get("cache_misses").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("cache_hits").and_then(Json::as_u64), Some(0));

        a.roundtrip(r#"{"op":"shutdown"}"#);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn deadline_returns_timeout_error() {
        let (addr, handle) = start(ServeConfig { deadline_ms: 100, ..Default::default() });
        let mut c = Client::connect(addr);
        let v = c.roundtrip(r#"{"op":"estimate","query":"R1(x,y), R2(y,z)","method":"fpras","delay_ms":300}"#,
        );
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("error").and_then(Json::as_str), Some("timeout"));

        let v = c.roundtrip(r#"{"op":"stats"}"#);
        assert_eq!(v.get("timeouts").and_then(Json::as_u64), Some(1));

        c.roundtrip(r#"{"op":"shutdown"}"#);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn graph_estimate_roundtrip_enum_and_fpras() {
        let (addr, handle) = start_with_graph(ServeConfig { workers: 1, ..Default::default() });
        let mut c = Client::connect(addr);

        // Auto routes the 4-edge diamond to exact enumeration: 7/16.
        let v = c.roundtrip(r#"{"op":"graph_estimate","rpq":"a -> r r -> d","seed":7}"#);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("op").and_then(Json::as_str), Some("graph_estimate"));
        assert_eq!(v.get("route").and_then(Json::as_str), Some("enum"));
        assert_eq!(v.get("probability").and_then(Json::as_str), Some("0.437500"));
        assert_eq!(v.get("exact").and_then(Json::as_str), Some("7/16"));
        assert_eq!(v.get("cache").and_then(Json::as_str), Some("miss"));
        assert_eq!(v.get("edges").and_then(Json::as_u64), Some(4));

        // Forced FPRAS on the same query: within ε of 7/16, and the second
        // byte-identical request is a plan-cache hit AND a memo hit with
        // the same digits.
        let req = r#"{"op":"graph_estimate","rpq":"a -> r r -> d","method":"fpras","epsilon":0.2,"seed":7}"#;
        let v = c.roundtrip(req);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("route").and_then(Json::as_str), Some("fpras"));
        assert_eq!(v.get("memo").and_then(Json::as_str), Some("miss"));
        let p: f64 = v.get("probability").and_then(Json::as_str).unwrap().parse().unwrap();
        assert!((p - 7.0 / 16.0).abs() <= 0.2 * (7.0 / 16.0), "estimate {p} off 7/16");
        let first = v.get("probability").and_then(Json::as_str).unwrap().to_owned();

        // Whitespace-insensitive RPQ normalization: same cache entry.
        let v = c.roundtrip(r#"{"op":"graph_estimate","rpq":"a ->  r . r -> d","method":"fpras","epsilon":0.2,"seed":7}"#,
        );
        assert_eq!(v.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(v.get("memo").and_then(Json::as_str), Some("hit"));
        assert_eq!(v.get("probability").and_then(Json::as_str), Some(first.as_str()));

        // Satellite: stats reports the graph counters.
        let v = c.roundtrip(r#"{"op":"stats"}"#);
        assert_eq!(v.get("graph_estimates").and_then(Json::as_u64), Some(3));
        assert!(v.get("router.route.graph").and_then(Json::as_u64).is_some());
        assert!(v.get("router.route.lifted").and_then(Json::as_u64).is_some());
        assert!(v.get("router.route.fpras").and_then(Json::as_u64).is_some());

        c.roundtrip(r#"{"op":"shutdown"}"#);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn graph_estimate_without_graph_is_an_eval_error() {
        let (addr, handle) = start(ServeConfig::default());
        let mut c = Client::connect(addr);
        let v = c.roundtrip(r#"{"op":"graph_estimate","rpq":"a -> r -> b"}"#);
        assert_eq!(v.get("error").and_then(Json::as_str), Some("eval_error"));
        assert!(
            v.get("message").and_then(Json::as_str).unwrap().contains("--graph"),
            "error should point at the missing --graph flag"
        );
        // A bad RPQ is a bad_request, even with no graph loaded.
        let v = c.roundtrip(r#"{"op":"graph_estimate","rpq":"a -> ((r -> b"}"#);
        assert_eq!(v.get("error").and_then(Json::as_str), Some("bad_request"));
        c.roundtrip(r#"{"op":"shutdown"}"#);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn update_invalidates_touched_plans_and_keeps_others() {
        // One worker shard: every plan lives in one cache, so hit/kept/
        // invalidated accounting is deterministic.
        let (addr, handle) = start(ServeConfig { workers: 1, ..Default::default() });
        let mut c = Client::connect(addr);

        // Warm two plans: an FPRAS plan over {R1, R2} and a lifted plan
        // over {R1} only.
        let est = r#"{"op":"estimate","query":"R1(x,y), R2(y,z)","method":"fpras","epsilon":0.2,"seed":9}"#;
        c.roundtrip(est);
        let v = c.roundtrip(est);
        assert_eq!(v.get("cache").and_then(Json::as_str), Some("hit"));
        let v = c.roundtrip(r#"{"op":"estimate","query":"R1(x,y)"}"#);
        assert_eq!(v.get("route").and_then(Json::as_str), Some("lifted"));

        // Probability-only delta touching R2 alone.
        let v = c.roundtrip(r#"{"op":"update","delta":"~ 1/4 R2(b,c)"}"#);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("generation").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("reprobed").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("probability_only").and_then(Json::as_bool), Some(true));

        // The R1-only plan survives with its memo: still a plain hit.
        let v = c.roundtrip(r#"{"op":"estimate","query":"R1(x,y)"}"#);
        assert_eq!(v.get("cache").and_then(Json::as_str), Some("hit"));

        // The {R1, R2} plan is refreshed, and its digits are byte-identical
        // to a fresh compile against the mutated database.
        let v = c.roundtrip(est);
        assert_eq!(v.get("cache").and_then(Json::as_str), Some("invalidated"));
        let h2 = dbio::load_str("1/2 R1(a,b)\n1/4 R2(b,c)\n1/5 R2(b,d)\n").unwrap();
        let q = pqe_query::parse("R1(x,y), R2(y,z)").unwrap();
        let fresh = RoutedPlan::compile(&q, &h2, Method::Fpras).unwrap();
        let expect =
            format!("{:.6}", fresh.execute(&FprasConfig::with_epsilon(0.2).with_seed(9)).to_f64());
        assert_eq!(v.get("probability").and_then(Json::as_str), Some(expect.as_str()));

        // Once refreshed, the next identical request is a plain hit again
        // (memo rebuilt at the new generation).
        let v = c.roundtrip(est);
        assert_eq!(v.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(v.get("memo").and_then(Json::as_str), Some("hit"));

        let v = c.roundtrip(r#"{"op":"stats"}"#);
        assert_eq!(v.get("generation").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("delta.applied").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("delta.invalidated_plans").and_then(Json::as_u64), Some(1));
        assert!(v.get("delta.kept_plans").and_then(Json::as_u64).unwrap() >= 1);
        let epochs = v.get("epochs").unwrap();
        assert_eq!(epochs.get("R2").and_then(Json::as_str), Some("s0p1"));

        c.roundtrip(r#"{"op":"shutdown"}"#);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn reliability_survives_prob_deltas_but_not_structural_ones() {
        let (addr, handle) = start(ServeConfig { workers: 1, ..Default::default() });
        let mut c = Client::connect(addr);

        let rel = r#"{"op":"reliability","query":"R1(x,y), R2(y,z)","epsilon":0.2,"seed":3}"#;
        let v = c.roundtrip(rel);
        assert_eq!(v.get("cache").and_then(Json::as_str), Some("miss"));
        let digits = v.get("reliability").and_then(Json::as_str).unwrap().to_owned();

        // Probability-only update: reliability ignores probabilities, so
        // the plan AND its memo survive — same digits, memo hit.
        c.roundtrip(r#"{"op":"update","delta":"~ 9/10 R2(b,c)"}"#);
        let v = c.roundtrip(rel);
        assert_eq!(v.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(v.get("memo").and_then(Json::as_str), Some("hit"));
        assert_eq!(v.get("reliability").and_then(Json::as_str), Some(digits.as_str()));

        // Structural update: the fact set moved, so the automaton is
        // recompiled and the memo dropped.
        let v = c.roundtrip(r#"{"op":"update","delta":"+ 1/2 R2(b,e)"}"#);
        assert_eq!(v.get("probability_only").and_then(Json::as_bool), Some(false));
        let v = c.roundtrip(rel);
        assert_eq!(v.get("cache").and_then(Json::as_str), Some("invalidated"));
        assert_eq!(v.get("memo").and_then(Json::as_str), Some("miss"));
        assert_eq!(v.get("facts").and_then(Json::as_u64), Some(4));
        assert_ne!(v.get("reliability").and_then(Json::as_str), Some(digits.as_str()));

        c.roundtrip(r#"{"op":"shutdown"}"#);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn conditional_plans_refresh_only_on_their_own_relations() {
        let (addr, handle) = start(ServeConfig { workers: 1, ..Default::default() });
        let mut c = Client::connect(addr);

        let cond = r#"{"op":"estimate","query":"R1(x,y), R2(y,z)","evidence":"R1('a','b')","method":"fpras","epsilon":0.2,"seed":4}"#;
        let v = c.roundtrip(cond);
        assert_eq!(v.get("cache").and_then(Json::as_str), Some("miss"));
        assert_eq!(v.get("p_evidence").and_then(Json::as_str), Some("0.500000"));
        let digits = v.get("probability").and_then(Json::as_str).unwrap().to_owned();

        // An update to a relation neither Q nor E reads: still a hit.
        c.roundtrip(r#"{"op":"update","delta":"+ 1/2 R3(c,e)"}"#);
        let v = c.roundtrip(cond);
        assert_eq!(v.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(v.get("probability").and_then(Json::as_str), Some(digits.as_str()));

        // A probability-only update to the evidence relation: the plan is
        // recompiled, and its digits are a fresh compile's.
        c.roundtrip(r#"{"op":"update","delta":"~ 1/4 R1(a,b)"}"#);
        let v = c.roundtrip(cond);
        assert_eq!(v.get("cache").and_then(Json::as_str), Some("invalidated"));
        let h2 = dbio::load_str("1/4 R1(a,b)\n1/3 R2(b,c)\n1/5 R2(b,d)\n1/2 R3(c,e)\n").unwrap();
        let (q, e) = (parse("R1(x,y), R2(y,z)").unwrap(), parse("R1('a','b')").unwrap());
        let fresh = ConditionalPlan::compile(&q, &e, &h2, Method::Fpras).unwrap();
        let cfg = FprasConfig::with_epsilon(0.2).with_seed(4);
        let report = fresh.execute(&cfg).unwrap();
        let expect = format!("{:.6}", report.conditional.to_f64());
        assert_eq!(v.get("probability").and_then(Json::as_str), Some(expect.as_str()));
        assert_eq!(v.get("p_evidence").and_then(Json::as_str), Some("0.250000"));

        let v = c.roundtrip(r#"{"op":"stats"}"#);
        assert_eq!(v.get("delta.kept_plans").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("delta.invalidated_plans").and_then(Json::as_u64), Some(1));

        c.roundtrip(r#"{"op":"shutdown"}"#);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn graph_plans_survive_every_relational_update() {
        let (addr, handle) = start_with_graph(ServeConfig { workers: 1, ..Default::default() });
        let mut c = Client::connect(addr);

        let req = r#"{"op":"graph_estimate","rpq":"a -> r r -> d","method":"fpras","epsilon":0.2,"seed":7}"#;
        let v = c.roundtrip(req);
        assert_eq!(v.get("cache").and_then(Json::as_str), Some("miss"));
        let digits = v.get("probability").and_then(Json::as_str).unwrap().to_owned();

        // Probability-only, then structural: the graph is not in the
        // database, so the plan and its memo survive both.
        for delta in ["~ 1/4 R1(a,b)", "+ 1/2 R2(b,e)"] {
            let v = c.roundtrip(&format!(r#"{{"op":"update","delta":"{delta}"}}"#));
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
            let v = c.roundtrip(req);
            assert_eq!(v.get("cache").and_then(Json::as_str), Some("hit"), "after {delta}");
            assert_eq!(v.get("memo").and_then(Json::as_str), Some("hit"), "after {delta}");
            assert_eq!(v.get("probability").and_then(Json::as_str), Some(digits.as_str()));
        }

        c.roundtrip(r#"{"op":"shutdown"}"#);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn echoed_seeds_above_2_pow_53_reproduce_the_digits() {
        let (addr, handle) = start(ServeConfig { workers: 1, ..Default::default() });
        let mut c = Client::connect(addr);
        let request = |seed: &Json| {
            format!(
                r#"{{"op":"estimate","query":"R1(x,y), R2(y,z)","method":"fpras","epsilon":0.2,"seed":{seed}}}"#
            )
        };
        for sent in ["9007199254740993", "18446744073709551615"] {
            let v = c.roundtrip(&request(&Json::str(sent)));
            let echoed = v.get("seed").unwrap().clone();
            assert_eq!(echoed.as_u64(), sent.parse().ok(), "echo of {sent}: {echoed}");
            let digits = v.get("probability").and_then(Json::as_str).unwrap().to_owned();
            // Sending the echoed seed back is the same request.
            let again = c.roundtrip(&request(&echoed));
            assert_eq!(again.get("memo").and_then(Json::as_str), Some("hit"));
            assert_eq!(again.get("probability").and_then(Json::as_str), Some(digits.as_str()));
            assert_eq!(again.get("seed"), Some(&echoed));
        }
        // Seeds that are exact as numbers still echo as numbers.
        let v = c.roundtrip(&request(&Json::from(1u64 << 53)));
        assert_eq!(v.get("seed"), Some(&Json::Num(9007199254740992.0)));

        c.roundtrip(r#"{"op":"shutdown"}"#);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn bad_deltas_are_rejected_atomically() {
        let (addr, handle) = start(ServeConfig { workers: 1, ..Default::default() });
        let mut c = Client::connect(addr);

        // Parse error: bad sigil, line-numbered message.
        let v = c.roundtrip(r#"{"op":"update","delta":"* 1/2 R1(a,b)"}"#);
        assert_eq!(v.get("error").and_then(Json::as_str), Some("bad_request"));
        // Semantic error on op 2: nothing from op 1 may have applied.
        let v = c.roundtrip(r#"{"op":"update","delta":"~ 1/4 R1(a,b)\n- R1(zz,zz)"}"#);
        assert_eq!(v.get("error").and_then(Json::as_str), Some("eval_error"));
        assert!(v.get("message").and_then(Json::as_str).unwrap().contains("op 2"));
        let v = c.roundtrip(r#"{"op":"stats"}"#);
        assert_eq!(v.get("generation").and_then(Json::as_u64), Some(0));
        assert_eq!(v.get("delta.applied").and_then(Json::as_u64), Some(0));
        assert_eq!(v.get("updates").and_then(Json::as_u64), Some(2));

        c.roundtrip(r#"{"op":"shutdown"}"#);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn bad_requests_are_reported_not_dropped() {
        let (addr, handle) = start(ServeConfig::default());
        let mut c = Client::connect(addr);
        let v = c.roundtrip("this is not json");
        assert_eq!(v.get("error").and_then(Json::as_str), Some("bad_request"));
        // Self-join: engine-level refusal, connection stays usable.
        let v = c.roundtrip(r#"{"op":"estimate","query":"R(x,y), R(y,z)","method":"fpras"}"#);
        assert_eq!(v.get("error").and_then(Json::as_str), Some("eval_error"));
        let v = c.roundtrip(r#"{"op":"classify","query":"R1(x,y)"}"#);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        c.roundtrip(r#"{"op":"shutdown"}"#);
        handle.join().unwrap().unwrap();
    }
}
