//! The traced runs of the wire workloads: `configs/demo-3node.cfg` (e1,
//! e2, w1) on the TCP runtime on localhost, plus an in-memory loopback
//! replay and the standalone layers.
//!
//! * `wire-small` traffic: `option send_buffer_bytes 262144`; e1 and w1
//!   each run one closed-loop publisher of 64-byte payloads on the plain
//!   runtime, and then on the sharded runtime (`option shards 2`) to
//!   time `ShardedHandle::publish`.
//! * `wire-8k` traffic: default options; one generator publishes 8 KiB
//!   payloads on e1 in an open loop at 8,000 msg/s, each message timed
//!   from when it was due.
//!
//! The load generators are threads of this process (at most two) and
//! open no sockets of their own. Latency is publish→`AllRemote` stable
//! at the origin (via `monitor_stability_frontier`) and publish→delivery
//! upcall at each mirror; throughput is messages stable on `AllRemote`
//! per wall second.

use crate::check::{Checks, Fifo, Monotone};
use crate::layers::LayerReplay;
use crate::loopback::Loopback;
use crate::report::Report;
use crate::rng::{payload_for, payload_pool, Rng};
use crate::stats::{self, summarize, Summary};
use crate::trace::Tracer;
use crate::{Args, Counts};
use bytes::Bytes;
use stabilizer_core::{
    AckTypeRegistry, ClusterConfig, CoreError, FrontierUpdate, Metrics, NodeId, RuntimeObserver,
    SeqNo, StabilizerNode,
};
use stabilizer_shard::RoutePolicy;
use stabilizer_telemetry::Telemetry;
use stabilizer_transport::{
    spawn_local_cluster, spawn_node_with, spawn_sharded_local_cluster_with, NodeHandle,
    ShardedHandle, SpawnOptions,
};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

const CONFIG: &str = include_str!("../configs/demo-3node.cfg");
const KEYS: [&str; 2] = ["AllRemote", "OneRemote"];
/// The key whose publish→stable latency and throughput are reported.
const STRONG: &str = "AllRemote";
/// Clusters set up per traced run; `runtime.setup_s` is their mean.
/// Set-up time is bimodal (the writer flush stall adds 100 ms to some
/// set-ups), so a median would flip between the modes.
const SETUPS: usize = 20;
/// Publishing before the measurement window opens.
const WARMUP: Duration = Duration::from_millis(500);
/// How long a publish may stay blocked on a full send buffer.
const PUBLISH_TIMEOUT: Duration = Duration::from_secs(5);
/// How long the end of a run waits for the last messages to stabilize.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);
/// Open-loop rate of `wire-8k`'s traffic.
const OPEN_RATE: u64 = 8_000;
/// Publishes per origin in the traced run's replayed reference.
const REPLAY_PUBS: u64 = 3_000;

/// The TCP traffic shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `wire-small`'s traffic: closed-loop 64 B publishers on e1 and w1.
    Small,
    /// `wire-8k`'s traffic: an open loop of 8 KiB messages on e1.
    EightK,
    /// `Small` traffic on the sharded runtime with two shards.
    Sharded,
}

impl Kind {
    fn config(self) -> String {
        let extra = match self {
            Kind::Small => "option send_buffer_bytes 262144\n",
            Kind::EightK => "",
            Kind::Sharded => "option send_buffer_bytes 262144\noption shards 2\n",
        };
        format!("{CONFIG}\n{extra}")
    }

    fn payload_len(self) -> usize {
        match self {
            Kind::EightK => 8192,
            _ => 64,
        }
    }

    /// Publishing nodes: e1 (and w1 for the closed loops).
    fn origins(self) -> &'static [u16] {
        match self {
            Kind::EightK => &[0],
            _ => &[0, 2],
        }
    }

    fn open_loop(self) -> bool {
        self == Kind::EightK
    }

    /// Name of the span around a handle's publish call.
    fn publish_span(self) -> &'static str {
        match self {
            Kind::Sharded => "shard.publish",
            _ => "handle.publish",
        }
    }
}

/// Seeded inputs: payloads and per-origin phase offsets.
struct Inputs {
    pools: Vec<Arc<Vec<Bytes>>>,
    phase_ns: Vec<u64>,
}

fn inputs(seed: u64, kind: Kind) -> Inputs {
    let mut rng = Rng::derive(seed, 2);
    let period = 1_000_000_000 / OPEN_RATE;
    Inputs {
        pools: (0..3u16)
            .map(|o| Arc::new(payload_pool(seed, o, kind.payload_len())))
            .collect(),
        phase_ns: (0..3).map(|_| rng.below(period)).collect(),
    }
}

/// The two runtime handles, behind one interface.
trait Handle: Clone + Send + Sync + 'static {
    fn spawn(cfg: &ClusterConfig, hub: Option<&Arc<Telemetry>>) -> Result<Vec<Self>, CoreError>;
    fn hub() -> Arc<Telemetry>;
    fn publish(&self, payload: Bytes, timeout: Duration) -> Result<SeqNo, CoreError>;
    fn waitfor(
        &self,
        stream: NodeId,
        key: &str,
        seq: SeqNo,
        t: Duration,
    ) -> Result<bool, CoreError>;
    fn monitor(&self, stream: NodeId, key: &str, f: impl FnMut(&FrontierUpdate) + Send + 'static);
    /// Call `f` with every frontier update of `me`'s own keys, in the
    /// order the state machine emitted them.
    fn watch_frontiers(&self, me: NodeId, f: impl FnMut(&FrontierUpdate) + Send + Clone + 'static);
    fn on_deliver(&self, f: impl FnMut(NodeId, SeqNo, &Bytes) + Send + 'static);
    fn frontier(&self, stream: NodeId, key: &str) -> Option<(SeqNo, u32)>;
    fn last_published(&self) -> SeqNo;
    fn shutdown(&self);
}

impl Handle for NodeHandle {
    fn spawn(cfg: &ClusterConfig, hub: Option<&Arc<Telemetry>>) -> Result<Vec<Self>, CoreError> {
        let Some(hub) = hub else {
            return Ok(spawn_local_cluster(cfg)?
                .iter()
                .map(|n| n.handle())
                .collect());
        };
        let n = cfg.num_nodes();
        let mut listeners = Vec::new();
        let mut addrs: Vec<SocketAddr> = Vec::new();
        for _ in 0..n {
            let l =
                TcpListener::bind("127.0.0.1:0").map_err(|e| CoreError::Config(e.to_string()))?;
            addrs.push(
                l.local_addr()
                    .map_err(|e| CoreError::Config(e.to_string()))?,
            );
            listeners.push(l);
        }
        let acks = Arc::new(AckTypeRegistry::new());
        let mut out = Vec::new();
        for (i, l) in listeners.into_iter().enumerate() {
            let me = NodeId(i as u16);
            let peers = (0..n)
                .filter(|&j| j != i)
                .map(|j| (NodeId(j as u16), addrs[j]))
                .collect();
            let opts = SpawnOptions {
                observer: Some(Box::new(hub.observer(me))),
                jitter_seed: i as u64,
                telemetry: Some(Arc::clone(hub)),
                ..Default::default()
            };
            out.push(spawn_node_with(cfg.clone(), me, Arc::clone(&acks), l, peers, opts)?.handle());
        }
        Ok(out)
    }
    fn hub() -> Arc<Telemetry> {
        Telemetry::new_wall_clock()
    }
    fn publish(&self, payload: Bytes, timeout: Duration) -> Result<SeqNo, CoreError> {
        NodeHandle::publish(self, payload, timeout)
    }
    fn waitfor(
        &self,
        stream: NodeId,
        key: &str,
        seq: SeqNo,
        t: Duration,
    ) -> Result<bool, CoreError> {
        NodeHandle::waitfor(self, stream, key, seq, t)
    }
    fn monitor(&self, stream: NodeId, key: &str, f: impl FnMut(&FrontierUpdate) + Send + 'static) {
        self.monitor_stability_frontier(stream, key, f)
    }
    fn watch_frontiers(
        &self,
        _me: NodeId,
        f: impl FnMut(&FrontierUpdate) + Send + Clone + 'static,
    ) {
        // Observers run under the node lock, so they see updates in the
        // order the machine emitted them; monitors here need not.
        self.attach_observer(Box::new(FrontierWatch(f)));
    }
    fn on_deliver(&self, f: impl FnMut(NodeId, SeqNo, &Bytes) + Send + 'static) {
        NodeHandle::on_deliver(self, f)
    }
    fn frontier(&self, stream: NodeId, key: &str) -> Option<(SeqNo, u32)> {
        self.stability_frontier(stream, key)
    }
    fn last_published(&self) -> SeqNo {
        NodeHandle::last_published(self)
    }
    fn shutdown(&self) {
        NodeHandle::shutdown(self)
    }
}

impl Handle for ShardedHandle {
    fn spawn(cfg: &ClusterConfig, hub: Option<&Arc<Telemetry>>) -> Result<Vec<Self>, CoreError> {
        Ok(
            spawn_sharded_local_cluster_with(cfg, RoutePolicy::RoundRobin, hub.cloned())?
                .iter()
                .map(|n| n.handle())
                .collect(),
        )
    }
    fn hub() -> Arc<Telemetry> {
        Telemetry::new_wall_clock_sharded(2)
    }
    fn publish(&self, payload: Bytes, timeout: Duration) -> Result<SeqNo, CoreError> {
        ShardedHandle::publish(self, payload, timeout)
    }
    fn waitfor(
        &self,
        stream: NodeId,
        key: &str,
        seq: SeqNo,
        t: Duration,
    ) -> Result<bool, CoreError> {
        ShardedHandle::waitfor(self, stream, key, seq, t)
    }
    fn monitor(&self, stream: NodeId, key: &str, f: impl FnMut(&FrontierUpdate) + Send + 'static) {
        self.monitor_stability_frontier(stream, key, f)
    }
    fn watch_frontiers(&self, me: NodeId, f: impl FnMut(&FrontierUpdate) + Send + Clone + 'static) {
        // The sharded runtime runs monitors on one dispatcher thread in
        // the order node-level updates were produced.
        for key in KEYS {
            self.monitor_stability_frontier(me, key, f.clone());
        }
    }
    fn on_deliver(&self, f: impl FnMut(NodeId, SeqNo, &Bytes) + Send + 'static) {
        ShardedHandle::on_deliver(self, f)
    }
    fn frontier(&self, stream: NodeId, key: &str) -> Option<(SeqNo, u32)> {
        self.stability_frontier(stream, key)
    }
    fn last_published(&self) -> SeqNo {
        ShardedHandle::last_published(self)
    }
    fn shutdown(&self) {
        ShardedHandle::shutdown(self)
    }
}

/// Forwards frontier updates from a runtime observer.
struct FrontierWatch<F>(F);

impl<F: FnMut(&FrontierUpdate) + Send> RuntimeObserver for FrontierWatch<F> {
    fn on_frontier(&mut self, _now_nanos: u64, update: &FrontierUpdate) {
        (self.0)(update)
    }
}

/// Deliveries seen at one mirror.
#[derive(Default)]
struct Mirror {
    fifo: BTreeMap<u16, Fifo>,
    /// `(publish ns, delivery ns)` per delivery.
    lat: Vec<(u64, u64)>,
    mismatches: u64,
}

/// Publish stamps per sequence number, in chunks allocated as the
/// sequence reaches them, so no publish rate has to be guessed.
struct Stamps {
    chunks: Vec<OnceLock<Box<[AtomicU64]>>>,
}

/// Stamps per chunk.
const STAMP_CHUNK: usize = 1 << 16;
/// Chunks per origin: 2^28 publishes, 2.2 M/s over a 120 s run.
const STAMP_CHUNKS: usize = 1 << 12;

impl Stamps {
    fn new() -> Self {
        let s = Stamps {
            chunks: (0..STAMP_CHUNKS).map(|_| OnceLock::new()).collect(),
        };
        // The first chunk up front, so set-up publishes allocate nothing.
        s.slot(1);
        s
    }

    /// The cell for `seq` (from 1), allocating its chunk if needed;
    /// `None` beyond the last chunk.
    fn slot(&self, seq: SeqNo) -> Option<&AtomicU64> {
        let i = usize::try_from(seq - 1).ok()?;
        let chunk = self
            .chunks
            .get(i / STAMP_CHUNK)?
            .get_or_init(|| (0..STAMP_CHUNK).map(|_| AtomicU64::new(0)).collect());
        Some(&chunk[i % STAMP_CHUNK])
    }

    /// The stamp of `seq`, or 0 if it has none.
    fn get(&self, seq: SeqNo) -> u64 {
        let i = (seq - 1) as usize;
        self.chunks
            .get(i / STAMP_CHUNK)
            .and_then(OnceLock::get)
            .map_or(0, |c| c[i % STAMP_CHUNK].load(Ordering::Acquire))
    }

    /// Every stamp made so far.
    fn all(&self) -> impl Iterator<Item = u64> + '_ {
        self.chunks
            .iter()
            .map_while(OnceLock::get)
            .flat_map(|c| c.iter().map(|a| a.load(Ordering::Acquire)))
            .filter(|&v| v != 0)
    }
}

/// What the cluster's callbacks record, against one epoch.
struct Probe {
    epoch: Instant,
    /// `pub_ns[origin]`: when each message was published (or, in the
    /// open loop, when it was due).
    pub_ns: Vec<Stamps>,
    /// Publishes that found no room for their stamp.
    unstorable: AtomicU64,
    /// Per origin: `(publish ns, stable ns)` of each message covered by
    /// the origin's `AllRemote` frontier, in sequence order.
    stable: Vec<Mutex<Vec<(u64, u64)>>>,
    mirrors: Vec<Mutex<Mirror>>,
    /// Per `(node, key)`: the frontier sequence the node emitted.
    monotone: Mutex<BTreeMap<(u16, String), Monotone>>,
    /// Callbacks that found no publish stamp for their message.
    unstamped: AtomicU64,
    /// `AllRemote` monitor callbacks that arrived after a callback for a
    /// higher frontier (the plain runtime runs monitors after releasing
    /// the node lock, on whichever thread caused the advance).
    late_callbacks: AtomicU64,
}

impl Probe {
    fn new() -> Self {
        Probe {
            epoch: Instant::now(),
            pub_ns: (0..3).map(|_| Stamps::new()).collect(),
            unstorable: AtomicU64::new(0),
            stable: (0..3).map(|_| Mutex::new(Vec::new())).collect(),
            mirrors: (0..3).map(|_| Mutex::new(Mirror::default())).collect(),
            monotone: Mutex::new(BTreeMap::new()),
            unstamped: AtomicU64::new(0),
            late_callbacks: AtomicU64::new(0),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record when `seq` was published; false if it cannot be stored.
    fn stamp(&self, origin: u16, seq: SeqNo, ns: u64) -> bool {
        match self.pub_ns[origin as usize].slot(seq) {
            Some(a) => {
                a.store(ns.max(1), Ordering::Release);
                true
            }
            None => {
                self.unstorable.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    fn stamped(&self, origin: u16, seq: SeqNo) -> Option<u64> {
        let v = self.pub_ns[origin as usize].get(seq);
        if v == 0 {
            self.unstamped.fetch_add(1, Ordering::Relaxed);
            None
        } else {
            Some(v)
        }
    }

    /// Register frontier monitors and delivery upcalls on every node.
    fn install<H: Handle>(self: &Arc<Self>, nodes: &[H], kind: Kind, pools: &[Arc<Vec<Bytes>>]) {
        for (i, h) in nodes.iter().enumerate() {
            let me = NodeId(i as u16);
            let probe = Arc::clone(self);
            h.watch_frontiers(me, move |u| {
                probe
                    .monotone
                    .lock()
                    .expect("probe lock poisoned")
                    .entry((me.0, u.key.clone()))
                    .or_default()
                    .on_update(u.generation, u.seq);
            });
            if kind.origins().contains(&me.0) {
                let probe = Arc::clone(self);
                let mut covered = 0;
                h.monitor(me, STRONG, move |u| {
                    let now = probe.now();
                    if u.seq <= covered {
                        // An earlier advance's callback ran after a later one's.
                        probe.late_callbacks.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    let mut st = probe.stable[me.0 as usize]
                        .lock()
                        .expect("probe lock poisoned");
                    for seq in covered + 1..=u.seq {
                        if let Some(p) = probe.stamped(me.0, seq) {
                            st.push((p, now));
                        }
                    }
                    covered = u.seq;
                });
            }
            let probe = Arc::clone(self);
            let pools: Vec<Arc<Vec<Bytes>>> = pools.to_vec();
            h.on_deliver(move |origin, seq, payload| {
                let now = probe.now();
                let stamp = probe.stamped(origin.0, seq);
                let mut m = probe.mirrors[i].lock().expect("probe lock poisoned");
                m.fifo.entry(origin.0).or_default().on_deliver(seq);
                if payload != payload_for(&pools[origin.0 as usize], seq) {
                    m.mismatches += 1;
                }
                if let Some(p) = stamp {
                    m.lat.push((p, now));
                }
            });
        }
    }
}

/// A running cluster with its callbacks installed.
struct Session<H: Handle> {
    nodes: Vec<H>,
    probe: Arc<Probe>,
    setup_s: f64,
}

/// Parse, spawn, and wait until every origin's first message is stable
/// on every key: the set-up that `setup_s` times.
fn open_session<H: Handle>(
    kind: Kind,
    inp: &Inputs,
    hub: Option<&Arc<Telemetry>>,
    rep: &mut Report,
) -> Result<Session<H>, CoreError> {
    let probe = Arc::new(Probe::new());
    let t0 = Instant::now();
    let cfg = ClusterConfig::parse(&kind.config())?;
    let nodes = H::spawn(&cfg, hub)?;
    probe.install(&nodes, kind, &inp.pools);
    for &o in kind.origins() {
        probe.stamp(o, 1, probe.now());
        rep.attempted += 1;
        let got = nodes[o as usize].publish(
            payload_for(&inp.pools[o as usize], 1).clone(),
            PUBLISH_TIMEOUT,
        );
        if got.as_ref().ok() != Some(&1) {
            rep.failed += 1;
            rep.checks
                .fail(format!("set-up publish at node {o}: {got:?}"));
        }
    }
    for &o in kind.origins() {
        for key in KEYS {
            if !nodes[o as usize].waitfor(NodeId(o), key, 1, DRAIN_TIMEOUT)? {
                rep.failed += 1;
                rep.checks
                    .fail(format!("set-up: seq 1 of node {o} never stable on {key}"));
            }
        }
    }
    Ok(Session {
        nodes,
        probe,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

/// What the load generators did.
#[derive(Default)]
struct Load {
    attempted: u64,
    errors: u64,
    /// Open loop: how late each publish started, in µs.
    late_us: Vec<f64>,
    /// Per-thread spans around the publish calls (traced runs).
    tracers: Vec<Tracer>,
    /// Measurement window in probe-epoch ns.
    window: (u64, u64),
    /// Process CPU seconds spent inside the window.
    cpu_s: f64,
}

/// Process CPU time (user + system, all threads) in seconds, from
/// `/proc/self/stat`; 0 where that file does not exist.
fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (USER_HZ=100).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Run the load generators for `run_for` (a window opens after the
/// warm-up) or until every origin reached `limit` messages.
fn drive<H: Handle>(
    s: &Session<H>,
    kind: Kind,
    inp: &Inputs,
    run_for: Duration,
    limit: u64,
    traced: bool,
) -> Load {
    let stop = Arc::new(AtomicBool::new(false));
    let probe = &s.probe;
    let start_ns = probe.now();
    let mut load = Load::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = kind
            .origins()
            .iter()
            .map(|&o| {
                let h = s.nodes[o as usize].clone();
                let pool = Arc::clone(&inp.pools[o as usize]);
                let (stop, probe) = (Arc::clone(&stop), Arc::clone(probe));
                let phase = inp.phase_ns[o as usize];
                scope.spawn(move || {
                    generate(
                        &h,
                        o,
                        kind,
                        &pool,
                        &probe,
                        &stop,
                        start_ns + phase,
                        limit,
                        traced,
                    )
                })
            })
            .collect();
        let t_start = Instant::now();
        std::thread::sleep(WARMUP.min(run_for));
        let ws = probe.now();
        let cpu0 = cpu_seconds();
        while t_start.elapsed() < run_for && !workers.iter().all(|w| w.is_finished()) {
            std::thread::sleep(Duration::from_millis(5));
        }
        load.window = (ws, probe.now());
        load.cpu_s = cpu_seconds() - cpu0;
        stop.store(true, Ordering::SeqCst);
        for w in workers {
            let g = w.join().expect("load generator panicked");
            load.attempted += g.attempted;
            load.errors += g.errors;
            load.late_us.extend(g.late_us);
            load.tracers.extend(g.tracer);
        }
    });
    load
}

struct Generated {
    attempted: u64,
    errors: u64,
    late_us: Vec<f64>,
    tracer: Option<Tracer>,
}

/// One origin's generator: a closed loop, or for `EightK` an open loop
/// whose k-th message is due at `first_due + k / rate`.
#[allow(clippy::too_many_arguments)]
fn generate<H: Handle>(
    h: &H,
    origin: u16,
    kind: Kind,
    pool: &[Bytes],
    probe: &Probe,
    stop: &AtomicBool,
    first_due: u64,
    limit: u64,
    traced: bool,
) -> Generated {
    let mut g = Generated {
        attempted: 0,
        errors: 0,
        late_us: Vec::new(),
        tracer: traced.then(|| Tracer::with_epoch(probe.epoch)),
    };
    let period = 1_000_000_000 / OPEN_RATE;
    let mut seq = h.last_published() + 1;
    let mut k = 0u64;
    if !kind.open_loop() {
        // Closed loops start at their seeded phase offset too.
        let now = probe.now();
        if first_due > now {
            std::thread::sleep(Duration::from_nanos(first_due - now));
        }
    }
    while !stop.load(Ordering::Relaxed) && seq <= limit {
        let stamp = if kind.open_loop() {
            let due = first_due + k * period;
            k += 1;
            let now = probe.now();
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            g.late_us.push(probe.now().saturating_sub(due) as f64 / 1e3);
            due
        } else {
            probe.now()
        };
        if !probe.stamp(origin, seq, stamp) {
            break;
        }
        let payload = payload_for(pool, seq).clone();
        g.attempted += 1;
        let got = match g.tracer.as_mut() {
            Some(tr) => tr.span(kind.publish_span(), (origin, seq), || {
                h.publish(payload, PUBLISH_TIMEOUT)
            }),
            None => h.publish(payload, PUBLISH_TIMEOUT),
        };
        match got {
            Ok(s) if s == seq => seq += 1,
            _ => g.errors += 1,
        }
    }
    g
}

/// End of a session: wait for every published message to stabilize and
/// reach every mirror, then run the output checks. Returns the number
/// of messages that never stabilized.
fn finish<H: Handle>(s: &Session<H>, kind: Kind, checks: &mut Checks) -> Result<u64, CoreError> {
    let last: Vec<SeqNo> = s.nodes.iter().map(H::last_published).collect();
    let mut never = 0;
    for &o in kind.origins() {
        let h = &s.nodes[o as usize];
        if !h.waitfor(NodeId(o), STRONG, last[o as usize], DRAIN_TIMEOUT)? {
            let f = h.frontier(NodeId(o), STRONG).map_or(0, |f| f.0);
            never += last[o as usize].saturating_sub(f);
        }
    }
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    let all_delivered = || {
        (0..3).all(|m| {
            let mirror = s.probe.mirrors[m].lock().expect("probe lock poisoned");
            kind.origins()
                .iter()
                .filter(|&&o| o as usize != m)
                .all(|&o| mirror.fifo.get(&o).map_or(0, Fifo::delivered) >= last[o as usize])
        })
    };
    while !all_delivered() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    for (m, h) in s.nodes.iter().enumerate() {
        let mirror = s.probe.mirrors[m].lock().expect("probe lock poisoned");
        for o in (0..3u16).filter(|&o| o as usize != m) {
            let fifo = mirror.fifo.get(&o).cloned().unwrap_or_default();
            fifo.check(
                checks,
                &format!("mirror {m} of origin {o}"),
                last[o as usize],
            );
        }
        checks.expect(mirror.mismatches == 0, || {
            format!(
                "mirror {m}: {} payloads differ from the published ones",
                mirror.mismatches
            )
        });
        for key in KEYS {
            let f = h.frontier(NodeId(m as u16), key);
            checks.expect(f == Some((last[m], 0)), || {
                format!("node {m}: {key} ended at {f:?}, expected ({}, 0)", last[m])
            });
        }
    }
    for ((node, key), mono) in s.probe.monotone.lock().expect("probe lock poisoned").iter() {
        mono.check(checks, &format!("node {node} {key}"));
    }
    let unstamped = s.probe.unstamped.load(Ordering::Relaxed);
    checks.expect(unstamped == 0, || {
        format!("{unstamped} callbacks for unpublished messages")
    });
    let unstorable = s.probe.unstorable.load(Ordering::Relaxed);
    checks.expect(unstorable == 0, || {
        format!("{unstorable} publishes beyond the probe's stamp storage")
    });
    Ok(never)
}

/// Latency and throughput over a session's measurement window.
struct Measured {
    /// Whole-window distributions (for the table).
    stable: Summary,
    deliver: Summary,
    /// Medians over one-second slices of the window: throughput and the
    /// latency percentiles of messages published in each slice.
    tput: f64,
    stable_p50: f64,
    slices: usize,
    pubs_in_window: u64,
}

fn measured(s: &Session<impl Handle>, kind: Kind, window: (u64, u64), never: u64) -> Measured {
    let (ws, we) = window;
    let slices = (((we - ws) as f64 / 1e9).round() as usize).max(1);
    let slice_ns = (we - ws) / slices as u64;
    let slice_of = |t: u64| -> Option<usize> {
        (t >= ws && t < ws + slice_ns * slices as u64).then(|| ((t - ws) / slice_ns) as usize)
    };
    let mut stable: Vec<Vec<f64>> = vec![Vec::new(); slices];
    let mut stabilized = vec![0u64; slices];
    let mut pubs_in_window = 0u64;
    for &o in kind.origins() {
        let st = s.probe.stable[o as usize]
            .lock()
            .expect("probe lock poisoned");
        for &(p, t) in st.iter() {
            if let Some(k) = slice_of(p) {
                stable[k].push((t - p) as f64 / 1e3);
            }
            if let Some(k) = slice_of(t) {
                stabilized[k] += 1;
            }
        }
        pubs_in_window += s.probe.pub_ns[o as usize]
            .all()
            .filter(|&t| slice_of(t).is_some())
            .count() as u64;
    }
    // Messages that never stabilized rank as infinitely late, in the
    // last slice (their publish stamps are not kept apart).
    stable[slices - 1].extend((0..never).map(|_| f64::INFINITY));
    let mut deliver: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for m in &s.probe.mirrors {
        let m = m.lock().expect("probe lock poisoned");
        for &(p, t) in &m.lat {
            if let Some(k) = slice_of(p) {
                deliver[k].push((t - p) as f64 / 1e3);
            }
        }
    }
    let per_slice = |v: &[Vec<f64>], q: fn(&Summary) -> f64| -> f64 {
        stats::median(
            &v.iter()
                .map(|x| q(&summarize(x.clone())))
                .collect::<Vec<_>>(),
        )
    };
    Measured {
        tput: stats::median(
            &stabilized
                .iter()
                .map(|&c| c as f64 / (slice_ns as f64 / 1e9))
                .collect::<Vec<_>>(),
        ),
        stable_p50: per_slice(&stable, |s| s.p50),
        stable: summarize(stable.concat()),
        deliver: summarize(deliver.concat()),
        slices,
        pubs_in_window,
    }
}

fn shutdown<H: Handle>(nodes: &[H]) {
    for h in nodes {
        h.shutdown();
    }
}

/// The primary end-to-end metric of a workload and whether higher is
/// better: throughput for the closed loops, stable p50 for the open loop.
fn primary(kind: Kind, m: &Measured) -> (f64, bool) {
    if kind.open_loop() {
        (m.stable_p50, false)
    } else {
        (m.tput, true)
    }
}

/// A time-bounded session with a telemetry hub attached and every
/// publish call timed: returns the load, the measurement, the hub and
/// the number of messages published.
fn telemetry_session<H: Handle>(
    kind: Kind,
    inp: &Inputs,
    run_for: Duration,
    rep: &mut Report,
) -> Result<(Load, Measured, Arc<Telemetry>, u64, Instant), CoreError> {
    let hub = H::hub();
    let s = open_session::<H>(kind, inp, Some(&hub), rep)?;
    let load = drive(&s, kind, inp, run_for, u64::MAX, true);
    let never = finish(&s, kind, &mut rep.checks)?;
    shutdown(&s.nodes);
    rep.attempted += load.attempted;
    rep.failed += load.errors + never;
    let m = measured(&s, kind, load.window, never);
    let published = s.nodes.iter().map(H::last_published).sum();
    Ok((load, m, hub, published, s.probe.epoch))
}

/// A node's state at the end of the reference run.
struct FinalState {
    metrics: Metrics,
    frontiers: Vec<Option<(SeqNo, u32)>>,
    last: SeqNo,
}

/// Traced run: per-layer metrics.
///
/// (a) an untraced threaded run of exactly `REPLAY_PUBS` publishes per
/// origin, whose final state the replay must reproduce; (b) an untraced
/// time-bounded run for the primary metric; (c) the same with a
/// telemetry hub attached and the publish calls timed; for `Small`
/// also (e) the sharded runtime under the same traffic, timing
/// `ShardedHandle::publish`; (d) a single-threaded loopback replay of
/// (a)'s inputs through the sans-IO API with every call in a span,
/// then the standalone layers fed each node's captured inputs.
pub fn run_traced(args: &Args, kind: Kind) -> Result<Report, CoreError> {
    let inp = inputs(args.seed, kind);
    let mut rep = Report::default();
    let parts = if kind == Kind::Small { 4.0 } else { 3.0 };
    let part = Duration::from_secs_f64((args.seconds / parts).max(1.0));

    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let s = open_session::<NodeHandle>(kind, &inp, None, &mut rep)?;
        shutdown(&s.nodes);
        setups.push(s.setup_s);
    }

    // (a)
    let s = open_session::<NodeHandle>(kind, &inp, None, &mut rep)?;
    let load = drive(&s, kind, &inp, Duration::from_secs(60), REPLAY_PUBS, false);
    let never = finish(&s, kind, &mut rep.checks)?;
    rep.attempted += load.attempted;
    rep.failed += load.errors + never;
    let reference: Vec<FinalState> = s
        .nodes
        .iter()
        .enumerate()
        .map(|(i, h)| {
            let me = NodeId(i as u16);
            FinalState {
                metrics: h.metrics(),
                frontiers: KEYS.iter().map(|k| h.frontier(me, k)).collect(),
                last: h.last_published(),
            }
        })
        .collect();
    shutdown(&s.nodes);

    // (b)
    let s = open_session::<NodeHandle>(kind, &inp, None, &mut rep)?;
    let load_b = drive(&s, kind, &inp, part, u64::MAX, false);
    let never = finish(&s, kind, &mut rep.checks)?;
    shutdown(&s.nodes);
    let m_b = measured(&s, kind, load_b.window, never);
    rep.attempted += load_b.attempted;
    rep.failed += load_b.errors + never;
    rep.note(format!(
        "untraced threaded run: window {:.3} s in {} slices, {} publishes in it; {} set-ups: median {:.4} s, max {:.4} s",
        (load_b.window.1 - load_b.window.0) as f64 / 1e9,
        m_b.slices,
        m_b.pubs_in_window,
        setups.len(),
        stats::median(&setups),
        setups.iter().copied().fold(0.0, f64::max)
    ));
    rep.note(format!(
        "AllRemote monitor callbacks run after a later advance's: {}",
        s.probe.late_callbacks.load(Ordering::Relaxed)
    ));
    rep.note_summary("stable (publish->AllRemote at origin)", "us", &m_b.stable);
    rep.note_summary("deliver (publish->upcall at mirror)", "us", &m_b.deliver);

    // (c)
    let (load_c, m_c, hub, published_c, epoch) =
        telemetry_session::<NodeHandle>(kind, &inp, part, &mut rep)?;
    let counter = |name: &str| -> u64 {
        (0..3)
            .map(|i| {
                hub.registry()
                    .counter(name, &[("node", &i.to_string())])
                    .get()
            })
            .sum()
    };
    let mut publish_spans = Tracer::with_epoch(epoch);
    for t in load_c.tracers {
        publish_spans.merge(t);
    }

    // (e)
    if kind == Kind::Small {
        let (load_e, m_e, ..) =
            telemetry_session::<ShardedHandle>(Kind::Sharded, &inp, part, &mut rep)?;
        for t in load_e.tracers {
            publish_spans.merge(t);
        }
        rep.note(format!(
            "sharded runtime (2 shards) under the same traffic: {:.1} msgs/s, plain runtime with the same hub: {:.1} msgs/s",
            m_e.tput, m_c.tput
        ));
    }

    // (d)
    let cfg = ClusterConfig::parse(&kind.config())?;
    let acks = Arc::new(AckTypeRegistry::new());
    let nodes = (0..cfg.num_nodes())
        .map(|i| StabilizerNode::new(cfg.clone(), NodeId(i as u16), Arc::clone(&acks)))
        .collect::<Result<Vec<_>, CoreError>>()?;
    let mut tr = Tracer::new();
    let mut lb = Loopback::new(nodes);
    let t_replay = Instant::now();
    for seq in 1..=REPLAY_PUBS {
        for &o in kind.origins() {
            let p = payload_for(&inp.pools[o as usize], seq);
            lb.publish(&mut tr, o as usize, seq, p, &mut rep.checks);
        }
    }
    let replay_s = t_replay.elapsed().as_secs_f64();
    let replay_pubs = REPLAY_PUBS * kind.origins().len() as u64;
    let busy = tr.busy_ns(&[
        "node.publish",
        "node.on_data",
        "node.on_ack",
        "node.on_message",
        "node.take_actions",
        "messages.encode",
        "messages.decode",
        "framing.write",
        "framing.read",
    ]);
    for (
        i,
        FinalState {
            metrics,
            frontiers,
            last,
        },
    ) in reference.iter().enumerate()
    {
        let me = NodeId(i as u16);
        let mut mine = lb.nodes[i].metrics();
        // Frontier advances depend on how ACKs from different peers
        // interleave, which threads decide; every other counter is fixed
        // by the inputs.
        mine.frontier_updates = metrics.frontier_updates;
        rep.checks.expect(mine == *metrics, || {
            format!(
                "replay of node {i}: counters {mine:?} differ from the threaded run's {metrics:?}"
            )
        });
        for (k, f) in KEYS.iter().zip(frontiers) {
            let got = lb.nodes[i].stability_frontier(me, k);
            rep.checks.expect(got == *f, || {
                format!("replay of node {i}: {k} is {got:?}, threaded run had {f:?}")
            });
        }
        for &o in kind.origins().iter().filter(|&&o| o as usize != i) {
            let fifo = lb.fifo.get(&(i as u16, o)).cloned().unwrap_or_default();
            fifo.check(
                &mut rep.checks,
                &format!("replay mirror {i} of origin {o}"),
                REPLAY_PUBS,
            );
        }
        let expect_last = if kind.origins().contains(&(i as u16)) {
            REPLAY_PUBS
        } else {
            0
        };
        rep.checks.expect(*last == expect_last, || {
            format!("reference node {i} published {last}, expected {expect_last}")
        });
        let regs: Vec<(NodeId, String, String)> = cfg
            .predicates()
            .map(|(k, s)| (me, k.to_owned(), s.to_owned()))
            .collect();
        let mut layers = LayerReplay::new(&cfg, me, &acks, &regs)?;
        for input in &lb.inputs[i] {
            layers.feed(&mut tr, input);
        }
        layers.verify(&lb.nodes[i], &mut rep.checks);
    }
    for ((node, stream, key), mono) in &lb.monotone {
        mono.check(
            &mut rep.checks,
            &format!("replay node {node} {key}@{stream}"),
        );
    }

    let span = kind.publish_span();
    let blocked = publish_spans.count_at_least(span, 1_000_000);
    let publish_calls = publish_spans.count(span);
    let late = summarize(load_c.late_us.clone());
    let (pb, higher) = primary(kind, &m_b);
    let (pc, _) = primary(kind, &m_c);
    let mut calls = tr.aggregate();
    calls.extend(publish_spans.aggregate());
    let cpu_per_pub = load_b.cpu_s / m_b.pubs_in_window.max(1) as f64;
    let busy_per_pub = busy as f64 / 1e9 / replay_pubs as f64;
    crate::layer_metrics(
        &mut rep,
        &Counts {
            metrics: crate::sum_metrics(reference.iter().map(|r| r.metrics)),
            pubs: replay_pubs,
            frames: counter("stab_tcp_frames_out_total"),
            wire_bytes: counter("stab_tcp_bytes_out_total"),
            transport_pubs: published_c,
            connect_attempts: counter("stab_tcp_connect_attempts_total"),
            reconnects: counter("stab_tcp_reconnects_total"),
            late_p99_us: if kind.open_loop() { late.p99 } else { 0.0 },
            blocked_ratio: blocked as f64 / publish_calls.max(1) as f64,
            runtime_tput: m_b.tput,
            runtime_stable_p50_us: m_b.stable_p50,
            runtime_setup_s: stats::mean(&setups),
            ..Default::default()
        },
        &calls,
        cpu_per_pub / busy_per_pub,
        if higher { pb / pc } else { pc / pb },
    );
    rep.note(format!(
        "untraced primary {pb:.3}, with hub and timed publishes {pc:.3}; replay of {replay_pubs} publishes took {replay_s:.3} s and moved {} frames",
        lb.frames
    ));
    if kind.open_loop() {
        rep.note_summary("loadgen lateness (telemetry run)", "us", &late);
    }
    tr.merge(publish_spans);
    crate::write_spans(&mut rep, &tr, args)?;
    Ok(rep)
}
