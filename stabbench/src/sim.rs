//! The simulator workloads: every node of a cluster on one thread, on
//! the deterministic WAN simulator, in virtual time.
//!
//! * `sim-geo`: the paper's Fig. 2 EC2 deployment. Eight nodes each
//!   publish 1 KiB messages at 200 msg/s of virtual time, starting at a
//!   seeded phase offset, and every node registers the configuration's
//!   six predicates on every peer stream as well as its own (48 per
//!   node). Messages travel as `WireMsg` values: codec and framing are
//!   bypassed. Run by the library's `SimNode`.
//! * `wire-small`, `wire-8k`: the three-node demo cluster, with every
//!   message encoded and framed by the sender (`write_frame`) and read
//!   back and decoded by the receiver (`read_frame_counted`), the work
//!   the TCP runtime's writer and reader threads do. Run by the
//!   benchmark's `WireNode`.
//!
//! A run repeats one seeded round — build, register, publish for the
//! round's virtual time, drain — until `--seconds` of wall time are
//! used, and reports medians over rounds. Rounds are deterministic, so
//! every round must reproduce the first one's counters and latencies
//! exactly. Round and set-up times are the thread's CPU time scaled to
//! the reference host's speed by the reference work run around each
//! round (see `clock`).

use crate::check::{Checks, Fifo, Monotone};
use crate::clock::{reference_work, thread_cpu_s, REFERENCE_WORK_S};
use crate::layers::{Input, LayerReplay};
use crate::report::Report;
use crate::rng::{payload_for, payload_pool, Rng};
use crate::stats::{self, summarize};
use crate::trace::{Tracer, NO_MSG};
use crate::Args;
use bytes::Bytes;
use stabilizer_core::sim_driver::{AppHooks, SimNode};
use stabilizer_core::{
    AckTypeRegistry, Action, ClusterConfig, CoreError, FrontierUpdate, Metrics, NodeId, SeqNo,
    StabilizerNode, WireMsg,
};
use stabilizer_netsim::{
    Actor, Ctx, LinkSpec, MsgSize, NetTopology, SimDuration, SimTime, Simulation,
};
use stabilizer_transport::framing::{read_frame_counted, write_frame};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// One simulator workload.
pub struct Spec {
    config: &'static str,
    /// Options appended to `config`.
    options: &'static str,
    topology: fn() -> NetTopology,
    /// Uniform one-way jitter added to every link, drawn from the seeded
    /// simulator RNG, so the seed moves the virtual latencies.
    jitter_us: u64,
    /// Publishing nodes.
    origins: &'static [usize],
    /// Virtual time between two publishes of one origin.
    period_ns: u64,
    /// Virtual publishing time of one round.
    round_ns: u64,
    payload: usize,
    /// The key whose publish→stable latency is reported.
    strong: &'static str,
    /// Whether every node also registers the predicates on every peer
    /// stream, as mirrors that track peer stability would.
    peer_predicates: bool,
    /// Whether messages travel framed (`WireNode`) or as values
    /// (`SimNode`).
    framed: bool,
}

const FIG2: &str = include_str!("../configs/fig2-ec2.cfg");
const DEMO: &str = include_str!("../configs/demo-3node.cfg");

/// `sim-geo`.
pub const SIM_GEO: Spec = Spec {
    config: FIG2,
    options: "",
    topology: NetTopology::ec2_fig2,
    jitter_us: 500,
    origins: &[0, 1, 2, 3, 4, 5, 6, 7],
    period_ns: 5_000_000,
    round_ns: 1_000_000_000,
    payload: 1024,
    strong: "AllWNodes",
    peer_predicates: true,
    framed: false,
};

/// `wire-small`: e1 and w1 publish 64-byte messages at 20,000 msg/s of
/// virtual time each, against a 256 KiB send buffer.
pub const WIRE_SMALL: Spec = Spec {
    config: DEMO,
    options: "option send_buffer_bytes 262144\n",
    topology: demo_topology,
    jitter_us: 20,
    origins: &[0, 2],
    period_ns: 50_000,
    round_ns: 500_000_000,
    payload: 64,
    strong: "AllRemote",
    peer_predicates: false,
    framed: true,
};

/// `wire-8k`: e1 publishes 8 KiB messages at 8,000 msg/s of virtual
/// time, half of its links' bandwidth.
pub const WIRE_8K: Spec = Spec {
    config: DEMO,
    options: "",
    topology: demo_topology,
    jitter_us: 20,
    origins: &[0],
    period_ns: 125_000,
    round_ns: 1_000_000_000,
    payload: 8192,
    strong: "AllRemote",
    peer_predicates: false,
    framed: true,
};

/// The demo cluster's sites: e1 and e2 in one zone (0.1 ms RTT), w1 in
/// another (1 ms RTT), 1 Gbit/s links. Short round trips keep
/// serialization, queueing and ACK delays a visible share of latency.
fn demo_topology() -> NetTopology {
    let mut t = NetTopology::new(&["e1", "e2", "w1"]);
    t.set_symmetric(0, 1, LinkSpec::from_rtt_mbit(0.1, 1000.0));
    t.set_symmetric(0, 2, LinkSpec::from_rtt_mbit(1.0, 1000.0));
    t.set_symmetric(1, 2, LinkSpec::from_rtt_mbit(1.0, 1000.0));
    t
}

struct Inputs {
    cfg: String,
    net_seed: u64,
    pools: Vec<Vec<Bytes>>,
    /// `(virtual time, node)` of every publish, in time order.
    schedule: Vec<(u64, usize)>,
}

fn inputs(spec: &Spec, seed: u64) -> Inputs {
    let n = (spec.topology)().len();
    let mut rng = Rng::derive(seed, 1);
    let net_seed = rng.next_u64();
    let phase: Vec<u64> = spec
        .origins
        .iter()
        .map(|_| rng.below(spec.period_ns))
        .collect();
    let mut schedule: Vec<(u64, usize)> = (0..spec.round_ns / spec.period_ns)
        .flat_map(|k| {
            spec.origins
                .iter()
                .enumerate()
                .map(move |(j, &i)| (k, j, i))
        })
        .map(|(k, j, i)| (phase[j] + k * spec.period_ns, i))
        .collect();
    schedule.sort_unstable();
    Inputs {
        cfg: format!("{}\n{}", spec.config, spec.options),
        net_seed,
        pools: (0..n as u16)
            .map(|i| payload_pool(seed, i, spec.payload))
            .collect(),
        schedule,
    }
}

/// The simulator actor types a round can run: the library's own
/// `SimNode`, the benchmark's traced driver, or its framing driver.
trait GeoActor: Actor {
    fn node(&self) -> &StabilizerNode;
    fn publish(&mut self, ctx: &mut Ctx<'_, Self::Msg>, payload: Bytes)
        -> Result<SeqNo, CoreError>;
    fn register(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg>,
        stream: NodeId,
        key: &str,
        source: &str,
    ) -> Result<(), CoreError>;
    fn frontier_log(&self) -> &[(SimTime, FrontierUpdate)];
    fn delivery_log(&self) -> &[(SimTime, NodeId, SeqNo, usize)];
    /// Deliveries whose payload differed from the published one.
    fn payload_mismatches(&self) -> u64;
}

/// Compares every delivered payload with the one its origin published.
struct PayloadCheck {
    pools: Rc<Vec<Vec<Bytes>>>,
    mismatches: u64,
}

impl AppHooks for PayloadCheck {
    fn on_deliver(&mut self, _now: SimTime, origin: NodeId, seq: SeqNo, payload: &Bytes) {
        if payload != payload_for(&self.pools[origin.0 as usize], seq) {
            self.mismatches += 1;
        }
    }
}

impl GeoActor for SimNode<PayloadCheck> {
    fn node(&self) -> &StabilizerNode {
        self.inner()
    }
    fn publish(&mut self, ctx: &mut Ctx<'_, WireMsg>, payload: Bytes) -> Result<SeqNo, CoreError> {
        self.publish_in(ctx, payload)
    }
    fn register(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg>,
        stream: NodeId,
        key: &str,
        source: &str,
    ) -> Result<(), CoreError> {
        self.register_predicate_in(ctx, stream, key, source)
    }
    fn frontier_log(&self) -> &[(SimTime, FrontierUpdate)] {
        &self.frontier_log
    }
    fn delivery_log(&self) -> &[(SimTime, NodeId, SeqNo, usize)] {
        &self.delivery_log
    }
    fn payload_mismatches(&self) -> u64 {
        self.hooks.mismatches
    }
}

/// The benchmark's own driver: the same work as `SimNode` for this
/// workload (no timers are configured), with every call into the node
/// wrapped in a span and every input captured for the layer replay.
struct TracedNode {
    node: StabilizerNode,
    tracer: Rc<RefCell<Tracer>>,
    pools: Rc<Vec<Vec<Bytes>>>,
    inputs: Vec<Input>,
    frontier_log: Vec<(SimTime, FrontierUpdate)>,
    delivery_log: Vec<(SimTime, NodeId, SeqNo, usize)>,
    mismatches: u64,
}

impl TracedNode {
    fn drain(&mut self, ctx: &mut Ctx<'_, WireMsg>, id: (u16, u64)) {
        let node = &mut self.node;
        let actions = self
            .tracer
            .borrow_mut()
            .span("node.take_actions", id, || node.take_actions());
        for action in actions {
            match action {
                Action::Send { to, msg } => ctx.send(to.0 as usize, msg),
                Action::Deliver {
                    origin,
                    seq,
                    payload,
                } => {
                    if &payload != payload_for(&self.pools[origin.0 as usize], seq) {
                        self.mismatches += 1;
                    }
                    self.delivery_log
                        .push((ctx.now(), origin, seq, payload.len()));
                }
                Action::Frontier(u) => self.frontier_log.push((ctx.now(), u)),
                _ => {}
            }
        }
    }
}

impl Actor for TracedNode {
    type Msg = WireMsg;

    fn on_message(&mut self, ctx: &mut Ctx<'_, WireMsg>, from: usize, msg: WireMsg) {
        let from = NodeId(from as u16);
        let id = crate::loopback::msg_id(&msg);
        let name = crate::loopback::on_message_span(&msg);
        self.inputs.push(Input::Msg(from, msg.clone()));
        let (node, now) = (&mut self.node, ctx.now().as_nanos());
        self.tracer
            .borrow_mut()
            .span(name, id, || node.on_message(now, from, msg));
        self.drain(ctx, id);
    }
}

impl GeoActor for TracedNode {
    fn node(&self) -> &StabilizerNode {
        &self.node
    }
    fn publish(&mut self, ctx: &mut Ctx<'_, WireMsg>, payload: Bytes) -> Result<SeqNo, CoreError> {
        let id = (self.node.me().0, self.node.last_published() + 1);
        self.inputs.push(Input::Publish(payload.clone()));
        let node = &mut self.node;
        let seq = self
            .tracer
            .borrow_mut()
            .span("node.publish", id, || node.publish(payload))?;
        self.drain(ctx, id);
        Ok(seq)
    }
    fn register(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg>,
        stream: NodeId,
        key: &str,
        source: &str,
    ) -> Result<(), CoreError> {
        self.node.register_predicate(stream, key, source)?;
        self.drain(ctx, NO_MSG);
        Ok(())
    }
    fn frontier_log(&self) -> &[(SimTime, FrontierUpdate)] {
        &self.frontier_log
    }
    fn delivery_log(&self) -> &[(SimTime, NodeId, SeqNo, usize)] {
        &self.delivery_log
    }
    fn payload_mismatches(&self) -> u64 {
        self.mismatches
    }
}

/// A frame as the TCP runtime writes it: length prefix and encoded
/// message.
#[derive(Clone)]
struct Frame(Bytes);

impl MsgSize for Frame {
    fn wire_size(&self) -> usize {
        self.0.len()
    }
}

/// The benchmark's driver for the wire workloads: every message a node
/// sends is framed by `write_frame`, and every frame it receives is read
/// back by `read_frame_counted` before `on_message`.
struct WireNode {
    node: StabilizerNode,
    pools: Rc<Vec<Vec<Bytes>>>,
    frontier_log: Vec<(SimTime, FrontierUpdate)>,
    delivery_log: Vec<(SimTime, NodeId, SeqNo, usize)>,
    mismatches: u64,
    /// Frames that did not read back whole.
    bad_frames: u64,
}

impl WireNode {
    fn new(node: StabilizerNode, pools: &Rc<Vec<Vec<Bytes>>>) -> Self {
        WireNode {
            node,
            pools: Rc::clone(pools),
            frontier_log: Vec::new(),
            delivery_log: Vec::new(),
            mismatches: 0,
            bad_frames: 0,
        }
    }

    fn drain(&mut self, ctx: &mut Ctx<'_, Frame>) {
        for action in self.node.take_actions() {
            match action {
                Action::Send { to, msg } => {
                    let mut frame = Vec::new();
                    write_frame(&mut frame, &msg).expect("writing to a Vec cannot fail");
                    ctx.send(to.0 as usize, Frame(Bytes::from(frame)));
                }
                Action::Deliver {
                    origin,
                    seq,
                    payload,
                } => {
                    if &payload != payload_for(&self.pools[origin.0 as usize], seq) {
                        self.mismatches += 1;
                    }
                    self.delivery_log
                        .push((ctx.now(), origin, seq, payload.len()));
                }
                Action::Frontier(u) => self.frontier_log.push((ctx.now(), u)),
                _ => {}
            }
        }
    }
}

impl Actor for WireNode {
    type Msg = Frame;

    fn on_message(&mut self, ctx: &mut Ctx<'_, Frame>, from: usize, frame: Frame) {
        let mut reader = &frame.0[..];
        match read_frame_counted(&mut reader) {
            Ok(Some((msg, len))) if len == frame.0.len() => {
                let now = ctx.now().as_nanos();
                self.node.on_message(now, NodeId(from as u16), msg);
                self.drain(ctx);
            }
            _ => self.bad_frames += 1,
        }
    }
}

impl GeoActor for WireNode {
    fn node(&self) -> &StabilizerNode {
        &self.node
    }
    fn publish(&mut self, ctx: &mut Ctx<'_, Frame>, payload: Bytes) -> Result<SeqNo, CoreError> {
        let seq = self.node.publish(payload)?;
        self.drain(ctx);
        Ok(seq)
    }
    fn register(
        &mut self,
        ctx: &mut Ctx<'_, Frame>,
        stream: NodeId,
        key: &str,
        source: &str,
    ) -> Result<(), CoreError> {
        self.node.register_predicate(stream, key, source)?;
        self.drain(ctx);
        Ok(())
    }
    fn frontier_log(&self) -> &[(SimTime, FrontierUpdate)] {
        &self.frontier_log
    }
    fn delivery_log(&self) -> &[(SimTime, NodeId, SeqNo, usize)] {
        &self.delivery_log
    }
    fn payload_mismatches(&self) -> u64 {
        self.mismatches + self.bad_frames
    }
}

/// One round's simulation and timings.
struct Round<A: GeoActor> {
    sim: Simulation<A>,
    cfg: ClusterConfig,
    acks: Arc<AckTypeRegistry>,
    /// CPU seconds from config parse to the first message of every
    /// origin being stable on every key of its stream.
    setup_s: f64,
    /// CPU seconds from the first publish until the simulation drained.
    run_s: f64,
    /// Wall seconds of the same span as `run_s`.
    run_wall_s: f64,
    /// `pub_ns[origin][seq - 1]`: virtual publish time.
    pub_ns: Vec<Vec<u64>>,
    /// Publish errors.
    publish_errors: u64,
    /// Simulator events processed (counted only when traced).
    steps: u64,
}

fn all_ready<A: GeoActor>(sim: &Simulation<A>, origins: &[usize], keys: &[String]) -> bool {
    origins.iter().all(|&i| {
        let me = NodeId(i as u16);
        keys.iter().all(|k| {
            sim.actor(i)
                .node()
                .stability_frontier(me, k)
                .is_some_and(|(f, _)| f >= 1)
        })
    })
}

fn run_round<A: GeoActor>(
    spec: &Spec,
    inp: &Inputs,
    mut wrap: impl FnMut(StabilizerNode) -> A,
    tracer: Option<&Rc<RefCell<Tracer>>>,
) -> Result<Round<A>, CoreError> {
    let t0 = thread_cpu_s();
    let cfg = ClusterConfig::parse(&inp.cfg)?;
    let net = (spec.topology)().with_jitter(SimDuration::from_micros(spec.jitter_us));
    let n = net.len();
    let acks = Arc::new(AckTypeRegistry::new());
    let mut actors = Vec::with_capacity(n);
    for i in 0..n {
        actors.push(wrap(StabilizerNode::new(
            cfg.clone(),
            NodeId(i as u16),
            Arc::clone(&acks),
        )?));
    }
    let mut sim = Simulation::new(net, actors, inp.net_seed);
    let preds: Vec<(String, String)> = cfg
        .predicates()
        .map(|(k, s)| (k.to_owned(), s.to_owned()))
        .collect();
    let keys: Vec<String> = preds.iter().map(|(k, _)| k.clone()).collect();
    for i in (0..n).filter(|_| spec.peer_predicates) {
        for stream in (0..n).filter(|&s| s != i) {
            for (key, source) in &preds {
                sim.with_ctx(i, |a, ctx| {
                    a.register(ctx, NodeId(stream as u16), key, source)
                })?;
            }
        }
    }
    let (t_run, t_run_wall) = (thread_cpu_s(), Instant::now());
    let mut setup_s = None;
    let mut pub_ns = vec![Vec::new(); n];
    let mut publish_errors = 0;
    let mut steps = 0;
    let advance = |sim: &mut Simulation<A>, deadline: SimTime, steps: &mut u64| match tracer {
        None => sim.run_until(deadline),
        Some(tr) => {
            while sim.next_event_time().is_some_and(|t| t <= deadline) {
                let s = tr.borrow_mut().begin("netsim.step", NO_MSG);
                sim.step();
                tr.borrow_mut().end(s);
                *steps += 1;
            }
            // Nothing left before the deadline: this only moves the clock.
            sim.run_until(deadline);
        }
    };
    for &(t, i) in &inp.schedule {
        advance(&mut sim, SimTime(t), &mut steps);
        if setup_s.is_none() && all_ready(&sim, spec.origins, &keys) {
            setup_s = Some(thread_cpu_s() - t0);
        }
        let seq = pub_ns[i].len() as u64 + 1;
        let payload = payload_for(&inp.pools[i], seq).clone();
        match sim.with_ctx(i, |a, ctx| a.publish(ctx, payload)) {
            Ok(s) if s == seq => pub_ns[i].push(t),
            _ => publish_errors += 1,
        }
    }
    // Drain: no timers are configured, so the queue empties.
    let mut deadline = SimTime(spec.round_ns);
    while sim.pending_events() > 0 {
        deadline = SimTime(deadline.as_nanos() + 10_000_000);
        advance(&mut sim, deadline, &mut steps);
        if setup_s.is_none() && all_ready(&sim, spec.origins, &keys) {
            setup_s = Some(thread_cpu_s() - t0);
        }
    }
    let run_s = thread_cpu_s() - t_run;
    let run_wall_s = t_run_wall.elapsed().as_secs_f64();
    Ok(Round {
        sim,
        cfg,
        acks,
        setup_s: setup_s.unwrap_or(f64::INFINITY),
        run_s,
        run_wall_s,
        pub_ns,
        publish_errors,
        steps,
    })
}

/// Everything a round produced that the report and the cross-round
/// comparisons use.
#[derive(PartialEq)]
struct Outcome {
    vstable_ns: Vec<f64>,
    deliver_ns: Vec<f64>,
    metrics: Vec<Metrics>,
    never_stable: u64,
}

/// Check a finished round and extract its latencies.
fn analyze<A: GeoActor>(spec: &Spec, r: &Round<A>, checks: &mut Checks) -> Outcome {
    let n = r.sim.topology().len();
    let topo = r.sim.topology();
    let mut vstable_ns = Vec::new();
    let mut deliver_ns = Vec::new();
    let mut never_stable = 0;
    for i in 0..n {
        let me = NodeId(i as u16);
        let a = r.sim.actor(i);
        let pubs = &r.pub_ns[i];
        // No stabilization on the all-remote key can beat the round trip
        // to the farthest remote replica.
        let floor_ns = (0..n)
            .filter(|&j| j != i)
            .filter_map(|j| topo.link(i, j).map(|l| l.rtt().as_nanos()))
            .max()
            .unwrap_or(0);
        let mut covered = 0usize;
        let mut monotone: BTreeMap<(u16, &str), Monotone> = BTreeMap::new();
        for (t, u) in a.frontier_log() {
            monotone
                .entry((u.stream.0, u.key.as_str()))
                .or_default()
                .on_update(u.generation, u.seq);
            if u.stream == me && u.key == spec.strong {
                while covered < (u.seq as usize).min(pubs.len()) {
                    let lat = t.as_nanos() - pubs[covered];
                    checks.expect(lat >= floor_ns, || {
                        format!("node {i}: {} covered seq {} after {lat} ns, under the {floor_ns} ns RTT floor", spec.strong, covered + 1)
                    });
                    vstable_ns.push(lat as f64);
                    covered += 1;
                }
            }
        }
        for _ in covered..pubs.len() {
            vstable_ns.push(f64::INFINITY);
            never_stable += 1;
        }
        for ((stream, key), m) in &monotone {
            m.check(checks, &format!("node {i} {key}@{stream}"));
        }
        // Every registered key reached its stream's last message.
        for s in (0..n).filter(|&s| s == i || spec.peer_predicates) {
            let last = r.pub_ns[s].len() as u64;
            for (key, _) in r.cfg.predicates() {
                let f = a.node().stability_frontier(NodeId(s as u16), key);
                checks.expect(f == Some((last, 0)), || {
                    format!("node {i}: {key}@{s} ended at {f:?}, expected ({last}, 0)")
                });
            }
        }
        let mut fifo: BTreeMap<u16, Fifo> = BTreeMap::new();
        for &(t, origin, seq, len) in a.delivery_log() {
            fifo.entry(origin.0).or_default().on_deliver(seq);
            checks.expect(len == spec.payload, || {
                format!("node {i}: payload of {len} bytes")
            });
            if let Some(&p) = r.pub_ns[origin.0 as usize].get(seq as usize - 1) {
                deliver_ns.push((t.as_nanos() - p) as f64);
            }
        }
        for o in (0..n).filter(|&o| o != i) {
            let last = r.pub_ns[o].len() as u64;
            fifo.entry(o as u16).or_default().check(
                checks,
                &format!("mirror {i} of origin {o}"),
                last,
            );
        }
        checks.expect(a.payload_mismatches() == 0, || {
            format!(
                "node {i}: {} payloads differ from the published ones",
                a.payload_mismatches()
            )
        });
    }
    let metrics = (0..n).map(|i| r.sim.actor(i).node().metrics()).collect();
    Outcome {
        vstable_ns,
        deliver_ns,
        metrics,
        never_stable,
    }
}

fn plain(pools: &Rc<Vec<Vec<Bytes>>>) -> impl FnMut(StabilizerNode) -> SimNode<PayloadCheck> + '_ {
    move |node| {
        SimNode::new(
            node,
            PayloadCheck {
                pools: Rc::clone(pools),
                mismatches: 0,
            },
        )
    }
}

/// Untraced run: end-to-end metrics.
pub fn run(args: &Args, spec: &Spec) -> Result<Report, CoreError> {
    let inp = inputs(spec, args.seed);
    let pools = Rc::new(inp.pools.clone());
    if spec.framed {
        measure(args, spec, &inp, |node| WireNode::new(node, &pools))
    } else {
        measure(args, spec, &inp, plain(&pools))
    }
}

fn measure<A: GeoActor>(
    args: &Args,
    spec: &Spec,
    inp: &Inputs,
    mut wrap: impl FnMut(StabilizerNode) -> A,
) -> Result<Report, CoreError> {
    let mut rep = Report::default();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    // Per round: set-up and publish→drain CPU time scaled to the
    // reference host by the reference work run just before and after.
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    // The same before scaling, and by wall clock, for the table.
    let mut cpu_setups = Vec::new();
    let mut cpu_rates = Vec::new();
    let mut wall_rates = Vec::new();
    let mut slowdowns = Vec::new();
    let mut first: Option<Outcome> = None;
    let mut rounds = 0;
    while rounds < 3 || Instant::now() < deadline {
        let before = reference_work();
        let r = run_round(spec, inp, &mut wrap, None)?;
        let slowdown = (before + reference_work()) / 2.0 / REFERENCE_WORK_S;
        let out = analyze(spec, &r, &mut rep.checks);
        let pubs: u64 = r.pub_ns.iter().map(|p| p.len() as u64).sum();
        rep.attempted += pubs + r.publish_errors;
        rep.failed += r.publish_errors + out.never_stable;
        let stable = (pubs - out.never_stable) as f64;
        setups.push(r.setup_s / slowdown);
        rates.push(stable / r.run_s * slowdown);
        cpu_setups.push(r.setup_s);
        cpu_rates.push(stable / r.run_s);
        wall_rates.push(stable / r.run_wall_s);
        slowdowns.push(slowdown);
        rounds += 1;
        match &first {
            None => first = Some(out),
            Some(f) => rep.checks.expect(*f == out, || {
                format!("round {rounds} differs from round 1 on the same seed")
            }),
        }
    }
    let first = first.expect("at least one round ran");
    let vstable = summarize(first.vstable_ns.iter().map(|v| v / 1e3).collect());
    let deliver = summarize(first.deliver_ns.iter().map(|v| v / 1e3).collect());
    rep.note(format!(
        "{rounds} rounds of {} publishes each",
        inp.schedule.len()
    ));
    rep.note_summary(
        &format!("vstable (virtual publish->{} at origin)", spec.strong),
        "us",
        &vstable,
    );
    rep.note_summary(
        "vdeliver (virtual publish->delivery at mirror)",
        "us",
        &deliver,
    );
    rep.note(format!(
        "sim_pubs_per_s = {:.1} 1/s at reference speed (= tput_msgs_per_s); \
         unscaled {:.1} 1/s of thread CPU time, {:.1} 1/s of wall time",
        stats::median(&rates),
        stats::median(&cpu_rates),
        stats::median(&wall_rates)
    ));
    rep.note(format!(
        "host slowdown against the reference (median) = {:.4}; unscaled setup_s = {:.6} s",
        stats::median(&slowdowns),
        stats::median(&cpu_setups)
    ));
    rep.note(format!(
        "vstable_p50_ms = {:.4} ms, vstable_p99_ms = {:.4} ms",
        vstable.p50 / 1e3,
        vstable.p99 / 1e3
    ));
    rep.note(format!(
        "failed_frac = {:.6}",
        rep.failed as f64 / rep.attempted.max(1) as f64
    ));
    rep.put("setup_s", stats::median(&setups), "s");
    rep.put("tput_msgs_per_s", stats::median(&rates), "1/s");
    rep.put("stable_p50_us", vstable.p50, "us");
    rep.note(format!("stable_p99_us = {:.4} us", vstable.p99));
    rep.note(format!("deliver_p50_us = {:.4} us", deliver.p50));
    rep.note(format!("deliver_p99_us = {:.4} us", deliver.p99));
    Ok(rep)
}

/// Traced run: replay the same round through the benchmark's traced
/// driver and the standalone layers, check both reproduce the untraced
/// round exactly, and report per-layer metrics.
pub fn run_traced(args: &Args) -> Result<Report, CoreError> {
    let spec = &SIM_GEO;
    let inp = inputs(spec, args.seed);
    let pools = Rc::new(inp.pools.clone());
    let mut rep = Report::default();

    let reference = run_round(spec, &inp, plain(&pools), None)?;
    let ref_out = analyze(spec, &reference, &mut rep.checks);
    let pubs: u64 = reference.pub_ns.iter().map(|p| p.len() as u64).sum();
    rep.attempted = pubs + reference.publish_errors;
    rep.failed = reference.publish_errors + ref_out.never_stable;

    let tracer = Rc::new(RefCell::new(Tracer::new()));
    let traced = run_round(
        spec,
        &inp,
        |node| TracedNode {
            node,
            tracer: Rc::clone(&tracer),
            pools: Rc::clone(&pools),
            inputs: Vec::new(),
            frontier_log: Vec::new(),
            delivery_log: Vec::new(),
            mismatches: 0,
        },
        Some(&tracer),
    )?;
    let traced_out = analyze(spec, &traced, &mut rep.checks);
    let n = traced.sim.topology().len();
    rep.checks.expect(traced_out == ref_out, || {
        "traced driver: counters or virtual latencies differ from the untraced round".into()
    });
    for i in 0..n {
        let (a, b) = (reference.sim.actor(i), traced.sim.actor(i));
        rep.checks.expect(
            a.frontier_log() == b.frontier_log() && a.delivery_log() == b.delivery_log(),
            || format!("traced driver: node {i} frontier or delivery log differs"),
        );
    }

    // Standalone layers, fed the inputs each traced node consumed.
    let mut tr = std::mem::take(&mut *tracer.borrow_mut());
    let preds: Vec<(String, String)> = traced
        .cfg
        .predicates()
        .map(|(k, s)| (k.to_owned(), s.to_owned()))
        .collect();
    for i in 0..n {
        let me = NodeId(i as u16);
        let mut regs: Vec<(NodeId, String, String)> = preds
            .iter()
            .map(|(k, s)| (me, k.clone(), s.clone()))
            .collect();
        for stream in (0..n).filter(|&s| s != i) {
            for (k, s) in &preds {
                regs.push((NodeId(stream as u16), k.clone(), s.clone()));
            }
        }
        let mut layers = LayerReplay::new(&traced.cfg, me, &traced.acks, &regs)?;
        for input in &traced.sim.actor(i).inputs {
            layers.feed(&mut tr, input);
        }
        layers.verify(traced.sim.actor(i).node(), &mut rep.checks);
    }

    let total = crate::sum_metrics(ref_out.metrics.iter().copied());
    let max_queue_ms = (0..n)
        .flat_map(|a| (0..n).map(move |b| (a, b)))
        .filter(|(a, b)| a != b)
        .map(|(a, b)| traced.sim.link_stats(a, b).max_queue_delay.as_millis_f64())
        .fold(0.0, f64::max);
    let calls = tr.aggregate();
    let busy = tr.busy_ns(&[
        "node.publish",
        "node.on_data",
        "node.on_ack",
        "node.on_message",
        "node.take_actions",
    ]);
    let untraced_rate = pubs as f64 / reference.run_s;
    let traced_rate = pubs as f64 / traced.run_s;
    crate::layer_metrics(
        &mut rep,
        &crate::Counts {
            metrics: total,
            pubs,
            sim_events: traced.steps,
            sim_max_queue_ms: max_queue_ms,
            ..Default::default()
        },
        &calls,
        // The sim has no threads: the ratio is the library driver's
        // CPU time per publish against the traced node-call busy time.
        (reference.run_s / pubs as f64) / (busy as f64 / 1e9 / pubs as f64),
        untraced_rate / traced_rate,
    );
    crate::write_spans(&mut rep, &tr, args)?;
    Ok(rep)
}
