//! Single-threaded in-memory loopback over the sans-IO API.
//!
//! Replays a TCP workload's publishes with no threads, locks or sockets:
//! each message a node emits is encoded, framed into a byte buffer,
//! read back and decoded, then handed to the receiving node's
//! `on_message` — the work the TCP runtime's writer and reader threads
//! do, with every call wrapped in a span. Frames wait in one FIFO queue,
//! so per-link FIFO order holds as it does on a TCP connection.

use crate::check::{Checks, Fifo, Monotone};
use crate::layers::Input;
use crate::trace::{Tracer, NO_MSG};
use bytes::Bytes;
use stabilizer_core::{Action, NodeId, SeqNo, StabilizerNode, WireMsg};
use stabilizer_transport::framing::{read_frame_counted, write_frame};
use std::collections::{BTreeMap, VecDeque};

/// A cluster of nodes joined by in-memory frames.
pub struct Loopback {
    /// The nodes, indexed by id.
    pub nodes: Vec<StabilizerNode>,
    queue: VecDeque<(NodeId, NodeId, Vec<u8>)>,
    scratch: Vec<u8>,
    clock: u64,
    /// Per node: every input it consumed (for the layer replay).
    pub inputs: Vec<Vec<Input>>,
    /// Per `(mirror, origin)`: delivery order.
    pub fifo: BTreeMap<(u16, u16), Fifo>,
    /// Per `(node, stream, key)`: frontier monotonicity.
    pub monotone: BTreeMap<(u16, u16, String), Monotone>,
    /// Frames moved.
    pub frames: u64,
}

impl Loopback {
    /// Join `nodes`.
    pub fn new(nodes: Vec<StabilizerNode>) -> Self {
        let n = nodes.len();
        Loopback {
            nodes,
            queue: VecDeque::new(),
            scratch: Vec::new(),
            clock: 0,
            inputs: vec![Vec::new(); n],
            fifo: BTreeMap::new(),
            monotone: BTreeMap::new(),
            frames: 0,
        }
    }

    /// Publish `payload` at `node` as sequence `seq` (the id its spans
    /// carry), then run the cluster until no frame is in flight.
    pub fn publish(
        &mut self,
        tr: &mut Tracer,
        node: usize,
        seq: SeqNo,
        payload: &Bytes,
        checks: &mut Checks,
    ) {
        let id = (node as u16, seq);
        self.inputs[node].push(Input::Publish(payload.clone()));
        let n = &mut self.nodes[node];
        let got = tr.span("node.publish", id, || n.publish(payload.clone()));
        checks.expect(got.as_ref().ok() == Some(&seq), || {
            format!("loopback publish at node {node}: expected seq {seq}, got {got:?}")
        });
        self.drain(tr, node, id);
        while let Some((from, to, frame)) = self.queue.pop_front() {
            self.receive(tr, from, to, &frame, checks);
        }
    }

    fn receive(
        &mut self,
        tr: &mut Tracer,
        from: NodeId,
        to: NodeId,
        frame: &[u8],
        checks: &mut Checks,
    ) {
        let mut reader = frame;
        let read = tr.span("framing.read", NO_MSG, || read_frame_counted(&mut reader));
        let Ok(Some((msg, len))) = read else {
            checks.fail(format!(
                "loopback: frame from {} to {} did not read back",
                from.0, to.0
            ));
            return;
        };
        checks.expect(len == frame.len(), || {
            "loopback: frame length mismatch".into()
        });
        let id = msg_id(&msg);
        let decoded = tr.span("messages.decode", id, || WireMsg::decode(&frame[4..]));
        checks.expect(decoded.as_ref().ok() == Some(&msg), || {
            "loopback: decode(frame body) differs from read_frame".into()
        });
        let name = on_message_span(&msg);
        self.inputs[to.0 as usize].push(Input::Msg(from, msg.clone()));
        self.clock += 1;
        let now = self.clock;
        let node = &mut self.nodes[to.0 as usize];
        tr.span(name, id, || node.on_message(now, from, msg));
        self.drain(tr, to.0 as usize, id);
    }

    fn drain(&mut self, tr: &mut Tracer, node: usize, id: (u16, u64)) {
        let n = &mut self.nodes[node];
        let actions = tr.span("node.take_actions", id, || n.take_actions());
        let me = NodeId(node as u16);
        for action in actions {
            match action {
                Action::Send { to, msg } => {
                    let mid = msg_id(&msg);
                    let scratch = &mut self.scratch;
                    scratch.clear();
                    tr.span("messages.encode", mid, || msg.encode(scratch));
                    let mut frame = Vec::with_capacity(self.scratch.len() + 4);
                    tr.span("framing.write", mid, || write_frame(&mut frame, &msg))
                        .expect("writing to a Vec cannot fail");
                    self.frames += 1;
                    self.queue.push_back((me, to, frame));
                }
                Action::Deliver { origin, seq, .. } => {
                    self.fifo
                        .entry((me.0, origin.0))
                        .or_default()
                        .on_deliver(seq);
                }
                Action::Frontier(u) => {
                    self.monotone
                        .entry((me.0, u.stream.0, u.key.clone()))
                        .or_default()
                        .on_update(u.generation, u.seq);
                }
                _ => {}
            }
        }
    }
}

/// The `(origin, seq)` a message is about: a data message's own id, or
/// the first cell of an ACK batch.
pub fn msg_id(msg: &WireMsg) -> (u16, u64) {
    match msg {
        WireMsg::Data { origin, seq, .. } => (origin.0, *seq),
        WireMsg::AckBatch(acks) => acks.first().map_or(NO_MSG, |a| (a.stream.0, a.seq)),
        _ => NO_MSG,
    }
}

/// Span name for `on_message` with `msg`: data and ACK batches are
/// timed apart.
pub fn on_message_span(msg: &WireMsg) -> &'static str {
    match msg {
        WireMsg::Data { .. } => "node.on_data",
        WireMsg::AckBatch(_) => "node.on_ack",
        _ => "node.on_message",
    }
}
