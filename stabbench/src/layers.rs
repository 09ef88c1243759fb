//! Standalone replay of one node's control and data plane.
//!
//! The traced drivers capture every input a `StabilizerNode` consumed
//! (its publishes and the messages it was handed, in order). Feeding
//! them to a fresh `AckRecorder`, `FrontierEngine`, `SendBuffer` and set
//! of `ReceiveState`s — the same calls the node makes internally —
//! times each of those layers on its own, which splits the node's ACK
//! handling into recorder, frontier-engine and predicate-VM time. The
//! replay must end in exactly the node's state; [`LayerReplay::verify`]
//! checks that.

use crate::check::Checks;
use crate::trace::Tracer;
use bytes::Bytes;
use stabilizer_core::data_plane::{ReceiveState, SendBuffer};
use stabilizer_core::{
    AckRecorder, AckTypeId, AckTypeRegistry, ClusterConfig, CoreError, FrontierEngine, NodeId,
    PlacementMap, Predicate, SeqNo, StabilizerNode, WireMsg, DELIVERED, PERSISTED, RECEIVED,
};
use stabilizer_dsl::vm::EvalScratch;
use std::sync::Arc;

/// One input a node consumed, in order.
#[derive(Debug, Clone)]
pub enum Input {
    /// `publish(payload)` on the node's own stream.
    Publish(Bytes),
    /// `on_message(from, msg)`.
    Msg(NodeId, WireMsg),
}

/// Fresh layer instances mirroring one node.
pub struct LayerReplay {
    me: NodeId,
    placement: Arc<PlacementMap>,
    recorder: AckRecorder,
    engine: FrontierEngine,
    send_buf: SendBuffer,
    recv: Vec<ReceiveState>,
    /// `(stream, key, predicate)` in registration order, for the VM
    /// evaluations timed beside the engine.
    preds: Vec<(NodeId, String, Predicate)>,
    scratch: EvalScratch,
}

impl LayerReplay {
    /// Layers for node `me`, with the predicates `(stream, key, source)`
    /// registered in the order the node registered them.
    ///
    /// # Errors
    ///
    /// Predicate compile errors.
    pub fn new(
        cfg: &ClusterConfig,
        me: NodeId,
        acks: &Arc<AckTypeRegistry>,
        registrations: &[(NodeId, String, String)],
    ) -> Result<Self, CoreError> {
        let n = cfg.num_nodes();
        let placement = cfg.placement().clone();
        let recorder = AckRecorder::new(n, acks.len());
        let mut engine = FrontierEngine::new();
        let mut preds = Vec::new();
        for (stream, key, source) in registrations {
            let pred = Predicate::compile(source, cfg.topology(), acks, me)?
                .restricted_to(placement.replicas(*stream))?;
            engine.register(
                *stream,
                key,
                pred.clone(),
                &recorder,
                &mut Vec::new(),
                &mut Vec::new(),
            );
            preds.push((*stream, key.clone(), pred));
        }
        Ok(LayerReplay {
            me,
            recorder,
            engine,
            send_buf: SendBuffer::with_retention(
                cfg.options().send_buffer_bytes,
                cfg.options().retain_log_bytes,
            ),
            recv: (0..n).map(|_| ReceiveState::new()).collect(),
            preds,
            scratch: EvalScratch::new(),
            placement,
        })
    }

    /// Replay one captured input.
    pub fn feed(&mut self, tr: &mut Tracer, input: &Input) {
        match input {
            Input::Publish(payload) => {
                let me = self.me;
                let id = (me.0, self.send_buf.last_assigned() + 1);
                let buf = &mut self.send_buf;
                let Ok(seq) = tr.span("data_plane.send_publish", id, || {
                    buf.publish(payload.clone())
                }) else {
                    return;
                };
                let mut advanced = false;
                for ty in 0..self.recorder.num_types() as u16 {
                    advanced |= self.observe(tr, me, me, AckTypeId(ty), seq);
                }
                if advanced {
                    for ty in 0..self.recorder.num_types() as u16 {
                        self.advance(tr, me, me, AckTypeId(ty), seq);
                    }
                }
            }
            Input::Msg(
                _,
                WireMsg::Data {
                    origin,
                    seq,
                    payload,
                },
            ) => {
                let (origin, seq) = (*origin, *seq);
                if origin == self.me
                    || origin.0 as usize >= self.recv.len()
                    || !self.placement.is_replica(origin, self.me)
                {
                    return;
                }
                let recv = &mut self.recv[origin.0 as usize];
                let delivered = tr.span("data_plane.recv_on_data", (origin.0, seq), || {
                    recv.on_data(seq, payload.clone())
                });
                let Some(&(high, _)) = delivered.last() else {
                    return;
                };
                for ty in [RECEIVED, PERSISTED, DELIVERED] {
                    if self.observe(tr, origin, self.me, ty, high) {
                        self.advance(tr, origin, self.me, ty, high);
                    }
                }
            }
            Input::Msg(from, WireMsg::AckBatch(acks)) => {
                for ack in acks {
                    if ack.stream.0 as usize >= self.recv.len()
                        || ack.ty.0 as usize >= self.recorder.num_types()
                        || !self.placement.is_replica(ack.stream, *from)
                        || !self.placement.is_replica(ack.stream, self.me)
                    {
                        continue;
                    }
                    if self.observe(tr, ack.stream, *from, ack.ty, ack.seq) {
                        self.advance(tr, ack.stream, *from, ack.ty, ack.seq);
                        if ack.stream == self.me && ack.ty == RECEIVED {
                            let replicas = self.placement.replicas(self.me).to_vec();
                            let min = self.recorder.min_over(self.me, RECEIVED, &replicas);
                            let buf = &mut self.send_buf;
                            tr.span("data_plane.reclaim", (self.me.0, min), || buf.reclaim(min));
                        }
                    }
                }
            }
            Input::Msg(..) => {}
        }
    }

    fn observe(
        &mut self,
        tr: &mut Tracer,
        stream: NodeId,
        node: NodeId,
        ty: AckTypeId,
        seq: SeqNo,
    ) -> bool {
        let rec = &mut self.recorder;
        tr.span("recorder.observe", (stream.0, seq), || {
            rec.observe(stream, node, ty, seq)
        })
    }

    fn advance(
        &mut self,
        tr: &mut Tracer,
        stream: NodeId,
        node: NodeId,
        ty: AckTypeId,
        seq: SeqNo,
    ) {
        let (engine, rec) = (&mut self.engine, &self.recorder);
        tr.span("frontier.on_ack_advance", (stream.0, seq), || {
            engine.on_ack_advance(stream, node, ty, rec, &mut Vec::new(), &mut Vec::new())
        });
        // The predicate VM on its own: the evaluations the engine just
        // made, repeated outside it.
        let view = self.recorder.stream_view(stream);
        for (s, _, pred) in &self.preds {
            if *s == stream && pred.dependencies().contains(&(node, ty)) {
                let scratch = &mut self.scratch;
                let v = tr.span("dsl.eval", (stream.0, seq), || {
                    pred.eval_with(&view, scratch)
                });
                std::hint::black_box(v);
            }
        }
    }

    /// Check that the replay ended in exactly `node`'s state: recorder
    /// cells, every frontier, evaluation count and send buffer.
    pub fn verify(&self, node: &StabilizerNode, checks: &mut Checks) {
        let me = self.me.0;
        let n = self.recv.len();
        let cells_equal = (0..n).all(|s| {
            (0..n).all(|j| {
                (0..self.recorder.num_types()).all(|t| {
                    let (s, j, t) = (NodeId(s as u16), NodeId(j as u16), AckTypeId(t as u16));
                    self.recorder.get(s, j, t) == node.recorder().get(s, j, t)
                })
            })
        });
        checks.expect(cells_equal, || {
            format!("layer replay of node {me}: recorder differs")
        });
        for (stream, key, _) in &self.preds {
            let mine = self.engine.frontier(*stream, key);
            let theirs = node.stability_frontier(*stream, key);
            checks.expect(mine == theirs, || {
                format!(
                    "layer replay of node {me}: {key}@{} is {mine:?}, node has {theirs:?}",
                    stream.0
                )
            });
        }
        checks.expect(
            self.engine.evaluations() == node.metrics().predicate_evals,
            || {
                format!(
                    "layer replay of node {me}: {} evaluations, node made {}",
                    self.engine.evaluations(),
                    node.metrics().predicate_evals
                )
            },
        );
        checks.expect(
            self.send_buf.last_assigned() == node.last_published()
                && self.send_buf.bytes() == node.send_buffer_bytes(),
            || format!("layer replay of node {me}: send buffer differs"),
        );
    }
}
