//! The indexed `FrontierEngine` against a brute-force reference.
//!
//! The reference keeps every predicate in one `(stream, key)`-ordered map
//! and every waiter in one list. On an ACK advance it scans the whole map
//! and re-evaluates each same-stream predicate whose dependencies contain
//! the advanced cell, in key order, then completes waiters key by key.
//! Random sequences of `register`, `change`, `unregister`,
//! `exclude_node`, `waitfor` and recorder advances must produce the same
//! updates, the same completed tokens in the same order, the same
//! frontiers and the same evaluation count from both engines.

use proptest::prelude::*;
use stabilizer_core::{AckRecorder, FrontierEngine, FrontierUpdate, WaitToken};
use stabilizer_dsl::{AckTypeId, AckTypeRegistry, NodeId, Predicate, SeqNo, Topology};
use std::collections::BTreeMap;

const NODES: u16 = 4;
const TYPES: u16 = 3;
const STREAMS: u16 = 2;
const KEYS: [&str; 4] = ["all", "maj", "one", "pair"];
const SOURCES: [&str; 7] = [
    "MIN($ALLWNODES-$MYWNODE)",
    "MAX($ALLWNODES-$MYWNODE)",
    "KTH_MAX(2, $ALLWNODES)",
    "MAX($2)",
    "MIN($2, $3)",
    "MIN($3.persisted, $4)",
    "MAX(MIN($AZ_A), MIN($AZ_B.delivered))",
];

fn compile(source: usize) -> Predicate {
    let topo = Topology::builder()
        .az("A", &["a", "b"])
        .az("B", &["c", "d"])
        .build()
        .unwrap();
    Predicate::compile(SOURCES[source], &topo, &AckTypeRegistry::new(), NodeId(0)).unwrap()
}

struct Entry {
    predicate: Predicate,
    frontier: SeqNo,
    generation: u32,
}

/// The obvious engine: full scans, string-keyed waiters.
#[derive(Default)]
struct Reference {
    entries: BTreeMap<(NodeId, String), Entry>,
    waiters: Vec<(NodeId, String, SeqNo, WaitToken)>,
    evals: u64,
}

impl Reference {
    fn register(
        &mut self,
        stream: NodeId,
        key: &str,
        predicate: Predicate,
        rec: &AckRecorder,
        out: &mut Vec<FrontierUpdate>,
        done: &mut Vec<WaitToken>,
    ) {
        let generation = self
            .entries
            .get(&(stream, key.to_owned()))
            .map_or(0, |e| e.generation + 1);
        self.evals += 1;
        let frontier = predicate.eval(&rec.stream_view(stream));
        self.entries.insert(
            (stream, key.to_owned()),
            Entry {
                predicate,
                frontier,
                generation,
            },
        );
        if frontier > 0 {
            out.push(update(stream, key, frontier, generation));
        }
        self.drain(stream, key, frontier, done);
    }

    fn change(
        &mut self,
        stream: NodeId,
        key: &str,
        predicate: Predicate,
        rec: &AckRecorder,
        out: &mut Vec<FrontierUpdate>,
        done: &mut Vec<WaitToken>,
    ) -> bool {
        let Some(e) = self.entries.get_mut(&(stream, key.to_owned())) else {
            return false;
        };
        self.evals += 1;
        e.generation += 1;
        e.frontier = predicate.eval(&rec.stream_view(stream));
        e.predicate = predicate;
        let frontier = e.frontier;
        out.push(update(stream, key, frontier, e.generation));
        self.drain(stream, key, frontier, done);
        true
    }

    fn unregister(&mut self, stream: NodeId, key: &str) -> Vec<WaitToken> {
        self.entries.remove(&(stream, key.to_owned()));
        let mut orphaned = Vec::new();
        self.waiters.retain(|(s, k, _, token)| {
            let hit = *s == stream && k == key;
            if hit {
                orphaned.push(*token);
            }
            !hit
        });
        orphaned
    }

    fn waitfor(
        &mut self,
        stream: NodeId,
        key: &str,
        seq: SeqNo,
        token: WaitToken,
        done: &mut Vec<WaitToken>,
    ) -> bool {
        let Some(e) = self.entries.get(&(stream, key.to_owned())) else {
            return false;
        };
        if e.frontier >= seq {
            done.push(token);
        } else {
            self.waiters.push((stream, key.to_owned(), seq, token));
        }
        true
    }

    fn on_ack_advance(
        &mut self,
        stream: NodeId,
        node: NodeId,
        ty: AckTypeId,
        rec: &AckRecorder,
        out: &mut Vec<FrontierUpdate>,
        done: &mut Vec<WaitToken>,
    ) {
        let mut advanced = Vec::new();
        for ((s, key), e) in &mut self.entries {
            if *s != stream || !e.predicate.dependencies().contains(&(node, ty)) {
                continue;
            }
            self.evals += 1;
            let new = e.predicate.eval(&rec.stream_view(stream));
            if new > e.frontier {
                e.frontier = new;
                out.push(update(stream, key, new, e.generation));
                advanced.push((key.clone(), new));
            }
        }
        for (key, new) in advanced {
            self.drain(stream, &key, new, done);
        }
    }

    fn exclude_node(
        &mut self,
        node: NodeId,
        rec: &AckRecorder,
        out: &mut Vec<FrontierUpdate>,
        done: &mut Vec<WaitToken>,
    ) -> Vec<String> {
        let mut failed = Vec::new();
        let keys: Vec<(NodeId, String)> = self.entries.keys().cloned().collect();
        for (stream, key) in keys {
            let e = &self.entries[&(stream, key.clone())];
            if !e.predicate.dependencies().iter().any(|(n, _)| *n == node) {
                continue;
            }
            match e.predicate.excluding(node) {
                Ok(rewritten) => {
                    self.change(stream, &key, rewritten, rec, out, done);
                }
                Err(_) => failed.push(key),
            }
        }
        failed
    }

    fn drain(&mut self, stream: NodeId, key: &str, frontier: SeqNo, done: &mut Vec<WaitToken>) {
        self.waiters.retain(|(s, k, seq, token)| {
            let hit = *s == stream && k == key && *seq <= frontier;
            if hit {
                done.push(*token);
            }
            !hit
        });
    }
}

fn update(stream: NodeId, key: &str, seq: SeqNo, generation: u32) -> FrontierUpdate {
    FrontierUpdate {
        stream,
        key: key.to_owned(),
        seq,
        generation,
    }
}

#[derive(Debug, Clone)]
enum Op {
    Register(u16, usize, usize),
    Change(u16, usize, usize),
    Unregister(u16, usize),
    Exclude(u16),
    Wait(u16, usize, SeqNo),
    Advance(u16, u16, u16, SeqNo),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let key = 0..KEYS.len();
    let source = 0..SOURCES.len();
    prop_oneof![
        3 => (0..STREAMS, key.clone(), source.clone()).prop_map(|(s, k, p)| Op::Register(s, k, p)),
        1 => (0..STREAMS, key.clone(), source).prop_map(|(s, k, p)| Op::Change(s, k, p)),
        1 => (0..STREAMS, key.clone()).prop_map(|(s, k)| Op::Unregister(s, k)),
        1 => (0..NODES).prop_map(Op::Exclude),
        3 => (0..STREAMS, key, 1u64..12).prop_map(|(s, k, q)| Op::Wait(s, k, q)),
        12 => (0..STREAMS, 0..NODES, 0..TYPES, 1u64..12)
            .prop_map(|(s, n, t, q)| Op::Advance(s, n, t, q)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_engine_matches_brute_force_reference(
        ops in proptest::collection::vec(arb_op(), 1..160)
    ) {
        let mut rec = AckRecorder::new(NODES as usize, TYPES as usize);
        let mut engine = FrontierEngine::new();
        let mut reference = Reference::default();
        let mut next_token: WaitToken = 1;
        for (step, op) in ops.iter().enumerate() {
            let (mut out, mut done) = (Vec::new(), Vec::new());
            let (mut ref_out, mut ref_done) = (Vec::new(), Vec::new());
            match *op {
                Op::Register(s, k, p) => {
                    engine.register(NodeId(s), KEYS[k], compile(p), &rec, &mut out, &mut done);
                    reference.register(NodeId(s), KEYS[k], compile(p), &rec, &mut ref_out, &mut ref_done);
                }
                Op::Change(s, k, p) => {
                    let a = engine.change(NodeId(s), KEYS[k], compile(p), &rec, &mut out, &mut done);
                    let b = reference.change(NodeId(s), KEYS[k], compile(p), &rec, &mut ref_out, &mut ref_done);
                    prop_assert_eq!(a, b, "step {}: change result", step);
                }
                Op::Unregister(s, k) => {
                    done = engine.unregister(NodeId(s), KEYS[k]);
                    ref_done = reference.unregister(NodeId(s), KEYS[k]);
                }
                Op::Exclude(n) => {
                    let a = engine.exclude_node(NodeId(n), &rec, &mut out, &mut done);
                    let b = reference.exclude_node(NodeId(n), &rec, &mut ref_out, &mut ref_done);
                    prop_assert_eq!(a, b, "step {}: unrewritable keys", step);
                }
                Op::Wait(s, k, seq) => {
                    let token = next_token;
                    next_token += 1;
                    let a = engine.waitfor(NodeId(s), KEYS[k], seq, token, &mut done).is_ok();
                    let b = reference.waitfor(NodeId(s), KEYS[k], seq, token, &mut ref_done);
                    prop_assert_eq!(a, b, "step {}: waitfor result", step);
                }
                Op::Advance(s, n, t, seq) => {
                    let (s, n, t) = (NodeId(s), NodeId(n), AckTypeId(t));
                    if rec.observe(s, n, t, seq) {
                        engine.on_ack_advance(s, n, t, &rec, &mut out, &mut done);
                        reference.on_ack_advance(s, n, t, &rec, &mut ref_out, &mut ref_done);
                    }
                }
            }
            prop_assert_eq!(&out, &ref_out, "step {} ({:?}): updates", step, op);
            prop_assert_eq!(&done, &ref_done, "step {} ({:?}): completed tokens", step, op);
            prop_assert_eq!(engine.evaluations(), reference.evals, "step {}: evaluations", step);
            prop_assert_eq!(engine.len(), reference.entries.len(), "step {}: len", step);
            prop_assert_eq!(engine.pending_waiters(), reference.waiters.len(), "step {}: waiters", step);
            for s in 0..STREAMS {
                let keys: Vec<String> = reference
                    .entries
                    .keys()
                    .filter(|(stream, _)| stream.0 == s)
                    .map(|(_, k)| k.clone())
                    .collect();
                prop_assert_eq!(engine.keys(NodeId(s)), keys, "step {}: keys", step);
                for key in KEYS {
                    let expected = reference
                        .entries
                        .get(&(NodeId(s), key.to_owned()))
                        .map(|e| (e.frontier, e.generation));
                    prop_assert_eq!(engine.frontier(NodeId(s), key), expected, "step {}: {}@{}", step, key, s);
                }
            }
        }
    }
}
