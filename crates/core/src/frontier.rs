//! The stability-frontier engine: the control plane's predicate registry
//! plus incremental re-evaluation.
//!
//! Every registered predicate tracks one *stream* (a primary's sequence
//! space). When an ACK counter advances, only the predicates that read
//! the changed `(node, ack-type)` cell are re-evaluated (their dependency
//! sets are known at compile time). Within one predicate *generation* the
//! frontier is monotonic; [`FrontierEngine::change`] starts a new
//! generation, and the frontier may start lower — the paper's §VI-D
//! "gap", which the application is responsible for handling, is surfaced
//! through the `generation` field of [`FrontierUpdate`].
//!
//! The ACK path is index-driven and allocation-free: each predicate owns
//! a slot, a `(stream, node, ack-type)` cell index lists the slots that
//! read each cell (in key order, so updates come out in key order), one
//! engine-owned VM scratch serves every evaluation, and each slot keeps
//! its own blocked waiters. The only allocation an advance makes is the
//! `String` key of each [`FrontierUpdate`] it emits.

use crate::recorder::AckRecorder;
use stabilizer_dsl::{AckTypeId, EvalScratch, NodeId, Predicate, SeqNo};
use std::collections::BTreeMap;

/// Token identifying a blocked `waitfor` call; returned to the driver
/// when the wait completes.
pub type WaitToken = u64;

/// A frontier advancement notice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontierUpdate {
    /// The stream whose frontier moved.
    pub stream: NodeId,
    /// The predicate key.
    pub key: String,
    /// The new frontier: highest sequence number satisfying the predicate.
    pub seq: SeqNo,
    /// Predicate generation (bumped by [`FrontierEngine::change`]).
    pub generation: u32,
}

/// Index of a registered predicate in [`FrontierEngine`]'s slot table.
type SlotId = u32;

#[derive(Debug)]
struct Slot {
    stream: NodeId,
    key: String,
    predicate: Predicate,
    frontier: SeqNo,
    generation: u32,
    /// Blocked waiters `(seq, token)` on this key, in insertion order.
    waiters: Vec<(SeqNo, WaitToken)>,
}

impl Slot {
    fn update(&self) -> FrontierUpdate {
        FrontierUpdate {
            stream: self.stream,
            key: self.key.clone(),
            seq: self.frontier,
            generation: self.generation,
        }
    }

    /// Complete every waiter the frontier now covers, in insertion order.
    fn drain_waiters(&mut self, completed: &mut Vec<WaitToken>) {
        let frontier = self.frontier;
        self.waiters.retain(|&(seq, token)| {
            if seq <= frontier {
                completed.push(token);
                false
            } else {
                true
            }
        });
    }
}

/// `(stream, node, ack-type)` → the slots whose predicate reads that
/// cell, each list in key order. Dense, grown on demand.
#[derive(Debug, Default)]
struct CellIndex {
    streams: Vec<Vec<Vec<Vec<SlotId>>>>,
}

impl CellIndex {
    fn readers(&self, stream: NodeId, node: NodeId, ty: AckTypeId) -> &[SlotId] {
        self.streams
            .get(stream.0 as usize)
            .and_then(|nodes| nodes.get(node.0 as usize))
            .and_then(|types| types.get(ty.0 as usize))
            .map_or(&[], Vec::as_slice)
    }

    fn readers_mut(&mut self, stream: NodeId, node: NodeId, ty: AckTypeId) -> &mut Vec<SlotId> {
        fn at<T: Default>(v: &mut Vec<T>, i: u16) -> &mut T {
            let i = i as usize;
            if v.len() <= i {
                v.resize_with(i + 1, T::default);
            }
            &mut v[i]
        }
        at(at(at(&mut self.streams, stream.0), node.0), ty.0)
    }
}

/// Registry of compiled predicates with per-entry frontier state and
/// blocked waiters.
#[derive(Debug, Default)]
pub struct FrontierEngine {
    /// Slot table; `None` marks a free slot (listed in `free`).
    slots: Vec<Option<Slot>>,
    free: Vec<SlotId>,
    // BTreeMap, not HashMap: `exclude_node` iterates this map and emits
    // `FrontierUpdate`s in iteration order, which must be identical
    // across processes for seed replay to be byte-stable.
    slot_of: BTreeMap<NodeId, BTreeMap<String, SlotId>>,
    index: CellIndex,
    scratch: EvalScratch,
    evals: u64,
}

impl FrontierEngine {
    /// An empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a compiled predicate for `stream` under `key`, evaluating
    /// it immediately. Returns an update if the initial frontier is
    /// non-zero. Registering over an existing key replaces it (generation
    /// is preserved and bumped, like [`FrontierEngine::change`]).
    pub fn register(
        &mut self,
        stream: NodeId,
        key: &str,
        predicate: Predicate,
        recorder: &AckRecorder,
        out: &mut Vec<FrontierUpdate>,
        completed: &mut Vec<WaitToken>,
    ) {
        let id = match self.lookup(stream, key) {
            Some(id) => {
                self.replace(id, predicate, recorder);
                id
            }
            None => {
                self.evals += 1;
                let frontier =
                    predicate.eval_with(&recorder.stream_view(stream), &mut self.scratch);
                let slot = Slot {
                    stream,
                    key: key.to_owned(),
                    predicate,
                    frontier,
                    generation: 0,
                    waiters: Vec::new(),
                };
                let id = match self.free.pop() {
                    Some(id) => {
                        self.slots[id as usize] = Some(slot);
                        id
                    }
                    None => {
                        self.slots.push(Some(slot));
                        SlotId::try_from(self.slots.len() - 1)
                            .expect("fewer than 2^32 registered predicates")
                    }
                };
                self.slot_of
                    .entry(stream)
                    .or_default()
                    .insert(key.to_owned(), id);
                self.link(id);
                id
            }
        };
        let slot = self.slot_mut(id);
        if slot.frontier > 0 {
            out.push(slot.update());
        }
        slot.drain_waiters(completed);
    }

    /// Replace the predicate under an existing key, bumping its
    /// generation (the paper's `change_predicate`). The new frontier may
    /// be lower than the old one; an update carrying the new generation
    /// is always emitted so the application can observe the gap.
    ///
    /// Returns `false` if the key is unknown.
    pub fn change(
        &mut self,
        stream: NodeId,
        key: &str,
        predicate: Predicate,
        recorder: &AckRecorder,
        out: &mut Vec<FrontierUpdate>,
        completed: &mut Vec<WaitToken>,
    ) -> bool {
        let Some(id) = self.lookup(stream, key) else {
            return false;
        };
        self.change_slot(id, predicate, recorder, out, completed);
        true
    }

    /// Remove a predicate. Pending waiters on it stay blocked forever, so
    /// callers should drain or fail them; returns the tokens of waiters
    /// that were watching the key.
    pub fn unregister(&mut self, stream: NodeId, key: &str) -> Vec<WaitToken> {
        let Some(id) = self.lookup(stream, key) else {
            return Vec::new();
        };
        self.unlink(id);
        if let Some(keys) = self.slot_of.get_mut(&stream) {
            keys.remove(key);
            if keys.is_empty() {
                self.slot_of.remove(&stream);
            }
        }
        let slot = self.slots[id as usize]
            .take()
            .expect("indexed slot is live");
        self.free.push(id);
        slot.waiters.into_iter().map(|(_, token)| token).collect()
    }

    /// Current `(frontier, generation)` for a key.
    pub fn frontier(&self, stream: NodeId, key: &str) -> Option<(SeqNo, u32)> {
        self.lookup(stream, key)
            .map(|id| (self.slot(id).frontier, self.slot(id).generation))
    }

    /// The compiled predicate registered under a key.
    pub fn predicate(&self, stream: NodeId, key: &str) -> Option<&Predicate> {
        self.lookup(stream, key).map(|id| &self.slot(id).predicate)
    }

    /// Registered keys for a stream, sorted.
    pub fn keys(&self, stream: NodeId) -> Vec<String> {
        self.slot_of
            .get(&stream)
            .map(|keys| keys.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Block `token` until the frontier of `(stream, key)` reaches `seq`.
    /// If it already has, the completion is pushed to `completed`
    /// immediately.
    pub fn waitfor(
        &mut self,
        stream: NodeId,
        key: &str,
        seq: SeqNo,
        token: WaitToken,
        completed: &mut Vec<WaitToken>,
    ) -> Result<(), crate::error::CoreError> {
        let Some(id) = self.lookup(stream, key) else {
            return Err(crate::error::CoreError::UnknownPredicate(key.to_owned()));
        };
        let slot = self.slot_mut(id);
        if slot.frontier >= seq {
            completed.push(token);
        } else {
            slot.waiters.push((seq, token));
        }
        Ok(())
    }

    /// Re-evaluate the predicates of `stream` affected by an advance of
    /// `(node, ty)`, appending frontier updates and completed wait tokens.
    /// Predicates are visited in key order; each moved frontier completes
    /// its own key's waiters.
    pub fn on_ack_advance(
        &mut self,
        stream: NodeId,
        node: NodeId,
        ty: AckTypeId,
        recorder: &AckRecorder,
        out: &mut Vec<FrontierUpdate>,
        completed: &mut Vec<WaitToken>,
    ) {
        let view = recorder.stream_view(stream);
        for &id in self.index.readers(stream, node, ty) {
            let slot = self.slots[id as usize]
                .as_mut()
                .expect("indexed slot is live");
            self.evals += 1;
            let new = slot.predicate.eval_with(&view, &mut self.scratch);
            if new > slot.frontier {
                slot.frontier = new;
                out.push(slot.update());
                if !slot.waiters.is_empty() {
                    slot.drain_waiters(completed);
                }
            }
        }
    }

    /// Rewrite every registered predicate to exclude `node` (§III-E fault
    /// handling), re-evaluating each. Predicates that cannot be rewritten
    /// (they would become empty) are left untouched and reported.
    pub fn exclude_node(
        &mut self,
        node: NodeId,
        recorder: &AckRecorder,
        out: &mut Vec<FrontierUpdate>,
        completed: &mut Vec<WaitToken>,
    ) -> Vec<String> {
        let mut failed = Vec::new();
        let ids: Vec<SlotId> = self
            .slot_of
            .values()
            .flat_map(|k| k.values())
            .copied()
            .collect();
        for id in ids {
            let slot = self.slot(id);
            if !slot
                .predicate
                .dependencies()
                .iter()
                .any(|(n, _)| *n == node)
            {
                continue;
            }
            match slot.predicate.excluding(node) {
                Ok(rewritten) => self.change_slot(id, rewritten, recorder, out, completed),
                Err(_) => failed.push(slot.key.clone()),
            }
        }
        failed
    }

    /// Number of registered predicates.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True if no predicates are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of blocked waiters (for tests and introspection).
    pub fn pending_waiters(&self) -> usize {
        self.slots.iter().flatten().map(|s| s.waiters.len()).sum()
    }

    /// Total predicate evaluations performed (registration, change, and
    /// incremental re-evaluation on ACK advances).
    pub fn evaluations(&self) -> u64 {
        self.evals
    }

    fn lookup(&self, stream: NodeId, key: &str) -> Option<SlotId> {
        self.slot_of.get(&stream)?.get(key).copied()
    }

    fn slot(&self, id: SlotId) -> &Slot {
        self.slots[id as usize]
            .as_ref()
            .expect("indexed slot is live")
    }

    fn slot_mut(&mut self, id: SlotId) -> &mut Slot {
        self.slots[id as usize]
            .as_mut()
            .expect("indexed slot is live")
    }

    /// [`FrontierEngine::change`] on a known slot.
    fn change_slot(
        &mut self,
        id: SlotId,
        predicate: Predicate,
        recorder: &AckRecorder,
        out: &mut Vec<FrontierUpdate>,
        completed: &mut Vec<WaitToken>,
    ) {
        self.replace(id, predicate, recorder);
        let slot = self.slot_mut(id);
        out.push(slot.update());
        slot.drain_waiters(completed);
    }

    /// Swap in a new predicate for a slot: bump its generation, evaluate
    /// it, and move the slot to the cells the new predicate reads.
    fn replace(&mut self, id: SlotId, predicate: Predicate, recorder: &AckRecorder) {
        self.unlink(id);
        self.evals += 1;
        let slot = self.slots[id as usize]
            .as_mut()
            .expect("indexed slot is live");
        slot.frontier = predicate.eval_with(&recorder.stream_view(slot.stream), &mut self.scratch);
        slot.predicate = predicate;
        slot.generation += 1;
        self.link(id);
    }

    /// Add a slot to the reader list of every cell its predicate reads,
    /// keeping each list in key order.
    fn link(&mut self, id: SlotId) {
        let slots = &self.slots;
        let slot = slots[id as usize].as_ref().expect("indexed slot is live");
        for &(node, ty) in slot.predicate.dependencies() {
            let readers = self.index.readers_mut(slot.stream, node, ty);
            let at = readers.partition_point(|&other| {
                let other = slots[other as usize]
                    .as_ref()
                    .expect("indexed slot is live");
                other.key < slot.key
            });
            readers.insert(at, id);
        }
    }

    /// Remove a slot from the reader list of every cell it is listed in.
    fn unlink(&mut self, id: SlotId) {
        let slot = self.slots[id as usize]
            .as_ref()
            .expect("indexed slot is live");
        for &(node, ty) in slot.predicate.dependencies() {
            let readers = self.index.readers_mut(slot.stream, node, ty);
            if let Some(at) = readers.iter().position(|&other| other == id) {
                readers.remove(at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabilizer_dsl::{AckTypeRegistry, Topology, RECEIVED};

    fn topo() -> Topology {
        Topology::builder()
            .az("A", &["a", "b"])
            .az("B", &["c", "d"])
            .build()
            .unwrap()
    }

    fn pred(src: &str) -> Predicate {
        Predicate::compile(src, &topo(), &AckTypeRegistry::new(), NodeId(0)).unwrap()
    }

    fn setup() -> (
        FrontierEngine,
        AckRecorder,
        Vec<FrontierUpdate>,
        Vec<WaitToken>,
    ) {
        (
            FrontierEngine::new(),
            AckRecorder::new(4, 3),
            Vec::new(),
            Vec::new(),
        )
    }

    #[test]
    fn frontier_advances_only_when_predicate_satisfied() {
        let (mut eng, mut rec, mut out, mut done) = setup();
        eng.register(
            NodeId(0),
            "all",
            pred("MIN($ALLWNODES-$MYWNODE)"),
            &rec,
            &mut out,
            &mut done,
        );
        assert!(out.is_empty());
        // Two of three remotes ack seq 5: MIN still 0.
        for n in [1u16, 2] {
            rec.observe(NodeId(0), NodeId(n), RECEIVED, 5);
            eng.on_ack_advance(NodeId(0), NodeId(n), RECEIVED, &rec, &mut out, &mut done);
        }
        assert!(out.is_empty());
        rec.observe(NodeId(0), NodeId(3), RECEIVED, 4);
        eng.on_ack_advance(NodeId(0), NodeId(3), RECEIVED, &rec, &mut out, &mut done);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].seq, 4);
        assert_eq!(eng.frontier(NodeId(0), "all"), Some((4, 0)));
    }

    #[test]
    fn unrelated_acks_do_not_reevaluate() {
        let (mut eng, mut rec, mut out, mut done) = setup();
        eng.register(NodeId(0), "one", pred("MAX($2)"), &rec, &mut out, &mut done);
        // An ack from node 3 is not a dependency of MAX($2).
        rec.observe(NodeId(0), NodeId(2), RECEIVED, 9);
        eng.on_ack_advance(NodeId(0), NodeId(2), RECEIVED, &rec, &mut out, &mut done);
        assert!(out.is_empty());
        rec.observe(NodeId(0), NodeId(1), RECEIVED, 9);
        eng.on_ack_advance(NodeId(0), NodeId(1), RECEIVED, &rec, &mut out, &mut done);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn waitfor_completes_when_frontier_reaches_seq() {
        let (mut eng, mut rec, mut out, mut done) = setup();
        eng.register(
            NodeId(0),
            "one",
            pred("MAX($ALLWNODES-$MYWNODE)"),
            &rec,
            &mut out,
            &mut done,
        );
        eng.waitfor(NodeId(0), "one", 10, 77, &mut done).unwrap();
        assert!(done.is_empty());
        assert_eq!(eng.pending_waiters(), 1);
        rec.observe(NodeId(0), NodeId(2), RECEIVED, 12);
        eng.on_ack_advance(NodeId(0), NodeId(2), RECEIVED, &rec, &mut out, &mut done);
        assert_eq!(done, vec![77]);
        assert_eq!(eng.pending_waiters(), 0);
    }

    #[test]
    fn waitfor_already_satisfied_completes_immediately() {
        let (mut eng, mut rec, mut out, mut done) = setup();
        rec.observe(NodeId(0), NodeId(1), RECEIVED, 20);
        eng.register(
            NodeId(0),
            "one",
            pred("MAX($ALLWNODES-$MYWNODE)"),
            &rec,
            &mut out,
            &mut done,
        );
        assert_eq!(out[0].seq, 20); // initial eval reported
        eng.waitfor(NodeId(0), "one", 15, 5, &mut done).unwrap();
        assert_eq!(done, vec![5]);
    }

    #[test]
    fn waitfor_unknown_key_errors() {
        let (mut eng, _rec, _out, mut done) = setup();
        assert!(eng.waitfor(NodeId(0), "nope", 1, 0, &mut done).is_err());
    }

    #[test]
    fn change_bumps_generation_and_may_regress() {
        let (mut eng, mut rec, mut out, mut done) = setup();
        // Weak predicate: any remote. Strong predicate: all remotes.
        rec.observe(NodeId(0), NodeId(1), RECEIVED, 30);
        eng.register(
            NodeId(0),
            "p",
            pred("MAX($ALLWNODES-$MYWNODE)"),
            &rec,
            &mut out,
            &mut done,
        );
        assert_eq!(eng.frontier(NodeId(0), "p"), Some((30, 0)));
        out.clear();
        assert!(eng.change(
            NodeId(0),
            "p",
            pred("MIN($ALLWNODES-$MYWNODE)"),
            &rec,
            &mut out,
            &mut done
        ));
        // The gap: new generation starts at 0 because nodes 2,3 have not acked.
        assert_eq!(
            out,
            vec![FrontierUpdate {
                stream: NodeId(0),
                key: "p".into(),
                seq: 0,
                generation: 1
            }]
        );
        assert!(!eng.change(
            NodeId(0),
            "missing",
            pred("MAX($2)"),
            &rec,
            &mut out,
            &mut done
        ));
    }

    #[test]
    fn unregister_orphans_waiters() {
        let (mut eng, rec, mut out, mut done) = setup();
        eng.register(NodeId(0), "p", pred("MAX($2)"), &rec, &mut out, &mut done);
        eng.waitfor(NodeId(0), "p", 4, 9, &mut done).unwrap();
        let orphans = eng.unregister(NodeId(0), "p");
        assert_eq!(orphans, vec![9]);
        assert_eq!(eng.len(), 0);
        assert!(eng.is_empty());
    }

    #[test]
    fn exclude_node_rewrites_affected_predicates() {
        let (mut eng, mut rec, mut out, mut done) = setup();
        eng.register(
            NodeId(0),
            "all",
            pred("MIN($ALLWNODES-$MYWNODE)"),
            &rec,
            &mut out,
            &mut done,
        );
        eng.register(
            NodeId(0),
            "pair",
            pred("MIN($2, $3)"),
            &rec,
            &mut out,
            &mut done,
        );
        // Node 3 (id 2) dies. Nodes 1 and 3 acked far; node 3 was the straggler.
        rec.observe(NodeId(0), NodeId(1), RECEIVED, 50);
        rec.observe(NodeId(0), NodeId(3), RECEIVED, 50);
        eng.on_ack_advance(NodeId(0), NodeId(1), RECEIVED, &rec, &mut out, &mut done);
        eng.on_ack_advance(NodeId(0), NodeId(3), RECEIVED, &rec, &mut out, &mut done);
        assert_eq!(eng.frontier(NodeId(0), "all"), Some((0, 0)));
        out.clear();
        let failed = eng.exclude_node(NodeId(2), &rec, &mut out, &mut done);
        assert!(failed.is_empty());
        // With node 2 excluded, MIN over {1,3} = 50; "pair" becomes MIN($2)=50.
        assert_eq!(eng.frontier(NodeId(0), "all"), Some((50, 1)));
        assert_eq!(eng.frontier(NodeId(0), "pair"), Some((50, 1)));
    }

    #[test]
    fn streams_are_independent() {
        let (mut eng, mut rec, mut out, mut done) = setup();
        eng.register(NodeId(0), "p", pred("MAX($2)"), &rec, &mut out, &mut done);
        eng.register(NodeId(1), "p", pred("MAX($2)"), &rec, &mut out, &mut done);
        rec.observe(NodeId(1), NodeId(1), RECEIVED, 7);
        eng.on_ack_advance(NodeId(1), NodeId(1), RECEIVED, &rec, &mut out, &mut done);
        assert_eq!(eng.frontier(NodeId(0), "p"), Some((0, 0)));
        assert_eq!(eng.frontier(NodeId(1), "p"), Some((7, 0)));
        assert_eq!(eng.keys(NodeId(0)), vec!["p".to_owned()]);
    }

    #[test]
    fn reregister_bumps_generation() {
        let (mut eng, rec, mut out, mut done) = setup();
        eng.register(NodeId(0), "p", pred("MAX($2)"), &rec, &mut out, &mut done);
        eng.register(NodeId(0), "p", pred("MAX($3)"), &rec, &mut out, &mut done);
        assert_eq!(eng.frontier(NodeId(0), "p"), Some((0, 1)));
    }
}
