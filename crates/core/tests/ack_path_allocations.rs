//! Allocation counts on the control plane's ACK path, measured with a
//! counting global allocator.
//!
//! * `FrontierEngine::on_ack_advance` that moves no frontier allocates
//!   nothing; one that moves `k` frontiers allocates exactly `k` times
//!   (the `String` key of each `FrontierUpdate`).
//! * A steady-state `StabilizerNode::on_message(AckBatch)` that moves no
//!   frontier allocates nothing.
//!
//! Counting is per thread, so the test harness's other threads do not
//! disturb a measurement.

use bytes::Bytes;
use stabilizer_core::{
    Ack, AckRecorder, ClusterConfig, FrontierEngine, NodeId, StabilizerNode, WireMsg,
};
use stabilizer_dsl::{AckTypeRegistry, Predicate, Topology, RECEIVED};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call forwards to the system allocator unchanged; the
// bookkeeping touches only const-initialised thread locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f`, returning its result and the allocations it made on this
/// thread (fresh blocks and reallocations; frees are not counted).
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let r = f();
    COUNTING.with(|on| on.set(false));
    (r, ALLOCATIONS.with(Cell::get))
}

fn pred(source: &str) -> Predicate {
    let topo = Topology::builder()
        .az("A", &["a", "b"])
        .az("B", &["c", "d"])
        .build()
        .unwrap();
    Predicate::compile(source, &topo, &AckTypeRegistry::new(), NodeId(0)).unwrap()
}

#[test]
fn engine_advance_allocates_only_the_keys_of_moved_frontiers() {
    let s = NodeId(0);
    let mut rec = AckRecorder::new(4, 3);
    let mut engine = FrontierEngine::new();
    let (mut out, mut done) = (Vec::new(), Vec::new());
    // Every predicate reads node 2's RECEIVED cell ($3).
    for (key, source) in [
        ("all", "MIN($ALLWNODES-$MYWNODE)"),
        ("one", "MAX($3)"),
        ("pair", "MIN($2, $3)"),
        ("three", "MAX($3, $4)"),
    ] {
        engine.register(s, key, pred(source), &rec, &mut out, &mut done);
    }
    out.reserve(16);
    done.reserve(16);
    // Warm-up: node 1 and node 3 ack ("three" moves to 4).
    for (node, seq) in [(1, 1), (3, 4)] {
        rec.observe(s, NodeId(node), RECEIVED, seq);
        engine.on_ack_advance(s, NodeId(node), RECEIVED, &rec, &mut out, &mut done);
    }
    out.clear();
    engine.waitfor(s, "one", 5, 1, &mut done).unwrap();
    engine.waitfor(s, "three", 5, 2, &mut done).unwrap();

    // Node 1 acks again: "all" and "pair" are re-evaluated, but node 2
    // still pins both at 0.
    rec.observe(s, NodeId(1), RECEIVED, 2);
    let evals = engine.evaluations();
    let ((), n) =
        allocations(|| engine.on_ack_advance(s, NodeId(1), RECEIVED, &rec, &mut out, &mut done));
    assert_eq!(engine.evaluations(), evals + 2, "both readers evaluated");
    assert!(out.is_empty(), "no frontier moved: {out:?}");
    assert_eq!(n, 0, "an advance that moves no frontier allocated");

    // Node 2 acks 7: all four frontiers move and both waiters complete.
    rec.observe(s, NodeId(2), RECEIVED, 7);
    let ((), n) =
        allocations(|| engine.on_ack_advance(s, NodeId(2), RECEIVED, &rec, &mut out, &mut done));
    let moved: Vec<(&str, u64)> = out.iter().map(|u| (u.key.as_str(), u.seq)).collect();
    assert_eq!(moved, [("all", 2), ("one", 7), ("pair", 2), ("three", 7)]);
    assert_eq!(done, [1, 2]);
    assert_eq!(n, out.len() as u64, "one allocation per FrontierUpdate key");
}

#[test]
fn steady_state_ack_batch_without_frontier_move_allocates_nothing() {
    let cfg = ClusterConfig::parse(
        "az A a b\naz B c\n\
         predicate All MIN($ALLWNODES-$MYWNODE)\n\
         predicate Pair MIN($2, $3)\n",
    )
    .unwrap();
    let mut node = StabilizerNode::new(cfg, NodeId(0), Arc::new(AckTypeRegistry::new())).unwrap();
    for _ in 0..64 {
        node.publish(Bytes::from_static(b"payload")).unwrap();
    }
    node.take_actions();
    // Node 1 acks the stream bit by bit; node 2 never does, so no
    // frontier and no reclamation point moves.
    let batch = |seq| {
        WireMsg::AckBatch(vec![Ack {
            stream: NodeId(0),
            ty: RECEIVED,
            seq,
        }])
    };
    node.on_message(1, NodeId(1), batch(1)); // warm-up
    for seq in 2..=64 {
        let msg = batch(seq);
        let ((), n) = allocations(|| node.on_message(seq, NodeId(1), msg));
        assert_eq!(n, 0, "AckBatch {seq} allocated");
    }
    let m = node.metrics();
    assert_eq!(m.acks_received, 64);
    assert!(m.predicate_evals >= 2 * 64, "every ack was evaluated");
    assert_eq!(m.frontier_updates, 0);
    assert!(!node.has_actions());
}
