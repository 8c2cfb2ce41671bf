//! Stress and property coverage for the lock-free MPMC ring channel in
//! `vendor/crossbeam` — the highest-traffic primitive in the streaming
//! ingest path.
//!
//! The soak test hammers N producers × M consumers over a small ring
//! (forcing constant full/empty parking transitions, lap wrap-around,
//! and CAS contention) and asserts the three channel invariants the
//! pipeline relies on: **no loss**, **no duplication**, and **FIFO per
//! producer** (each consumer's observed subsequence of any single
//! producer is in send order — the property that keeps shard windows
//! deterministic). The proptest pins batched `send_many`/`recv_many`
//! delivery to the per-message path: same messages, same order, any
//! interleaving of batch sizes.

use std::collections::HashMap;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use proptest::prelude::*;

/// Messages are `(producer_id, seq)` so every invariant is checkable
/// from the consumers' transcripts alone.
type Tagged = (usize, u64);

fn soak(producers: usize, consumers: usize, per_producer: u64, cap: usize) {
    let (tx, rx) = bounded::<Tagged>(cap);
    let producer_threads: Vec<_> = (0..producers)
        .map(|p| {
            let tx: Sender<Tagged> = tx.clone();
            std::thread::spawn(move || {
                // Mix batched and per-message sends: odd producers use
                // send_many (uneven flush sizes), even producers send
                // one message at a time.
                if p % 2 == 1 {
                    let mut batch = Vec::new();
                    for seq in 0..per_producer {
                        batch.push((p, seq));
                        if batch.len() as u64 > (seq % 17) {
                            tx.send_many(&mut batch).expect("receivers alive");
                        }
                    }
                    tx.send_many(&mut batch).expect("receivers alive");
                } else {
                    for seq in 0..per_producer {
                        tx.send((p, seq)).expect("receivers alive");
                    }
                }
            })
        })
        .collect();
    drop(tx);
    let consumer_threads: Vec<_> = (0..consumers)
        .map(|c| {
            let rx: Receiver<Tagged> = rx.clone();
            std::thread::spawn(move || {
                // Alternate recv and recv_many so both entry points see
                // contention.
                let mut got: Vec<Tagged> = Vec::new();
                loop {
                    if c % 2 == 0 {
                        let n = rx.recv_many(&mut got, 1 + c * 7);
                        if n == 0 {
                            break;
                        }
                    } else {
                        match rx.recv() {
                            Ok(msg) => got.push(msg),
                            Err(_) => break,
                        }
                    }
                }
                got
            })
        })
        .collect();
    drop(rx);
    for t in producer_threads {
        t.join().unwrap();
    }
    let transcripts: Vec<Vec<Tagged>> =
        consumer_threads.into_iter().map(|t| t.join().unwrap()).collect();

    // FIFO per producer within each consumer: the ring dequeues any one
    // producer's messages in send order, and one consumer's pops are
    // totally ordered, so its per-producer subsequence must ascend.
    for (c, transcript) in transcripts.iter().enumerate() {
        let mut last_seq: HashMap<usize, u64> = HashMap::new();
        for &(p, seq) in transcript {
            if let Some(&prev) = last_seq.get(&p) {
                assert!(
                    seq > prev,
                    "consumer {c} saw producer {p} go {prev} -> {seq} (FIFO violation)"
                );
            }
            last_seq.insert(p, seq);
        }
    }

    // No loss, no duplication: the union of transcripts is exactly the
    // sent multiset.
    let mut all: Vec<Tagged> = transcripts.into_iter().flatten().collect();
    assert_eq!(all.len() as u64, producers as u64 * per_producer, "message count mismatch");
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len() as u64, producers as u64 * per_producer, "duplicated delivery");
    for p in 0..producers {
        for seq in 0..per_producer {
            // all is sorted; binary search keeps the check O(n log n).
            assert!(all.binary_search(&(p, seq)).is_ok(), "lost ({p}, {seq})");
        }
    }
}

#[test]
fn mpmc_soak_no_loss_no_dup_fifo_per_producer() {
    // Scale the soak with the proptest profile machinery so debug runs
    // and PROPTEST_CASES-capped CI stay fast while release runs hammer
    // properly.
    let scale = ProptestConfig::profile_cases(64).cases as u64;
    // Tiny capacity (7, deliberately not a power of two) maximizes
    // full/empty transitions and exercises the lap arithmetic.
    soak(4, 3, 500 * scale, 7);
}

#[test]
fn mpmc_soak_wide_and_shallow() {
    let scale = ProptestConfig::profile_cases(32).cases as u64;
    soak(8, 8, 100 * scale, 2);
}

#[test]
fn spsc_soak_large_capacity() {
    let scale = ProptestConfig::profile_cases(64).cases as u64;
    soak(1, 1, 2_000 * scale, 1_024);
}

proptest! {
    #![proptest_config(ProptestConfig::profile_cases(48))]

    /// Batched delivery is indistinguishable from per-message delivery:
    /// chunking arbitrary messages through `send_many` and draining
    /// with `recv_many` yields exactly the per-message transcript.
    #[test]
    fn batched_send_recv_equals_per_message(
        messages in proptest::collection::vec(any::<u32>(), 0..400),
        send_chunk in 1usize..48,
        recv_chunk in 1usize..48,
        cap in 1usize..32,
    ) {
        // Per-message reference path.
        let reference: Vec<u32> = {
            let (tx, rx) = bounded::<u32>(cap);
            let msgs = messages.clone();
            let producer = std::thread::spawn(move || {
                for m in msgs {
                    tx.send(m).unwrap();
                }
            });
            let collected: Vec<u32> = rx.iter().collect();
            producer.join().unwrap();
            collected
        };

        // Batched path: same messages, arbitrary chunk sizes both ends.
        let batched: Vec<u32> = {
            let (tx, rx) = bounded::<u32>(cap);
            let msgs = messages.clone();
            let producer = std::thread::spawn(move || {
                let mut batch = Vec::new();
                for m in msgs {
                    batch.push(m);
                    if batch.len() >= send_chunk {
                        tx.send_many(&mut batch).unwrap();
                    }
                }
                tx.send_many(&mut batch).unwrap();
            });
            let mut collected = Vec::new();
            while rx.recv_many(&mut collected, recv_chunk) > 0 {}
            producer.join().unwrap();
            collected
        };

        prop_assert_eq!(&reference, &messages, "per-message path must be lossless FIFO");
        prop_assert_eq!(&batched, &messages, "batched path must match per-message exactly");
    }

    /// Both flavors' batched paths are lossless FIFO: for any messages,
    /// chunk sizes and ring capacity, range-claim `send_many` /
    /// `recv_many` on the bounded ring, and the single-lock batch loops
    /// of the unbounded list, deliver exactly the input sequence — the
    /// single tail/head CAS per range and the per-slot stamp publishes
    /// change the cost, never the observable behavior.
    #[test]
    fn batched_paths_are_lossless_fifo_on_both_flavors(
        messages in proptest::collection::vec(any::<u32>(), 0..400),
        send_chunk in 1usize..48,
        recv_chunk in 1usize..48,
        cap in 1usize..32,
    ) {
        let run = |(tx, rx): (Sender<u32>, Receiver<u32>)| -> Vec<u32> {
            let msgs = messages.clone();
            let producer = std::thread::spawn(move || {
                let mut batch = Vec::new();
                for m in msgs {
                    batch.push(m);
                    if batch.len() >= send_chunk {
                        tx.send_many(&mut batch).unwrap();
                    }
                }
                tx.send_many(&mut batch).unwrap();
            });
            let mut collected = Vec::new();
            while rx.recv_many(&mut collected, recv_chunk) > 0 {}
            producer.join().unwrap();
            collected
        };

        let range = run(bounded(cap));
        let list = run(unbounded());
        prop_assert_eq!(&range, &messages, "range-claim batching must be lossless FIFO");
        prop_assert_eq!(&list, &messages, "unbounded batching must be lossless FIFO");
    }
}
