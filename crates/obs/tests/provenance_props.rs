//! Shard-merge invariance of the provenance aggregator, mirroring
//! `merge_props.rs`: emitting one event stream through any round-robin
//! sharding and merging the shards must produce byte-identical
//! merge-invariant tables (`tables_json`) to a single aggregate that saw
//! every event — the property the parallel scheduler's byte-identical
//! `-jN` output rests on.

use obs::{PredictionMade, PredictionResolved, Provenance};
use proptest::prelude::*;

const OP_CLASSES: [&str; 4] = ["load", "int_alu", "int_mul", "store"];

/// Decodes one generated tuple into an event pair. Everything is derived
/// from the inputs, so a given vector always describes the same stream.
fn event(raw: (u64, u8, u8, u8)) -> (PredictionMade, PredictionResolved) {
    let (word, k, flags, delay) = raw;
    let chosen_k = (k % 12 > 0).then_some(u16::from(k % 12));
    let predicted = (flags & 0b100 != 0).then_some(word ^ 0x5555);
    let made = PredictionMade {
        pc: 0x400 + (word % 32) * 4,
        op_class: OP_CLASSES[(word % OP_CLASSES.len() as u64) as usize],
        chosen_k,
        diff: chosen_k.map(|k| i64::from(k) * 8 - 40),
        conf: flags & 0b1 != 0,
        predicted,
        gvq_fill_depth: word % 9,
        inflight_count: u64::from(delay % 16),
    };
    let resolved = PredictionResolved {
        correct: predicted.is_some() && flags & 0b10 != 0,
        actual: word,
        value_delay_cycles: u64::from(delay),
        patched_by_hgvq: flags & 0b1000 != 0,
    };
    (made, resolved)
}

proptest! {
    /// Round-robin sharding over any shard count merges back to the
    /// single-aggregate tables, whichever order the shards fold in.
    #[test]
    fn sharded_emission_merges_to_single_shard_tables(
        raw in prop::collection::vec(
            (any::<u64>(), any::<u8>(), any::<u8>(), any::<u8>()),
            0..200,
        ),
        shard_count in 1usize..7,
    ) {
        let events: Vec<_> = raw.into_iter().map(event).collect();

        let mut single = Provenance::new(16, 32);
        for (m, r) in &events {
            single.record(m, r);
        }

        let mut shards: Vec<Provenance> = (0..shard_count)
            .map(|_| Provenance::new(16, 32))
            .collect();
        for (i, (m, r)) in events.iter().enumerate() {
            shards[i % shard_count].record(m, r);
        }

        // Fold in plan order (what the scheduler does)...
        let mut fwd = Provenance::new(16, 32);
        for s in &shards {
            fwd.merge(s);
        }
        let expect = single.tables_json().to_json();
        prop_assert_eq!(fwd.tables_json().to_json(), expect.clone());
        prop_assert_eq!(fwd.resolved(), single.resolved());

        // ...and in reverse, which must not matter for the tables.
        let mut rev = Provenance::new(16, 32);
        for s in shards.iter().rev() {
            rev.merge(s);
        }
        prop_assert_eq!(rev.tables_json().to_json(), expect);
    }

    /// Merging is associative: ((a + b) + c) == (a + (b + c)) on the
    /// merge-invariant surface.
    #[test]
    fn provenance_merge_is_associative(
        raw in prop::collection::vec(
            (any::<u64>(), any::<u8>(), any::<u8>(), any::<u8>()),
            3..90,
        ),
    ) {
        let events: Vec<_> = raw.into_iter().map(event).collect();
        let third = events.len() / 3;
        let mut parts: Vec<Provenance> = Vec::new();
        for chunk in [&events[..third], &events[third..2 * third], &events[2 * third..]] {
            let mut p = Provenance::new(16, 32);
            for (m, r) in chunk {
                p.record(m, r);
            }
            parts.push(p);
        }
        let mut left = parts[0].clone();
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        let mut bc = parts[1].clone();
        bc.merge(&parts[2]);
        let mut right = parts[0].clone();
        right.merge(&bc);
        prop_assert_eq!(
            left.tables_json().to_json(),
            right.tables_json().to_json()
        );
    }
}
