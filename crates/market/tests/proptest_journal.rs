//! Property tests for the write-ahead journal's torn-write robustness
//! and the settlement chain's tamper localization.
//!
//! The invariants a crash-durable log must hold under *arbitrary*
//! damage, not just the cuts a unit test thinks of:
//!
//! * any record sequence round-trips through the on-disk framing;
//! * truncating the stream at **any** byte offset recovers exactly the
//!   longest valid prefix — never a panic, never a phantom record;
//! * corrupting a byte anywhere never disturbs the records before it;
//! * flipping a bit inside a sealed record (with its CRC re-fixed, so
//!   only the chain can see it) makes `verify_log` name exactly the
//!   first divergent seal;
//! * under group commit — two threads staging and committing in any
//!   interleaving — the file is the staged order in the reference
//!   framing, and a crash at any byte keeps a prefix of that order that
//!   includes every record whose commit had returned.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use dauctioneer_market::{crc32, scan, verify_log, ChainFault, FsyncPolicy, Journal, JournalError};
use dauctioneer_net::wire_encode;
use dauctioneer_types::{
    Allocation, AuctionResult, BidVector, Bw, Encode, JournalRecord, Money, Outcome, Payments,
    ProviderAsk, SealRecord, SessionId, UserBid, UserId,
};

fn arb_money() -> impl Strategy<Value = Money> {
    any::<i64>().prop_map(Money::from_micro)
}

fn arb_bw() -> impl Strategy<Value = Bw> {
    any::<u64>().prop_map(Bw::from_micro)
}

fn arb_user_bid() -> impl Strategy<Value = UserBid> {
    (arb_money(), arb_bw()).prop_map(|(v, d)| UserBid::new(v, d))
}

fn arb_ask() -> impl Strategy<Value = ProviderAsk> {
    (arb_money(), arb_bw()).prop_map(|(c, cap)| ProviderAsk::new(c, cap))
}

fn arb_bid_vector() -> impl Strategy<Value = BidVector> {
    (1usize..6, 1usize..3).prop_flat_map(|(n, m)| {
        (
            proptest::collection::vec((0..n as u32, arb_user_bid()), 0..6),
            proptest::collection::vec((0..m as u32, arb_ask()), 0..m.max(2)),
        )
            .prop_map(move |(bids, asks)| {
                let mut b = BidVector::builder(n, m);
                for (u, bid) in bids {
                    b = b.user_bid(u as usize, bid);
                }
                for (p, ask) in asks {
                    b = b.provider_ask(p as usize, ask);
                }
                b.build()
            })
    })
}

fn arb_outcome() -> impl Strategy<Value = Outcome> {
    prop_oneof![
        Just(Outcome::Abort),
        (1usize..5, 1usize..3, any::<u32>(), 1u64..1_000_000).prop_map(|(n, m, u, bw)| {
            let mut a = Allocation::new(n, m);
            a.add(UserId(u % n as u32), dauctioneer_types::ProviderId(0), Bw::from_micro(bw));
            Outcome::Agreed(AuctionResult::new(
                a,
                Payments::from_parts(vec![Money::from_micro(17); n], vec![Money::ZERO; m]),
            ))
        }),
    ]
}

/// An arbitrary seal. Chain fields are random — [`scan`] does not walk
/// the chain, so these exercise the *framing* of the largest record.
fn arb_seal() -> impl Strategy<Value = SealRecord> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (arb_bid_vector(), arb_outcome(), any::<[u8; 32]>(), any::<[u8; 32]>()),
    )
        .prop_map(|((epoch, session, seed, accepted), (bids, outcome, prev, digest))| {
            SealRecord {
                epoch,
                session: SessionId(session),
                seed,
                accepted,
                bids,
                mechanism: "double-auction".to_string(),
                outcome,
                prev,
                digest,
            }
        })
}

fn arb_record() -> impl Strategy<Value = JournalRecord> {
    prop_oneof![
        (any::<u64>(), any::<u32>(), arb_user_bid()).prop_map(|(epoch, user, bid)| {
            JournalRecord::Accepted { epoch, user: UserId(user), bid }
        }),
        (any::<u64>(), any::<u64>(), arb_ask())
            .prop_map(|(epoch, slot, ask)| JournalRecord::AskSet { epoch, slot, ask }),
        arb_seal().prop_map(|seal| JournalRecord::Sealed(Box::new(seal))),
    ]
}

/// The reference framing, built the slow way (copy, copy, copy) — what
/// the journal's in-place writer must reproduce byte for byte:
/// `[len][record bytes][crc32(record bytes)]`.
fn frame_record(record: &JournalRecord) -> Vec<u8> {
    let body = record.encode_to_bytes();
    let mut payload = body.to_vec();
    payload.extend_from_slice(&crc32(&body).to_le_bytes());
    wire_encode(&payload).to_vec()
}

/// Concatenated stream plus each record's end offset within it.
fn build_stream(records: &[JournalRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut stream = Vec::new();
    let mut ends = Vec::new();
    for record in records {
        stream.extend_from_slice(&frame_record(record));
        ends.push(stream.len());
    }
    (stream, ends)
}

/// One step of a journal writer thread.
#[derive(Debug, Clone)]
enum Op {
    /// Stage an accepted bid of this user.
    Stage(u32),
    Commit,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![any::<u32>().prop_map(Op::Stage), Just(Op::Commit)],
        0..12,
    )
}

static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "dauction-propjournal-{name}-{}-{}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// The in-place writer on a fixed fixture — one record of each kind,
/// sealed through the real chain: the file equals the reference framing
/// of what it scans to, and the offline verifier certifies it.
#[test]
fn journal_file_is_the_reference_framing_on_a_fixed_fixture() {
    let path = temp_path("fixture");
    let journal = Journal::create(&path, FsyncPolicy::EveryN(2)).unwrap();
    let bid = UserBid::new(Money::from_micro(1_250_000), Bw::from_micro(500_000));
    let ask = ProviderAsk::new(Money::from_micro(200_000), Bw::from_micro(2_000_000));
    journal.append_accepted(0, UserId(7), bid).unwrap();
    journal.append_ask(0, 1, ask).unwrap();
    let seal = journal
        .append_seal(
            0,
            SessionId(100),
            7919,
            1,
            BidVector::builder(8, 2).user_bid(7, bid).provider_ask(1, ask).build(),
            "double-auction",
            Outcome::Abort,
        )
        .unwrap();
    drop(journal);

    let expected = vec![
        JournalRecord::Accepted { epoch: 0, user: UserId(7), bid },
        JournalRecord::AskSet { epoch: 0, slot: 1, ask },
        JournalRecord::Sealed(Box::new(seal)),
    ];
    let file = std::fs::read(&path).unwrap();
    assert_eq!(scan(&file).records, expected);
    assert_eq!(file, build_stream(&expected).0, "file bytes differ from the reference framing");
    // The first frame as the copy-three-times writer this one replaced
    // put it on disk: length, tag, epoch, user, valuation, demand, CRC.
    let pinned = "2100000001000000000000000007000000d01213000000000020a10700000000005c222bee";
    let first: String = file[..pinned.len() / 2].iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(first, pinned);
    assert_eq!(verify_log(&path).unwrap().seals, 1);
    std::fs::remove_file(&path).unwrap();
}

proptest! {
    /// Group commit under concurrency: two threads stage and commit in
    /// whatever order the OS interleaves them. The file is exactly the
    /// staged (sequence-number) order in the reference framing; a crash
    /// that tears it at any byte leaves a prefix of that order; and
    /// because a returned commit means an fsync covered the record, any
    /// tear a crash can cause — at or past the last committed byte —
    /// still holds every record whose commit returned.
    #[test]
    fn concurrent_stage_commit_keeps_order_and_every_committed_record(
        a in arb_ops(),
        b in arb_ops(),
    ) {
        let path = temp_path("group");
        let journal = Journal::create(&path, FsyncPolicy::Always).unwrap();
        let bid = UserBid::new(Money::from_micro(1), Bw::from_micro(1));
        // Each writer: its staged (seq, record) pairs and the highest
        // sequence number a returned commit of its own covers.
        let run = |epoch: u64, ops: &[Op]| {
            let mut staged = Vec::new();
            let mut committed = 0u64;
            for op in ops {
                match op {
                    Op::Stage(user) => {
                        let seq = journal.stage_accepted(epoch, UserId(*user), bid).unwrap();
                        let record = JournalRecord::Accepted { epoch, user: UserId(*user), bid };
                        staged.push((seq, record));
                    }
                    Op::Commit => {
                        journal.commit().unwrap();
                        committed = staged.last().map_or(0, |(seq, _)| *seq);
                        assert!(journal.records_durable() >= committed);
                    }
                }
            }
            (staged, committed)
        };
        let ((mut staged, committed_a), (staged_b, committed_b)) = std::thread::scope(|s| {
            let writer_a = s.spawn(|| run(0, &a));
            let writer_b = s.spawn(|| run(1, &b));
            (writer_a.join().unwrap(), writer_b.join().unwrap())
        });
        drop(journal);

        staged.extend(staged_b);
        staged.sort_by_key(|(seq, _)| *seq);
        let seqs: Vec<u64> = staged.iter().map(|(seq, _)| *seq).collect();
        prop_assert_eq!(seqs, (1..=staged.len() as u64).collect::<Vec<_>>());
        let records: Vec<JournalRecord> = staged.into_iter().map(|(_, r)| r).collect();
        let (stream, ends) = build_stream(&records);
        let file = std::fs::read(&path).unwrap();
        prop_assert_eq!(&file, &stream, "file order is not the staged order");

        let committed = committed_a.max(committed_b) as usize;
        let durable_bytes = if committed == 0 { 0 } else { ends[committed - 1] };
        for cut in 0..=file.len() {
            let recovered = scan(&file[..cut]).records;
            prop_assert_eq!(&recovered[..], &records[..recovered.len()]);
            if cut >= durable_bytes {
                prop_assert!(recovered.len() >= committed, "cut {} lost a committed record", cut);
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn record_streams_roundtrip(records in proptest::collection::vec(arb_record(), 0..12)) {
        let (stream, _) = build_stream(&records);
        let result = scan(&stream);
        prop_assert_eq!(result.records, records);
        prop_assert_eq!(result.valid_bytes, stream.len() as u64);
        prop_assert_eq!(result.dropped_bytes, 0);
    }

    #[test]
    fn truncation_recovers_exactly_the_longest_valid_prefix(
        records in proptest::collection::vec(arb_record(), 1..10),
        cut_seed in any::<u64>(),
    ) {
        let (stream, ends) = build_stream(&records);
        let cut = (cut_seed as usize) % (stream.len() + 1);
        let result = scan(&stream[..cut]);
        // Exactly the records whose frame ends at or before the cut —
        // a torn frame is dropped whole, never half-believed.
        let intact = ends.iter().filter(|&&e| e <= cut).count();
        prop_assert_eq!(&result.records[..], &records[..intact]);
        prop_assert_eq!(result.valid_bytes, ends.get(intact.wrapping_sub(1)).copied().unwrap_or(0) as u64);
        prop_assert_eq!(result.valid_bytes + result.dropped_bytes, cut as u64);
    }

    #[test]
    fn corruption_never_disturbs_earlier_records(
        records in proptest::collection::vec(arb_record(), 1..10),
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let (mut stream, ends) = build_stream(&records);
        let pos = (pos_seed as usize) % stream.len();
        stream[pos] ^= flip;
        // Never panics, and every record framed wholly before the
        // corrupted byte survives verbatim.
        let result = scan(&stream);
        let intact_before = ends.iter().filter(|&&e| e <= pos).count();
        prop_assert!(result.records.len() >= intact_before);
        prop_assert_eq!(&result.records[..intact_before], &records[..intact_before]);
        prop_assert_eq!(result.valid_bytes + result.dropped_bytes, stream.len() as u64);
    }

    /// End-to-end file property: append through the real [`Journal`],
    /// tear the file at an arbitrary byte, recover — the recovered file
    /// *is* the valid prefix and a second scan confirms zero loss of it.
    #[test]
    fn file_recovery_truncates_to_the_valid_prefix(
        bids in proptest::collection::vec((any::<u64>(), any::<u32>(), arb_user_bid()), 1..8),
        cut_seed in any::<u64>(),
    ) {
        let path = temp_path("recover");
        let journal = Journal::create(&path, FsyncPolicy::Never).unwrap();
        for (epoch, user, bid) in &bids {
            // Monotone epochs keep the draft classification meaningful.
            journal.append_accepted(*epoch % 4, UserId(*user), *bid).unwrap();
        }
        drop(journal);

        let full = std::fs::read(&path).unwrap();
        let cut = (cut_seed as usize) % (full.len() + 1);
        std::fs::write(&path, &full[..cut]).unwrap();

        let (recovered, log) = Journal::recover(&path, FsyncPolicy::Never).unwrap();
        drop(recovered);
        let on_disk = std::fs::read(&path).unwrap();
        let rescanned = scan(&on_disk);
        prop_assert_eq!(rescanned.dropped_bytes, 0, "recovery left a torn tail behind");
        prop_assert_eq!(on_disk.len() as u64 + log.dropped_bytes, cut as u64);
        // No phantom: every surviving record is one we wrote, in order.
        let all_bids: Vec<(u64, UserId, UserBid)> =
            bids.iter().map(|(e, u, b)| (*e % 4, UserId(*u), *b)).collect();
        let survived: Vec<(u64, UserId, UserBid)> = rescanned
            .records
            .iter()
            .map(|r| match r {
                JournalRecord::Accepted { epoch, user, bid } => (*epoch, *user, *bid),
                other => panic!("wrote only Accepted records, read {other:?}"),
            })
            .collect();
        prop_assert_eq!(&survived[..], &all_bids[..survived.len()]);
        std::fs::remove_file(&path).unwrap();
    }

    /// Flip one bit inside an arbitrary sealed record of a real chained
    /// journal — with the CRC re-fixed so only the chain can tell — and
    /// the verifier names exactly that seal.
    #[test]
    fn chain_localizes_a_tampered_seal(
        epochs in 2u64..6,
        victim_seed in any::<u64>(),
        field in 0u8..3,
    ) {
        // Which content field to flip: seed, session, or accepted count.
        let path = temp_path("tamper");
        let journal = Journal::create(&path, FsyncPolicy::Never).unwrap();
        for epoch in 0..epochs {
            journal.append_accepted(epoch, UserId(0), UserBid::new(Money::from_micro(1), Bw::from_micro(1))).unwrap();
            journal
                .append_seal(
                    epoch,
                    SessionId(100 + epoch),
                    epoch.wrapping_mul(7919),
                    1,
                    BidVector::builder(1, 0)
                        .user_bid(0, UserBid::new(Money::from_micro(1), Bw::from_micro(1)))
                        .build(),
                    "double-auction",
                    Outcome::Abort,
                )
                .unwrap();
        }
        drop(journal);
        prop_assert_eq!(verify_log(&path).unwrap().seals, epochs);

        let victim = victim_seed % epochs;
        let mut records = scan(&std::fs::read(&path).unwrap()).records;
        let mut hit = 0u64;
        for record in &mut records {
            if let JournalRecord::Sealed(seal) = record {
                if hit == victim {
                    // Tamper with sealed *content* — the digest still
                    // matches nothing.
                    match field {
                        0 => seal.seed ^= 1,
                        1 => seal.session = SessionId(seal.session.0 ^ 1),
                        _ => seal.accepted ^= 1,
                    }
                }
                hit += 1;
            }
        }
        // Re-frame the tampered record sequence with fixed-up CRCs, so
        // only the chain walk can catch the modification.
        let path2 = temp_path("tamper-rw");
        let mut stream = Vec::new();
        for record in &records {
            stream.extend_from_slice(&frame_record(record));
        }
        std::fs::write(&path2, &stream).unwrap();

        match verify_log(&path2) {
            Err(JournalError::Tampered(d)) => {
                prop_assert_eq!(d.seal_index, victim);
                prop_assert_eq!(d.fault, ChainFault::DigestMismatch);
            }
            other => prop_assert!(false, "expected divergence at seal {victim}, got {other:?}"),
        }
        // Recovery refuses the forged history outright.
        prop_assert!(matches!(
            Journal::recover(&path2, FsyncPolicy::Never),
            Err(JournalError::Tampered(_))
        ));
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&path2).unwrap();
    }
}
