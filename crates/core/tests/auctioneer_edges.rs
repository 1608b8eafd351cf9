//! Edge-path tests for the top-level auctioneer block, the coin-less
//! allocator of a program that reads no shared randomness, and the coin's
//! distributional behaviour.

use std::sync::Arc;

use bytes::Bytes;
use dauctioneer_core::blocks::{CoinValue, CommonCoin};
use dauctioneer_core::{
    Auctioneer, Block, BlockResult, Distribution, DoubleAuctionProgram, FrameworkConfig, OutboxCtx,
    ParallelAllocator, StandardAuctionProgram,
};
use dauctioneer_mechanisms::{StandardAuction, StandardAuctionConfig};
use dauctioneer_net::{frame, unframe};
use dauctioneer_types::{BidVector, Bw, Outcome, ProviderId};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The allocator's channel tags (private to `allocator.rs`).
const TAG_VALIDATION: u64 = 1;
const TAG_COIN: u64 = 2;

fn auctioneer(me: u32) -> Auctioneer<DoubleAuctionProgram> {
    Auctioneer::new_seeded(
        FrameworkConfig::new(3, 1, 2, 1),
        ProviderId(me),
        Arc::new(DoubleAuctionProgram::new()),
        BidVector::all_neutral_with_asks(2, 1),
        7,
    )
}

/// Deliver every queued message until none is left; returns every payload
/// delivered, in delivery order.
fn pump<B: Block>(blocks: &mut [B]) -> Vec<Bytes> {
    let m = blocks.len();
    let mut ctxs: Vec<OutboxCtx> =
        (0..m).map(|i| OutboxCtx::new(ProviderId(i as u32), m)).collect();
    for (b, c) in blocks.iter_mut().zip(&mut ctxs) {
        b.start(c);
    }
    let mut delivered = Vec::new();
    loop {
        let mut moved = false;
        for i in 0..m {
            for (to, payload) in ctxs[i].drain() {
                moved = true;
                let mut ctx = OutboxCtx::new(to, m);
                blocks[to.index()].on_message(ProviderId(i as u32), &payload, &mut ctx);
                ctxs[to.index()].outbox.extend(ctx.drain());
                delivered.push(payload);
            }
        }
        if !moved {
            return delivered;
        }
    }
}

#[test]
fn unknown_top_level_tag_aborts() {
    let mut a = auctioneer(0);
    let mut ctx = OutboxCtx::new(ProviderId(0), 3);
    a.start(&mut ctx);
    a.on_message(ProviderId(1), &frame(99, b"?"), &mut ctx);
    assert_eq!(a.outcome(), Some(Outcome::Abort));
}

#[test]
fn unframeable_message_aborts() {
    let mut a = auctioneer(0);
    let mut ctx = OutboxCtx::new(ProviderId(0), 3);
    a.start(&mut ctx);
    a.on_message(ProviderId(1), b"abc", &mut ctx); // < 8 bytes: no frame
    assert_eq!(a.outcome(), Some(Outcome::Abort));
}

#[test]
fn garbage_inside_bid_agreement_aborts() {
    let mut a = auctioneer(0);
    let mut ctx = OutboxCtx::new(ProviderId(0), 3);
    a.start(&mut ctx);
    // Tag 1 = bid agreement; inner garbage that unframes to an unknown round.
    a.on_message(ProviderId(1), &frame(1, &frame(77, b"junk")), &mut ctx);
    assert_eq!(a.outcome(), Some(Outcome::Abort));
}

#[test]
fn outcome_is_none_until_decided() {
    let a = auctioneer(0);
    assert!(a.outcome().is_none());
    assert_eq!(a.me(), ProviderId(0));
    assert_eq!(a.config().m, 3);
}

#[test]
#[should_panic(expected = "invalid framework configuration")]
fn invalid_config_is_rejected_at_construction() {
    let _ = Auctioneer::new_seeded(
        FrameworkConfig::new(2, 1, 2, 1), // m ≤ 2k
        ProviderId(0),
        Arc::new(DoubleAuctionProgram::new()),
        BidVector::all_neutral_with_asks(2, 1),
        7,
    );
}

/// Local randomness that must never be drawn.
struct Untouchable;

impl RngCore for Untouchable {
    fn next_u32(&mut self) -> u32 {
        panic!("the allocator drew local randomness")
    }

    fn next_u64(&mut self) -> u64 {
        panic!("the allocator drew local randomness")
    }
}

fn double_allocator(me: u32, rng: &mut dyn RngCore) -> ParallelAllocator<DoubleAuctionProgram> {
    ParallelAllocator::new(
        FrameworkConfig::new(3, 1, 2, 1),
        ProviderId(me),
        Arc::new(DoubleAuctionProgram::new()),
        BidVector::all_neutral_with_asks(2, 1),
        rng,
    )
}

fn standard_allocator(me: u32) -> ParallelAllocator<StandardAuctionProgram> {
    let auction = StandardAuction::new(StandardAuctionConfig::exact(vec![Bw::from_f64(1.0); 3]));
    ParallelAllocator::new(
        FrameworkConfig::new(3, 1, 2, 0),
        ProviderId(me),
        Arc::new(StandardAuctionProgram::new(auction)),
        BidVector::all_neutral(2),
        &mut StdRng::seed_from_u64(7),
    )
}

/// A well-formed first coin round from provider 1 to provider 0, framed
/// as the allocator's coin channel.
fn peer_coin_commit() -> Bytes {
    let mut coin =
        CommonCoin::new(ProviderId(1), 3, Distribution::UniformUnit, &mut StdRng::seed_from_u64(1));
    let mut ctx = OutboxCtx::new(ProviderId(1), 3);
    coin.start(&mut ctx);
    let (_, commit) = ctx.drain().into_iter().find(|(to, _)| *to == ProviderId(0)).expect("sent");
    frame(TAG_COIN, &commit)
}

#[test]
fn coin_frame_to_a_double_allocator_is_bottom() {
    let commit = peer_coin_commit();

    // A program that reads the coin accepts the frame and keeps waiting.
    let mut standard = standard_allocator(0);
    let mut ctx = OutboxCtx::new(ProviderId(0), 3);
    standard.start(&mut ctx);
    standard.on_message(ProviderId(1), &commit, &mut ctx);
    assert_eq!(standard.result(), None);

    // The double auction's allocator has no coin: the same frame is an
    // unknown tag, not a message held for a coin that never starts.
    let mut double = double_allocator(0, &mut StdRng::seed_from_u64(7));
    let mut ctx = OutboxCtx::new(ProviderId(0), 3);
    double.start(&mut ctx);
    assert_eq!(double.result(), None, "validation still waits for its peers");
    double.on_message(ProviderId(1), &commit, &mut ctx);
    assert_eq!(double.result(), Some(&BlockResult::Abort));
}

#[test]
fn a_double_allocator_never_runs_its_coin() {
    let mut blocks: Vec<_> = (0..3).map(|i| double_allocator(i, &mut Untouchable)).collect();
    let delivered = pump(&mut blocks);
    // One validation broadcast and nothing else: no coin round, and a
    // single global task has no transfer edges.
    assert_eq!(delivered.len(), 3 * 2);
    for payload in &delivered {
        assert_eq!(unframe(payload).expect("framed").0, TAG_VALIDATION);
    }
    for block in &blocks {
        assert!(matches!(block.result(), Some(BlockResult::Value(_))));
    }
}

/// Drive m coins synchronously and return the agreed sample.
fn coin_sample(m: usize, dist: Distribution, seed: u64) -> f64 {
    let mut blocks: Vec<CommonCoin> = (0..m)
        .map(|i| {
            CommonCoin::new(
                ProviderId(i as u32),
                m,
                dist,
                &mut StdRng::seed_from_u64(seed * 31 + i as u64),
            )
        })
        .collect();
    pump(&mut blocks);
    match blocks[0].result() {
        Some(BlockResult::Value(CoinValue { sample, .. })) => *sample,
        other => panic!("coin failed: {other:?}"),
    }
}

/// The coin's uniform samples should spread across the unit interval —
/// a coarse distributional sanity check (each quartile populated over 80
/// independent sessions).
#[test]
fn coin_samples_cover_the_unit_interval() {
    let mut quartiles = [0usize; 4];
    let sessions = 80;
    for seed in 0..sessions {
        let sample = coin_sample(3, Distribution::UniformUnit, seed);
        assert!((0.0..1.0).contains(&sample));
        quartiles[(sample * 4.0) as usize % 4] += 1;
    }
    for (i, count) in quartiles.iter().enumerate() {
        assert!(*count >= sessions as usize / 10, "quartile {i} underpopulated: {quartiles:?}");
    }
}

/// Bernoulli coins land on both sides with a plausible frequency.
#[test]
fn bernoulli_coin_hits_both_outcomes() {
    let mut ones = 0;
    let sessions = 40;
    for seed in 0..sessions {
        let sample = coin_sample(3, Distribution::Bernoulli { p: 0.5 }, 1000 + seed);
        assert!(sample == 0.0 || sample == 1.0);
        if sample == 1.0 {
            ones += 1;
        }
    }
    assert!(ones > 5 && ones < 35, "suspicious Bernoulli frequency: {ones}/{sessions}");
}
