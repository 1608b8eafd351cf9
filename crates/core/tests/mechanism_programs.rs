//! Integration tests for the combinatorial and divisible mechanism
//! programs under the parallel allocator, plus the `DynProgram` erasure
//! used for runtime mechanism selection, and a property that keeps each
//! program's `reads_shared_randomness` answer honest.

use std::sync::Arc;

use bytes::Bytes;
use dauctioneer_core::{
    AllocatorProgram, Block, BlockResult, CombinatorialAuctionProgram, DivisibleAuctionProgram,
    DoubleAuctionProgram, DynProgram, FrameworkConfig, OutboxCtx, ParallelAllocator,
    StandardAuctionProgram, TaskId,
};
use dauctioneer_mechanisms::{
    CombinatorialAuction, CombinatorialAuctionConfig, DivisibleAuction, DivisibleAuctionConfig,
    Mechanism, SharedRng, StandardAuction, StandardAuctionConfig,
};
use dauctioneer_types::{AuctionResult, BidVector, Bw, ProviderId, UserId};
use dauctioneer_workload::{DoubleAuctionWorkload, StandardAuctionWorkload};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Drive a vector of allocator blocks to quiescence.
fn drive<P: AllocatorProgram>(blocks: &mut [ParallelAllocator<P>]) {
    let m = blocks.len();
    let mut ctxs: Vec<OutboxCtx> =
        (0..m).map(|i| OutboxCtx::new(ProviderId(i as u32), m)).collect();
    for (b, c) in blocks.iter_mut().zip(&mut ctxs) {
        b.start(c);
    }
    loop {
        let mut moved = false;
        for i in 0..m {
            for (to, payload) in ctxs[i].drain() {
                moved = true;
                let mut ctx = OutboxCtx::new(to, m);
                blocks[to.index()].on_message(ProviderId(i as u32), &payload, &mut ctx);
                ctxs[to.index()].outbox.extend(ctx.drain());
            }
        }
        if !moved {
            break;
        }
    }
}

fn run_distributed<P: AllocatorProgram>(
    cfg: &FrameworkConfig,
    program: Arc<P>,
    bids: &BidVector,
) -> AuctionResult {
    let mut blocks: Vec<ParallelAllocator<P>> = (0..cfg.m)
        .map(|i| {
            ParallelAllocator::new(
                cfg.clone(),
                ProviderId(i as u32),
                Arc::clone(&program),
                bids.clone(),
                &mut StdRng::seed_from_u64(300 + i as u64),
            )
        })
        .collect();
    drive(&mut blocks);
    let first = blocks[0].result().cloned().expect("decided");
    for b in &blocks {
        assert_eq!(b.result(), Some(&first), "replicas must agree byte-for-byte");
    }
    let BlockResult::Value(result) = first else {
        panic!("honest run aborted");
    };
    result
}

#[test]
fn combinatorial_program_runs_as_a_single_replicated_task() {
    let (bids, capacities) = StandardAuctionWorkload::new(8, 2, 11).generate();
    let mechanism = CombinatorialAuction::new(CombinatorialAuctionConfig::new(capacities.clone()));
    let program = Arc::new(CombinatorialAuctionProgram::new(mechanism));
    let cfg = FrameworkConfig::new(4, 1, 8, 0);

    // One node-budgeted NP-hard solve ⇒ one global task, no transfers.
    let spec = program.task_graph(&cfg);
    assert_eq!(spec.len(), 1);
    assert!(spec.transfer_edges().is_empty());

    let result = run_distributed(&cfg, program, &bids);
    assert!(result.payments.is_budget_balanced());
    // Multi-unit capacity respected per provider.
    for (p, cap) in capacities.iter().enumerate() {
        assert!(result.allocation.provider_total(ProviderId(p as u32)) <= *cap);
    }
    // Pay-as-bid: winners pay something, losers pay nothing.
    for u in 0..bids.num_users() {
        let user = UserId(u as u32);
        if result.allocation.user_total(user).is_zero() {
            assert_eq!(result.payments.user_payment(user).micro(), 0);
        }
    }
}

#[test]
fn divisible_program_matches_the_centralised_mechanism() {
    let (bids, capacities) = StandardAuctionWorkload::new(6, 2, 23).generate();
    let mechanism = DivisibleAuction::new(DivisibleAuctionConfig::new(capacities.clone()));
    let program = Arc::new(DivisibleAuctionProgram::new(mechanism.clone()));
    let cfg = FrameworkConfig::new(4, 1, 6, 0);

    // Algorithm-1 shape: allocation + p payment groups + gather.
    let spec = program.task_graph(&cfg);
    assert_eq!(spec.len(), 2 + cfg.parallelism());

    let distributed = run_distributed(&cfg, program, &bids);
    // The divisible mechanism consumes no randomness, so the distributed
    // outcome equals the centralised run under *any* coin material.
    let centralised = mechanism.run(&bids, &SharedRng::from_material(b"unused"));
    assert_eq!(distributed, centralised);
    let demand: Bw = bids.valid_user_bids().map(|(_, b)| b.demand()).sum();
    let capacity: Bw = capacities.iter().copied().sum();
    assert_eq!(distributed.allocation.total(), demand.min(capacity));
}

#[test]
fn dyn_program_preserves_graph_and_outcome() {
    let (bids, capacities) = StandardAuctionWorkload::new(5, 2, 31).generate();
    let mechanism = DivisibleAuction::new(DivisibleAuctionConfig::new(capacities));
    let concrete = Arc::new(DivisibleAuctionProgram::new(mechanism));
    let erased = DynProgram::new(concrete.clone() as Arc<dyn AllocatorProgram>);
    let cfg = FrameworkConfig::new(3, 1, 5, 0);

    assert_eq!(erased.name(), "divisible-auction");
    assert_eq!(erased.task_graph(&cfg).len(), concrete.task_graph(&cfg).len());

    let direct = run_distributed(&cfg, Arc::clone(&concrete), &bids);
    let through_dyn = run_distributed(&cfg, Arc::new(erased), &bids);
    assert_eq!(direct, through_dyn);
}

#[test]
fn program_names_mirror_their_mechanisms() {
    let caps = vec![Bw::from_f64(1.0)];
    assert_eq!(DoubleAuctionProgram::new().name(), "double-auction");
    assert_eq!(
        StandardAuctionProgram::new(StandardAuction::new(StandardAuctionConfig::exact(
            caps.clone()
        )))
        .name(),
        "standard-auction"
    );
    assert_eq!(
        CombinatorialAuctionProgram::new(CombinatorialAuction::new(
            CombinatorialAuctionConfig::new(caps.clone())
        ))
        .name(),
        "combinatorial-auction"
    );
    assert_eq!(
        DivisibleAuctionProgram::new(DivisibleAuction::new(DivisibleAuctionConfig::new(caps)))
            .name(),
        "divisible-auction"
    );
}

/// The four production programs, type-erased (so `DynProgram`'s
/// forwarding is under test too), each with an `n`-user workload for `m`
/// providers drawn from `seed`.
fn all_programs(n: usize, m: usize, seed: u64) -> Vec<(&'static str, DynProgram, BidVector)> {
    let (bids, capacities) = StandardAuctionWorkload::new(n, m, seed).generate();
    let erase = |program: Arc<dyn AllocatorProgram>| DynProgram::new(program);
    vec![
        (
            "double",
            erase(Arc::new(DoubleAuctionProgram::new())),
            DoubleAuctionWorkload::new(n, m, seed).generate(),
        ),
        (
            "standard",
            erase(Arc::new(StandardAuctionProgram::new(StandardAuction::new(
                StandardAuctionConfig::exact(capacities.clone()),
            )))),
            bids.clone(),
        ),
        (
            "combinatorial",
            erase(Arc::new(CombinatorialAuctionProgram::new(CombinatorialAuction::new(
                CombinatorialAuctionConfig::new(capacities.clone()),
            )))),
            bids.clone(),
        ),
        (
            "divisible",
            erase(Arc::new(DivisibleAuctionProgram::new(DivisibleAuction::new(
                DivisibleAuctionConfig::new(capacities),
            )))),
            bids,
        ),
    ]
}

/// Run `program`'s task graph in one process — every task once, in list
/// order, under `shared` — and return the final task's output bytes.
fn run_centrally(
    program: &dyn AllocatorProgram,
    cfg: &FrameworkConfig,
    bids: &BidVector,
    shared: &SharedRng,
) -> Bytes {
    let spec = program.task_graph(cfg);
    let mut values: Vec<Bytes> = Vec::with_capacity(spec.len());
    for (i, task) in spec.tasks().iter().enumerate() {
        let deps: Vec<Bytes> = task.deps.iter().map(|d| values[d.index()].clone()).collect();
        values.push(program.run_task(TaskId(i as u32), &spec, bids, &deps, shared));
    }
    values.pop().expect("a task graph has a final task")
}

#[test]
fn only_the_solvers_that_shuffle_read_shared_randomness() {
    let answers: Vec<(&str, bool)> = all_programs(4, 3, 1)
        .iter()
        .map(|(name, program, _)| (*name, program.reads_shared_randomness()))
        .collect();
    assert_eq!(
        answers,
        [("double", false), ("standard", true), ("combinatorial", true), ("divisible", false)]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A program that answers `false` gets no common coin, only a fixed
    /// material; that is sound only if its output cannot depend on the
    /// material. Any two materials must give byte-identical final outputs.
    #[test]
    fn programs_that_skip_the_coin_ignore_the_material(
        n in 1usize..12,
        m in 3usize..6,
        seed in 0u64..10_000,
        a in any::<[u8; 32]>(),
        b in any::<[u8; 32]>(),
    ) {
        for (name, program, bids) in all_programs(n, m, seed) {
            if program.reads_shared_randomness() {
                continue;
            }
            let cfg = FrameworkConfig::new(m, 1, n, bids.num_asks());
            let under_a = run_centrally(&program, &cfg, &bids, &SharedRng::from_material(&a));
            let under_b = run_centrally(&program, &cfg, &bids, &SharedRng::from_material(&b));
            prop_assert!(program.finish(&bids, &under_a).is_some(), "{name}: malformed output");
            prop_assert_eq!(under_a, under_b, "{} (n={}, m={}, seed={})", name, n, m, seed);
        }
    }
}
