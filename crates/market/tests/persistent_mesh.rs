//! The provider mesh is dialled once and kept across clean epochs; these
//! tests pin down when it is kept, when it is rebuilt, and that keeping
//! it changes no outcome — all over real loopback sockets.
//!
//! Next to the real [`run_provider`] the tests run a **scripted
//! provider**: the same loop written against the public control
//! protocol (`read_frame`/`write_frame`, `MuxEndpoint`, `SessionEngine`,
//! `drive`), with the same reuse rule, plus the misbehaviours a test
//! needs — rebuild every epoch (the pre-persistent twin), stall inside a
//! finished session, replay the previous session's frames, leave mid-run.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use bytes::Bytes;
use dauctioneer_core::{drive, DoubleAuctionProgram, FrameworkConfig, SessionEngine};
use dauctioneer_market::cluster::{read_frame, write_frame};
use dauctioneer_market::{
    run_provider, verify_log, AbortReason, ClusterConfig, ClusterEpoch, ClusterReport, ControlMsg,
    Coordinator, PeerInfo, ProviderConfig, ProviderReport,
};
use dauctioneer_net::{Hello, MeshOptions, MuxEndpoint, RecvError, Transport};
use dauctioneer_types::{Encode, Outcome, ProviderId, SessionId};

const M: usize = 3;

fn config(epochs: u64) -> ClusterConfig {
    let mut config = ClusterConfig::new(M, 1, 6);
    config.epochs = epochs;
    config.seed = 20160627;
    config.join_timeout = Duration::from_secs(20);
    // Scripted providers send no heartbeats; only a closed control
    // connection may declare them dead.
    config.liveness.suspect_after = Duration::from_secs(60);
    config.liveness.down_after = Duration::from_secs(120);
    config
}

/// How a scripted provider departs from `run_provider`.
#[derive(Debug, Clone, Default)]
struct Script {
    /// Drop the mesh after every epoch: what every provider did before
    /// meshes were kept.
    rebuild_every_epoch: bool,
    /// At this epoch, finish the session, then stay inside it — taking
    /// frames off the mesh and dropping them, as an engine of that
    /// session drops frames of the next — this long before reporting.
    stall: Option<(u64, Duration)>,
    /// Before every session, send the previous session's own frames
    /// again: stragglers of epoch e surfacing during e+1.
    replay_stragglers: bool,
    /// Close the control link and the mesh right after reporting this
    /// epoch.
    leave_after: Option<u64>,
    /// Close both on *receiving* this epoch's work order: a death in the
    /// middle of everybody else's session.
    vanish_at: Option<u64>,
}

/// What a scripted provider saw.
#[derive(Debug)]
struct Scripted {
    incarnation: u32,
    outcomes: Vec<(u64, Outcome)>,
    mesh_bringups: u64,
    /// The roster of the last work order.
    roster: Vec<PeerInfo>,
}

/// A [`MuxEndpoint`] that remembers what was sent over it.
struct Recording<'a> {
    inner: &'a mut MuxEndpoint,
    sent: Vec<(ProviderId, Bytes)>,
}

impl Transport for Recording<'_> {
    fn me(&self) -> ProviderId {
        self.inner.me()
    }

    fn num_providers(&self) -> usize {
        self.inner.num_providers()
    }

    fn send(&mut self, to: ProviderId, payload: Bytes) {
        self.sent.push((to, payload.clone()));
        self.inner.send(to, payload);
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<(ProviderId, Bytes), RecvError> {
        self.inner.recv_timeout(timeout)
    }
}

fn scripted_provider(id: usize, coordinator: &str, script: &Script) -> Scripted {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind mesh listener");
    let mesh_addr = listener.local_addr().expect("mesh addr").to_string();
    let mut control = TcpStream::connect(coordinator).expect("dial coordinator");
    control.set_nodelay(true).expect("nodelay");
    write_frame(&mut control, &ControlMsg::Join { id: id as u32, mesh_addr }).expect("join");
    let Ok(ControlMsg::JoinAck { incarnation, m, k, n_users, deadline_ms, mesh_budget_ms }) =
        read_frame(&mut control)
    else {
        panic!("provider {id}: no JoinAck");
    };
    let me = ProviderId(id as u32);
    let program = Arc::new(DoubleAuctionProgram::new());
    let mut seen =
        Scripted { incarnation, outcomes: Vec::new(), mesh_bringups: 0, roster: Vec::new() };
    let mut mesh: Option<(MuxEndpoint, Vec<PeerInfo>)> = None;
    let mut last_sent: Vec<(ProviderId, Bytes)> = Vec::new();

    loop {
        let (epoch, session, seed, bids, peers) = match read_frame(&mut control) {
            Ok(ControlMsg::ResetMesh) => {
                mesh = None;
                continue;
            }
            Ok(ControlMsg::WorkOrder { epoch, session, seed, bids, peers }) => {
                (epoch, session, seed, bids, peers)
            }
            Ok(ControlMsg::Shutdown) | Err(_) => return seen,
            Ok(_) => continue,
        };
        if script.vanish_at == Some(epoch) {
            return seen;
        }
        seen.roster = peers.clone();
        // The reuse rule of `run_provider`, restated.
        let usable = |(_, roster): &(MuxEndpoint, Vec<PeerInfo>)| *roster == peers;
        if script.rebuild_every_epoch || !mesh.as_ref().is_some_and(usable) {
            drop(mesh.take()); // close the old connections before dialling
            seen.mesh_bringups += 1;
            let addrs: Vec<SocketAddr> =
                peers.iter().map(|p| p.mesh_addr.parse().expect("mesh addr")).collect();
            let options = MeshOptions {
                incarnation,
                min_incarnations: peers.iter().map(|p| p.incarnation).collect(),
                budget: Duration::from_millis(mesh_budget_ms),
            };
            let listener = listener.try_clone().expect("clone listener");
            mesh = MuxEndpoint::establish_with_options(me, 1, listener, &addrs, &options)
                .ok()
                .map(|mut lanes| (lanes.remove(0), peers));
        }
        let outcome = match mesh.as_mut() {
            None => Outcome::Abort,
            Some((endpoint, _)) => {
                if script.replay_stragglers {
                    for (to, payload) in last_sent.drain(..) {
                        endpoint.send(to, payload);
                    }
                }
                let cfg =
                    FrameworkConfig::new(m as usize, k as usize, n_users as usize, m as usize)
                        .with_session(SessionId(session));
                let mut engine = SessionEngine::new(
                    cfg,
                    me,
                    Arc::clone(&program),
                    bids,
                    seed.wrapping_add(id as u64 + 1),
                );
                let mut recording = Recording { inner: endpoint, sent: Vec::new() };
                let outcome =
                    drive(&mut engine, &mut recording, Duration::from_millis(deadline_ms));
                last_sent = recording.sent;
                outcome
            }
        };
        if let Some((stall_epoch, stall)) = script.stall {
            if stall_epoch == epoch {
                let until = Instant::now() + stall;
                while Instant::now() < until {
                    match mesh.as_ref() {
                        Some((endpoint, _)) => {
                            drop(endpoint.recv_timeout(Duration::from_millis(5)))
                        }
                        None => thread::sleep(Duration::from_millis(5)),
                    }
                }
            }
        }
        if outcome.is_abort() {
            mesh = None;
        }
        seen.outcomes.push((epoch, outcome.clone()));
        let report = ControlMsg::OutcomeReport { epoch, id: id as u32, outcome };
        if write_frame(&mut control, &report).is_err() || script.leave_after == Some(epoch) {
            return seen;
        }
    }
}

enum Role {
    Real,
    Scripted(Script),
}

enum Joined {
    Real(JoinHandle<ProviderReport>),
    Scripted(JoinHandle<Scripted>),
}

fn spawn_provider(id: usize, addr: &str, role: Role) -> Joined {
    let addr = addr.to_string();
    match role {
        Role::Real => Joined::Real(thread::spawn(move || {
            run_provider(ProviderConfig::new(id, addr)).expect("provider run")
        })),
        Role::Scripted(script) => {
            Joined::Scripted(thread::spawn(move || scripted_provider(id, &addr, &script)))
        }
    }
}

impl Joined {
    fn real(self) -> ProviderReport {
        match self {
            Joined::Real(handle) => handle.join().expect("provider thread"),
            Joined::Scripted(_) => panic!("not a real provider"),
        }
    }

    fn scripted(self) -> Scripted {
        match self {
            Joined::Scripted(handle) => handle.join().expect("scripted provider thread"),
            Joined::Real(_) => panic!("not a scripted provider"),
        }
    }
}

/// A coordinator running on its own thread, so the test can act mid-run.
struct Cluster {
    addr: String,
    run: JoinHandle<(ClusterReport, Vec<ClusterEpoch>)>,
}

fn start_coordinator(config: ClusterConfig) -> Cluster {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind control listener");
    let coordinator = Coordinator::new(listener, config).expect("coordinator");
    let addr = coordinator.local_addr().to_string();
    let run = thread::spawn(move || {
        let mut seen = Vec::new();
        let report = coordinator.run(|epoch| seen.push(epoch.clone())).expect("coordinator run");
        (report, seen)
    });
    Cluster { addr, run }
}

/// Run a whole cluster with one role per provider id.
fn run_cluster(config: ClusterConfig, roles: [Role; M]) -> (Vec<ClusterEpoch>, Vec<Joined>) {
    let cluster = start_coordinator(config);
    let providers: Vec<Joined> = roles
        .into_iter()
        .enumerate()
        .map(|(id, role)| spawn_provider(id, &cluster.addr, role))
        .collect();
    let (_, epochs) = cluster.run.join().expect("coordinator thread");
    (epochs, providers)
}

fn outcome_bytes(epochs: &[ClusterEpoch]) -> Vec<Bytes> {
    epochs.iter().map(|e| e.outcome.encode_to_bytes()).collect()
}

fn rebuild_every_epoch() -> Role {
    Role::Scripted(Script { rebuild_every_epoch: true, ..Script::default() })
}

/// The outcomes of `epochs` epochs cleared the old way: every provider
/// dials a fresh mesh for every epoch.
fn twin_outcomes(epochs: u64) -> Vec<Bytes> {
    let (twin, providers) = run_cluster(
        config(epochs),
        [rebuild_every_epoch(), rebuild_every_epoch(), rebuild_every_epoch()],
    );
    for provider in providers {
        assert_eq!(provider.scripted().mesh_bringups, epochs, "the twin rebuilds every epoch");
    }
    assert!(twin.iter().all(|e| !e.outcome.is_abort()), "the twin run must clear: {twin:?}");
    outcome_bytes(&twin)
}

#[test]
fn clean_epochs_share_one_mesh_and_change_no_outcome() {
    const EPOCHS: u64 = 200;
    let (kept, providers) = run_cluster(config(EPOCHS), [Role::Real, Role::Real, Role::Real]);
    assert_eq!(kept.len() as u64, EPOCHS);
    assert!(kept.iter().all(|e| !e.outcome.is_abort()), "a quiet loopback cluster clears");
    for provider in providers {
        let report = provider.real();
        assert_eq!((report.epochs, report.aborted, report.rejoins), (EPOCHS, 0, 0));
        assert_eq!(report.mesh_bringups, 1, "{EPOCHS} clean epochs, one bring-up");
    }
    assert_eq!(outcome_bytes(&kept), twin_outcomes(EPOCHS), "outcomes are byte-identical");
}

#[test]
fn the_coordinator_journal_names_the_mechanism_the_providers_ran() {
    const EPOCHS: u64 = 4;
    let journal =
        std::env::temp_dir().join(format!("dauction-cluster-mechanism-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let mut config = config(EPOCHS);
    config.journal = Some(journal.clone());
    let (epochs, providers) = run_cluster(config, [Role::Real, Role::Real, Role::Real]);
    for provider in providers {
        provider.real();
    }
    assert!(epochs.iter().all(|e| !e.outcome.is_abort()), "a quiet loopback cluster clears");
    let summary = verify_log(&journal).expect("the coordinator's chain verifies");
    let _ = std::fs::remove_file(&journal);
    assert_eq!(summary.seals, EPOCHS);
    // The name `serve --recover --mechanism double` checks a journal against.
    assert_eq!(summary.mechanism.as_deref(), Some("double-auction"));
}

#[test]
fn a_late_provider_costs_one_epoch_and_one_rebuild_not_a_cascade() {
    const EPOCHS: u64 = 8;
    const STALLED: u64 = 3;
    let mut config = config(EPOCHS);
    config.session_deadline = Duration::from_millis(200);
    config.mesh_budget = Duration::from_millis(1500);
    // The coordinator gives an epoch deadline + budget + 1 s of grace
    // (2.7 s) before it moves on without the late report; the staller is
    // back 0.3 s into the next epoch's 1.5 s bring-up budget.
    let stall = Duration::from_millis(3000);
    let late = Script { stall: Some((STALLED, stall)), ..Script::default() };
    let (epochs, mut providers) =
        run_cluster(config, [Role::Real, Role::Real, Role::Scripted(late)]);

    assert_eq!(epochs.len() as u64, EPOCHS);
    for epoch in &epochs {
        if epoch.epoch == STALLED {
            assert!(epoch.outcome.is_abort(), "the epoch whose report never came is ⊥");
            let reason = epoch.reason.expect("every abort is classified");
            assert_ne!(reason, AbortReason::Unknown);
        } else {
            // Without the ResetMesh the punctual providers would reuse
            // their mesh while the late one is still inside the stalled
            // session, dropping their frames: ⊥ after ⊥.
            assert!(!epoch.outcome.is_abort(), "epoch {} must clear: {epoch:?}", epoch.epoch);
        }
    }
    let late = providers.pop().expect("provider 2").scripted();
    assert_eq!(late.mesh_bringups, 2, "the late provider rebuilt once, on the ResetMesh");
    assert!(late.outcomes.iter().all(|(_, o)| !o.is_abort()), "it decided every session");
    for provider in providers {
        let report = provider.real();
        assert_eq!(report.aborted, 0, "the punctual providers decided every session");
        assert_eq!(report.mesh_bringups, 2, "they rebuilt once, on the ResetMesh alone");
    }
}

#[test]
fn a_restarted_provider_forces_one_rebuild_under_the_new_floor() {
    const EPOCHS: u64 = 24;
    const LAST_OF_FIRST_LIFE: u64 = 5;
    let mut config = config(EPOCHS);
    // Spread the epoch boundaries out so the victim's exit is noticed
    // before the next dispatch and the outage spans whole epochs.
    config.epoch_period = Duration::from_millis(100);
    let cluster = start_coordinator(config);
    let survivors: Vec<Joined> =
        (0..2).map(|id| spawn_provider(id, &cluster.addr, Role::Real)).collect();
    let leaver = Script { leave_after: Some(LAST_OF_FIRST_LIFE), ..Script::default() };
    let first_life = spawn_provider(2, &cluster.addr, Role::Scripted(leaver)).scripted();
    assert_eq!(first_life.mesh_bringups, 1);
    assert_eq!(first_life.outcomes.len() as u64, LAST_OF_FIRST_LIFE + 1);

    // A connection of the dead life, mid-dial when it died: it waits in
    // survivor 0's accept queue with the old incarnation's hello.
    let mut stale = TcpStream::connect(&first_life.roster[0].mesh_addr).expect("stale dial");
    stale
        .write_all(&Hello { peer: 2, incarnation: first_life.incarnation }.encode())
        .expect("stale hello");
    thread::sleep(Duration::from_millis(250)); // an outage of whole epochs
    let second_life = spawn_provider(2, &cluster.addr, Role::Real);

    // The survivor meets the stale connection first (accept order) during
    // the rebuild, and must close it rather than take it for provider 2.
    stale.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut byte = [0u8; 1];
    match stale.read(&mut byte) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("the old incarnation's hello was not refused: {other:?}"),
    }

    let (report, epochs) = cluster.run.join().expect("coordinator thread");
    assert_eq!(report.reconnects, 1);
    for epoch in &epochs {
        match epoch.reason {
            None => {}
            Some(reason) => assert_eq!(reason, AbortReason::PeerDown, "{epoch:?}"),
        }
    }
    assert!(
        report.stats.epochs_aborted_by_reason.get(AbortReason::PeerDown) >= 1,
        "the outage cost at least one epoch"
    );
    assert!(
        epochs.iter().rev().take(8).all(|e| !e.outcome.is_abort()),
        "the cluster clears again after the rejoin: {epochs:?}"
    );

    // Nothing was dispatched into the hole, so the survivors never saw a
    // ⊥: they rebuilt because the roster changed, once, and kept that
    // mesh from then on.
    for survivor in survivors {
        let report = survivor.real();
        assert_eq!(report.aborted, 0);
        assert_eq!(report.mesh_bringups, 2, "initial mesh + one rebuild: {report:?}");
    }
    let second_life = second_life.real();
    assert_eq!(second_life.mesh_bringups, 1, "the new life dialled once: {second_life:?}");
    assert_eq!(second_life.aborted, 0);
}

#[test]
fn survivors_leave_a_doomed_session_by_detection_not_by_deadline() {
    const EPOCHS: u64 = 6;
    const DEATH: u64 = 2;
    let config = config(EPOCHS);
    let deadline = config.session_deadline;
    assert!(deadline >= Duration::from_secs(5), "the default deadline dwarfs detection");
    let dying = Script { vanish_at: Some(DEATH), ..Script::default() };
    let (epochs, mut providers) =
        run_cluster(config, [Role::Real, Role::Real, Role::Scripted(dying)]);
    drop(providers.pop());

    // The survivors were inside session DEATH, waiting for provider 2's
    // frames, when its connections closed: they report ⊥ at once and the
    // epoch closes with them — nobody sits out the session deadline.
    let doomed = &epochs[DEATH as usize];
    assert_eq!(doomed.reason, Some(AbortReason::PeerDown));
    assert!(
        doomed.latency < deadline / 5,
        "the doomed epoch took {:?} of a {deadline:?} deadline",
        doomed.latency
    );
    for provider in providers {
        let report = provider.real();
        assert_eq!(report.epochs, DEATH + 1, "nothing is dispatched into the hole");
        assert_eq!(report.aborted, 1);
        assert_eq!(report.mesh_bringups, 1, "nobody dials a peer that will not answer");
    }
}

#[test]
fn stragglers_of_the_previous_session_do_not_perturb_the_next() {
    const EPOCHS: u64 = 40;
    let replayer = Script { replay_stragglers: true, ..Script::default() };
    let (epochs, mut providers) =
        run_cluster(config(EPOCHS), [Role::Real, Role::Real, Role::Scripted(replayer)]);
    let replayer = providers.pop().expect("provider 2").scripted();
    assert_eq!(replayer.mesh_bringups, 1, "every replay went over the one live mesh");
    for provider in providers {
        assert_eq!(provider.real().mesh_bringups, 1);
    }
    assert_eq!(outcome_bytes(&epochs), twin_outcomes(EPOCHS), "session e's frames change no e+1");
}
