//! The write-ahead epoch journal: crash durability for the continuous
//! market, plus the hash-chained settlement log that makes its history
//! auditable offline.
//!
//! # On-disk format
//!
//! The journal is an append-only file of length-prefixed records, framed
//! with the exact same builders the TCP mesh uses
//! ([`dauctioneer_net::wire_encode_into`] / [`dauctioneer_net::wire_decode`]):
//!
//! ```text
//! [len: u32 LE] [record: JournalRecord codec bytes] [crc32(record): u32 LE]
//! ```
//!
//! where `len` covers the record bytes *and* the trailing CRC-32 (IEEE
//! polynomial, implemented in this module — the workspace carries no
//! checksum dependency). A crash can tear the final record at any byte;
//! the CRC plus the length prefix let recovery find the **longest valid
//! prefix** and drop the torn tail, never a phantom record.
//!
//! # Write-ahead discipline and group commit
//!
//! Appending is two steps. **Stage** frames a record and writes it to
//! the file under the append lock; **commit** makes everything staged
//! so far durable per the [`FsyncPolicy`] with one `fdatasync`, issued
//! outside that lock. The scheduler stages each
//! [`JournalRecord::Accepted`] as it folds the bid and commits the batch
//! *before* any of it becomes observable (stats counters, epoch-close
//! triggers); a clearer commits its seal before publishing the outcome.
//! Counted, closed or published ⇒ durable. A journal write failure is
//! fail-stop by design: a durable market must not acknowledge what it
//! cannot journal.
//!
//! # Settlement chain
//!
//! Every cleared epoch is sealed by a [`SealRecord`] whose digest is a
//! [`dauctioneer_crypto::chain_link`] over the seal's content and the
//! previous seal's digest. [`verify_log`] walks the chain offline and
//! names the first seal at which a tampered history diverges.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use dauctioneer_crypto::{Digest, SettlementChain};
use dauctioneer_net::{wire_decode, MAX_WIRE_FRAME};
use dauctioneer_telemetry::Histogram;
use dauctioneer_types::{
    BidVector, Decode, Encode, JournalRecord, Outcome, ProviderAsk, SealRecord, SessionId, UserBid,
    UserId, Writer,
};

/// When staged records are pushed through the page cache to the disk —
/// what [`Journal::commit`] does.
///
/// The policy is the journal's one durability/throughput trade-off knob:
/// `Always` loses nothing on power failure, `EveryN` bounds the loss to
/// the last `n − 1` acknowledged records, `Never` leaves flushing to the
/// OS (a `kill -9` of the process alone still loses nothing — the page
/// cache survives the process — but a machine crash may).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Durable before acknowledged: a commit returns only once an
    /// `fdatasync` covers everything staged before it — one sync per
    /// record for a lone appender, one per *batch* under load. Nothing
    /// acknowledged is ever lost.
    Always,
    /// A commit syncs once `n` or more records are staged but not yet
    /// durable.
    EveryN(u32),
    /// Never sync explicitly; the OS flushes on its own schedule.
    Never,
}

impl FromStr for FsyncPolicy {
    type Err = JournalError;

    fn from_str(s: &str) -> Result<FsyncPolicy, JournalError> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            _ => match s.strip_prefix("every=").and_then(|n| n.parse::<u32>().ok()) {
                Some(n) if n > 0 => Ok(FsyncPolicy::EveryN(n)),
                _ => Err(JournalError::BadFsyncPolicy(s.to_string())),
            },
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::EveryN(n) => write!(f, "every={n}"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// Why a journal could not be created, recovered, or verified.
#[derive(Debug)]
pub enum JournalError {
    /// A filesystem operation failed.
    Io {
        /// The operation that failed.
        op: &'static str,
        /// The journal path.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// `--journal` names an existing file but `--recover` was not given;
    /// refusing to clobber a journal is the safe default.
    AlreadyExists(PathBuf),
    /// An fsync policy string was not `always`, `never`, or `every=N`
    /// with `N ≥ 1`.
    BadFsyncPolicy(String),
    /// The settlement chain diverged: the journal was tampered with.
    Tampered(Divergence),
    /// Strict verification found bytes after the last valid record (a
    /// torn tail — run recovery before verifying, or the file is
    /// corrupt beyond its tail).
    TornTail {
        /// Bytes of valid records.
        valid_bytes: u64,
        /// Trailing bytes that decode to no valid record.
        dropped_bytes: u64,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { op, path, source } => {
                write!(f, "journal {op} failed for {}: {source}", path.display())
            }
            JournalError::AlreadyExists(path) => {
                write!(f, "journal {} already exists; pass --recover to resume it", path.display())
            }
            JournalError::BadFsyncPolicy(s) => {
                write!(f, "fsync policy must be always, never, or every=N (got {s:?})")
            }
            JournalError::Tampered(d) => write!(f, "settlement chain diverged: {d}"),
            JournalError::TornTail { valid_bytes, dropped_bytes } => write!(
                f,
                "torn tail: {dropped_bytes} trailing bytes after {valid_bytes} valid bytes"
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The first point at which a settlement log stops matching the history
/// its chain commits to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Zero-based index of the offending seal in file order.
    pub seal_index: u64,
    /// The epoch the offending seal claims to settle.
    pub epoch: u64,
    /// What failed at that seal.
    pub fault: ChainFault,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seal #{} (epoch {}): {}", self.seal_index, self.epoch, self.fault)
    }
}

/// What a chain walk found wrong at one seal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainFault {
    /// `prev` does not match the digest of the seal before it — a seal
    /// was removed, inserted, or reordered.
    PrevMismatch,
    /// The recorded digest does not match `chain_link(prev, content)` —
    /// the seal's content was modified after sealing.
    DigestMismatch,
    /// The seal's accepted-bid count disagrees with the `Accepted`
    /// records journaled for its epoch.
    CountMismatch {
        /// Accepted bids the seal claims.
        sealed: u64,
        /// `Accepted` records present in the journal.
        journaled: u64,
    },
    /// The seal names a different mechanism than the seals before it: a
    /// journal must never be re-cleared under a different allocation
    /// algorithm, or the "byte-identical replay" guarantee is void.
    MechanismMismatch,
}

impl fmt::Display for ChainFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainFault::PrevMismatch => {
                write!(f, "prev digest does not chain to the preceding seal")
            }
            ChainFault::DigestMismatch => write!(f, "digest does not match the sealed content"),
            ChainFault::CountMismatch { sealed, journaled } => {
                write!(f, "seal claims {sealed} accepted bids but the journal holds {journaled}")
            }
            ChainFault::MechanismMismatch => {
                write!(f, "seal names a different mechanism than the preceding seals")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial), table-driven, no dependency.
// ---------------------------------------------------------------------------

/// The byte-reversed IEEE polynomial used by zlib, PNG, and Ethernet.
const CRC32_POLY: u32 = 0xEDB8_8320;

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ CRC32_POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes` — the per-record corruption check of the
/// journal file. Catches torn writes and random bit rot; *deliberate*
/// tampering is the settlement chain's job.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// Close a record frame in `buf` — a reserved 4-byte length header, then
/// the record bytes: append the CRC over the record and patch the length.
fn close_frame(buf: &mut Writer) {
    let crc = crc32(&buf.as_slice()[4..]);
    buf.put_u32(crc);
    let framed = buf.len() - 4;
    assert!(framed <= MAX_WIRE_FRAME, "journal record too large: {framed} bytes");
    buf.patch_u32(0, framed as u32);
}

// ---------------------------------------------------------------------------
// Scanning (pure — shared by recovery, verification, and the proptests)
// ---------------------------------------------------------------------------

/// The outcome of scanning a journal byte stream: every record of the
/// longest valid prefix, and how much tail was dropped to get there.
#[derive(Debug, Clone)]
pub struct ScanResult {
    /// Records of the longest valid prefix, in file order.
    pub records: Vec<JournalRecord>,
    /// Length of the valid prefix in bytes.
    pub valid_bytes: u64,
    /// Trailing bytes past the valid prefix (0 for a cleanly closed
    /// journal).
    pub dropped_bytes: u64,
}

/// Scan a journal byte stream for its longest valid prefix.
///
/// Stops — without error — at the first truncated frame, oversized
/// length prefix, CRC mismatch, or undecodable record: everything from
/// that point on is a torn tail. This is deliberately infallible; a
/// journal that a crash tore mid-record must recover, not panic.
pub fn scan(bytes: &[u8]) -> ScanResult {
    let mut records = Vec::new();
    let mut offset = 0usize;
    // A decode of `Ok(None)` (truncated mid-header or mid-payload) or
    // `Err` (length prefix past the frame cap — a torn length field)
    // ends the valid prefix: the tail from here on is dropped whole.
    while let Ok(Some((payload, consumed))) = wire_decode(&bytes[offset..]) {
        let Some(body_len) = payload.len().checked_sub(4) else { break };
        let (body, crc_bytes) = payload.split_at(body_len);
        if crc32(body) != u32::from_le_bytes(crc_bytes.try_into().expect("4 crc bytes")) {
            break;
        }
        let Ok(record) = JournalRecord::decode_all(body) else { break };
        records.push(record);
        offset += consumed;
    }
    ScanResult { records, valid_bytes: offset as u64, dropped_bytes: (bytes.len() - offset) as u64 }
}

/// Read and [`scan`] a journal file.
///
/// # Errors
///
/// [`JournalError::Io`] if the file cannot be opened or read. Torn tails
/// are *not* errors — they are reported in the [`ScanResult`].
pub fn read_journal(path: &Path) -> Result<ScanResult, JournalError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|source| JournalError::Io { op: "read", path: path.to_path_buf(), source })?;
    Ok(scan(&bytes))
}

// ---------------------------------------------------------------------------
// Offline verification
// ---------------------------------------------------------------------------

/// What [`verify_log`] certifies about an intact journal.
#[derive(Debug, Clone)]
pub struct VerifySummary {
    /// Total records in the journal.
    pub records: u64,
    /// Sealed epochs on the settlement chain.
    pub seals: u64,
    /// `Accepted` records across all epochs.
    pub accepted: u64,
    /// The mechanism every seal was cleared under (`None` for a journal
    /// with no seals yet). Verification refuses mixed-mechanism logs.
    pub mechanism: Option<String>,
    /// The chain tip after the last seal.
    pub tip: Digest,
}

/// Walk a journal's settlement chain offline and certify it.
///
/// Strict where [`scan`] is lenient: a torn tail, a broken chain link, a
/// modified seal, or a seal whose accepted count disagrees with the
/// journaled `Accepted` records is an error naming the first divergence.
///
/// # Errors
///
/// [`JournalError::Io`] on filesystem failure, [`JournalError::TornTail`]
/// on trailing garbage, [`JournalError::Tampered`] with the first
/// divergent seal on any chain break.
pub fn verify_log(path: &Path) -> Result<VerifySummary, JournalError> {
    let result = read_journal(path)?;
    if result.dropped_bytes > 0 {
        return Err(JournalError::TornTail {
            valid_bytes: result.valid_bytes,
            dropped_bytes: result.dropped_bytes,
        });
    }
    let mut chain = SettlementChain::new();
    let mut accepted_per_epoch: BTreeMap<u64, u64> = BTreeMap::new();
    let mut accepted = 0u64;
    let mut seals = 0u64;
    let mut mechanism: Option<String> = None;
    for record in &result.records {
        match record {
            JournalRecord::Accepted { epoch, .. } => {
                *accepted_per_epoch.entry(*epoch).or_insert(0) += 1;
                accepted += 1;
            }
            JournalRecord::AskSet { .. } => {}
            JournalRecord::Sealed(seal) => {
                let diverged = |fault| {
                    JournalError::Tampered(Divergence {
                        seal_index: seals,
                        epoch: seal.epoch,
                        fault,
                    })
                };
                if &seal.prev != chain.tip().as_bytes() {
                    return Err(diverged(ChainFault::PrevMismatch));
                }
                let digest = chain.extend(&seal.content_bytes());
                if &seal.digest != digest.as_bytes() {
                    return Err(diverged(ChainFault::DigestMismatch));
                }
                let journaled = accepted_per_epoch.get(&seal.epoch).copied().unwrap_or(0);
                if seal.accepted != journaled {
                    return Err(diverged(ChainFault::CountMismatch {
                        sealed: seal.accepted,
                        journaled,
                    }));
                }
                match &mechanism {
                    None => mechanism = Some(seal.mechanism.clone()),
                    Some(m) if *m != seal.mechanism => {
                        return Err(diverged(ChainFault::MechanismMismatch))
                    }
                    Some(_) => {}
                }
                seals += 1;
            }
        }
    }
    Ok(VerifySummary {
        records: result.records.len() as u64,
        seals,
        accepted,
        mechanism,
        tip: chain.tip(),
    })
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// An epoch the journal holds records for but no seal — it was open (or
/// closed but not yet cleared) when the process died, and recovery must
/// re-clear it deterministically.
#[derive(Debug, Clone)]
pub struct InFlightEpoch {
    /// The epoch index.
    pub epoch: u64,
    /// Accepted bids, in acceptance order.
    pub bids: Vec<(UserId, UserBid)>,
    /// Streamed asks, in application order (last write per slot wins).
    pub asks: Vec<(u64, ProviderAsk)>,
}

/// Everything recovery learned from the journal, before any re-clearing.
#[derive(Debug, Clone)]
pub struct RecoveredLog {
    /// Seals already on the settlement chain, in chain order.
    pub sealed: Vec<SealRecord>,
    /// Epochs with accepted bids but no seal, in epoch order; the
    /// resumed service re-clears each with its original session and
    /// seed.
    pub in_flight: Vec<InFlightEpoch>,
    /// Streamed asks of a trailing zero-bid epoch: nothing to re-clear
    /// (no bid was accepted), but the asks must pre-populate the resumed
    /// scheduler's first collector, which reuses that epoch's index.
    pub pending_asks: Vec<(u64, ProviderAsk)>,
    /// The epoch index the resumed scheduler starts at.
    pub next_epoch: u64,
    /// The mechanism the sealed history was cleared under (`None` when
    /// no epoch was sealed yet). The resumed service must refuse to
    /// re-clear under a *different* mechanism — replays would no longer
    /// be byte-identical to the crashed process's outcomes.
    pub mechanism: Option<String>,
    /// Torn-tail bytes dropped (and truncated from the file) to reach
    /// the longest valid prefix.
    pub dropped_bytes: u64,
}

/// The append half of the journal: one file, one settlement chain, one
/// fsync policy, shared by the scheduler (accepted bids, asks) and the
/// per-shard clearers (seals). Staging serializes on the append lock —
/// the lock order *is* the file and chain order — while the fsync of a
/// commit runs outside it, so records keep being staged while a sync is
/// in flight.
#[derive(Debug)]
pub struct Journal {
    file: File,
    inner: Mutex<JournalInner>,
    /// Records staged so far. Stored (`Release`) under the append lock
    /// once the record's `write_all` has returned; a committer loads it
    /// (`Acquire`) *before* its fsync, so every record up to the value
    /// it read is in the page cache that fsync flushes.
    appended: AtomicU64,
    commit: Mutex<CommitState>,
    synced: Condvar,
    policy: FsyncPolicy,
    path: PathBuf,
    bytes_written: AtomicU64,
    fsyncs: AtomicU64,
    fsync_nanos: AtomicU64,
    fsync_nanos_max: AtomicU64,
    commit_records: Histogram,
}

#[derive(Debug)]
struct JournalInner {
    /// Warm scratch for frame assembly; one `write_all` per record.
    buf: Writer,
    chain: SettlementChain,
}

#[derive(Debug)]
struct CommitState {
    /// Records `[1, durable]` are covered by a completed fsync.
    durable: u64,
    /// One thread is inside `fdatasync`; later committers wait for it
    /// and sync again only if it did not cover them.
    syncing: bool,
}

impl Journal {
    /// Create a fresh journal at `path`.
    ///
    /// # Errors
    ///
    /// [`JournalError::AlreadyExists`] if the path already holds a file
    /// (recover it instead of silently clobbering history);
    /// [`JournalError::Io`] on filesystem failure.
    pub fn create(path: &Path, policy: FsyncPolicy) -> Result<Journal, JournalError> {
        let file = match OpenOptions::new().write(true).create_new(true).open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                return Err(JournalError::AlreadyExists(path.to_path_buf()))
            }
            Err(source) => {
                return Err(JournalError::Io { op: "create", path: path.to_path_buf(), source })
            }
        };
        Ok(Journal::from_parts(path, file, SettlementChain::new(), policy))
    }

    /// Recover the journal at `path`: find the longest valid prefix,
    /// truncate the torn tail away, verify and resume the settlement
    /// chain, and classify every unsealed epoch for re-clearing.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failure and
    /// [`JournalError::Tampered`] if the surviving prefix fails chain
    /// verification — a torn *tail* is expected crash damage, a broken
    /// *chain* is tampering, and recovery must not resume a forged
    /// history.
    pub fn recover(
        path: &Path,
        policy: FsyncPolicy,
    ) -> Result<(Journal, RecoveredLog), JournalError> {
        let result = read_journal(path)?;

        // Verify the surviving prefix before trusting it. The chain walk
        // below re-derives every digest, so a recovered-then-reverified
        // journal is accepted by construction.
        let mut chain = SettlementChain::new();
        let mut sealed = Vec::new();
        let mut drafts: BTreeMap<u64, InFlightEpoch> = BTreeMap::new();
        let mut max_epoch: Option<u64> = None;
        let mut mechanism: Option<String> = None;
        for record in &result.records {
            match record {
                JournalRecord::Accepted { epoch, user, bid } => {
                    max_epoch = Some(max_epoch.map_or(*epoch, |m| m.max(*epoch)));
                    drafts
                        .entry(*epoch)
                        .or_insert_with(|| InFlightEpoch {
                            epoch: *epoch,
                            bids: Vec::new(),
                            asks: Vec::new(),
                        })
                        .bids
                        .push((*user, *bid));
                }
                JournalRecord::AskSet { epoch, slot, ask } => {
                    max_epoch = Some(max_epoch.map_or(*epoch, |m| m.max(*epoch)));
                    drafts
                        .entry(*epoch)
                        .or_insert_with(|| InFlightEpoch {
                            epoch: *epoch,
                            bids: Vec::new(),
                            asks: Vec::new(),
                        })
                        .asks
                        .push((*slot, *ask));
                }
                JournalRecord::Sealed(seal) => {
                    max_epoch = Some(max_epoch.map_or(seal.epoch, |m| m.max(seal.epoch)));
                    let diverged = |fault| {
                        JournalError::Tampered(Divergence {
                            seal_index: sealed.len() as u64,
                            epoch: seal.epoch,
                            fault,
                        })
                    };
                    if &seal.prev != chain.tip().as_bytes() {
                        return Err(diverged(ChainFault::PrevMismatch));
                    }
                    let digest = chain.extend(&seal.content_bytes());
                    if &seal.digest != digest.as_bytes() {
                        return Err(diverged(ChainFault::DigestMismatch));
                    }
                    match &mechanism {
                        None => mechanism = Some(seal.mechanism.clone()),
                        Some(m) if *m != seal.mechanism => {
                            return Err(diverged(ChainFault::MechanismMismatch))
                        }
                        Some(_) => {}
                    }
                    drafts.remove(&seal.epoch);
                    sealed.push(SealRecord::clone(seal));
                }
            }
        }

        // A trailing draft with no accepted bid was the open collector:
        // nothing to re-clear, but its asks (and its epoch index) carry
        // over into the resumed scheduler. Any other zero-bid draft can
        // only arise from a torn tail that ate the bids; re-clearing
        // nothing for it is exactly "the longest valid prefix".
        let mut pending_asks = Vec::new();
        let mut next_epoch = max_epoch.map_or(0, |m| m + 1);
        if let Some((&last, draft)) = drafts.iter().next_back() {
            if draft.bids.is_empty() && Some(last) == max_epoch {
                pending_asks = draft.asks.clone();
                next_epoch = last;
                drafts.remove(&last);
            }
        }
        let in_flight: Vec<InFlightEpoch> =
            drafts.into_values().filter(|d| !d.bids.is_empty()).collect();

        // Truncate the torn tail so the file *is* its valid prefix, then
        // append from there — `verify_log` accepts every recovered
        // journal because recovery leaves nothing it would reject.
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|source| JournalError::Io { op: "open", path: path.to_path_buf(), source })?;
        file.set_len(result.valid_bytes)
            .and_then(|()| file.seek(SeekFrom::End(0)).map(|_| ()))
            .map_err(|source| JournalError::Io {
                op: "truncate",
                path: path.to_path_buf(),
                source,
            })?;

        let journal = Journal::from_parts(path, file, chain, policy);
        journal.bytes_written.store(result.valid_bytes, Ordering::Relaxed);
        let log = RecoveredLog {
            sealed,
            in_flight,
            pending_asks,
            next_epoch,
            mechanism,
            dropped_bytes: result.dropped_bytes,
        };
        Ok((journal, log))
    }

    fn from_parts(path: &Path, file: File, chain: SettlementChain, policy: FsyncPolicy) -> Journal {
        Journal {
            file,
            inner: Mutex::new(JournalInner { buf: Writer::with_capacity(4096), chain }),
            appended: AtomicU64::new(0),
            commit: Mutex::new(CommitState { durable: 0, syncing: false }),
            synced: Condvar::new(),
            policy,
            path: path.to_path_buf(),
            bytes_written: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            fsync_nanos: AtomicU64::new(0),
            fsync_nanos_max: AtomicU64::new(0),
            commit_records: Histogram::new(),
        }
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stage an accepted bid: written, not yet durable — nothing may
    /// observe the acceptance until a later [`Journal::commit`] returns.
    /// Returns the record's sequence number (1-based, in file order,
    /// counted from this process's first append).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the write fails; the caller must treat
    /// that as fail-stop, not as a recoverable verdict.
    pub fn stage_accepted(
        &self,
        epoch: u64,
        user: UserId,
        bid: UserBid,
    ) -> Result<u64, JournalError> {
        self.stage(&JournalRecord::Accepted { epoch, user, bid })
    }

    /// Stage a streamed ask applied to the open epoch.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] as for [`Journal::stage_accepted`].
    pub fn stage_ask(&self, epoch: u64, slot: u64, ask: ProviderAsk) -> Result<u64, JournalError> {
        self.stage(&JournalRecord::AskSet { epoch, slot, ask })
    }

    /// Stage an accepted bid and commit it — the write-ahead half of the
    /// ack for a caller with nothing to batch (one fsync under `Always`).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] as for [`Journal::stage_accepted`].
    pub fn append_accepted(
        &self,
        epoch: u64,
        user: UserId,
        bid: UserBid,
    ) -> Result<(), JournalError> {
        self.stage_accepted(epoch, user, bid)?;
        self.commit()
    }

    /// Stage a streamed ask and commit it.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] as for [`Journal::stage_accepted`].
    pub fn append_ask(&self, epoch: u64, slot: u64, ask: ProviderAsk) -> Result<(), JournalError> {
        self.stage_ask(epoch, slot, ask)?;
        self.commit()
    }

    /// [`Journal::stage_seal`], then [`Journal::commit`].
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] as for [`Journal::stage_accepted`].
    #[allow(clippy::too_many_arguments)] // the seal's content fields, in seal order
    pub fn append_seal(
        &self,
        epoch: u64,
        session: SessionId,
        seed: u64,
        accepted: u64,
        bids: BidVector,
        mechanism: &str,
        outcome: Outcome,
    ) -> Result<SealRecord, JournalError> {
        let seal = self.stage_seal(epoch, session, seed, accepted, bids, mechanism, outcome)?;
        self.commit()?;
        Ok(seal)
    }

    /// Seal a cleared epoch onto the settlement chain and stage the
    /// seal. The chain digest is computed under the append lock, so
    /// concurrent clearers serialize and the chain order is the file
    /// order. `mechanism` is the name of the allocation program that
    /// cleared the epoch — signed content, so a journal cannot silently
    /// change mechanism mid-history. The outcome may be published only
    /// after a [`Journal::commit`] that follows returns.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] as for [`Journal::stage_accepted`].
    #[allow(clippy::too_many_arguments)] // the seal's content fields, in seal order
    pub fn stage_seal(
        &self,
        epoch: u64,
        session: SessionId,
        seed: u64,
        accepted: u64,
        bids: BidVector,
        mechanism: &str,
        outcome: Outcome,
    ) -> Result<SealRecord, JournalError> {
        let mut seal = SealRecord {
            epoch,
            session,
            seed,
            accepted,
            bids,
            mechanism: mechanism.to_string(),
            outcome,
            prev: [0u8; 32],
            digest: [0u8; 32],
        };
        // The content does not depend on the chain position: encode it
        // once, before taking the lock every ingress append also takes.
        let mut buf = Writer::new();
        buf.put_u32(0);
        buf.put_u8(JournalRecord::SEALED_TAG);
        let content_at = buf.len();
        seal.encode_content(&mut buf);
        let mut inner = self.inner.lock().expect("journal lock");
        seal.prev = *inner.chain.tip().as_bytes();
        seal.digest = *inner.chain.extend(&buf.as_slice()[content_at..]).as_bytes();
        buf.put_slice(&seal.prev);
        buf.put_slice(&seal.digest);
        self.append_frame(&mut buf)?;
        Ok(seal)
    }

    /// Make everything staged so far durable per the policy. Under
    /// `Always` this returns once an `fdatasync` covers every record
    /// staged before the call — this thread's, or one another committer
    /// already had in flight.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the sync fails (fail-stop for the caller).
    pub fn commit(&self) -> Result<(), JournalError> {
        match self.policy {
            FsyncPolicy::Always => self.make_durable(1),
            FsyncPolicy::EveryN(n) => self.make_durable(u64::from(n)),
            FsyncPolicy::Never => Ok(()),
        }
    }

    /// Sync whatever is staged but not yet durable, regardless of policy
    /// (drain-then-shutdown's last act: nothing acknowledged may sit
    /// only in the page cache when the process exits on purpose).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the sync fails.
    pub fn sync(&self) -> Result<(), JournalError> {
        self.make_durable(1)
    }

    /// Records (by sequence number) covered by a completed fsync.
    pub fn records_durable(&self) -> u64 {
        self.commit.lock().expect("journal commit lock").durable
    }

    /// Records covered per fsync, live (the clone shares the cells).
    pub fn commit_records_histogram(&self) -> Histogram {
        self.commit_records.clone()
    }

    /// Total bytes appended (including a recovered valid prefix).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Explicit fsyncs performed so far.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Mean fsync latency (zero before the first sync).
    pub fn fsync_mean(&self) -> Duration {
        let n = self.fsyncs.load(Ordering::Relaxed);
        if n == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.fsync_nanos.load(Ordering::Relaxed) / n)
    }

    /// Worst fsync latency observed.
    pub fn fsync_max(&self) -> Duration {
        Duration::from_nanos(self.fsync_nanos_max.load(Ordering::Relaxed))
    }

    /// The settlement chain tip (genesis until the first seal).
    pub fn chain_tip(&self) -> Digest {
        self.inner.lock().expect("journal lock").chain.tip()
    }

    fn stage(&self, record: &JournalRecord) -> Result<u64, JournalError> {
        let mut inner = self.inner.lock().expect("journal lock");
        self.stage_locked(&mut inner, record)
    }

    /// Frame `record` in the warm scratch and append it.
    fn stage_locked(
        &self,
        inner: &mut JournalInner,
        record: &JournalRecord,
    ) -> Result<u64, JournalError> {
        let buf = &mut inner.buf;
        buf.clear();
        buf.put_u32(0);
        record.encode(buf);
        self.append_frame(buf)
    }

    /// [Close the frame](close_frame) in `buf` and append it with one
    /// `write_all`. The caller holds the append lock. No sync:
    /// durability is [`Journal::commit`]'s job.
    fn append_frame(&self, buf: &mut Writer) -> Result<u64, JournalError> {
        close_frame(buf);
        (&self.file).write_all(buf.as_slice()).map_err(|source| JournalError::Io {
            op: "append",
            path: self.path.clone(),
            source,
        })?;
        self.bytes_written.fetch_add(buf.len() as u64, Ordering::Relaxed);
        let seq = self.appended.load(Ordering::Relaxed) + 1;
        self.appended.store(seq, Ordering::Release);
        Ok(seq)
    }

    /// Return once fewer than `min_lag` of the records staged before the
    /// call are not yet durable, syncing if no fsync already in flight
    /// gets there first. At most one thread is inside `fdatasync` at a
    /// time, and never under the append lock.
    fn make_durable(&self, min_lag: u64) -> Result<(), JournalError> {
        let target = self.appended.load(Ordering::Acquire);
        let mut state = self.commit.lock().expect("journal commit lock");
        loop {
            if target.saturating_sub(state.durable) < min_lag {
                return Ok(());
            }
            if !state.syncing {
                break;
            }
            state = self.synced.wait(state).expect("journal commit lock");
        }
        state.syncing = true;
        drop(state);
        // Read before the sync: everything up to `covered` is written.
        let covered = self.appended.load(Ordering::Acquire);
        let started = Instant::now();
        let result = self.file.sync_data();
        let nanos = started.elapsed().as_nanos() as u64;
        let mut state = self.commit.lock().expect("journal commit lock");
        state.syncing = false;
        self.synced.notify_all();
        result.map_err(|source| JournalError::Io {
            op: "sync",
            path: self.path.clone(),
            source,
        })?;
        self.commit_records.observe(covered - state.durable);
        state.durable = covered;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.fsync_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.fsync_nanos_max.fetch_max(nanos, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dauctioneer_types::{Bw, Money};

    fn bid(v: f64) -> UserBid {
        UserBid::new(Money::from_f64(v), Bw::from_f64(0.5))
    }

    fn ask() -> ProviderAsk {
        ProviderAsk::new(Money::from_f64(0.2), Bw::from_f64(2.0))
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dauction-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn crc32_known_vectors() {
        // The canonical CRC-32/IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn fsync_policy_parses_and_displays() {
        assert_eq!("always".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Always);
        assert_eq!("never".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Never);
        assert_eq!("every=8".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::EveryN(8));
        for bad in ["", "sometimes", "every=0", "every=x"] {
            assert!(bad.parse::<FsyncPolicy>().is_err(), "{bad:?}");
        }
        assert_eq!(FsyncPolicy::EveryN(8).to_string(), "every=8");
    }

    #[test]
    fn append_scan_roundtrip_and_torn_tail() {
        let path = temp_path("roundtrip");
        let journal = Journal::create(&path, FsyncPolicy::Never).unwrap();
        journal.append_accepted(0, UserId(1), bid(1.1)).unwrap();
        journal.append_ask(0, 0, ask()).unwrap();
        journal.append_accepted(0, UserId(2), bid(0.9)).unwrap();
        drop(journal);

        let full = std::fs::read(&path).unwrap();
        let result = scan(&full);
        assert_eq!(result.records.len(), 3);
        assert_eq!(result.dropped_bytes, 0);
        assert_eq!(result.valid_bytes, full.len() as u64);

        // Any truncation yields a (possibly shorter) valid prefix, never
        // a panic or a phantom record.
        for cut in 0..full.len() {
            let torn = scan(&full[..cut]);
            assert!(torn.records.len() <= 3);
            assert_eq!(torn.valid_bytes + torn.dropped_bytes, cut as u64);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stage_seal_writes_the_generic_framing_of_its_record() {
        let path = temp_path("seal-framing");
        let journal = Journal::create(&path, FsyncPolicy::Never).unwrap();
        let mut want = Vec::new();
        for epoch in 0..2 {
            let bids =
                BidVector::builder(1, 1).user_bid(0, bid(1.2)).provider_ask(0, ask()).build();
            let seal = journal
                .append_seal(epoch, SessionId(100 + epoch), 7919, 1, bids, "double", Outcome::Abort)
                .unwrap();
            let mut buf = Writer::new();
            buf.put_u32(0);
            JournalRecord::Sealed(Box::new(seal)).encode(&mut buf);
            close_frame(&mut buf);
            want.extend_from_slice(buf.as_slice());
        }
        drop(journal);
        assert_eq!(std::fs::read(&path).unwrap(), want);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_refuses_to_clobber() {
        let path = temp_path("clobber");
        let _journal = Journal::create(&path, FsyncPolicy::Never).unwrap();
        assert!(matches!(
            Journal::create(&path, FsyncPolicy::Never),
            Err(JournalError::AlreadyExists(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recovery_truncates_torn_tail_and_resumes_chain() {
        let path = temp_path("recover");
        let journal = Journal::create(&path, FsyncPolicy::Always).unwrap();
        journal.append_accepted(0, UserId(0), bid(1.2)).unwrap();
        let seal = journal
            .append_seal(
                0,
                SessionId(100),
                7919,
                1,
                BidVector::builder(1, 0).user_bid(0, bid(1.2)).build(),
                "double-auction",
                Outcome::Abort,
            )
            .unwrap();
        journal.append_accepted(1, UserId(1), bid(0.8)).unwrap();
        drop(journal);

        // Tear the tail mid-record.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();

        let (recovered, log) = Journal::recover(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(log.sealed, vec![seal.clone()]);
        assert!(log.in_flight.is_empty(), "the torn accepted record is gone");
        assert_eq!(log.next_epoch, 1);
        assert!(log.dropped_bytes > 0);
        assert_eq!(recovered.chain_tip().as_bytes(), &seal.digest);
        // The file now *is* the valid prefix: verification accepts it.
        drop(recovered);
        let summary = verify_log(&path).unwrap();
        assert_eq!(summary.seals, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recovery_classifies_in_flight_and_pending() {
        let path = temp_path("inflight");
        let journal = Journal::create(&path, FsyncPolicy::Never).unwrap();
        journal.append_accepted(0, UserId(0), bid(1.0)).unwrap();
        journal.append_accepted(0, UserId(1), bid(1.1)).unwrap();
        journal.append_ask(1, 0, ask()).unwrap();
        drop(journal);

        let (_journal, log) = Journal::recover(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(log.sealed.len(), 0);
        assert_eq!(log.in_flight.len(), 1);
        assert_eq!(log.in_flight[0].epoch, 0);
        assert_eq!(log.in_flight[0].bids.len(), 2);
        assert_eq!(log.pending_asks, vec![(0, ask())]);
        assert_eq!(log.next_epoch, 1, "the zero-bid trailing epoch keeps its index");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tampered_seal_is_localized_by_the_chain() {
        let path = temp_path("tamper");
        let journal = Journal::create(&path, FsyncPolicy::Never).unwrap();
        for epoch in 0..3u64 {
            journal.append_accepted(epoch, UserId(0), bid(1.0)).unwrap();
            journal
                .append_seal(
                    epoch,
                    SessionId(100 + epoch),
                    epoch,
                    1,
                    BidVector::builder(1, 0).user_bid(0, bid(1.0)).build(),
                    "double-auction",
                    Outcome::Abort,
                )
                .unwrap();
        }
        drop(journal);
        assert_eq!(verify_log(&path).unwrap().seals, 3);

        // Flip one bit inside seal #1's seed field and re-fix the CRC so
        // only the *chain* can catch it.
        let bytes = std::fs::read(&path).unwrap();
        let result = scan(&bytes);
        let mut records = result.records;
        let JournalRecord::Sealed(seal) = &mut records[3] else { panic!("expected seal") };
        assert_eq!(seal.epoch, 1);
        seal.seed ^= 1;
        let path2 = temp_path("tamper-rewritten");
        let rewritten = Journal::create(&path2, FsyncPolicy::Never).unwrap();
        for record in &records {
            rewritten.stage(record).unwrap();
        }
        drop(rewritten);

        match verify_log(&path2) {
            Err(JournalError::Tampered(d)) => {
                assert_eq!(d.seal_index, 1);
                assert_eq!(d.epoch, 1);
                assert_eq!(d.fault, ChainFault::DigestMismatch);
            }
            other => panic!("expected divergence at seal 1, got {other:?}"),
        }
        // Recovery refuses a forged history outright.
        assert!(matches!(
            Journal::recover(&path2, FsyncPolicy::Never),
            Err(JournalError::Tampered(_))
        ));
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&path2).unwrap();
    }

    #[test]
    fn mixed_mechanism_journals_are_refused() {
        // A journal whose seals name different mechanisms is not a valid
        // history — neither verification nor recovery may accept it,
        // even though every individual chain link is intact.
        let path = temp_path("mixed-mechanism");
        let journal = Journal::create(&path, FsyncPolicy::Never).unwrap();
        for (epoch, mechanism) in [(0u64, "double-auction"), (1u64, "combinatorial-auction")] {
            journal.append_accepted(epoch, UserId(0), bid(1.0)).unwrap();
            journal
                .append_seal(
                    epoch,
                    SessionId(100 + epoch),
                    epoch,
                    1,
                    BidVector::builder(1, 0).user_bid(0, bid(1.0)).build(),
                    mechanism,
                    Outcome::Abort,
                )
                .unwrap();
        }
        drop(journal);

        match verify_log(&path) {
            Err(JournalError::Tampered(d)) => {
                assert_eq!(d.seal_index, 1);
                assert_eq!(d.fault, ChainFault::MechanismMismatch);
            }
            other => panic!("expected mechanism mismatch at seal 1, got {other:?}"),
        }
        assert!(matches!(
            Journal::recover(&path, FsyncPolicy::Never),
            Err(JournalError::Tampered(Divergence { fault: ChainFault::MechanismMismatch, .. }))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn consistent_mechanism_is_certified_and_recovered() {
        let path = temp_path("mechanism-consistent");
        let journal = Journal::create(&path, FsyncPolicy::Never).unwrap();
        for epoch in 0..2u64 {
            journal.append_accepted(epoch, UserId(0), bid(1.0)).unwrap();
            journal
                .append_seal(
                    epoch,
                    SessionId(epoch),
                    epoch,
                    1,
                    BidVector::builder(1, 0).user_bid(0, bid(1.0)).build(),
                    "divisible-auction",
                    Outcome::Abort,
                )
                .unwrap();
        }
        drop(journal);
        let summary = verify_log(&path).unwrap();
        assert_eq!(summary.mechanism.as_deref(), Some("divisible-auction"));
        let (_journal, log) = Journal::recover(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(log.mechanism.as_deref(), Some("divisible-auction"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_n_policy_batches_syncs() {
        let path = temp_path("everyn");
        let journal = Journal::create(&path, FsyncPolicy::EveryN(3)).unwrap();
        for i in 0..7u32 {
            journal.append_accepted(0, UserId(i), bid(1.0)).unwrap();
        }
        assert_eq!(journal.fsyncs(), 2, "7 records at every=3 → 2 syncs");
        journal.sync().unwrap();
        assert_eq!(journal.fsyncs(), 3);
        assert!(journal.bytes_written() > 0);
        std::fs::remove_file(&path).unwrap();
    }
}
