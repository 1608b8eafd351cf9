//! Tag framing: multiplexing protocol channels over one link.
//!
//! The distributed auctioneer runs many building-block instances at once
//! (one consensus instance per bid chunk, coin rounds, data transfers…).
//! Each message is framed with a `u64` channel tag so the receiving router
//! can dispatch it; the protocol layer defines the tag namespace.
//!
//! Two layers live here:
//!
//! * the **session/channel frame** ([`frame`] / [`unframe`]) — an 8-byte
//!   little-endian tag prefix, used on every transport;
//! * the **wire frame** ([`wire_encode`] / [`wire_decode`]) — a 4-byte
//!   little-endian length prefix delimiting messages on byte-stream
//!   transports (TCP), where message boundaries are not preserved by the
//!   medium. In-process channel transports deliver whole messages and
//!   skip this layer.
//!
//! # The multiplexed tag namespace
//!
//! The single-connection TCP mesh ([`MuxMesh`][crate::tcp::MuxMesh])
//! carries **every shard's** traffic over one socket per provider pair,
//! so the wire needs to say which logical lane (= shard) a frame belongs
//! to. Rather than growing the wire format, the lane is **folded into
//! the u64 tag slot that already heads every payload**: an engine
//! payload is `[session:u64][inner…]`, and the mux wire frame replaces
//! that leading session tag with [`mux_pack`]`(lane, session)` — the
//! lane in the top [`MUX_LANE_BITS`] bits, the session in the low
//! [`MUX_SESSION_BITS`]. The receiver [`mux_unpack`]s it, routes by
//! lane, and restores the original `[session][inner…]` payload, so the
//! layers above (session routing in the engine, channel tags nested
//! inside) are byte-identical to the in-process transport and the
//! whole `(shard, session, channel)` triple stays injective on the wire.
//!
//! Payloads that are *not* well-formed session frames (shorter than a
//! tag, or with a leading u64 too large to fold) travel under the
//! reserved [`MUX_RAW_TAG`] session slot and are delivered verbatim —
//! garbage injected by adversaries crosses the mux unchanged instead of
//! being mangled or dropped by the framing layer.
//!
//! The hot-path builders ([`wire_encode_into`] / [`frame_wire_into`] /
//! [`mux_frame_into`]) append into a caller-owned, reused [`BytesMut`]:
//! one reserved-header build per frame, no intermediate allocation — the
//! coalescing socket writers drain a whole queue into one warm buffer
//! and issue a single `write_all`.

use bytes::{BufMut, Bytes, BytesMut};
use std::error::Error;
use std::fmt;

/// Error unframing a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    len: usize,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "message too short for frame header: {} bytes", self.len)
    }
}

impl Error for FrameError {}

/// Prefix `payload` with the little-endian channel `tag`.
///
/// # Example
///
/// ```
/// use dauctioneer_net::{frame, unframe};
/// let msg = frame(7, b"data");
/// let (tag, payload) = unframe(&msg)?;
/// assert_eq!(tag, 7);
/// assert_eq!(payload, b"data");
/// # Ok::<(), dauctioneer_net::FrameError>(())
/// ```
pub fn frame(tag: u64, payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(8 + payload.len());
    buf.put_u64_le(tag);
    buf.put_slice(payload);
    buf.freeze()
}

/// Split a framed message into its channel tag and payload.
///
/// # Errors
///
/// Fails if the message is shorter than the 8-byte tag header.
pub fn unframe(message: &[u8]) -> Result<(u64, &[u8]), FrameError> {
    if message.len() < 8 {
        return Err(FrameError { len: message.len() });
    }
    let tag = u64::from_le_bytes(message[..8].try_into().unwrap());
    Ok((tag, &message[8..]))
}

/// Largest payload a wire frame may carry, in bytes.
///
/// Protocol messages are a few hundred bytes (fixed-width bid streams,
/// commitments, digests); anything approaching this bound is a corrupt or
/// hostile length header, and readers drop the connection rather than
/// allocate what it claims.
pub const MAX_WIRE_FRAME: usize = 16 * 1024 * 1024;

/// Error decoding a wire frame from a byte stream, or bringing the
/// stream's connection up in the first place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The length header claims more than [`MAX_WIRE_FRAME`] bytes — the
    /// stream is corrupt (or hostile) and must be torn down.
    Oversized {
        /// The claimed payload length.
        claimed: usize,
    },
    /// Mesh bring-up exhausted its total readiness budget with peer
    /// connections still outstanding: the named peers never connected,
    /// never finished their hello, or kept refusing dials. Reported once
    /// at the deadline instead of silent per-peer retries.
    BringUpExpired {
        /// Identity of each peer connection still missing when the
        /// budget expired, as `"provider <id> @ <addr>"` — so an
        /// operator (or the cluster supervisor) can tell *which* peer
        /// never arrived, not just how many.
        missing: Vec<String>,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Oversized { claimed } => {
                write!(f, "wire frame claims {claimed} bytes (max {MAX_WIRE_FRAME})")
            }
            WireError::BringUpExpired { missing } => {
                write!(
                    f,
                    "mesh bring-up budget expired with {} peer connection(s) outstanding: {}",
                    missing.len(),
                    missing.join(", ")
                )
            }
        }
    }
}

impl Error for WireError {}

/// Delimit `payload` for a byte-stream transport: a little-endian `u32`
/// length header followed by the payload bytes.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_WIRE_FRAME`] — protocol messages are
/// orders of magnitude smaller, so this is a local programming error.
pub fn wire_encode(payload: &[u8]) -> Bytes {
    assert!(payload.len() <= MAX_WIRE_FRAME, "wire frame too large: {} bytes", payload.len());
    let mut buf = BytesMut::with_capacity(4 + payload.len());
    buf.put_u32_le(payload.len() as u32);
    buf.put_slice(payload);
    buf.freeze()
}

/// Try to split one wire frame off the front of `stream`.
///
/// Returns `Ok(Some((payload, consumed)))` when a complete frame is
/// available (`consumed` bytes of `stream` were used), `Ok(None)` when the
/// stream is truncated mid-header or mid-payload and more bytes are
/// needed.
///
/// # Errors
///
/// [`WireError::Oversized`] when the header claims more than
/// [`MAX_WIRE_FRAME`] bytes; the connection carrying the stream must be
/// dropped, since resynchronising a byte stream after a corrupt length is
/// impossible.
pub fn wire_decode(stream: &[u8]) -> Result<Option<(&[u8], usize)>, WireError> {
    if stream.len() < 4 {
        return Ok(None);
    }
    let claimed = u32::from_le_bytes(stream[..4].try_into().unwrap()) as usize;
    if claimed > MAX_WIRE_FRAME {
        return Err(WireError::Oversized { claimed });
    }
    if stream.len() < 4 + claimed {
        return Ok(None);
    }
    Ok(Some((&stream[4..4 + claimed], 4 + claimed)))
}

/// [`wire_encode`] into a caller-owned buffer: append the length header
/// and payload to `buf` without any intermediate allocation. This is the
/// coalescing writers' hot path — many frames accumulate in one warm
/// [`BytesMut`] and leave in a single `write_all`.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_WIRE_FRAME`].
pub fn wire_encode_into(payload: &[u8], buf: &mut BytesMut) {
    assert!(payload.len() <= MAX_WIRE_FRAME, "wire frame too large: {} bytes", payload.len());
    buf.reserve(4 + payload.len());
    buf.put_u32_le(payload.len() as u32);
    buf.put_slice(payload);
}

/// Build a tagged wire frame `[len:u32][tag:u64][payload…]` into a
/// caller-owned buffer: the length header and the u64 tag are written as
/// **one** reserved-header build, merging what used to be two layers
/// (`frame` then `wire_encode`) — two allocations and a copy — into a
/// single append.
///
/// The resulting bytes decode with [`wire_decode`] (yielding
/// `[tag][payload]`) followed by [`unframe`].
///
/// # Panics
///
/// Panics if `8 + payload.len()` exceeds [`MAX_WIRE_FRAME`].
pub fn frame_wire_into(tag: u64, payload: &[u8], buf: &mut BytesMut) {
    let total = 8 + payload.len();
    assert!(total <= MAX_WIRE_FRAME, "wire frame too large: {total} bytes");
    buf.reserve(4 + total);
    buf.put_u32_le(total as u32);
    buf.put_u64_le(tag);
    buf.put_slice(payload);
}

/// Incremental wire-frame reassembly for nonblocking byte streams.
///
/// Under a blocking reader, frames could be split off a private buffer
/// in one loop; under the reactor's nonblocking reads, bytes arrive in
/// chunks cut at **arbitrary** boundaries — mid-header, mid-payload, one
/// byte at a time — and each connection owns one `FrameAssembler` that
/// accumulates them and yields every complete frame exactly once, in
/// order. The chunking is invisible: the delivered frame sequence is
/// byte-identical to feeding the whole stream at once (the proptest
/// suite drives this with adversarial chunkings).
///
/// Internally a single reused buffer with a consumed-prefix cursor:
/// frames are split off without shifting bytes, and the buffer is
/// compacted only when the parser runs dry, so steady-state reassembly
/// costs one copy per inbound byte.
///
/// # Example
///
/// ```
/// use dauctioneer_net::{wire_encode, FrameAssembler};
///
/// let wire = wire_encode(b"split me");
/// let mut assembler = FrameAssembler::new();
/// assembler.extend(&wire[..3]); // mid-header
/// assert!(assembler.next_frame().unwrap().is_none());
/// assembler.extend(&wire[3..]);
/// let frame = assembler.next_frame().unwrap().expect("complete");
/// assert_eq!(&frame[..], b"split me");
/// ```
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    start: usize,
}

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// Append a chunk of stream bytes (any length, any boundary).
    pub fn extend(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Split the next complete wire frame off the accumulated bytes.
    ///
    /// Returns `Ok(None)` when the stream is truncated mid-header or
    /// mid-payload — call [`extend`](FrameAssembler::extend) with more
    /// bytes and try again.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversized`] on a corrupt or hostile length header;
    /// the connection must be torn down (resynchronising a byte stream
    /// past a bad length is impossible), so the assembler's state is
    /// irrelevant afterwards.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, WireError> {
        Ok(self.next_frame_ref()?.map(Bytes::copy_from_slice))
    }

    /// [`next_frame`](FrameAssembler::next_frame) without the copy into
    /// an owned [`Bytes`]: the payload is borrowed straight out of the
    /// internal buffer. The reactor's mux read path uses this — the lane
    /// demultiplexer makes its own owned copy anyway, so borrowing here
    /// keeps inbound reassembly at one copy per byte, matching the old
    /// blocking reader.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversized`], exactly as
    /// [`next_frame`](FrameAssembler::next_frame).
    pub fn next_frame_ref(&mut self) -> Result<Option<&[u8]>, WireError> {
        let consumed = match wire_decode(&self.buf[self.start..])? {
            Some((_, consumed)) => consumed,
            None => {
                // Parser ran dry: reclaim the consumed prefix now, so the
                // buffer never grows past one partial frame + one read.
                if self.start > 0 {
                    self.buf.drain(..self.start);
                    self.start = 0;
                }
                return Ok(None);
            }
        };
        // A wire frame is a 4-byte length header, then the payload.
        let payload = self.start + 4..self.start + consumed;
        self.start += consumed;
        Ok(Some(&self.buf[payload]))
    }
}

/// Bits of the packed mux tag carrying the lane (= shard) id.
pub const MUX_LANE_BITS: u32 = 16;

/// Bits of the packed mux tag carrying the session tag.
pub const MUX_SESSION_BITS: u32 = 48;

/// Exclusive upper bound on lane ids a [`MuxMesh`][crate::tcp::MuxMesh]
/// can multiplex (65 536 — far above any plausible shard count).
pub const MUX_MAX_LANES: usize = 1 << MUX_LANE_BITS;

/// The reserved session slot marking a **raw** mux frame: the payload
/// was not a foldable session frame and is delivered verbatim. Session
/// tags must be strictly below this to fold; larger ones simply travel
/// raw (correct, just without the 8-byte header saving).
pub const MUX_RAW_TAG: u64 = (1 << MUX_SESSION_BITS) - 1;

/// Pack a `(lane, session)` pair into one u64 wire tag: lane in the top
/// [`MUX_LANE_BITS`], session in the low [`MUX_SESSION_BITS`]. Injective
/// over `lane < MUX_MAX_LANES`, `session <= MUX_RAW_TAG` (the proptest
/// suite pins this down), and the inverse of [`mux_unpack`].
///
/// # Panics
///
/// Panics if `lane` or `session` exceeds its field — both are local
/// programming errors (lane counts are validated at mesh bring-up).
pub fn mux_pack(lane: usize, session: u64) -> u64 {
    assert!(lane < MUX_MAX_LANES, "mux lane {lane} exceeds {MUX_LANE_BITS} bits");
    assert!(session <= MUX_RAW_TAG, "session tag {session} exceeds {MUX_SESSION_BITS} bits");
    ((lane as u64) << MUX_SESSION_BITS) | session
}

/// Split a packed mux wire tag back into `(lane, session)`.
pub fn mux_unpack(tag: u64) -> (usize, u64) {
    ((tag >> MUX_SESSION_BITS) as usize, tag & MUX_RAW_TAG)
}

/// Build one mux wire frame for `payload` travelling on `lane` into a
/// caller-owned buffer.
///
/// A well-formed session payload `[session:u64][inner…]` with
/// `session < MUX_RAW_TAG` is **folded**: the wire carries
/// `[len][mux_pack(lane, session)][inner…]` — the lane rides in the tag
/// slot the payload already paid for, zero added bytes. Anything else
/// (too short, or a leading u64 at/above [`MUX_RAW_TAG`]) is **escaped**:
/// `[len][mux_pack(lane, MUX_RAW_TAG)][payload…]` delivers the original
/// bytes verbatim. [`mux_unframe`] inverts both shapes exactly.
pub fn mux_frame_into(lane: usize, payload: &[u8], buf: &mut BytesMut) {
    if payload.len() >= 8 {
        let session = u64::from_le_bytes(payload[..8].try_into().unwrap());
        if session < MUX_RAW_TAG {
            frame_wire_into(mux_pack(lane, session), &payload[8..], buf);
            return;
        }
    }
    frame_wire_into(mux_pack(lane, MUX_RAW_TAG), payload, buf)
}

/// Invert [`mux_frame_into`] on one decoded wire frame (`[packed
/// tag][body…]`, as [`wire_decode`] yields it): returns the lane and the
/// reconstructed original payload.
///
/// # Errors
///
/// Fails with [`FrameError`] if the frame is shorter than the 8-byte
/// packed tag (a corrupt stream; mux connections carry nothing smaller).
pub fn mux_unframe(frame: &[u8]) -> Result<(usize, Bytes), FrameError> {
    let (packed, body) = unframe(frame)?;
    let (lane, session) = mux_unpack(packed);
    if session == MUX_RAW_TAG {
        return Ok((lane, Bytes::copy_from_slice(body)));
    }
    let mut restored = BytesMut::with_capacity(8 + body.len());
    restored.put_u64_le(session);
    restored.put_slice(body);
    Ok((lane, restored.freeze()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_roundtrip() {
        let encoded = wire_encode(b"payload");
        let (payload, consumed) = wire_decode(&encoded).unwrap().unwrap();
        assert_eq!(payload, b"payload");
        assert_eq!(consumed, encoded.len());
    }

    #[test]
    fn wire_truncated_needs_more() {
        let encoded = wire_encode(b"payload");
        for cut in 0..encoded.len() {
            assert_eq!(wire_decode(&encoded[..cut]).unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn wire_oversized_header_is_fatal() {
        let mut bad = Vec::from((MAX_WIRE_FRAME as u32 + 1).to_le_bytes());
        bad.extend_from_slice(b"x");
        assert_eq!(
            wire_decode(&bad).unwrap_err(),
            WireError::Oversized { claimed: MAX_WIRE_FRAME + 1 }
        );
    }

    #[test]
    fn wire_trailing_bytes_stay_in_stream() {
        let mut stream = Vec::from(&wire_encode(b"one")[..]);
        stream.extend_from_slice(&wire_encode(b"two"));
        let (payload, consumed) = wire_decode(&stream).unwrap().unwrap();
        assert_eq!(payload, b"one");
        let (payload, _) = wire_decode(&stream[consumed..]).unwrap().unwrap();
        assert_eq!(payload, b"two");
    }

    #[test]
    fn wire_encode_into_matches_wire_encode() {
        let mut buf = BytesMut::new();
        wire_encode_into(b"payload", &mut buf);
        assert_eq!(&buf[..], &wire_encode(b"payload")[..]);
        // Appending reuses the same buffer.
        wire_encode_into(b"second", &mut buf);
        let (first, consumed) = wire_decode(&buf).unwrap().unwrap();
        assert_eq!(first, b"payload");
        let (second, _) = wire_decode(&buf[consumed..]).unwrap().unwrap();
        assert_eq!(second, b"second");
    }

    #[test]
    fn frame_wire_into_merges_both_layers() {
        // One reserved-header build must equal frame() then wire_encode().
        let legacy = wire_encode(&frame(99, b"body"));
        let mut buf = BytesMut::new();
        frame_wire_into(99, b"body", &mut buf);
        assert_eq!(&buf[..], &legacy[..]);
        let (payload, _) = wire_decode(&buf).unwrap().unwrap();
        let (tag, inner) = unframe(payload).unwrap();
        assert_eq!(tag, 99);
        assert_eq!(inner, b"body");
    }

    #[test]
    fn mux_pack_unpack_roundtrip_and_field_layout() {
        for (lane, session) in
            [(0, 0), (1, 7), (42, MUX_RAW_TAG), (MUX_MAX_LANES - 1, (1 << 47) + 12345)]
        {
            let packed = mux_pack(lane, session);
            assert_eq!(mux_unpack(packed), (lane, session));
        }
        assert_eq!(mux_pack(0, 5), 5, "lane 0 leaves the session tag untouched");
    }

    #[test]
    fn mux_fold_roundtrips_session_frames() {
        let payload = frame(12345, b"session body");
        let mut buf = BytesMut::new();
        mux_frame_into(3, &payload, &mut buf);
        // Folding saves the 8 tag bytes: wire = 4 (len) + payload.
        assert_eq!(buf.len(), 4 + payload.len());
        let (wire_frame, _) = wire_decode(&buf).unwrap().unwrap();
        let (lane, restored) = mux_unframe(wire_frame).unwrap();
        assert_eq!(lane, 3);
        assert_eq!(&restored[..], &payload[..]);
    }

    #[test]
    fn mux_raw_escape_roundtrips_arbitrary_payloads() {
        // Too short for a session tag, exactly the reserved tag, and a
        // leading u64 with high bits set: all must travel verbatim.
        let junk: &[&[u8]] = &[b"", b"x", b"\xde\xad\xbe", &u64::MAX.to_le_bytes(), {
            &frame(MUX_RAW_TAG, b"reserved-tag payload")
        }];
        for payload in junk {
            let mut buf = BytesMut::new();
            mux_frame_into(7, payload, &mut buf);
            let (wire_frame, _) = wire_decode(&buf).unwrap().unwrap();
            let (lane, restored) = mux_unframe(wire_frame).unwrap();
            assert_eq!(lane, 7);
            assert_eq!(&restored[..], &payload[..], "raw payload mangled");
        }
    }

    #[test]
    fn mux_unframe_rejects_short_frames() {
        assert!(mux_unframe(&[1, 2, 3]).is_err());
    }

    #[test]
    fn roundtrip() {
        let msg = frame(u64::MAX, b"abc");
        let (tag, payload) = unframe(&msg).unwrap();
        assert_eq!(tag, u64::MAX);
        assert_eq!(payload, b"abc");
    }

    #[test]
    fn empty_payload_is_fine() {
        let msg = frame(0, b"");
        let (tag, payload) = unframe(&msg).unwrap();
        assert_eq!(tag, 0);
        assert!(payload.is_empty());
    }

    #[test]
    fn short_message_is_rejected() {
        let err = unframe(&[1, 2, 3]).unwrap_err();
        assert!(err.to_string().contains("3 bytes"));
    }
}
