//! SSH wire-format primitives (RFC 4251 §5).
//!
//! Writers append to the caller's buffer. Readers advance a `&[u8]`
//! cursor over a packet payload and hand back slices of it, so a decoded
//! field borrows the bytes it came from. They return `Result` rather than
//! panicking: every byte here is attacker-controlled in the deployment
//! the honeypot models.

use crate::SshError;

/// Writes a `uint32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Writes a `byte`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Writes a `boolean`.
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}

/// Writes a length-prefixed `string`. A `name-list` is written the same
/// way, from its comma-separated form.
pub fn put_string(buf: &mut Vec<u8>, s: &[u8]) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s);
}

/// Reads a `byte`.
pub fn get_u8(buf: &mut &[u8]) -> Result<u8, SshError> {
    let (&v, rest) = buf
        .split_first()
        .ok_or_else(|| SshError::Decode("truncated byte".into()))?;
    *buf = rest;
    Ok(v)
}

/// Reads a `boolean`.
pub fn get_bool(buf: &mut &[u8]) -> Result<bool, SshError> {
    Ok(get_u8(buf)? != 0)
}

/// Reads a `uint32`.
pub fn get_u32(buf: &mut &[u8]) -> Result<u32, SshError> {
    let (v, rest) = buf
        .split_first_chunk::<4>()
        .ok_or_else(|| SshError::Decode("truncated uint32".into()))?;
    *buf = rest;
    Ok(u32::from_be_bytes(*v))
}

/// Reads a length-prefixed `string` as raw bytes.
pub fn get_string<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], SshError> {
    let len = get_u32(buf)? as usize;
    if buf.len() < len {
        return Err(SshError::Decode(format!(
            "string length {len} exceeds remaining {}",
            buf.len()
        )));
    }
    let (s, rest) = buf.split_at(len);
    *buf = rest;
    Ok(s)
}

/// Reads a `string` and requires UTF-8. A `name-list` is read the same
/// way and kept in its comma-separated form.
pub fn get_utf8<'a>(buf: &mut &'a [u8]) -> Result<&'a str, SshError> {
    std::str::from_utf8(get_string(buf)?).map_err(|_| SshError::Decode("non-UTF-8 string".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_roundtrip() {
        let mut b = Vec::new();
        put_string(&mut b, b"root");
        put_string(&mut b, b"");
        let mut r = &b[..];
        assert_eq!(get_string(&mut r).unwrap(), b"root");
        assert_eq!(get_string(&mut r).unwrap(), b"");
        assert!(r.is_empty());
    }

    #[test]
    fn name_list_roundtrip() {
        let mut b = Vec::new();
        put_string(&mut b, b"curve25519-sha256,diffie-hellman-group14-sha256");
        put_string(&mut b, b"");
        let mut r = &b[..];
        assert_eq!(
            get_utf8(&mut r).unwrap(),
            "curve25519-sha256,diffie-hellman-group14-sha256"
        );
        assert_eq!(get_utf8(&mut r).unwrap(), "");
    }

    #[test]
    fn truncated_reads_error_cleanly() {
        let mut r: &[u8] = &[0, 0, 0, 9, b'x'];
        assert!(matches!(get_string(&mut r), Err(SshError::Decode(_))));
        let mut r2: &[u8] = &[0, 0];
        assert!(matches!(get_u32(&mut r2), Err(SshError::Decode(_))));
        let mut r3: &[u8] = &[];
        assert!(matches!(get_u8(&mut r3), Err(SshError::Decode(_))));
    }

    #[test]
    fn non_utf8_string_is_decode_error() {
        let mut b = Vec::new();
        put_string(&mut b, &[0xff, 0xfe]);
        let mut r = &b[..];
        assert!(matches!(get_utf8(&mut r), Err(SshError::Decode(_))));
    }

    #[test]
    fn bool_roundtrip() {
        let mut b = Vec::new();
        put_bool(&mut b, true);
        put_bool(&mut b, false);
        let mut r = &b[..];
        assert!(get_bool(&mut r).unwrap());
        assert!(!get_bool(&mut r).unwrap());
    }
}
