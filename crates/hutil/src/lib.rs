//! Foundation utilities shared by every honeylab crate.
//!
//! The reproduction deliberately avoids external crates beyond the allowed
//! set, so a handful of small, well-specified primitives live here:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256, used to fingerprint files dropped on
//!   the honeypot (the honeynet stores hashes, never file bodies) and to
//!   tag SSH packets; it runs on the x86 SHA extensions where the CPU has
//!   them.
//! * [`base64`] — RFC 4648 codec, needed to decode the `mdrfckr` actor's
//!   base64-encoded payload scripts (paper §9).
//! * [`crc32`](mod@crc32) — IEEE CRC-32, the per-block integrity checksum of the
//!   `sessiondb` on-disk segment format.
//! * [`date`] — proleptic-Gregorian civil-date arithmetic without any
//!   ambient-clock access; the simulation clock is always explicit.
//! * [`json`] — a minimal RFC 8259 codec for Cowrie-format log interop
//!   (`serde_json` is outside the allowed dependency set).
//! * [`stats`] — quantiles, box-plot summaries and ratio helpers backing the
//!   figure generators.
//! * [`rng`] — deterministic seed-splitting so every subsystem draws from an
//!   independent, reproducible stream.
//! * [`par`] — the ordered parallel fold that drives every whole-store
//!   pass: parts folded on scoped threads, merged in part order, with at
//!   most two parts per worker alive at once.

pub mod base64;
pub mod crc32;
pub mod date;
pub mod json;
pub mod par;
pub mod rng;
pub mod sha256;
pub mod stats;

pub use crc32::{crc32, Crc32};
pub use date::{Date, DateTime, Month};
pub use json::{api_envelope, Json, API_VERSION};
pub use sha256::Sha256;
