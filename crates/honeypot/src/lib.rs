//! `honeypot` — a Cowrie-like medium-interaction SSH/Telnet honeypot.
//!
//! This crate reimplements the sensor side of the paper's honeynet
//! (§3.1–§3.2): a honeypot that accepts any `root` login except the
//! password `root` (plus Cowrie's well-known default accounts), offers an
//! emulated Unix shell, records every session in the schema the analysis
//! pipeline consumes, and forwards closed sessions to a central collector.
//!
//! Faithfully modelled Cowrie behaviours the paper's findings depend on:
//!
//! * the 3-minute idle timeout ending sessions (§3.2);
//! * "known" commands are emulated, unknown ones merely recorded (§3.2);
//! * URIs in commands are recorded; files created or modified are hashed
//!   (SHA-256) but never stored (§3.3–§6);
//! * `scp`/`rsync`/(S)FTP *uploads are not emulated*, so files pushed that
//!   way are never captured — producing the "file missing" phenomenon of
//!   Fig. 4b;
//! * the per-session copy-on-write filesystem: state does not persist
//!   across sessions, which attackers exploit for honeypot detection (§5);
//! * default accounts `richard`/`phil` (§8): the deployed version accepts
//!   `phil`, making the honeynet fingerprintable.
//!
//! Sessions can be driven two ways: the bulk generator calls the shell
//! emulator directly ([`session`]), while [`wire::WireHandler`] bridges
//! the identical policy and shell into real `sshwire` and `telwire`
//! dialogues. Both produce the same [`record::SessionRecord`]. The one
//! handler and its one record conversion serve live traffic (`serve`)
//! and the in-memory dialogues ([`wire::run_wire_session`],
//! [`wire::run_telnet_session`]) alike.

pub mod auth;
pub mod collector;
pub mod cowrie_log;
pub mod fleet;
pub mod outage;
pub mod record;
pub mod session;
pub mod shell;
pub mod vfs;
pub mod wire;

pub use auth::AuthPolicy;
pub use collector::{
    ingest_parallel, panic_message, Collector, CollectorConfig, CollectorError, IngestOutcome,
    IngestStats, SessionSink, SinkError,
};
pub use cowrie_log::{
    from_cowrie_log, from_cowrie_log_lossy, to_cowrie_events, to_cowrie_log, LossyImport,
};
pub use fleet::{maintenance_end, maintenance_start, Fleet, Honeypot};
pub use outage::{OutageConfig, OutageSchedule};
pub use record::{
    CommandRecord, FileEvent, FileOp, LoginAttempt, Protocol, SessionEndReason, SessionRecord,
};
pub use session::{SessionInput, SessionSim};
pub use shell::{RemoteStore, Shell};
pub use vfs::Vfs;
