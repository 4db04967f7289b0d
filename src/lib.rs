//! # honeylab
//!
//! A full Rust reproduction of *"Attacks Come to Those Who Wait: Long-Term
//! Observations in an SSH Honeynet"* (IMC 2025).
//!
//! The paper's dataset — three years of attacks against a 221-sensor
//! Cowrie honeynet — is private, so this workspace rebuilds the entire
//! measurement apparatus: a medium-interaction SSH honeypot over a real
//! (minimal) SSH-2 wire protocol, a calibrated synthetic attacker
//! ecosystem, AS/WHOIS and abuse-intelligence substrates, and the paper's
//! complete analysis pipeline, which regenerates every figure and table.
//!
//! ## Quickstart
//!
//! ```no_run
//! use honeylab::prelude::*;
//!
//! // Generate a (scaled) 33-month honeynet dataset…
//! let dataset = generate_dataset(&DriverConfig::default_scale(42));
//! // …and run the paper's session taxonomy over it.
//! let stats = TaxonomyStats::compute(&dataset.sessions);
//! assert!(stats.ordering_matches_paper());
//! ```
//!
//! See `examples/` for end-to-end reproductions of individual figures and
//! the `honeylab-bench` crate for the criterion harness that regenerates
//! every evaluation artefact.
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`hutil`] | SHA-256, base64, civil dates, stats, seed trees |
//! | [`sregex`] | regex engine with lookahead (Table 1 dialect) |
//! | [`netsim`] | event scheduler, IPv4 pools, TCP session model |
//! | [`sshwire`] | minimal SSH-2 transport/auth/exec |
//! | [`asdb`] | historic AS registry (WHOIS-style lookups) |
//! | [`abusedb`] | partial-coverage abuse feeds + IP lists |
//! | [`honeypot`] | Cowrie-like sensor, shell emulator, collector |
//! | [`sessiondb`] | sharded columnar session store, out-of-core scans |
//! | [`serve`] | live TCP front-end: worker shards that accept and serve |
//! | [`botnet`] | 40+ bot archetypes + 33-month campaign driver |
//! | [`honeylab_core`] | the paper's analysis pipeline and figures |

pub use abusedb;
pub use asdb;
pub use botnet;
pub use honeylab_core as core;
pub use honeypot;
pub use hutil;
pub use netsim;
pub use serve;
pub use sessiondb;
pub use sregex;
pub use sshwire;
pub use telwire;

/// The most common imports for driving a reproduction end to end.
pub mod prelude {
    pub use crate::core::classify::Classifier;
    pub use crate::core::report;
    pub use crate::core::taxonomy::{SessionClass, TaxonomyStats};
    pub use botnet::{generate_dataset, Dataset, DriverConfig};
    pub use honeypot::{AuthPolicy, SessionRecord};
    pub use hutil::{Date, DateTime, Month};
}
