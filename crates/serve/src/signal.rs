//! SIGINT → graceful shutdown, with no libc dependency.
//!
//! The workspace vendors no FFI crates, so the installer declares the one
//! libc symbol it needs directly. The handler only flips an atomic — the
//! serving threads observe it on their next poll tick, which is the whole
//! shutdown protocol: nothing async-signal-unsafe ever runs in handler
//! context. On non-Unix targets installation is a no-op and shutdown is
//! triggered programmatically (stdin close, test harness, etc.).

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the signal handler; polled by `honeylab serve`'s main loop.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// True once SIGINT has been received (or [`trigger`] was called).
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::Relaxed)
}

/// Programmatic equivalent of SIGINT, for tests and stdin-close shutdown.
pub fn trigger() {
    INTERRUPTED.store(true, Ordering::Relaxed);
}

/// Clears the flag (between tests; a server installs once).
pub fn reset() {
    INTERRUPTED.store(false, Ordering::Relaxed);
}

#[cfg(unix)]
mod imp {
    const SIGINT: i32 = 2;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_sigint(_sig: i32) {
        super::INTERRUPTED.store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// Installs the SIGINT handler.
    pub fn install() {
        unsafe {
            signal(SIGINT, on_sigint);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// No signal support; [`super::trigger`] is the only path.
    pub fn install() {}
}

/// Installs the SIGINT handler (no-op off Unix).
pub fn install() {
    imp::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_and_reset_flip_the_flag() {
        reset();
        assert!(!interrupted());
        trigger();
        assert!(interrupted());
        reset();
        assert!(!interrupted());
    }
}
