//! The event loop's one blocking wait: a `poll(2)` shim.
//!
//! `std` can block on one socket at a time but cannot wait for *any* of
//! several to become ready, which is what a single-threaded front needs
//! between bursts of work. This module is the workspace's only `unsafe`:
//! a `#[repr(C)]` mirror of `struct pollfd`, the libc `poll` declaration,
//! and one call. The crate denies `unsafe_code` everywhere else; this
//! module alone is exempted (see `lib.rs`).

use std::ffi::{c_int, c_short};
use std::os::fd::AsRawFd;
use std::time::Duration;

/// Readable, or (on a listener) a connection is waiting in the backlog.
pub(crate) const POLLIN: c_short = 0x001;
/// Writable without blocking.
pub(crate) const POLLOUT: c_short = 0x004;

/// `struct pollfd`: same field order, types and layout on every Unix.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watch `fd` for `events` ([`POLLIN`] / [`POLLOUT`]). Errors and
    /// hang-ups are always reported, requested or not.
    pub(crate) fn new(fd: &impl AsRawFd, events: c_short) -> PollFd {
        PollFd { fd: fd.as_raw_fd(), events, revents: 0 }
    }
}

/// `nfds_t`: `unsigned long` on Linux, `unsigned int` on the BSDs and macOS.
#[cfg(any(target_os = "linux", target_os = "android"))]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NfdsT = std::ffi::c_uint;

mod sys {
    extern "C" {
        pub(super) fn poll(
            fds: *mut super::PollFd,
            nfds: super::NfdsT,
            timeout: super::c_int,
        ) -> super::c_int;
    }
}

/// Block until a descriptor in `fds` is ready or `timeout` has passed
/// (`None`: no deadline). The timeout is rounded *up* to whole
/// milliseconds, so the call never returns before it. Returns the number
/// of ready descriptors; a timeout or a signal (`EINTR`) returns 0 — the
/// caller re-scans its state after every return either way.
pub(crate) fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<usize> {
    let millis = match timeout {
        Some(t) => c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX),
        None => -1,
    };
    let nfds = NfdsT::try_from(fds.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "too many fds"))?;
    // SAFETY: `fds` is an exclusively borrowed, initialized slice of
    // `#[repr(C)]` `pollfd`s, and `nfds` is exactly its length, so the
    // kernel reads the entries and writes their `revents` strictly inside
    // the slice, and nothing else can touch it during the call. `poll`
    // keeps no pointer past its return. Closed or negative descriptors
    // are reported through `revents` (`POLLNVAL`), not undefined behavior.
    // lint: allow(nonblocking, "the shim itself: bounded by the caller's timeout, which the event loop derives from its nearest deadline")
    let ready = unsafe { sys::poll(fds.as_mut_ptr(), nfds, millis) };
    if ready < 0 {
        let err = std::io::Error::last_os_error();
        return match err.kind() {
            std::io::ErrorKind::Interrupted => Ok(0),
            _ => Err(err),
        };
    }
    Ok(usize::try_from(ready).unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn times_out_when_nothing_is_ready_and_wakes_on_a_byte() {
        let (rx, tx) = UnixStream::pair().expect("pair");
        let mut fds = [PollFd::new(&rx, POLLIN)];
        let t0 = Instant::now();
        assert_eq!(poll(&mut fds, Some(Duration::from_millis(20))).expect("poll"), 0);
        assert!(t0.elapsed() >= Duration::from_millis(20), "returned before its timeout");

        (&tx).write_all(&[1]).expect("write");
        assert_eq!(poll(&mut fds, None).expect("poll"), 1);
        assert_eq!(fds[0].revents & POLLIN, POLLIN);
    }

    #[test]
    fn a_writable_socket_is_ready_for_pollout() {
        let (a, _b) = UnixStream::pair().expect("pair");
        let mut fds = [PollFd::new(&a, POLLOUT)];
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).expect("poll"), 1);
        assert_eq!(fds[0].revents & POLLOUT, POLLOUT);
    }
}
