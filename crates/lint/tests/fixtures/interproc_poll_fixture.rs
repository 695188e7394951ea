//! Readiness-wait fixture. The root `event_loop` reaches two `poll(`
//! calls one edge down: `wait_forever` passes no bound and must fail;
//! `wait_for_work` carries a pragma stating its deadline and is reported
//! suppressed.
//!
//! The test's lint.toml names `app:event_loop` as the root.

pub fn event_loop(fds: &mut [PollFd], deadline_ms: i32) {
    wait_forever(fds);
    wait_for_work(fds, deadline_ms);
}

fn wait_forever(fds: &mut [PollFd]) {
    let _ = poll(fds, -1);
}

fn wait_for_work(fds: &mut [PollFd], deadline_ms: i32) {
    // lint: allow(nonblocking, "fixture: bounded by the nearest deadline, ended early by readiness")
    let _ = poll(fds, deadline_ms);
}
