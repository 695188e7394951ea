//! [`ServerConfig`] — operational knobs for the dashboard serving tier.
//!
//! The paper demos RASED as a *public* dashboard; a public deployment needs
//! bounded resources and defensive request limits. These knobs live in
//! `rased-core` (rather than the dashboard crate) so they ride along
//! [`crate::RasedConfig`] and every front end — CLI, tests, embedding
//! applications — shares one vocabulary.

use std::time::Duration;

/// Configuration for the HTTP serving tier.
///
/// All limits are per connection unless noted. The defaults are sized for a
/// small public deployment: a worker per core, a modest connection cap, and
/// request caps far above anything the JSON API legitimately needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads rendering responses that the event loop does not
    /// answer inline. `0` means "one per available core"
    /// (`std::thread::available_parallelism`, minimum 2).
    pub workers: usize,
    /// Connections open beyond `workers`: at most `workers + queue_depth`
    /// connections (`queue_depth` counted as at least 1) are open at once,
    /// and each holds at most one job in flight. Past the cap, new
    /// connections are rejected with `503` + `Retry-After` — backpressure
    /// instead of unbounded buffering.
    pub queue_depth: usize,
    /// Event-loop read deadline: a connection that stalls mid-request this
    /// long since its last received byte is answered `408` and closed
    /// (slowloris defense); an idle keep-alive connection is closed
    /// silently after it.
    pub read_timeout: Duration,
    /// Event-loop write deadline: a client that accepts no response bytes
    /// for this long gets its connection dropped.
    pub write_timeout: Duration,
    /// Maximum request-line length in bytes (`431` beyond).
    pub max_request_line_bytes: usize,
    /// Maximum total header bytes per request (`431` beyond).
    pub max_header_bytes: usize,
    /// Maximum request body bytes (`413` beyond).
    pub max_body_bytes: usize,
    /// Requests served over one keep-alive connection before the server
    /// closes it (bounds per-connection state lifetime).
    pub max_keep_alive_requests: usize,
    /// Value of the `Retry-After` header on `503` rejections (connection cap
    /// reached, or an admission shed).
    pub retry_after_secs: u32,
    /// Admission control: how many *expensive* requests (`/api/analysis`,
    /// `/api/sample`) one client may have in flight at once. Above the cap
    /// the surplus request is shed with a cheap-path `503` + `Retry-After`
    /// — per-client fair sharing, so one greedy client cannot pin every
    /// worker while others queue. `0` disables the cap.
    pub max_active_per_client: usize,
    /// Admission control: how many expensive requests may execute at once
    /// across *all* clients. Beyond it, further expensive requests are shed
    /// with a cheap-path `503` before latency collapses; cheap endpoints
    /// (`/api/metrics`, `/`, `/api/meta`, ingest status) keep being served
    /// by the remaining workers, so the system stays observable under
    /// overload. `0` disables shedding.
    pub shed_threshold: usize,
    /// Trust the `X-Forwarded-For` header as the client identity for
    /// admission control (first listed address wins). Enable only behind a
    /// proxy that sets the header — or in load harnesses simulating many
    /// users from one host. Off, clients are keyed by peer IP.
    pub trust_forwarded_for: bool,
    /// Cache whole rendered responses keyed by `(endpoint, params, epoch)`
    /// and serve repeats straight from the event loop. On by default: the
    /// epoch key makes staleness structurally impossible, so the only
    /// reason to turn it off is to measure the uncached path.
    pub response_cache: bool,
    /// Response-cache budget in total cached body+header bytes. `0` means
    /// the default (16 MiB). Eviction is LRU once either budget is hit.
    pub response_cache_bytes: usize,
    /// Response-cache budget in entries. `0` means the default (4096).
    pub response_cache_entries: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 0,
            queue_depth: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_request_line_bytes: 8 * 1024,
            max_header_bytes: 32 * 1024,
            max_body_bytes: 64 * 1024,
            max_keep_alive_requests: 1000,
            retry_after_secs: 1,
            max_active_per_client: 0,
            shed_threshold: 0,
            trust_forwarded_for: false,
            response_cache: true,
            response_cache_bytes: 0,
            response_cache_entries: 0,
        }
    }
}

impl ServerConfig {
    /// The effective worker-pool size: `workers`, or the machine's
    /// available parallelism (minimum 2 so one slow request cannot starve
    /// the whole dashboard) when `workers == 0`.
    pub fn effective_workers(&self) -> usize {
        match self.workers {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).max(2),
            n => n,
        }
    }

    /// The effective per-client in-flight cap: the configured value, or
    /// `usize::MAX` (no cap) when `max_active_per_client` is 0.
    pub fn effective_max_active_per_client(&self) -> usize {
        match self.max_active_per_client {
            0 => usize::MAX,
            n => n,
        }
    }

    /// The effective global shed threshold: the configured value, or
    /// `usize::MAX` (never shed) when `shed_threshold` is 0.
    pub fn effective_shed_threshold(&self) -> usize {
        match self.shed_threshold {
            0 => usize::MAX,
            n => n,
        }
    }

    /// The effective response-cache byte budget (`0` → 16 MiB).
    pub fn effective_response_cache_bytes(&self) -> usize {
        match self.response_cache_bytes {
            0 => 16 * 1024 * 1024,
            n => n,
        }
    }

    /// The effective response-cache entry budget (`0` → 4096).
    pub fn effective_response_cache_entries(&self) -> usize {
        match self.response_cache_entries {
            0 => 4096,
            n => n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_bounded() {
        let c = ServerConfig::default();
        assert!(c.effective_workers() >= 2);
        assert!(c.queue_depth > 0);
        assert!(c.max_request_line_bytes <= c.max_header_bytes);
    }

    #[test]
    fn explicit_worker_count_wins() {
        let c = ServerConfig { workers: 3, ..ServerConfig::default() };
        assert_eq!(c.effective_workers(), 3);
    }

    #[test]
    fn admission_defaults_are_disabled() {
        let c = ServerConfig::default();
        assert_eq!(c.effective_max_active_per_client(), usize::MAX);
        assert_eq!(c.effective_shed_threshold(), usize::MAX);
        assert!(!c.trust_forwarded_for);
    }

    #[test]
    fn response_cache_defaults_on_with_bounded_budgets() {
        let c = ServerConfig::default();
        assert!(c.response_cache);
        assert_eq!(c.effective_response_cache_bytes(), 16 * 1024 * 1024);
        assert_eq!(c.effective_response_cache_entries(), 4096);
        let c = ServerConfig {
            response_cache_bytes: 1024,
            response_cache_entries: 8,
            ..ServerConfig::default()
        };
        assert_eq!(c.effective_response_cache_bytes(), 1024);
        assert_eq!(c.effective_response_cache_entries(), 8);
    }

    #[test]
    fn admission_knobs_pass_through() {
        let c = ServerConfig {
            max_active_per_client: 2,
            shed_threshold: 6,
            ..ServerConfig::default()
        };
        assert_eq!(c.effective_max_active_per_client(), 2);
        assert_eq!(c.effective_shed_threshold(), 6);
    }
}
