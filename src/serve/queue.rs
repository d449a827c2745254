//! The unit of admitted work and the per-process serve counters.
//!
//! A request that misses the cache and finds no in-flight run for its
//! key is admitted as one [`Job`]. In `serve`, the worker that admitted
//! the job runs it at once and streams its report. In `--drain`, the
//! jobs of the whole request file run afterwards in admission order,
//! consecutive jobs of one
//! [`crate::scenario::ScenarioSpec::batch_class`] sharing one
//! worker-pool pass. Either way no wall clock decides any order, so
//! drain output and traces stay byte-deterministic at any thread count.

use std::time::Instant;

use crate::scenario::ScenarioSpec;

/// One admitted run: a spec, addressed by its canonical key.
#[derive(Clone, Debug)]
pub struct Job {
    /// The spec's canonical cache key ([`ScenarioSpec::key`]).
    pub key: String,
    /// The spec to run.
    pub spec: ScenarioSpec,
    /// When the job was admitted: the start of its queue wait. Private
    /// to the crate, so every `Job` comes from [`super::Scheduler::submit`].
    pub(crate) admitted: Instant,
}

/// Monotonic per-process serve counters.
///
/// `requests = runs + cache_hits + coalesced + still-pending`: every
/// admitted request is classified exactly once. The physics totals
/// (`atoms_steps`, `exchanges`, `early_exchanges`) accumulate over the
/// runs *this process* executed — cache hits add nothing, which is the
/// point of the cache. `batches` counts engine-pool passes: `--drain`
/// batches consecutive geometry-compatible runs, so `batches ≤ runs`;
/// in `serve` every run is its own pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Specs submitted (valid requests admitted, however disposed).
    pub requests: u64,
    /// Physics runs actually executed.
    pub runs: u64,
    /// Engine-pool passes (batches of compatible runs).
    pub batches: u64,
    /// Requests answered from the on-disk cache.
    pub cache_hits: u64,
    /// Requests that coalesced onto an in-flight job.
    pub coalesced: u64,
    /// Σ atoms × steps over executed runs.
    pub atoms_steps: u64,
    /// Ghost exchanges performed by executed sharded runs.
    pub exchanges: u64,
    /// The subset of `exchanges` forced early by the skin-validity
    /// check.
    pub early_exchanges: u64,
}

impl ServeStats {
    /// The one-line drain summary (the last line of `--drain` output,
    /// golden-tested in CI).
    pub fn summary_line(&self) -> String {
        format!(
            "requests {}, runs {}, cache hits {}, coalesced {}, atoms-steps {}, exchanges {} ({} early)",
            self.requests,
            self.runs,
            self.cache_hits,
            self.coalesced,
            self.atoms_steps,
            self.exchanges,
            self.early_exchanges,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::serve::{CacheUsage, ServeMetrics};

    #[test]
    fn stats_render_stable_json_and_summary() {
        let stats = ServeStats {
            requests: 3,
            runs: 2,
            batches: 1,
            cache_hits: 0,
            coalesced: 1,
            atoms_steps: 14400,
            exchanges: 5,
            early_exchanges: 1,
        };
        let cache = CacheUsage {
            bytes: 512,
            entries: 2,
            evictions: 4,
        };
        let json = ServeMetrics::new(0).stats_json(&stats, 1, cache);
        let doc = Value::parse(&json).unwrap();
        for (key, want) in [
            ("atoms_steps", 14400),
            ("batches", 1),
            ("cache_bytes", 512),
            ("cache_entries", 2),
            ("cache_hits", 0),
            ("coalesced", 1),
            ("early_exchanges", 1),
            ("evictions", 4),
            ("exchanges", 5),
            ("pending", 1),
            ("requests", 3),
            ("runs", 2),
        ] {
            assert_eq!(doc.get(key).and_then(Value::as_u64), Some(want), "{key}");
        }
        assert_eq!(
            stats.summary_line(),
            "requests 3, runs 2, cache hits 0, coalesced 1, atoms-steps 14400, exchanges 5 (1 early)"
        );
    }
}
