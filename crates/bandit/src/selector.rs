//! The common interface of all model selectors.

use cne_util::json::Json;
use cne_util::telemetry::Recorder;

/// A sequential model-selection policy for one edge.
///
/// The simulator drives a selector with the slot protocol of the paper's
/// Fig. 2: at the start of slot `t` it calls [`select`](Self::select) to
/// learn which model to host, serves the stream, and then reports the
/// realized slot loss via [`observe`](Self::observe).
///
/// Implementations own their randomness (seeded at construction), so a
/// selector is deterministic given its seed and the observed losses.
///
/// Selectors are `Send` so a controller built on one thread can be
/// driven on another. They are driven by exactly one thread at a time,
/// so `Sync` is not required.
pub trait ModelSelector: Send {
    /// Returns the arm (model index) to host during slot `t`.
    ///
    /// Slots must be visited in order `0, 1, 2, …`; selectors may panic
    /// otherwise.
    fn select(&mut self, t: usize) -> usize;

    /// Reports the loss observed for `arm` during slot `t` (the same
    /// `t`/arm returned by the preceding [`select`](Self::select) call).
    /// Losses are expected to be normalized to approximately `[0, 1]`.
    fn observe(&mut self, t: usize, arm: usize, loss: f64);

    /// Reports that slot `t`'s loss feedback was lost (edge outage,
    /// stale model, dropped report — see `cne_faults`). Called *instead
    /// of* [`observe`](Self::observe) for the same slot, keeping the
    /// slot protocol in order. The default simply skips the slot;
    /// importance-weighted learners override it so a partial block is
    /// not fed into an unbiased estimator.
    fn observe_lost(&mut self, t: usize) {
        let _ = t;
    }

    /// Number of arms `N`.
    fn num_arms(&self) -> usize;

    /// The slot the selector expects to [`select`](Self::select) next,
    /// for selectors that track it. A resumed run checks it against
    /// the checkpoint's slot, since a disagreement would otherwise
    /// surface as a panic on the first slot served. The default
    /// (selectors that keep no slot counter) is `None`.
    fn next_slot(&self) -> Option<usize> {
        None
    }

    /// Short display name (used in figure legends).
    fn name(&self) -> &'static str;

    /// Dumps end-of-run internal state (as gauges/counters namespaced
    /// by `edge`) into a telemetry recorder. The default records
    /// nothing; stateful selectors override it.
    fn record_telemetry(&self, edge: usize, rec: &mut Recorder) {
        let _ = (edge, rec);
    }

    /// Exports the selector's mutable learned state as JSON, for a
    /// checkpoint taken between slots (after `observe`/`observe_lost`
    /// of slot `t − 1`, before `select` of slot `t`).
    ///
    /// The default refuses: a serve daemon would rather fail the
    /// checkpoint than silently drop learner state on resume.
    /// Stateless selectors return [`Json::Null`]; stateful ones return
    /// everything [`import_state`](Self::import_state) needs to
    /// continue the run bit-identically.
    ///
    /// # Errors
    /// Returns an error when the selector does not support
    /// checkpoint/restore.
    fn export_state(&self) -> Result<Json, String> {
        Err(format!(
            "selector '{}' does not support checkpoint/restore",
            self.name()
        ))
    }

    /// Restores state produced by [`export_state`](Self::export_state)
    /// onto a *freshly built* selector — same construction parameters
    /// and seed, no slots visited yet. Implementations that own
    /// randomness replay their RNG to the checkpointed position, so
    /// the resumed selector's draws match an uninterrupted run's.
    ///
    /// # Errors
    /// Returns an error when the selector does not support
    /// checkpoint/restore, or when `state` does not match this
    /// selector's shape.
    fn import_state(&mut self, state: &Json) -> Result<(), String> {
        let _ = state;
        Err(format!(
            "selector '{}' does not support checkpoint/restore",
            self.name()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trait must be object-safe: combos store selectors as
    /// `Box<dyn ModelSelector>`.
    #[test]
    fn object_safe() {
        struct Always0;
        impl ModelSelector for Always0 {
            fn select(&mut self, _t: usize) -> usize {
                0
            }
            fn observe(&mut self, _t: usize, _arm: usize, _loss: f64) {}
            fn num_arms(&self) -> usize {
                1
            }
            fn name(&self) -> &'static str {
                "always0"
            }
        }
        let mut boxed: Box<dyn ModelSelector> = Box::new(Always0);
        assert_eq!(boxed.select(0), 0);
        assert_eq!(boxed.name(), "always0");
    }
}
