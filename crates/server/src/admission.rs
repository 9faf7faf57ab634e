//! AGM-based admission control.
//!
//! The paper's worst-case guarantee is usually read as a *planning* tool:
//! the AGM bound caps how large a join result (and, per Lemma 3.5, every
//! intermediate of a level-wise engine) can get. A serving front end can
//! read the same number as an *admission-time cost signal*: it is known
//! **before any trie is built** — right after resolving the query's
//! hypergraph and atom cardinalities — and it upper-bounds the work a
//! worst-case optimal engine will do. A 4-clique over a million-edge graph
//! announces its `|E|²` bound at the door; a keyed lookup announces a bound
//! of a few rows. The controller prices each request at
//! `max(1, log2(AGM bound))` **cost units** (log-space, so astronomically
//! bounded queries still price finitely — see [`agm::log_agm_bound`]) and
//! runs a token-bucket-like budget over the *admitted but unfinished* cost:
//!
//! 1. admission disabled → **accept** (zero-cost permit, nothing tracked);
//! 2. service queue deeper than `max_queue_depth` → **reject** — the hard
//!    backstop that holds even for cheap queries once the server drowns;
//! 3. cost ≤ `cheap_log2_bound` → the cheap lane: **accept** (or report
//!    **queued** when workers are busy), always — cheap work must never
//!    starve behind expensive work, which is the whole point;
//! 4. otherwise the request must reserve its cost against
//!    `max_inflight_cost`; if the reservation does not fit, **reject** with
//!    the offending bound in the [`crate::protocol::Response::Overload`]
//!    reply so clients can back off *selectively*.
//!
//! Accepted work holds a [`Permit`] that releases its cost units on drop
//! (reply sent, panic, deadline — any exit path). Decisions are counted in
//! the global metrics as `xjoin.server.admission.{accepted,queued,rejected}`
//! and the live reservation is exported as the
//! `xjoin.server.inflight_cost_milli` gauge.

use std::sync::{Arc, Mutex};

/// Admission policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionPolicy {
    /// Master switch; `false` accepts everything.
    pub enabled: bool,
    /// Requests priced at or below this many cost units (`log2` of the AGM
    /// bound) ride the cheap lane: admitted regardless of the expensive
    /// budget. The default of 20 admits anything bounded by ~1M rows.
    pub cheap_log2_bound: f64,
    /// Total cost units of *expensive* requests allowed in flight at once.
    pub max_inflight_cost: f64,
    /// Reject everything once the service queue is this deep (hard
    /// backstop against total overload).
    pub max_queue_depth: usize,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            enabled: true,
            cheap_log2_bound: 20.0,
            max_inflight_cost: 64.0,
            max_queue_depth: 64,
        }
    }
}

impl AdmissionPolicy {
    /// A policy that admits everything (no admission control).
    pub fn disabled() -> Self {
        AdmissionPolicy {
            enabled: false,
            ..Default::default()
        }
    }
}

/// The cost units of a query with the given `log2` AGM bound: at least 1,
/// so even trivial queries consume budget while in flight.
pub fn cost_units(log2_bound: f64) -> f64 {
    log2_bound.max(1.0)
}

/// Outcome of an admission decision.
#[derive(Debug)]
pub enum Decision {
    /// Run now: a worker is (likely) free.
    Accept(Permit),
    /// Admitted, but behind a non-empty service queue.
    Queued(Permit),
    /// Refused: run it later, or somewhere else.
    Reject {
        /// Live queue depth at decision time.
        queue_depth: usize,
        /// Admitted-but-unfinished cost units at decision time.
        inflight_cost: f64,
        /// Why the request was refused.
        reason: String,
    },
}

impl Decision {
    /// Whether the request was admitted (accept or queued).
    pub fn admitted(&self) -> bool {
        !matches!(self, Decision::Reject { .. })
    }
}

/// Holds an admitted request's cost reservation; dropping it releases the
/// units back to the budget.
#[derive(Debug)]
pub struct Permit {
    cost: f64,
    inflight: Option<Arc<Mutex<f64>>>,
}

impl Permit {
    /// The cost units this permit reserves.
    pub fn cost(&self) -> f64 {
        self.cost
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        if let Some(inflight) = &self.inflight {
            let mut held = inflight.lock().unwrap_or_else(|e| e.into_inner());
            *held = (*held - self.cost).max(0.0);
            publish_inflight(*held);
        }
    }
}

fn publish_inflight(cost: f64) {
    xjoin_obs::global_metrics()
        .gauge("xjoin.server.inflight_cost_milli")
        .set((cost * 1000.0) as i64);
}

/// The admission controller: a policy plus the live cost reservation.
#[derive(Debug)]
pub struct AdmissionController {
    policy: AdmissionPolicy,
    inflight: Arc<Mutex<f64>>,
}

impl AdmissionController {
    /// A controller enforcing `policy`.
    pub fn new(policy: AdmissionPolicy) -> Self {
        AdmissionController {
            policy,
            inflight: Arc::new(Mutex::new(0.0)),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &AdmissionPolicy {
        &self.policy
    }

    /// Admitted-but-unfinished cost units right now.
    pub fn inflight_cost(&self) -> f64 {
        *self.inflight.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Decides whether a request priced at `log2_bound` may run while the
    /// service queue is `queue_depth` deep.
    pub fn decide(&self, log2_bound: f64, queue_depth: usize) -> Decision {
        let metrics = xjoin_obs::global_metrics();
        if !self.policy.enabled {
            metrics.counter("xjoin.server.admission.accepted").inc();
            return Decision::Accept(Permit {
                cost: 0.0,
                inflight: None,
            });
        }
        let cost = cost_units(log2_bound);
        let mut held = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        if queue_depth >= self.policy.max_queue_depth {
            metrics.counter("xjoin.server.admission.rejected").inc();
            return Decision::Reject {
                queue_depth,
                inflight_cost: *held,
                reason: format!(
                    "queue depth {queue_depth} at its limit of {}",
                    self.policy.max_queue_depth
                ),
            };
        }
        if cost > self.policy.cheap_log2_bound && *held + cost > self.policy.max_inflight_cost {
            metrics.counter("xjoin.server.admission.rejected").inc();
            return Decision::Reject {
                queue_depth,
                inflight_cost: *held,
                reason: format!(
                    "expensive query (cost {cost:.1} > cheap lane {:.1}) does not fit the \
                     in-flight budget ({:.1} of {:.1} units reserved)",
                    self.policy.cheap_log2_bound, *held, self.policy.max_inflight_cost
                ),
            };
        }
        *held += cost;
        publish_inflight(*held);
        let permit = Permit {
            cost,
            inflight: Some(Arc::clone(&self.inflight)),
        };
        if queue_depth > 0 {
            metrics.counter("xjoin.server.admission.queued").inc();
            Decision::Queued(permit)
        } else {
            metrics.counter("xjoin.server.admission.accepted").inc();
            Decision::Accept(permit)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_policy_admits_everything_without_reserving() {
        let ctl = AdmissionController::new(AdmissionPolicy::disabled());
        for _ in 0..100 {
            let d = ctl.decide(1000.0, 1000);
            assert!(d.admitted());
        }
        assert_eq!(ctl.inflight_cost(), 0.0);
    }

    #[test]
    fn cheap_queries_ride_past_a_full_expensive_budget() {
        let policy = AdmissionPolicy {
            enabled: true,
            cheap_log2_bound: 10.0,
            max_inflight_cost: 50.0,
            max_queue_depth: 100,
        };
        let ctl = AdmissionController::new(policy);
        // Fill the expensive budget.
        let d1 = ctl.decide(45.0, 0);
        assert!(matches!(d1, Decision::Accept(_)));
        // Another expensive one no longer fits ...
        assert!(!ctl.decide(45.0, 0).admitted());
        // ... but cheap ones still do, and report Queued behind a queue.
        let d2 = ctl.decide(5.0, 3);
        assert!(matches!(d2, Decision::Queued(_)));
        assert!((ctl.inflight_cost() - 50.0).abs() < 1e-9);
        // Releasing the expensive permit lets the next expensive one in.
        drop(d1);
        drop(d2);
        assert!((ctl.inflight_cost() - 0.0).abs() < 1e-9);
        assert!(ctl.decide(45.0, 0).admitted());
    }

    #[test]
    fn queue_depth_backstop_rejects_even_cheap_work() {
        let policy = AdmissionPolicy {
            max_queue_depth: 4,
            ..Default::default()
        };
        let ctl = AdmissionController::new(policy);
        assert!(ctl.decide(1.0, 3).admitted());
        match ctl.decide(1.0, 4) {
            Decision::Reject { reason, .. } => assert!(reason.contains("queue depth"), "{reason}"),
            other => panic!("expected reject, got {other:?}"),
        }
    }

    #[test]
    fn empty_query_bound_still_costs_one_unit() {
        // log2 bound of -inf (some atom is empty) → minimum cost.
        assert_eq!(cost_units(f64::NEG_INFINITY), 1.0);
        assert_eq!(cost_units(0.5), 1.0);
        assert_eq!(cost_units(33.0), 33.0);
    }

    #[test]
    fn permit_release_is_exact_under_interleaving() {
        let ctl = AdmissionController::new(AdmissionPolicy {
            enabled: true,
            cheap_log2_bound: 100.0,
            max_inflight_cost: 1000.0,
            max_queue_depth: 100,
        });
        let permits: Vec<Decision> = (0..10).map(|i| ctl.decide(i as f64 + 2.0, 0)).collect();
        let total: f64 = (0..10).map(|i| (i as f64 + 2.0).max(1.0)).sum();
        assert!((ctl.inflight_cost() - total).abs() < 1e-9);
        drop(permits);
        assert_eq!(ctl.inflight_cost(), 0.0);
    }
}
