//! A concurrent query service: a std-only worker pool executing prepared
//! queries across snapshots.
//!
//! Workers are plain `std::thread`s pulling jobs from a shared channel (the
//! classic `Arc<Mutex<Receiver>>` pool — no external dependencies). Each job
//! pairs an `Arc<PreparedQuery>` with a [`Snapshot`]; because snapshots are
//! immutable and tries are shared through the registry, any number of
//! workers can execute against the same (or different) store states
//! simultaneously, each returning its own [`QueryOutput`] with per-query
//! [`relational::JoinStats`].
//!
//! The pool is the only source of concurrency: each job runs serially on
//! one worker, reading its own immutable snapshot and the shared cached
//! `Arc<relational::Trie>`s, so snapshot isolation is per job and a job's
//! thread cost is fixed by the pool size, never by the query. Under write
//! churn the shared plans may resolve to *layered*
//! tries (an immutable base plus the appended delta runs, see
//! [`relational::DeltaTrie`]): layers are themselves immutable `Arc`s, so
//! concurrent jobs on different snapshots simply see different overlay
//! stacks over one shared base without copying or locking.
//!
//! # Observability
//!
//! The service feeds the global [`xjoin_obs`] registries on every job:
//!
//! * gauge `xjoin.service.queue_depth` — jobs submitted but not yet picked
//!   up by a worker;
//! * histogram `xjoin.service.queue_wait_us` — submit → pickup latency;
//! * histogram `xjoin.service.exec_us` — pickup → reply execution time;
//! * counters `xjoin.service.jobs` and `xjoin.service.panics`;
//! * spans `enqueue` (instant) and `execute` (labelled with the query's
//!   atom list) when tracing is enabled.
//!
//! A worker panic no longer silently drops the reply channel: the payload is
//! caught and forwarded as [`StoreError::WorkerLost`], carrying the lost
//! job's query label and the panic message.

use crate::error::{Result, StoreError};
use crate::prepared::PreparedQuery;
use crate::store::Snapshot;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{Builder, JoinHandle};
use std::time::Instant;
use xjoin_core::QueryOutput;

struct Job {
    prepared: Arc<PreparedQuery>,
    snapshot: Snapshot,
    reply: Sender<Result<QueryOutput>>,
    label: String,
    enqueued: Instant,
    /// Absolute deadline, if any: checked at dequeue (a job whose deadline
    /// passed while queued is failed without executing) and between row
    /// batches during execution (see [`PreparedQuery::execute_with_deadline`]).
    deadline: Option<Instant>,
}

/// Renders a panic payload as text (the common `&str` / `String` payloads;
/// anything else becomes a fixed note).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A handle to one submitted query; redeem it with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<Result<QueryOutput>>,
    label: String,
}

impl Ticket {
    /// Blocks until the query finishes, returning its output (or
    /// [`StoreError::WorkerLost`] if the executing worker died or the
    /// service shut down before the job ran).
    pub fn wait(self) -> Result<QueryOutput> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(StoreError::worker_lost(
                self.label,
                "service shut down before the job ran",
            ))
        })
    }

    /// Blocks for at most `timeout`, returning
    /// [`StoreError::DeadlineExceeded`] if no result arrived in time. The
    /// job itself is *not* cancelled by an expired wait — a worker may still
    /// be executing it (and will drop the reply unread); jobs submitted via
    /// [`QueryService::submit_with_deadline`] additionally stop themselves
    /// at dequeue or between row batches once their deadline passes.
    pub fn wait_timeout(self, timeout: std::time::Duration) -> Result<QueryOutput> {
        use std::sync::mpsc::RecvTimeoutError;
        match self.rx.recv_timeout(timeout) {
            Ok(out) => out,
            Err(RecvTimeoutError::Timeout) => {
                Err(StoreError::deadline_exceeded(self.label, timeout))
            }
            Err(RecvTimeoutError::Disconnected) => Err(StoreError::worker_lost(
                self.label,
                "service shut down before the job ran",
            )),
        }
    }
}

/// A fixed-size pool of query workers. Dropping the service shuts the pool
/// down: queued jobs still run, then workers exit and are joined.
pub struct QueryService {
    tx: Mutex<Option<Sender<Job>>>,
    workers: Vec<JoinHandle<()>>,
}

impl QueryService {
    /// Spawns a service with `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                Builder::new()
                    .name(format!("xjoin-worker-{i}"))
                    .spawn(move || worker_loop(&rx))
                    .expect("spawn query worker")
            })
            .collect();
        QueryService {
            tx: Mutex::new(Some(tx)),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs submitted to any service but not yet picked up by a worker
    /// (the global `xjoin.service.queue_depth` gauge).
    pub fn queue_depth() -> i64 {
        xjoin_obs::global_metrics()
            .gauge("xjoin.service.queue_depth")
            .get()
    }

    /// Enqueues one query execution; returns immediately with a [`Ticket`].
    pub fn submit(&self, prepared: Arc<PreparedQuery>, snapshot: Snapshot) -> Ticket {
        self.submit_with_deadline(prepared, snapshot, None)
    }

    /// Enqueues one query execution with an optional absolute deadline.
    ///
    /// A deadline is enforced inside the service, not just at the ticket: a
    /// worker picking up a job whose deadline already passed fails it with
    /// [`StoreError::DeadlineExceeded`] without executing anything, and a
    /// live execution re-checks the deadline between row batches (see
    /// [`PreparedQuery::execute_with_deadline`]), so a runaway query stops
    /// burning its worker shortly after its deadline expires.
    pub fn submit_with_deadline(
        &self,
        prepared: Arc<PreparedQuery>,
        snapshot: Snapshot,
        deadline: Option<Instant>,
    ) -> Ticket {
        let (reply, rx) = channel();
        let label = prepared.label();
        let guard = self.tx.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(tx) = guard.as_ref() {
            xjoin_obs::global_metrics()
                .gauge("xjoin.service.queue_depth")
                .inc();
            xjoin_obs::instant("enqueue");
            // A send error means every worker is gone; the dropped `reply`
            // sender then surfaces as WorkerLost at wait(). The pickup side
            // never runs for such a job, so undo the depth charge here.
            let sent = tx.send(Job {
                prepared,
                snapshot,
                reply,
                label: label.clone(),
                enqueued: Instant::now(),
                deadline,
            });
            if sent.is_err() {
                xjoin_obs::global_metrics()
                    .gauge("xjoin.service.queue_depth")
                    .dec();
            }
        }
        Ticket { rx, label }
    }

    /// Submits a batch and waits for all results, in submission order.
    pub fn run_all(
        &self,
        jobs: impl IntoIterator<Item = (Arc<PreparedQuery>, Snapshot)>,
    ) -> Vec<Result<QueryOutput>> {
        let tickets: Vec<Ticket> = jobs.into_iter().map(|(p, s)| self.submit(p, s)).collect();
        tickets.into_iter().map(Ticket::wait).collect()
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>) {
    let metrics = xjoin_obs::global_metrics();
    loop {
        let job = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => break,
        };
        match job {
            Ok(job) => {
                metrics.gauge("xjoin.service.queue_depth").dec();
                metrics
                    .histogram("xjoin.service.queue_wait_us")
                    .record(job.enqueued.elapsed().as_micros() as u64);
                metrics.counter("xjoin.service.jobs").inc();
                // Deadline check at dequeue: a job that aged out while
                // queued is failed without building or probing anything.
                if let Some(deadline) = job.deadline {
                    if Instant::now() >= deadline {
                        metrics.counter("xjoin.service.deadline_exceeded").inc();
                        let _ = job.reply.send(Err(StoreError::deadline_exceeded(
                            job.label.clone(),
                            job.enqueued.elapsed(),
                        )));
                        continue;
                    }
                }
                let start = Instant::now();
                let mut span = xjoin_obs::span("execute-job");
                span.set_attr(|| job.label.clone());
                let out = catch_unwind(AssertUnwindSafe(|| match job.deadline {
                    Some(deadline) => {
                        job.prepared
                            .execute_with_deadline(&job.snapshot, deadline, job.enqueued)
                    }
                    None => job.prepared.execute(&job.snapshot),
                }));
                drop(span);
                metrics
                    .histogram("xjoin.service.exec_us")
                    .record(start.elapsed().as_micros() as u64);
                let out = out.unwrap_or_else(|payload| {
                    metrics.counter("xjoin.service.panics").inc();
                    Err(StoreError::worker_lost(
                        job.label.clone(),
                        panic_text(payload.as_ref()),
                    ))
                });
                if matches!(&out, Err(StoreError::DeadlineExceeded { .. })) {
                    metrics.counter("xjoin.service.deadline_exceeded").inc();
                }
                let _ = job.reply.send(out);
            }
            Err(_) => break, // sender dropped: shutdown
        }
    }
    xjoin_obs::flush_thread();
}

impl Drop for QueryService {
    fn drop(&mut self) {
        // Close the job channel so workers drain the queue and exit. Recover
        // from poisoning — leaving the Sender alive would make the joins
        // below wait forever on workers blocked in recv().
        self.tx.lock().unwrap_or_else(|e| e.into_inner()).take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("workers", &self.workers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::VersionedStore;
    use relational::{Database, Schema, Value};
    use xjoin_core::{ExecOptions, MultiModelQuery};
    use xmldb::XmlDocument;

    fn store() -> VersionedStore {
        let mut db = Database::new();
        let rows: Vec<Vec<Value>> = (0..20)
            .map(|i| vec![Value::Int(i), Value::Int(i % 5)])
            .collect();
        db.load("R", Schema::of(&["id", "grp"]), rows).unwrap();
        let mut dict = db.dict().clone();
        let mut b = XmlDocument::builder();
        b.begin("root");
        for i in 0..5i64 {
            b.leaf("grp", i);
        }
        b.end();
        let doc = b.build(&mut dict);
        *db.dict_mut() = dict;
        VersionedStore::new(db, doc)
    }

    #[test]
    fn service_executes_jobs_and_matches_inline_execution() {
        let store = store();
        let snap = store.snapshot();
        let q = MultiModelQuery::new(&["R"], &["//root/grp"]).unwrap();
        let prepared = Arc::new(PreparedQuery::prepare(&snap, &q, ExecOptions::default()).unwrap());
        let expect = prepared.execute(&snap).unwrap();

        let service = QueryService::new(4);
        let results = service.run_all((0..16).map(|_| (Arc::clone(&prepared), snap.clone())));
        assert_eq!(results.len(), 16);
        for r in results {
            assert!(r.unwrap().results.set_eq(&expect.results));
        }
        let snap = xjoin_obs::global_metrics().snapshot();
        let jobs = snap
            .counters
            .iter()
            .find(|(name, _)| name == "xjoin.service.jobs")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert!(jobs >= 16, "job counter must cover this batch: {jobs}");
        let waits = snap
            .histograms
            .iter()
            .find(|h| h.name == "xjoin.service.queue_wait_us")
            .expect("queue-wait histogram recorded");
        assert!(waits.count >= 16);
    }

    #[test]
    fn tickets_resolve_out_of_order_submissions() {
        let store = store();
        let snap = store.snapshot();
        let q = MultiModelQuery::new(&["R"], &[]).unwrap();
        let prepared = Arc::new(PreparedQuery::prepare(&snap, &q, ExecOptions::default()).unwrap());
        let service = QueryService::new(2);
        let t1 = service.submit(Arc::clone(&prepared), snap.clone());
        let t2 = service.submit(Arc::clone(&prepared), snap.clone());
        // Wait in reverse submission order: each ticket carries its own
        // reply channel, so ordering cannot deadlock or cross wires.
        let r2 = t2.wait().unwrap();
        let r1 = t1.wait().unwrap();
        assert!(r1.results.set_eq(&r2.results));
    }

    #[test]
    fn dropping_the_service_joins_workers() {
        let service = QueryService::new(3);
        assert_eq!(service.workers(), 3);
        drop(service); // must not hang
    }

    #[test]
    fn zero_worker_request_still_gets_one() {
        let service = QueryService::new(0);
        assert_eq!(service.workers(), 1);
    }

    #[test]
    fn expired_deadline_fails_at_dequeue_without_executing() {
        use std::time::Duration;
        let store = store();
        let snap = store.snapshot();
        let q = MultiModelQuery::new(&["R"], &[]).unwrap();
        let prepared = Arc::new(PreparedQuery::prepare(&snap, &q, ExecOptions::default()).unwrap());
        let service = QueryService::new(1);
        let before = store.registry().stats().misses;
        // A deadline that is already `now` at submit is necessarily in the
        // past by the time a worker dequeues the job.
        let ticket =
            service.submit_with_deadline(Arc::clone(&prepared), snap.clone(), Some(Instant::now()));
        match ticket.wait().unwrap_err() {
            StoreError::DeadlineExceeded { label, .. } => assert_eq!(label, prepared.label()),
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        // The job was failed before executing: no trie build was paid.
        assert_eq!(store.registry().stats().misses, before);
        // A future deadline leaves execution untouched.
        let ticket = service.submit_with_deadline(
            Arc::clone(&prepared),
            snap.clone(),
            Some(Instant::now() + Duration::from_secs(60)),
        );
        assert!(ticket.wait().is_ok());
    }

    #[test]
    fn wait_timeout_reports_deadline_disconnect_and_success() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        // No reply within the timeout → DeadlineExceeded with the label.
        let (_tx, rx) = channel();
        let ticket = Ticket {
            rx,
            label: "Q(a)".into(),
        };
        match ticket.wait_timeout(Duration::from_millis(5)).unwrap_err() {
            StoreError::DeadlineExceeded { label, waited } => {
                assert_eq!(label, "Q(a)");
                assert_eq!(waited, Duration::from_millis(5));
            }
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        // Sender gone → WorkerLost, mirroring `Ticket::wait`.
        let (tx, rx) = channel::<Result<QueryOutput>>();
        let ticket = Ticket {
            rx,
            label: "Q(a)".into(),
        };
        drop(tx);
        assert!(matches!(
            ticket.wait_timeout(Duration::from_millis(5)).unwrap_err(),
            StoreError::WorkerLost { .. }
        ));
        // A reply that arrives in time comes back as-is.
        let store = store();
        let snap = store.snapshot();
        let q = MultiModelQuery::new(&["R"], &[]).unwrap();
        let prepared = Arc::new(PreparedQuery::prepare(&snap, &q, ExecOptions::default()).unwrap());
        let service = QueryService::new(1);
        let out = service
            .submit(prepared, snap)
            .wait_timeout(Duration::from_secs(60))
            .unwrap();
        assert_eq!(out.results.len(), 20);
    }

    #[test]
    fn shutdown_before_run_reports_the_lost_label() {
        let store = store();
        let snap = store.snapshot();
        let q = MultiModelQuery::new(&["R"], &[]).unwrap();
        let prepared = Arc::new(PreparedQuery::prepare(&snap, &q, ExecOptions::default()).unwrap());
        let service = QueryService::new(1);
        let label = prepared.label();
        // Submit after the channel is closed: take the sender directly so
        // the job can never reach a worker.
        service.tx.lock().unwrap().take();
        let ticket = service.submit(prepared, snap);
        let err = ticket.wait().unwrap_err();
        match err {
            StoreError::WorkerLost { label: lost, panic } => {
                assert_eq!(lost, label);
                assert!(panic.contains("shut down"), "{panic}");
            }
            other => panic!("expected WorkerLost, got {other}"),
        }
    }
}
