//! A bounded worker pool for diagnosis jobs.
//!
//! The same shape as the experiment runner's trial pool — plain threads,
//! a mutex-guarded queue, no async runtime — but sized for a daemon:
//! the queue has a hard capacity and [`WorkerPool::submit`] refuses work
//! beyond it, so overload surfaces as an immediate error response
//! (backpressure) instead of unbounded memory growth. Queue depth is
//! tracked as the `serve.queue_depth` *gauge* — raised on submit,
//! lowered when a worker dequeues — so stats report the level right now
//! plus its high-water mark, not a monotone aggregate.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use netdiag_obs::{names, RecorderHandle};

/// One unit of pool work.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// The queue was at capacity; the caller should report overload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolFull;

impl std::fmt::Display for PoolFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("server overloaded: diagnosis queue full")
    }
}

impl std::error::Error for PoolFull {}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    work_ready: Condvar,
    capacity: usize,
    recorder: RecorderHandle,
}

/// Fixed worker threads draining a bounded job queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Starts `workers` threads with room for `capacity` queued jobs.
    pub fn new(workers: usize, capacity: usize, recorder: RecorderHandle) -> WorkerPool {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            work_ready: Condvar::new(),
            capacity: capacity.max(1),
            recorder,
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Enqueues a job, or reports [`PoolFull`] at capacity. Jobs carry
    /// their own reply channel; the pool never returns results.
    // hot
    pub fn submit(&self, job: Job) -> Result<(), PoolFull> {
        {
            let mut state = self
                .shared
                .state
                .lock()
                .expect("pool queue mutex poisoned: a worker panicked");
            if state.closed || state.jobs.len() >= self.shared.capacity {
                return Err(PoolFull);
            }
            state.jobs.push_back(job);
        }
        self.shared.recorder.gauge_add(names::SERVE_QUEUE_DEPTH, 1);
        self.shared.work_ready.notify_one();
        Ok(())
    }

    /// Drains queued jobs, then stops and joins every worker.
    /// Idempotent; later [`submit`](Self::submit) calls see [`PoolFull`].
    pub fn shutdown(&self) {
        {
            let mut state = self
                .shared
                .state
                .lock()
                .expect("pool queue mutex poisoned: a worker panicked");
            state.closed = true;
        }
        self.shared.work_ready.notify_all();
        let handles: Vec<JoinHandle<()>> = {
            let mut workers = self
                .workers
                .lock()
                .expect("pool worker list mutex poisoned");
            workers.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

// hot
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared
                .state
                .lock()
                .expect("pool queue mutex poisoned: a worker panicked");
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.closed {
                    return;
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .expect("pool queue mutex poisoned: a worker panicked");
            }
        };
        shared.recorder.gauge_sub(names::SERVE_QUEUE_DEPTH, 1);
        job();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn runs_jobs_and_joins_cleanly() {
        let ran = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::new(4, 64, RecorderHandle::noop());
        for _ in 0..32 {
            let ran = Arc::clone(&ran);
            pool.submit(Box::new(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            }))
            .expect("queue has room");
        }
        pool.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn refuses_work_past_capacity() {
        // One worker, blocked on the first job; capacity 2 fills up.
        let pool = WorkerPool::new(1, 2, RecorderHandle::noop());
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.submit(Box::new(move || {
            let _ = started_tx.send(());
            let _ = block_rx.recv();
        }))
        .expect("first job fits");
        started_rx.recv().expect("worker picked up the blocker");
        pool.submit(Box::new(|| {})).expect("queue slot 1");
        pool.submit(Box::new(|| {})).expect("queue slot 2");
        assert_eq!(pool.submit(Box::new(|| {})), Err(PoolFull));
        block_tx.send(()).expect("unblock the worker");
        pool.shutdown();
    }

    #[test]
    fn tracks_queue_depth_as_a_gauge() {
        let (recorder, sink) = RecorderHandle::live();
        // One worker blocked on the first job, so two more stack up and
        // the gauge's high-water mark reflects real queue occupancy.
        let pool = WorkerPool::new(1, 8, recorder);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.submit(Box::new(move || {
            let _ = started_tx.send(());
            let _ = block_rx.recv();
        }))
        .expect("first job fits");
        started_rx.recv().expect("worker picked up the blocker");
        pool.submit(Box::new(|| {})).expect("queue slot 1");
        pool.submit(Box::new(|| {})).expect("queue slot 2");
        block_tx.send(()).expect("unblock the worker");
        pool.shutdown();
        let report = sink.snapshot();
        let gauge = report
            .gauge(names::SERVE_QUEUE_DEPTH)
            .expect("queue depth gauge recorded");
        // All jobs drained: back to level zero, peak of the two queued
        // jobs (the blocker was dequeued before they were submitted).
        assert_eq!(gauge.current, 0);
        assert!(gauge.high_water >= 2, "high water {}", gauge.high_water);
        assert!(report.histogram(names::SERVE_QUEUE_DEPTH).is_none());
    }
}
