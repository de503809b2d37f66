//! The workspace's one worker-thread rule, and its chunking.
//!
//! Every parallel path in the workspace follows the same shape: split a set
//! of independent jobs into contiguous chunks, spawn one std scoped worker
//! per chunk, and join in order. Every worker count resolves through
//! [`effective_threads`]: the record sweep [`crate::sens::RecordSweep`]
//! (the PSS monodromy, the LPTV parameter responses and the transient
//! sensitivities), the scenario-campaign runner in `tranvar-core` and the
//! Monte Carlo driver [`crate::mc`]. A solve runs on its caller's thread
//! unless its caller asks for more: sessions default to one worker, and the
//! parallel traffic is many independent solves (campaign workers, the
//! daemon's session pool, Monte Carlo samples).
//!
//! Determinism contract: job construction and result placement are
//! position-based, so as long as each job's arithmetic is independent of the
//! partitioning (true for all callers — each chunk owns disjoint data), the
//! combined result is bit-identical for any thread count. A single job runs
//! inline on the calling thread with no scope at all.

/// Resolves a worker-thread count, the one rule of every parallel path
/// (record sweeps at their session's [`crate::SessionOptions::threads`],
/// scenario campaigns and Monte Carlo): `0` means all available cores, and
/// the count never exceeds `n_jobs` independent work items (so no worker
/// is ever spawned idle).
pub fn effective_threads(requested: usize, n_jobs: usize) -> usize {
    let t = if requested == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        requested
    };
    t.clamp(1, n_jobs.max(1))
}

/// Splits `0..n_items` into contiguous `(start, len)` chunks of at most
/// `chunk` items (the last chunk may be shorter). Returns no chunks for
/// zero items.
///
/// # Panics
///
/// Panics if `chunk == 0` with nonzero `n_items`.
pub fn chunk_ranges(n_items: usize, chunk: usize) -> Vec<(usize, usize)> {
    assert!(
        chunk > 0 || n_items == 0,
        "chunk_ranges needs a nonzero chunk size for {n_items} items"
    );
    let mut out = Vec::new();
    let mut start = 0;
    while start < n_items {
        let len = chunk.min(n_items - start);
        out.push((start, len));
        start += len;
    }
    out
}

/// Runs `f` over every job on std scoped worker threads — one worker per
/// job — and returns the outputs in job order.
///
/// A single job is run inline on the calling thread (no scope, no spawn),
/// which keeps the `threads == 1` paths of the batched analyses free of any
/// threading overhead and makes the single- and multi-thread code paths one
/// implementation.
///
/// # Panics
///
/// Re-raises a worker's panic with the worker's own payload, so a caller
/// that catches it (a campaign's per-key `catch_unwind`) sees the original
/// message.
pub fn map_scoped<J, T, F>(jobs: Vec<J>, f: F) -> Vec<T>
where
    J: Send,
    T: Send,
    F: Fn(J) -> T + Sync,
{
    if jobs.len() <= 1 {
        return jobs.into_iter().map(f).collect();
    }
    // Under the `fault-inject` feature the caller's thread-local fault plan
    // follows the jobs onto the workers, so injected failures fire
    // regardless of which worker a scenario lands on.
    #[cfg(feature = "fault-inject")]
    let fault_plan = crate::fault::current();
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|job| {
                let f = &f;
                #[cfg(feature = "fault-inject")]
                let fault_plan = fault_plan.clone();
                scope.spawn(move || {
                    #[cfg(feature = "fault-inject")]
                    let _fault = crate::fault::adopt(fault_plan);
                    f(job)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        assert_eq!(chunk_ranges(0, 4), vec![]);
        assert_eq!(chunk_ranges(3, 4), vec![(0, 3)]);
        assert_eq!(chunk_ranges(8, 3), vec![(0, 3), (3, 3), (6, 2)]);
        for (n, c) in [(1usize, 1usize), (7, 2), (16, 4), (5, 5)] {
            let ranges = chunk_ranges(n, c);
            let total: usize = ranges.iter().map(|&(_, l)| l).sum();
            assert_eq!(total, n);
            let mut expect = 0;
            for &(s, l) in &ranges {
                assert_eq!(s, expect);
                assert!(l >= 1 && l <= c);
                expect += l;
            }
        }
    }

    #[test]
    #[should_panic(expected = "nonzero chunk size")]
    fn chunk_ranges_rejects_zero_chunk() {
        let _ = chunk_ranges(5, 0);
    }

    #[test]
    fn map_scoped_preserves_order_and_runs_inline_for_one_job() {
        let out = map_scoped(vec![3usize], |x| x * 2);
        assert_eq!(out, vec![6]);
        let jobs: Vec<usize> = (0..13).collect();
        let out = map_scoped(jobs, |x| x * x);
        assert_eq!(out, (0..13).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn map_scoped_reraises_the_worker_panic_payload() {
        let caught = std::panic::catch_unwind(|| {
            map_scoped(vec![0usize, 1], |i| {
                if i == 1 {
                    panic!("job {i} failed on purpose");
                }
                i
            })
        });
        let payload = caught.expect_err("the panicking job must propagate");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("job 1 failed on purpose")
        );
    }

    #[test]
    fn map_scoped_supports_mutable_chunks() {
        let mut data = [0u64; 10];
        let chunks: Vec<&mut [u64]> = data.chunks_mut(3).collect();
        let jobs: Vec<(usize, &mut [u64])> = chunks.into_iter().enumerate().collect();
        map_scoped(jobs, |(ci, chunk)| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (ci * 100 + i) as u64;
            }
        });
        assert_eq!(data[0], 0);
        assert_eq!(data[4], 101);
        assert_eq!(data[9], 300);
    }
}
