/**
 * @file
 * A fixed worker pool with a chunked parallel-for, built so that
 * parallel results are *bitwise identical* to serial ones:
 * parallelFor() splits an index range into chunks and hands chunks to
 * at most `threads` concurrent runners (the calling thread is one of
 * them). Which runner executes which chunk is scheduling-dependent, so
 * chunk bodies must only write to per-index or per-chunk slots.
 *
 * Exceptions thrown by a chunk body are captured and rethrown on the
 * calling thread after the whole batch has drained, leaving the pool
 * reusable. Nested parallel calls (a chunk body calling back into the
 * pool) run inline, so they can neither deadlock nor oversubscribe.
 */

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "support/thread_annotations.hh"

namespace viva::support
{

/** Threads worth using on this machine (hardware_concurrency, min 1). */
std::size_t defaultThreadCount();

/**
 * The worker pool. One process-wide instance (global()) is shared by the
 * layout and aggregation hot paths; helper threads are spawned lazily on
 * the first parallel call that wants them and joined at exit.
 */
class ThreadPool
{
  public:
    /**
     * @param workers helper threads to start immediately; the pool also
     *        grows on demand up to the largest `threads - 1` any call
     *        requests, so 0 (start none) is the normal choice.
     */
    explicit ThreadPool(std::size_t workers = 0);

    /** Joins every worker; pending helper tasks are drained first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Helper threads currently alive (the caller is never counted). */
    std::size_t workerCount() const;

    /** Join all workers and restart with exactly `workers` helpers. */
    void resize(std::size_t workers);

    /** A chunk body: invoked with one [begin, end) sub-range. */
    using ChunkFn = std::function<void(std::size_t, std::size_t)>;

    /**
     * Run `fn` over [begin, end) split into chunks of at most `grain`
     * indices, with at most `threads` concurrent runners (the calling
     * thread participates; `threads <= 1` runs everything inline).
     * Blocks until every chunk has run; rethrows the first exception a
     * chunk body threw. `threads == 0` means defaultThreadCount().
     */
    void parallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                     std::size_t threads, const ChunkFn &fn);

    /** The process-wide pool shared by layout and aggregation. */
    static ThreadPool &global();

  private:
    void workerMain();

    /** Spawn helpers until at least `want` exist (lock held). */
    void growLocked(std::size_t want) VIVA_REQUIRES(mu);

    mutable std::mutex mu;
    std::condition_variable wake;
    std::deque<std::function<void()>> tasks VIVA_GUARDED_BY(mu);
    std::vector<std::thread> workers VIVA_GUARDED_BY(mu);
    bool stopping VIVA_GUARDED_BY(mu) = false;

    /** Helper-thread hard cap; far above any sane `set threads`. */
    static constexpr std::size_t kMaxWorkers = 256;
};

} // namespace viva::support

