/**
 * @file
 * Implementation of the worker pool.
 */

#include "support/threadpool.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "support/thread_annotations.hh"

namespace viva::support
{

namespace
{

/**
 * Depth of pool-driven frames on this thread. Any parallel call made
 * from inside a chunk body runs inline: nesting can neither deadlock on
 * the task queue nor multiply the runner count.
 */
thread_local int t_poolDepth = 0;

/** Shared state of one parallelFor batch. */
struct Batch
{
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t grain = 1;
    std::size_t nchunks = 0;
    const ThreadPool::ChunkFn *fn = nullptr;

    /** Next unclaimed chunk; runners race on this, results don't. */
    std::atomic<std::size_t> next{0};

    std::mutex m;
    std::condition_variable done;
    /** Runners (helpers + caller) still active. */
    std::size_t runners VIVA_GUARDED_BY(m) = 0;
    std::exception_ptr error VIVA_GUARDED_BY(m);
};

/** Claim and run chunks until the batch is exhausted. */
void
runBatch(Batch &batch)
{
    ++t_poolDepth;
    for (;;) {
        std::size_t c = batch.next.fetch_add(1, std::memory_order_relaxed);
        if (c >= batch.nchunks)
            break;
        std::size_t lo = batch.begin + c * batch.grain;
        std::size_t hi = std::min(batch.end, lo + batch.grain);
        try {
            (*batch.fn)(lo, hi);
        } catch (...) {
            std::lock_guard<std::mutex> lk(batch.m);
            if (!batch.error)
                batch.error = std::current_exception();
            // Poison the cursor so other runners stop claiming work.
            batch.next.store(batch.nchunks, std::memory_order_relaxed);
        }
    }
    --t_poolDepth;
    std::lock_guard<std::mutex> lk(batch.m);
    if (--batch.runners == 0)
        batch.done.notify_all();
}

} // namespace

std::size_t
defaultThreadCount()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? std::size_t(n) : 1;
}

ThreadPool::ThreadPool(std::size_t want)
{
    if (want > 0) {
        std::lock_guard<std::mutex> lk(mu);
        growLocked(want);
    }
}

ThreadPool::~ThreadPool()
{
    resize(0);
}

std::size_t
ThreadPool::workerCount() const
{
    std::lock_guard<std::mutex> lk(mu);
    return workers.size();
}

void
ThreadPool::resize(std::size_t want)
{
    std::vector<std::thread> old;
    {
        std::lock_guard<std::mutex> lk(mu);
        stopping = true;
        old.swap(workers);
    }
    wake.notify_all();
    for (std::thread &t : old)
        t.join();
    std::lock_guard<std::mutex> lk(mu);
    stopping = false;
    growLocked(want);
}

void
ThreadPool::growLocked(std::size_t want)
{
    want = std::min(want, kMaxWorkers);
    while (workers.size() < want)
        workers.emplace_back([this] { workerMain(); });
}

void
ThreadPool::workerMain()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lk(mu);
            wake.wait(lk, [this] { return stopping || !tasks.empty(); });
            // Drain remaining helper tasks even when stopping: each one
            // must run to release its batch's runner count.
            if (tasks.empty())
                return;
            task = std::move(tasks.front());
            tasks.pop_front();
        }
        task();
    }
}

void
ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                        std::size_t grain, std::size_t threads,
                        const ChunkFn &fn)
{
    if (end <= begin)
        return;
    grain = std::max<std::size_t>(grain, 1);
    const std::size_t nchunks = (end - begin + grain - 1) / grain;
    if (threads == 0)
        threads = defaultThreadCount();

    // Serial requests, single chunks and nested calls run inline --
    // identical results either way, by construction.
    if (threads <= 1 || nchunks <= 1 || t_poolDepth > 0) {
        ++t_poolDepth;
        std::exception_ptr error;
        for (std::size_t c = 0; c < nchunks; ++c) {
            std::size_t lo = begin + c * grain;
            std::size_t hi = std::min(end, lo + grain);
            try {
                fn(lo, hi);
            } catch (...) {
                if (!error)
                    error = std::current_exception();
                break;
            }
        }
        --t_poolDepth;
        if (error)
            std::rethrow_exception(error);
        return;
    }

    auto batch = std::make_shared<Batch>();
    batch->begin = begin;
    batch->end = end;
    batch->grain = grain;
    batch->nchunks = nchunks;
    batch->fn = &fn;

    const std::size_t helpers =
        std::min({threads - 1, nchunks - 1, kMaxWorkers});
    {
        std::lock_guard<std::mutex> lk(mu);
        growLocked(helpers);
        batch->runners = helpers + 1;
        for (std::size_t i = 0; i < helpers; ++i)
            tasks.emplace_back([batch] { runBatch(*batch); });
    }
    wake.notify_all();

    runBatch(*batch);  // the caller is a runner too

    std::unique_lock<std::mutex> lk(batch->m);
    batch->done.wait(lk, [&] { return batch->runners == 0; });
    if (batch->error)
        std::rethrow_exception(batch->error);
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

} // namespace viva::support
